// k-hop neighborhoods and the k-localized Delaunay graphs LDel⁽ᵏ⁾.
#include "proximity/ldel_k.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <stdexcept>

#include "graph/khop.h"
#include "graph/metrics.h"
#include "graph/planarity.h"
#include "graph/shortest_paths.h"
#include "proximity/classic.h"
#include "proximity/udg.h"
#include "ldel_reference.h"
#include "test_util.h"

namespace geospanner::proximity {
namespace {

using graph::GeometricGraph;
using graph::NodeId;

TEST(KHop, PathNeighborhoods) {
    GeometricGraph g({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}});
    for (NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
    EXPECT_EQ(graph::k_hop_neighborhood(g, 2, 0), (std::vector<NodeId>{2}));
    EXPECT_EQ(graph::k_hop_neighborhood(g, 2, 1), (std::vector<NodeId>{1, 2, 3}));
    EXPECT_EQ(graph::k_hop_neighborhood(g, 2, 2), (std::vector<NodeId>{0, 1, 2, 3, 4}));
    EXPECT_EQ(graph::k_hop_neighborhood(g, 0, 3), (std::vector<NodeId>{0, 1, 2, 3}));
    EXPECT_EQ(graph::k_hop_neighborhood(g, 0, 100).size(), 5u);
}

TEST(KHop, MatchesBfsDepth) {
    const auto udg = test::connected_udg(60, 200.0, 50.0, 17);
    ASSERT_GT(udg.node_count(), 0u);
    for (const NodeId v : {NodeId{0}, NodeId{10}, NodeId{31}}) {
        const auto hops = graph::bfs_hops(udg, v);
        for (const int k : {1, 2, 3}) {
            const auto nbh = graph::k_hop_neighborhood(udg, v, k);
            for (NodeId u = 0; u < udg.node_count(); ++u) {
                const bool in = std::binary_search(nbh.begin(), nbh.end(), u);
                EXPECT_EQ(in, hops[u] >= 0 && hops[u] <= k) << "v=" << v << " u=" << u;
            }
        }
    }
}

class LdelKSweep : public ::testing::TestWithParam<test::SweepParam> {
  protected:
    GeometricGraph udg_;
    void SetUp() override {
        const auto p = GetParam();
        udg_ = test::connected_udg(p.n, 200.0, p.radius, p.seed);
        ASSERT_GT(udg_.node_count(), 0u);
    }
};

TEST_P(LdelKSweep, KOneMatchesLdel1) {
    EXPECT_EQ(ldel_k_triangles(udg_, 1), ldel1_triangles(udg_));
    EXPECT_EQ(build_ldel_k(udg_, 1), build_ldel1(udg_));
}

TEST_P(LdelKSweep, TrianglesShrinkWithK) {
    const auto t1 = ldel_k_triangles(udg_, 1);
    const auto t2 = ldel_k_triangles(udg_, 2);
    const auto t3 = ldel_k_triangles(udg_, 3);
    EXPECT_LE(t2.size(), t1.size());
    EXPECT_LE(t3.size(), t2.size());
    for (const auto& t : t2) {
        EXPECT_TRUE(std::binary_search(t1.begin(), t1.end(), t));
    }
    for (const auto& t : t3) {
        EXPECT_TRUE(std::binary_search(t2.begin(), t2.end(), t));
    }
}

TEST_P(LdelKSweep, LdelTwoIsPlanarWithoutAlgorithmThree) {
    // The k >= 2 theorem of Li et al.: no planarization step needed.
    EXPECT_TRUE(graph::is_plane_embedding(build_ldel_k(udg_, 2)));
}

TEST_P(LdelKSweep, ContainsUdelTriangleEdgesAndSpans) {
    // Global Delaunay triangles with unit edges have globally empty
    // circumcircles, hence survive any k. The graph stays connected and
    // spanning.
    const auto ldel2 = build_ldel_k(udg_, 2);
    EXPECT_TRUE(graph::is_connected(ldel2));
    const auto stretch = graph::length_stretch(udg_, ldel2);
    EXPECT_EQ(stretch.disconnected_pairs, 0u);
    EXPECT_LT(stretch.max, 3.0);
    const auto udel = build_udel(udg_);
    for (const auto& [u, v] : udel.edges()) {
        EXPECT_TRUE(ldel2.has_edge(u, v)) << "UDel edge (" << u << "," << v << ")";
    }
}

TEST_P(LdelKSweep, PldelSitsBetweenLdel2AndLdel1) {
    // PLDel keeps a superset of LDel² triangles: Algorithm 3 only
    // removes triangles contradicted within 1 extra hop of knowledge,
    // while k = 2 removes all of those and possibly more.
    const auto pldel_tris = planarize_triangles(udg_, ldel1_triangles(udg_));
    const auto t2 = ldel_k_triangles(udg_, 2);
    for (const auto& t : t2) {
        EXPECT_TRUE(std::binary_search(pldel_tris.begin(), pldel_tris.end(), t))
            << "LDel² triangle removed by Algorithm 3";
    }
}

/// ldel_k_triangles at k = 2 and 3 against the O(d^3) perturbed
/// definition over each corner's k-hop view. The distributed LDel⁽²⁾
/// walks the same kernel, so this is the check on the kernel itself.
void expect_matches_perturbed_definition(const GeometricGraph& udg) {
    for (const int k : {2, 3}) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        EXPECT_EQ(ldel_k_triangles(udg, k), test::ldel_k_reference(udg, k));
    }
}

TEST_P(LdelKSweep, MatchesPerturbedDefinition) { expect_matches_perturbed_definition(udg_); }

INSTANTIATE_TEST_SUITE_P(Sweep, LdelKSweep, ::testing::ValuesIn(test::standard_sweep()));

TEST(LdelK, MatchesPerturbedDefinitionOnTies) {
    for (const auto& world : test::tie_worlds()) {
        SCOPED_TRACE(world.name);
        expect_matches_perturbed_definition(build_udg(world.points, world.radius));
    }
}

TEST(LdelK, RejectsKBelowOne) {
    // A 0-hop view is the corner alone, which would filter nothing and
    // pass the LDel⁽¹⁾ set off as LDel⁽⁰⁾.
    const GeometricGraph udg = build_udg({{0, 0}, {1, 0}, {0.5, 0.8}}, 1.1);
    EXPECT_THROW((void)ldel_k_triangles(udg, 0), std::invalid_argument);
    EXPECT_THROW((void)ldel_k_triangles(udg, -1), std::invalid_argument);
    EXPECT_THROW((void)build_ldel_k(udg, 0), std::invalid_argument);
    EXPECT_EQ(ldel_k_triangles(udg, 1).size(), 1u);
}

}  // namespace
}  // namespace geospanner::proximity
