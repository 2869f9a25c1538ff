// Localized Delaunay graph LDel⁽¹⁾ and its planarization PLDel
// (centralized reference implementations).
#include "proximity/ldel.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <gtest/gtest.h>

#include "core/workload.h"
#include "engine/engine.h"
#include "graph/metrics.h"
#include "graph/planarity.h"
#include "graph/shortest_paths.h"
#include "proximity/classic.h"
#include "proximity/udg.h"
#include "random/rng.h"
#include "ldel_reference.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::proximity {
namespace {

using graph::GeometricGraph;
using graph::NodeId;

TEST(TriangleKey, Canonicalization) {
    EXPECT_EQ(make_triangle_key(3, 1, 2), (TriangleKey{1, 2, 3}));
    EXPECT_EQ(make_triangle_key(1, 2, 3), make_triangle_key(2, 3, 1));
    EXPECT_LT(make_triangle_key(1, 2, 3), make_triangle_key(1, 2, 4));
}

class LdelSweep : public ::testing::TestWithParam<test::SweepParam> {
  protected:
    GeometricGraph udg_;
    void SetUp() override {
        const auto p = GetParam();
        udg_ = test::connected_udg(p.n, 200.0, p.radius, p.seed);
        ASSERT_GT(udg_.node_count(), 0u);
    }
};

TEST_P(LdelSweep, FastMatchesDefinitionalReference) {
    // The per-node local-Delaunay formulation must equal the circumcircle
    // definition exactly (general-position inputs).
    EXPECT_EQ(ldel1_triangles(udg_), ldel1_triangles_reference(udg_));
}

TEST_P(LdelSweep, ContainsGabrielAndUdel) {
    const auto ldel = build_ldel1(udg_);
    for (const auto& [u, v] : build_gabriel(udg_).edges()) {
        ASSERT_TRUE(ldel.has_edge(u, v)) << "Gabriel edge missing";
    }
    // UDel ⊆ LDel1: a Delaunay triangle with unit edges has a globally
    // empty circumcircle, hence an empty one over the 1-hop unions.
    // (Delaunay *edges* of UDel that are in no unit triangle are Gabriel
    // or hull edges; we check triangle edges only via the containment of
    // the full UDel edge set, which holds on general-position inputs.)
    const auto udel = build_udel(udg_);
    std::size_t missing = 0;
    for (const auto& [u, v] : udel.edges()) {
        if (!ldel.has_edge(u, v)) ++missing;
    }
    EXPECT_EQ(missing, 0u);
}

TEST_P(LdelSweep, PlanarizedIsPlanar) {
    // The shared certificate names the crossing edge pair on failure.
    const auto report = verify::check_planarity_certificate(build_pldel(udg_));
    EXPECT_TRUE(report.pass) << report.summary();
}

TEST_P(LdelSweep, PlanarizedStaysConnectedAndSpans) {
    const auto pldel = build_pldel(udg_);
    EXPECT_TRUE(graph::is_connected(pldel));
    const auto stretch = graph::length_stretch(udg_, pldel);
    EXPECT_EQ(stretch.disconnected_pairs, 0u);
    // Li et al. prove a ~2.5 worst-case factor for LDel; random instances
    // stay comfortably below 3.
    EXPECT_LT(stretch.max, 3.0);
}

TEST_P(LdelSweep, PlanarizationOnlyRemovesTriangles) {
    const auto all = ldel1_triangles(udg_);
    const auto kept = planarize_triangles(udg_, all);
    EXPECT_LE(kept.size(), all.size());
    for (const auto& t : kept) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), t));
    }
    // Surviving triangles are pairwise non-intersecting.
    for (std::size_t i = 0; i < kept.size(); ++i) {
        for (std::size_t j = i + 1; j < kept.size(); ++j) {
            ASSERT_FALSE(triangles_intersect(udg_, kept[i], kept[j]));
        }
    }
}

TEST_P(LdelSweep, ThicknessTwoEdgeBound) {
    // LDel1 has thickness 2, hence at most 6n - 12 edges (and in
    // practice far fewer).
    const auto ldel = build_ldel1(udg_);
    EXPECT_LE(ldel.edge_count(), 6 * ldel.node_count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LdelSweep, ::testing::ValuesIn(test::standard_sweep()));

TEST(Ldel, TriangleHelpers) {
    // Two triangles sharing an edge do not "intersect".
    GeometricGraph g({{0, 0}, {1, 0}, {0.5, 1}, {0.5, -1}, {3, 0}, {4, 0}, {3.5, 1}});
    const TriangleKey t1 = make_triangle_key(0, 1, 2);
    const TriangleKey t2 = make_triangle_key(0, 1, 3);
    EXPECT_FALSE(triangles_intersect(g, t1, t2));
    // Disjoint far-away triangles do not intersect.
    const TriangleKey t3 = make_triangle_key(4, 5, 6);
    EXPECT_FALSE(triangles_intersect(g, t1, t3));
}

TEST(Ldel, TriangleIntersectionCases) {
    GeometricGraph g({{0, 0},     // 0
                      {4, 0},     // 1
                      {2, 3},     // 2: big triangle 0-1-2
                      {2, 1},     // 3: strictly inside 0-1-2
                      {2, 0.5},   // 4: also inside
                      {2.2, 1.2}, // 5
                      {6, 0},     // 6
                      {5, 2},     // 7
                      {7, 2}});   // 8
    const TriangleKey big = make_triangle_key(0, 1, 2);
    const TriangleKey inner = make_triangle_key(3, 4, 5);
    EXPECT_TRUE(triangles_intersect(g, big, inner));  // Containment case.
    EXPECT_TRUE(triangles_intersect(g, inner, big));
    const TriangleKey right = make_triangle_key(6, 7, 8);
    EXPECT_FALSE(triangles_intersect(g, big, right));
}

TEST(Ldel, LocalTrianglesRequireUnitEdges) {
    // Three nodes pairwise within range of a hub but the far pair beyond
    // range: the triangle (hub, a, b) with |ab| > radius is not local.
    const GeometricGraph udg = build_udg({{0, 0}, {0.9, 0.3}, {-0.9, 0.3}}, 1.0);
    EXPECT_TRUE(udg.has_edge(0, 1));
    EXPECT_TRUE(udg.has_edge(0, 2));
    EXPECT_FALSE(udg.has_edge(1, 2));
    EXPECT_TRUE(local_triangles_at(udg, 0).empty());
    EXPECT_TRUE(ldel1_triangles(udg).empty());
}

TEST(Ldel, SingleTriangleNetwork) {
    const GeometricGraph udg = build_udg({{0, 0}, {1, 0}, {0.5, 0.8}}, 1.1);
    const auto tris = ldel1_triangles(udg);
    ASSERT_EQ(tris.size(), 1u);
    EXPECT_EQ(tris[0], make_triangle_key(0, 1, 2));
    const auto kept = planarize_triangles(udg, tris);
    EXPECT_EQ(kept, tris);
}

TEST(Ldel, PlanarizeHandlesCoordinatesFarBeyondTriangleExtents) {
    // A crossing cocircular pair (the unit square's two diagonal
    // triangles) next to a flat triangle 1e300 away: the bucket grid's
    // cell side is floored so the far coordinates still get in-range
    // cell indices, and the tie-break removes the larger key as usual.
    const GeometricGraph g({{0, 0}, {1, 0}, {1, 1}, {0, 1},
                            {1e300, 0}, {1e300, 1}, {1e300, 2}});
    const TriangleKey kept_diagonal = make_triangle_key(0, 1, 2);
    const TriangleKey far = make_triangle_key(4, 5, 6);
    const auto kept =
        planarize_triangles(g, {kept_diagonal, make_triangle_key(0, 1, 3), far});
    EXPECT_EQ(kept, (std::vector<TriangleKey>{kept_diagonal, far}));
}

// ---- Algorithm 3's kernel against its references --------------------

/// Two copies of the m×m integer lattice: node v and node v + m² share
/// a point, so triangle keys reach coincident corners as well as
/// collinear and shared vertices.
GeometricGraph doubled_lattice(std::size_t m) {
    std::vector<geom::Point> pts;
    for (int copy = 0; copy < 2; ++copy) {
        for (std::size_t i = 0; i < m * m; ++i) {
            pts.push_back({static_cast<double>(i / m), static_cast<double>(i % m)});
        }
    }
    return GeometricGraph(pts);
}

/// The key of three distinct ids, or nothing.
std::optional<TriangleKey> distinct_key(NodeId x, NodeId y, NodeId z) {
    if (x == y || y == z || x == z) return std::nullopt;
    return make_triangle_key(x, y, z);
}

TEST(Alg3Kernel, SeparatingLineMatchesExhaustiveTest) {
    // Corners on the 5×5 lattice: shared vertices, coincident triangles
    // (same key, or the copy's key), collinear and zero-area triangles
    // all occur. The separating-line exit must never change an answer.
    const GeometricGraph g = doubled_lattice(5);
    const auto n = static_cast<NodeId>(g.node_count());
    rnd::Xoshiro256 rng(2002);
    const auto id = [&] { return static_cast<NodeId>(rng.below(n)); };
    const auto random_key = [&] {
        for (;;) {
            if (const auto k = distinct_key(id(), id(), id())) return *k;
        }
    };
    std::size_t intersecting = 0;
    std::size_t zero_area = 0;
    for (std::size_t pair = 0; pair < 1'000'000; ++pair) {
        const TriangleKey s = random_key();
        std::optional<TriangleKey> t;
        const auto copy = [&](NodeId v) { return (v + n / 2) % n; };
        switch (rng.below(8)) {
            case 0: t = s; break;
            case 1: t = make_triangle_key(copy(s.a), copy(s.b), copy(s.c)); break;
            case 2: t = distinct_key(s.a, id(), id()); break;
            case 3: t = distinct_key(s.b, s.c, id()); break;
            default: break;
        }
        if (!t) t = random_key();
        const bool fast = triangles_intersect(g, s, *t);
        ASSERT_EQ(fast, test::intersect_reference(g, s, *t))
            << "pair " << pair << ": " << ::testing::PrintToString(s) << " vs "
            << ::testing::PrintToString(*t);
        intersecting += fast ? 1 : 0;
        if (geom::orient_sign(g.point(s.a), g.point(s.b), g.point(s.c)) == 0) ++zero_area;
    }
    EXPECT_GT(intersecting, 100'000u);
    EXPECT_LT(intersecting, 900'000u);
    EXPECT_GT(zero_area, 10'000u);
}

TEST(Alg3Kernel, PlanarizeMatchesAllPairsReference) {
    // Soups of ~200 small-integer triangles on a 30×30 lattice: crossings
    // and containments both occur — unlike real LDel⁽¹⁾ sets, where
    // Algorithm 3 almost never finds an intersecting pair — yet about
    // half the triangles survive, so one missed containment changes the
    // result. Every path must keep exactly the all-pairs reference's
    // survivors.
    const std::size_t m = 30;
    const GeometricGraph g = doubled_lattice(m);
    std::size_t containments = 0;
    std::size_t removed = 0;
    std::size_t total = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        rnd::Xoshiro256 rng(seed);
        // Corners within 3 of a random anchor, from either copy.
        const auto near = [&](std::size_t x0, std::size_t y0) {
            const std::size_t x = std::min(m - 1, x0 + rng.below(4));
            const std::size_t y = std::min(m - 1, y0 + rng.below(4));
            return static_cast<NodeId>(rng.below(2) * m * m + x * m + y);
        };
        std::vector<TriangleKey> soup;
        while (soup.size() < 200) {
            const std::size_t x0 = rng.below(m);
            const std::size_t y0 = rng.below(m);
            if (const auto k = distinct_key(near(x0, y0), near(x0, y0), near(x0, y0))) {
                soup.push_back(*k);
            }
        }
        std::ranges::sort(soup);
        soup.erase(std::unique(soup.begin(), soup.end()), soup.end());
        const auto expected = test::planarize_reference(g, soup);
        total += soup.size();
        removed += soup.size() - expected.size();
        for (std::size_t i = 0; i < soup.size(); ++i) {
            for (std::size_t j = i + 1; j < soup.size(); ++j) {
                // Intersecting with no crossing edges: a containment.
                if (test::intersect_reference(g, soup[i], soup[j]) &&
                    !test::edges_cross_reference(g, soup[i], soup[j])) {
                    ++containments;
                }
            }
        }

        EXPECT_EQ(planarize_triangles(g, soup), expected);
        const Alg3Filter filter(g, soup);
        const std::size_t cells = filter.cell_count();
        for (const std::size_t blocks : {std::size_t{1}, std::size_t{2}, std::size_t{7}, cells}) {
            std::vector<std::vector<std::uint32_t>> lists(blocks);
            for (std::size_t b = 0; b < blocks; ++b) {
                filter.removal_scan(b * cells / blocks, (b + 1) * cells / blocks, lists[b]);
            }
            EXPECT_EQ(filter.survivors(lists), expected) << blocks << " blocks";
        }
        std::vector<TriangleKey> kept;
        for (const TriangleKey t : soup) {
            const bool gone = std::ranges::any_of(
                soup, [&](TriangleKey r) { return r != t && alg3_removed_by(g, t, r); });
            if (!gone) kept.push_back(t);
        }
        EXPECT_EQ(kept, expected) << "alg3_removed_by";
    }
    // The removal branch really ran, and did not remove everything.
    EXPECT_GT(containments, 0u);
    EXPECT_GT(removed, 0u);
    EXPECT_LT(removed, total);
}

// ---- The star walk against its references --------------------------

/// Asserts that every node's local_triangles_at list equals
/// `reference(udg, u)`.
template <typename Reference>
void expect_stars_match(const GeometricGraph& udg, Reference&& reference) {
    LocalDelaunayScratch scratch;
    std::vector<TriangleKey> star;
    for (NodeId u = 0; u < udg.node_count(); ++u) {
        local_triangles_at(udg, u, scratch, star);
        ASSERT_EQ(star, reference(udg, u)) << "node " << u;
    }
}

core::WorkloadConfig star_config(std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = 150;
    config.side = 200.0;
    config.radius = 55.0;
    config.seed = seed;
    return config;
}

TEST(LocalStar, MatchesBowyerWatsonWithoutCocircularPoints) {
    // No four points cocircular: the Delaunay triangulation of every
    // neighborhood is unique, so the walk and the whole triangulation
    // list the same triangles at every node, collinear rows included.
    for (const test::FuzzMode mode : {test::FuzzMode::kUniform, test::FuzzMode::kClustered,
                                      test::FuzzMode::kCollinear}) {
        for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
            SCOPED_TRACE(::testing::Message() << test::fuzz_mode_name(mode) << " seed " << seed);
            const auto config = star_config(seed);
            expect_stars_match(build_udg(test::fuzz_points(mode, config), config.radius),
                               test::bw_local_triangles_at);
        }
    }
}

TEST(LocalStar, MatchesBowyerWatsonOnDuplicateAndNearDuplicatePoints) {
    // Every fourth point repeated verbatim, or nudged by 1e-9.
    for (const double nudge : {0.0, 1e-9}) {
        SCOPED_TRACE(::testing::Message() << "nudge " << nudge);
        auto pts = test::random_points(60, 150.0, 53);
        const std::size_t base = pts.size();
        for (std::size_t i = 0; i < base; i += 4) pts.push_back({pts[i].x + nudge, pts[i].y});
        expect_stars_match(build_udg(pts, 50.0), test::bw_local_triangles_at);
    }
}

TEST(LocalStar, MatchesPerturbedDefinitionOnGridAndCocircularPoints) {
    // Cocircular quadruples everywhere: the star is the one of the
    // perturbation keyed by node id, checked against its O(d^3)
    // definition.
    for (const test::FuzzMode mode : {test::FuzzMode::kGrid, test::FuzzMode::kCocircular}) {
        for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
            SCOPED_TRACE(::testing::Message() << test::fuzz_mode_name(mode) << " seed " << seed);
            const auto config = star_config(seed);
            expect_stars_match(build_udg(test::fuzz_points(mode, config), config.radius),
                               test::perturbed_star_at);
        }
    }
    core::WorkloadConfig lattice = star_config(5);
    lattice.node_count = 144;
    expect_stars_match(build_udg(core::grid_points(lattice, 0.0), lattice.radius),
                       test::perturbed_star_at);
}

TEST(LocalStar, DropsNeighborsOnUAndKeepsTheFirstOfCoincidentNeighbors) {
    // Node 4 sits on node 0 and node 3 on node 1. At node 0, node 4 is
    // dropped and node 1 stands for node 3; at node 3, node 1 is dropped
    // and node 0 stands for node 4. Changing these rules changes these
    // lists.
    const GeometricGraph udg = build_udg(
        {{0.0, 0.0}, {0.4, 0.0}, {0.0, 0.4}, {0.4, 0.0}, {0.0, 0.0}, {-0.3, -0.3}}, 1.0);
    EXPECT_EQ(local_triangles_at(udg, 0),
              (std::vector<TriangleKey>{{0, 1, 2}, {0, 1, 5}, {0, 2, 5}}));
    EXPECT_EQ(local_triangles_at(udg, 3),
              (std::vector<TriangleKey>{{0, 2, 3}, {0, 3, 5}}));
    expect_stars_match(udg, test::bw_local_triangles_at);
}

/// m x m lattice with spacing h and no jitter: every unit square's four
/// corners are exactly cocircular.
std::vector<geom::Point> lattice(std::size_t m, double h) {
    std::vector<geom::Point> pts;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            pts.push_back({h * static_cast<double>(i), h * static_cast<double>(j)});
        }
    }
    return pts;
}

TEST(LocalStar, ZeroJitterGridsKeepOneDiagonalPerSquare) {
    // Each square's diagonal is a cocircular tie. Broken the same way at
    // all three corners of each triangle, LDel⁽¹⁾ keeps one triangulation
    // of the lattice: 2(m-1)^2 triangles. A rule that depends on the
    // corner (adjacency order, say) loses most of them.
    for (const std::size_t m : {10UL, 40UL}) {
        for (const double h : {0.3, 0.5, 0.7}) {
            SCOPED_TRACE(::testing::Message() << "m=" << m << " h=" << h);
            const auto pts = lattice(m, h);
            EXPECT_EQ(ldel1_triangles(build_udg(pts, 1.0)).size(), 2 * (m - 1) * (m - 1));
            // The engine's parallel ldel stage agrees at every lane count.
            std::vector<TriangleKey> one_lane;
            for (const std::size_t threads : {1UL, 2UL, 8UL}) {
                engine::EngineOptions options;
                options.threads = threads;
                const auto triangles =
                    engine::SpannerEngine(options).build(pts, 1.0).backbone.ldel_triangles;
                if (threads == 1) {
                    one_lane = triangles;
                } else {
                    EXPECT_EQ(triangles, one_lane) << threads << " lanes";
                }
            }
        }
    }
}

}  // namespace
}  // namespace geospanner::proximity
