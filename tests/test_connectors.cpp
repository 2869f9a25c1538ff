// Connector election (Algorithm 1): distributed == centralized, CDS
// structural guarantees, and the constant message bound (Lemma 3).
#include "protocol/connectors.h"

#include <gtest/gtest.h>

#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "graph/shortest_paths.h"
#include "protocol/clustering.h"
#include "proximity/udg.h"
#include "test_util.h"

namespace geospanner::protocol {
namespace {

using graph::GeometricGraph;
using graph::NodeId;

GeometricGraph cds_graph(const GeometricGraph& udg, const ConnectorState& conn) {
    GeometricGraph g(udg.points());
    for (const auto& [u, v] : conn.cds_edges) g.add_edge(u, v);
    return g;
}

/// The engine's connector stage, reached through
/// build_backbone_from_cluster at 1 and 4 lanes, must elect exactly what
/// find_connectors elects.
void expect_engine_matches(const GeometricGraph& g, const ClusterState& cluster,
                           const ConnectorState& reference) {
    for (const std::size_t lanes : {1, 4}) {
        engine::ThreadPool pool(lanes);
        const core::Backbone backbone =
            engine::build_backbone_from_cluster(pool, g, cluster, {});
        EXPECT_EQ(backbone.is_connector, reference.is_connector) << lanes << " lanes";
        EXPECT_EQ(backbone.cds.edges(), reference.cds_edges) << lanes << " lanes";
    }
}

class ConnectorSweep : public ::testing::TestWithParam<test::SweepParam> {
  protected:
    GeometricGraph udg_;
    ClusterState cluster_;
    ConnectorState conn_;

    void SetUp() override {
        const auto p = GetParam();
        udg_ = test::connected_udg(p.n, 200.0, p.radius, p.seed);
        ASSERT_GT(udg_.node_count(), 0u);
        cluster_ = lowest_id_mis(udg_);
        conn_ = find_connectors(udg_, cluster_);
    }
};

TEST_P(ConnectorSweep, DistributedEqualsCentralized) {
    Net net(udg_);
    const ClusterState cluster = run_clustering(net, udg_);
    const ConnectorState distributed = run_connectors(net, udg_, cluster);
    EXPECT_EQ(distributed.is_connector, conn_.is_connector);
    EXPECT_EQ(distributed.cds_edges, conn_.cds_edges);
}

TEST_P(ConnectorSweep, CdsEdgesTouchOnlyBackboneAndAreUdgEdges) {
    for (const auto& [u, v] : conn_.cds_edges) {
        EXPECT_TRUE(udg_.has_edge(u, v)) << u << "," << v;
        const bool u_bb = cluster_.is_dominator(u) || conn_.is_connector[u];
        const bool v_bb = cluster_.is_dominator(v) || conn_.is_connector[v];
        EXPECT_TRUE(u_bb && v_bb);
    }
    // Connectors are always dominatees.
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        if (conn_.is_connector[v]) {
            EXPECT_EQ(cluster_.role[v], Role::kDominatee);
        }
    }
}

TEST_P(ConnectorSweep, CdsIsConnectedDominatingSet) {
    const GeometricGraph cds = cds_graph(udg_, conn_);
    std::vector<bool> backbone(udg_.node_count());
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        backbone[v] = cluster_.is_dominator(v) || conn_.is_connector[v];
    }
    // The backbone must be connected *within the CDS edge set*.
    EXPECT_TRUE(graph::is_connected_on(cds, backbone));
    // And dominating (every node is backbone or adjacent to a dominator).
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        EXPECT_TRUE(backbone[v] || !cluster_.dominators_of[v].empty());
    }
}

TEST_P(ConnectorSweep, NearbyDominatorPairsGetShortCdsPaths) {
    // The construction guarantee behind Lemma 5: dominators two UDG hops
    // apart are joined by a 2-edge CDS path; three hops apart by at most
    // a 3-edge CDS path.
    const GeometricGraph cds = cds_graph(udg_, conn_);
    std::vector<NodeId> dominators;
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        if (cluster_.is_dominator(v)) dominators.push_back(v);
    }
    for (const NodeId u : dominators) {
        const auto udg_hops = graph::bfs_hops(udg_, u);
        const auto cds_hops = graph::bfs_hops(cds, u);
        for (const NodeId v : dominators) {
            if (v == u) continue;
            if (udg_hops[v] == 2) {
                ASSERT_NE(cds_hops[v], graph::kUnreachableHops);
                EXPECT_LE(cds_hops[v], 2) << "dominators " << u << "," << v;
            } else if (udg_hops[v] == 3) {
                ASSERT_NE(cds_hops[v], graph::kUnreachableHops);
                EXPECT_LE(cds_hops[v], 3) << "dominators " << u << "," << v;
            }
        }
    }
}

TEST_P(ConnectorSweep, MessageTypeBreakdown) {
    // Per-type counters: each node sends exactly one Hello; dominators
    // send exactly one IamDominator and no IamDominatee; dominatees the
    // reverse (one per acquired dominator, <= 5).
    Net net(udg_);
    const ClusterState cluster = run_clustering(net, udg_);
    (void)run_connectors(net, udg_, cluster);
    constexpr std::size_t kHello = 0;         // variant alternative indices
    constexpr std::size_t kIamDominator = 1;
    constexpr std::size_t kIamDominatee = 2;
    constexpr std::size_t kTryConnector = 3;
    constexpr std::size_t kIamConnector = 4;
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        EXPECT_EQ(net.messages_sent_of_type(v, kHello), 1u);
        if (cluster.is_dominator(v)) {
            EXPECT_EQ(net.messages_sent_of_type(v, kIamDominator), 1u);
            EXPECT_EQ(net.messages_sent_of_type(v, kIamDominatee), 0u);
            EXPECT_EQ(net.messages_sent_of_type(v, kTryConnector), 0u);
        } else {
            EXPECT_EQ(net.messages_sent_of_type(v, kIamDominator), 0u);
            EXPECT_EQ(net.messages_sent_of_type(v, kIamDominatee),
                      cluster.dominators_of[v].size());
            EXPECT_LE(net.messages_sent_of_type(v, kIamConnector),
                      net.messages_sent_of_type(v, kTryConnector));
        }
    }
}

TEST_P(ConnectorSweep, ConstantMessagesPerNode) {
    Net net(udg_);
    const ClusterState cluster = run_clustering(net, udg_);
    (void)run_connectors(net, udg_, cluster);
    std::size_t max_sent = 0;
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        max_sent = std::max(max_sent, net.messages_sent(v));
    }
    // Theoretical bound is a (large) constant independent of n; the
    // empirical constant on these densities is far smaller. 200 pins
    // "constant-ish" behavior across the sweep without being brittle.
    EXPECT_LE(max_sent, 200u);
}

TEST_P(ConnectorSweep, BoundedWinnersPerTwoHopElection) {
    // Winners of a two-hop connector election (candidates: dominatees
    // adjacent to both dominators; a candidate wins iff no audible
    // smaller-id candidate) are pairwise non-adjacent, and geometry
    // admits at most 2 such nodes in the intersection of the two disks
    // (the paper's lune argument). Every winner must have been elected.
    std::vector<NodeId> dominators;
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        if (cluster_.is_dominator(v)) dominators.push_back(v);
    }
    const GeometricGraph cds = cds_graph(udg_, conn_);
    for (std::size_t i = 0; i < dominators.size(); ++i) {
        for (std::size_t j = i + 1; j < dominators.size(); ++j) {
            const NodeId u = dominators[i];
            const NodeId v = dominators[j];
            std::vector<NodeId> candidates;
            for (const NodeId w : udg_.neighbors(u)) {
                if (udg_.has_edge(w, v)) candidates.push_back(w);
            }
            std::vector<NodeId> winners;
            for (const NodeId w : candidates) {
                const bool beaten = std::any_of(
                    candidates.begin(), candidates.end(),
                    [&](NodeId c) { return c < w && udg_.has_edge(c, w); });
                if (!beaten) winners.push_back(w);
            }
            EXPECT_LE(winners.size(), 2u) << "pair " << u << "," << v;
            for (std::size_t a = 0; a < winners.size(); ++a) {
                for (std::size_t b = a + 1; b < winners.size(); ++b) {
                    EXPECT_FALSE(udg_.has_edge(winners[a], winners[b]));
                }
            }
            for (const NodeId w : winners) {
                EXPECT_TRUE(conn_.is_connector[w]);
                EXPECT_TRUE(cds.has_edge(u, w));
                EXPECT_TRUE(cds.has_edge(w, v));
            }
        }
    }
}

TEST_P(ConnectorSweep, AlzoubiVariantBuildsValidCds) {
    const ConnectorState alz = find_connectors_alzoubi(udg_, cluster_);
    const GeometricGraph cds = cds_graph(udg_, alz);
    std::vector<bool> backbone(udg_.node_count());
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        backbone[v] = cluster_.is_dominator(v) || alz.is_connector[v];
    }
    EXPECT_TRUE(graph::is_connected_on(cds, backbone));
    for (const auto& [u, v] : alz.cds_edges) {
        EXPECT_TRUE(udg_.has_edge(u, v));
    }
    // Same short-path guarantee as Algorithm 1.
    std::vector<NodeId> dominators;
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        if (cluster_.is_dominator(v)) dominators.push_back(v);
    }
    for (const NodeId u : dominators) {
        const auto udg_hops = graph::bfs_hops(udg_, u);
        const auto cds_hops = graph::bfs_hops(cds, u);
        for (const NodeId v : dominators) {
            if (v == u) continue;
            if (udg_hops[v] == 2) {
                EXPECT_LE(cds_hops[v], 2);
            }
            if (udg_hops[v] == 3) {
                EXPECT_LE(cds_hops[v], 3);
            }
        }
    }
}

TEST_P(ConnectorSweep, AlzoubiVariantIsLeaner) {
    const ConnectorState alz = find_connectors_alzoubi(udg_, cluster_);
    std::size_t alz_connectors = 0;
    std::size_t baker_connectors = 0;
    for (NodeId v = 0; v < udg_.node_count(); ++v) {
        alz_connectors += alz.is_connector[v] ? 1 : 0;
        baker_connectors += conn_.is_connector[v] ? 1 : 0;
    }
    EXPECT_LE(alz_connectors, baker_connectors);
    EXPECT_LE(alz.cds_edges.size(), conn_.cds_edges.size() + 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConnectorSweep,
                         ::testing::ValuesIn(test::standard_sweep()));

TEST(Connectors, TwoHopPairGetsLowestIdCommonNeighbor) {
    // Dominators 0 and 1 two hops apart with common dominatees 2, 3
    // that hear each other: only the lower id (2) wins.
    GeometricGraph g({{0, 0}, {1.8, 0}, {0.9, 0.1}, {0.9, -0.1}});
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    const ClusterState cluster = lowest_id_mis(g);
    ASSERT_TRUE(cluster.is_dominator(0));
    ASSERT_TRUE(cluster.is_dominator(1));
    const ConnectorState conn = find_connectors(g, cluster);
    EXPECT_TRUE(conn.is_connector[2]);
    EXPECT_FALSE(conn.is_connector[3]);
    expect_engine_matches(g, cluster, conn);
}

TEST(Connectors, MutuallyInaudibleCandidatesBothWin) {
    // Common dominatees that cannot hear each other both become
    // connectors (the redundancy the paper allows).
    GeometricGraph g({{0, 0}, {1.8, 0}, {0.9, 0.7}, {0.9, -0.7}});
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    g.add_edge(1, 2);
    g.add_edge(1, 3);  // No edge 2-3.
    const ClusterState cluster = lowest_id_mis(g);
    const ConnectorState conn = find_connectors(g, cluster);
    EXPECT_TRUE(conn.is_connector[2]);
    EXPECT_TRUE(conn.is_connector[3]);
    expect_engine_matches(g, cluster, conn);
}

TEST(Connectors, ThreeHopPathGetsTwoConnectors) {
    // Dominators 0 and 1 exactly three hops apart: 0-2-3-1.
    GeometricGraph g({{0, 0}, {2.7, 0}, {0.9, 0}, {1.8, 0}});
    g.add_edge(0, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 1);
    const ClusterState cluster = lowest_id_mis(g);
    ASSERT_TRUE(cluster.is_dominator(0));
    ASSERT_TRUE(cluster.is_dominator(1));
    const ConnectorState conn = find_connectors(g, cluster);
    EXPECT_TRUE(conn.is_connector[2]);
    EXPECT_TRUE(conn.is_connector[3]);
    const GeometricGraph cds = cds_graph(g, conn);
    EXPECT_TRUE(cds.has_edge(0, 2));
    EXPECT_TRUE(cds.has_edge(2, 3));
    EXPECT_TRUE(cds.has_edge(3, 1));
    expect_engine_matches(g, cluster, conn);
}

TEST(Connectors, SecondLegNodeLinksToEveryFirstLegWinnerItHears) {
    // Dominators u = 0 and v = 1 three hops apart. For the ordered pair
    // (0, 1), first-leg candidates 2 and 3 cannot hear each other, so
    // both win (4 loses to its neighbor 2); x = 6 is the only dominatee
    // of 1 they reach, so it wins the second leg and must link to both.
    // In the reverse pair (1, 0), 6 loses the first leg to its neighbor
    // 5, so the links 2-6 and 3-6 come from (0, 1)'s second leg alone.
    // The layout is the radius-1 UDG of these points.
    const std::vector<geom::Point> points{{0.0, 0.0},   {2.3, 0.3},  {0.7, 0.55},
                                          {0.7, -0.55}, {0.85, 0.475}, {1.7, 0.95},
                                          {1.45, 0.0}};
    const GeometricGraph g = proximity::build_udg(points, 1.0);
    const ClusterState cluster = lowest_id_mis(g);
    ASSERT_TRUE(cluster.is_dominator(0));
    ASSERT_TRUE(cluster.is_dominator(1));
    ASSERT_EQ(cluster.dominator_count(), 2u);
    const ConnectorState conn = find_connectors(g, cluster);
    const std::vector<std::pair<NodeId, NodeId>> expected{
        {0, 2}, {0, 3}, {0, 4}, {1, 5}, {1, 6}, {2, 6}, {3, 6}, {4, 5}};
    EXPECT_EQ(conn.cds_edges, expected);
    EXPECT_EQ(conn.is_connector,
              std::vector<bool>({false, false, true, true, true, true, true}));

    Net net(g);
    const ConnectorState distributed = run_connectors(net, g, run_clustering(net, g));
    EXPECT_EQ(distributed.cds_edges, expected);
    EXPECT_EQ(distributed.is_connector, conn.is_connector);
    expect_engine_matches(g, cluster, conn);

    // DynamicSpanner: the initial build, then a patch that moves x away
    // and one that moves it back. Far, isolated filler nodes (ids after
    // the layout's, each its own dominator) make the layout a small
    // share of n, so both patches stay under the rebuild gates.
    std::vector<geom::Point> padded = points;
    for (int k = 0; k < 40; ++k) padded.push_back({100.0 + 3.0 * k, 100.0});
    std::vector<bool> padded_connector = conn.is_connector;
    padded_connector.resize(padded.size(), false);
    engine::EngineOptions opts;
    opts.threads = 2;
    engine::SpannerEngine engine(opts);
    dynamic::DynamicSpanner dyn(engine, padded, 1.0);
    EXPECT_EQ(dyn.backbone().cds.edges(), expected);
    EXPECT_EQ(dyn.backbone().is_connector, padded_connector);
    for (const geom::Point to : {geom::Point{5.0, 5.0}, points[6]}) {
        dynamic::UpdateBatch batch;
        batch.moves.push_back({6, to});
        EXPECT_FALSE(dyn.apply(batch).fell_back);
    }
    EXPECT_EQ(dyn.backbone().cds.edges(), expected);
    EXPECT_EQ(dyn.backbone().is_connector, padded_connector);
}

}  // namespace
}  // namespace geospanner::protocol
