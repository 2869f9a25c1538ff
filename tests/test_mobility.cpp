// Random-waypoint mobility and epoch-driven backbone maintenance.
#include "mobility/maintenance.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/planarity.h"
#include "graph/shortest_paths.h"
#include "mobility/waypoint.h"
#include "test_util.h"

namespace geospanner::mobility {
namespace {

using graph::GeometricGraph;

TEST(Waypoint, StaysInsideRegion) {
    WaypointConfig config;
    config.side = 100.0;
    config.seed = 3;
    RandomWaypointModel model(test::random_points(30, 100.0, 1), config);
    for (int step = 0; step < 200; ++step) {
        model.advance(1.0);
        for (const auto& p : model.positions()) {
            ASSERT_GE(p.x, 0.0);
            ASSERT_LE(p.x, config.side);
            ASSERT_GE(p.y, 0.0);
            ASSERT_LE(p.y, config.side);
        }
    }
    EXPECT_DOUBLE_EQ(model.time(), 200.0);
}

TEST(Waypoint, SpeedBoundRespected) {
    WaypointConfig config;
    config.side = 100.0;
    config.min_speed = 0.5;
    config.max_speed = 2.0;
    config.pause = 0.0;
    config.seed = 7;
    RandomWaypointModel model(test::random_points(20, 100.0, 2), config);
    auto previous = model.positions();
    for (int step = 0; step < 100; ++step) {
        model.advance(1.0);
        for (std::size_t i = 0; i < previous.size(); ++i) {
            // In one unit of time a node moves at most max_speed (pauses
            // and waypoint switches only shorten the move).
            ASSERT_LE(geom::distance(previous[i], model.positions()[i]),
                      config.max_speed + 1e-9);
        }
        previous = model.positions();
    }
}

TEST(Waypoint, DeterministicForSeed) {
    WaypointConfig config;
    config.seed = 11;
    RandomWaypointModel a(test::random_points(10, 250.0, 4), config);
    RandomWaypointModel b(test::random_points(10, 250.0, 4), config);
    for (int step = 0; step < 50; ++step) {
        a.advance(0.7);
        b.advance(0.7);
    }
    EXPECT_EQ(a.positions(), b.positions());
}

TEST(Waypoint, PausesHoldNodesStill) {
    WaypointConfig config;
    config.side = 10.0;
    config.min_speed = config.max_speed = 1.0;
    config.pause = 1e9;  // Effectively permanent after first arrival.
    config.seed = 1;
    RandomWaypointModel model({{5, 5}}, config);
    // Move long enough to certainly arrive somewhere, then verify the
    // node no longer moves.
    model.advance(100.0);
    const auto frozen = model.positions();
    model.advance(100.0);
    EXPECT_EQ(model.positions(), frozen);
}

TEST(Maintenance, NoMovementMeansNoRebuilds) {
    const auto udg = test::connected_udg(50, 200.0, 60.0, 5);
    ASSERT_GT(udg.node_count(), 0u);
    MaintainedBackbone mb(udg.points(), 60.0, {core::Engine::kCentralized});
    for (int epoch = 0; epoch < 10; ++epoch) {
        EXPECT_FALSE(mb.update(udg.points()));
    }
    // Maintenance rebuilds only — the initial construction is not one.
    EXPECT_EQ(mb.stats().rebuilds, 0u);
    EXPECT_EQ(mb.stats().intact_epochs, 10u);
    EXPECT_EQ(mb.stats().longest_lifetime, 10u);
}

TEST(Maintenance, RebuildTriggersOnlyOnUsedLinkBreakage) {
    // Two clusters joined by one bridge link within the backbone: moving
    // an unused far-away dominatee slightly never triggers; stretching
    // the bridge past the radius does.
    const auto udg = test::connected_udg(40, 150.0, 55.0, 9);
    ASSERT_GT(udg.node_count(), 0u);
    MaintainedBackbone mb(udg.points(), 55.0, {core::Engine::kCentralized});
    auto points = udg.points();

    // Tiny jitter below any link slack: backbone must survive.
    auto jittered = points;
    for (auto& p : jittered) p.x += 1e-6;
    EXPECT_FALSE(mb.update(jittered));

    // Break a used link: take a backbone edge and move one endpoint far.
    const auto edges = mb.backbone().ldel_icds_prime.edges();
    ASSERT_FALSE(edges.empty());
    auto broken = points;
    broken[edges.front().first].x += 200.0;
    broken[edges.front().first].y += 200.0;
    const bool rebuilt = mb.update(broken);
    // Either the UDG got disconnected (skipped) or we rebuilt.
    EXPECT_TRUE(rebuilt || mb.stats().disconnected_epochs == 1u);
}

TEST(Maintenance, CentralizedRejectsVariantsDistributedKeepsThem) {
    // The centralized path maintains only the paper's configuration; a
    // variant there would be silently replaced by it, so it throws. The
    // distributed path builds every variant.
    const auto udg = test::connected_udg(40, 200.0, 60.0, 5);
    ASSERT_GT(udg.node_count(), 0u);
    const core::BuildOptions highest_degree{core::Engine::kCentralized,
                                            protocol::ClusterPolicy::kHighestDegree};
    const core::BuildOptions ldel2{core::Engine::kCentralized,
                                   protocol::ClusterPolicy::kLowestId,
                                   core::Planarizer::kLdel2};
    for (core::BuildOptions options : {highest_degree, ldel2}) {
        EXPECT_THROW(MaintainedBackbone(udg.points(), 60.0, options),
                     std::invalid_argument);
        options.engine = core::Engine::kDistributed;
        const MaintainedBackbone mb(udg.points(), 60.0, options);
        const core::Backbone want = core::build_backbone(udg, options);
        EXPECT_EQ(mb.backbone().cluster.role, want.cluster.role);
        EXPECT_EQ(mb.backbone().ldel_triangles, want.ldel_triangles);
        EXPECT_EQ(mb.backbone().ldel_icds_prime, want.ldel_icds_prime);
    }
}

TEST(Maintenance, RebuiltBackboneIsValidAndPlanar) {
    WaypointConfig wp;
    wp.side = 200.0;
    wp.min_speed = 1.0;
    wp.max_speed = 4.0;
    wp.seed = 21;
    const auto udg = test::connected_udg(60, 200.0, 60.0, 13);
    ASSERT_GT(udg.node_count(), 0u);
    RandomWaypointModel model(udg.points(), wp);
    MaintainedBackbone mb(udg.points(), 60.0, {core::Engine::kCentralized});
    for (int epoch = 0; epoch < 60; ++epoch) {
        model.advance(1.0);
        const bool rebuilt = mb.update(model.positions());
        if (rebuilt) {
            // Fresh backbone: planar, spanning, valid for the current
            // positions by construction.
            EXPECT_TRUE(graph::is_plane_embedding(mb.backbone().ldel_icds));
            EXPECT_TRUE(graph::is_connected(mb.backbone().ldel_icds_prime));
            EXPECT_TRUE(mb.links_intact(model.positions()));
        }
    }
    EXPECT_EQ(mb.stats().epochs, 60u);
    // Every epoch is exactly one of intact / rebuilt / disconnected now
    // that rebuilds no longer counts the initial construction.
    EXPECT_EQ(mb.stats().intact_epochs + mb.stats().rebuilds +
                  mb.stats().disconnected_epochs,
              60u);
    EXPECT_EQ(mb.stats().rebuilds,
              mb.stats().incremental_patches + mb.stats().fallback_rebuilds);
}

}  // namespace
}  // namespace geospanner::mobility
