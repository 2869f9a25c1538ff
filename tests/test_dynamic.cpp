// Incremental maintenance engine: every patched topology must be
// edge-for-edge identical to a from-scratch build on the same positions,
// across moves, joins, leaves, and forced fallbacks — plus trace-replay
// fuzzing with ddmin shrinking and the Lemma 1-8 auditors on patched
// outputs.
#include "dynamic/spanner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/workload.h"
#include "dynamic/dynamic_cell_grid.h"
#include "dynamic_test_util.h"
#include "proximity/udg.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::dynamic {
namespace {

using graph::GeometricGraph;
using graph::NodeId;
using test::divergence;

engine::EngineOptions engine_options() { return test::dynamic_engine_options(); }

/// Deterministic mixed trace (random-walk moves, periodic joins) over an
/// initial point set: returns the name of the first diverging structure,
/// "" if the whole replay stays identical. Pure function of its inputs —
/// the ddmin shrinker replays it on candidate subsets.
std::string replay_divergence(const std::vector<geom::Point>& initial, double radius,
                              std::uint64_t seed, int steps, bool with_joins) {
    if (initial.empty()) return {};
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, initial, radius);
    {
        const std::string d = divergence(dyn);
        if (!d.empty()) return "initial-build:" + d;
    }
    rnd::Xoshiro256 rng(seed);
    for (int step = 0; step < steps; ++step) {
        UpdateBatch batch;
        const std::size_t k = 1 + rng.below(3);
        for (std::size_t i = 0; i < k; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            batch.moves.push_back(
                {v,
                 {p.x + rng.uniform(-radius, radius), p.y + rng.uniform(-radius, radius)}});
        }
        if (with_joins && step % 4 == 3) {
            const geom::Point anchor = dyn.positions()[rng.below(dyn.node_count())];
            batch.joins.push_back({anchor.x + rng.uniform(-radius, radius),
                                   anchor.y + rng.uniform(-radius, radius)});
        }
        dyn.apply(batch);
        const std::string d = divergence(dyn);
        if (!d.empty()) return "step" + std::to_string(step) + ":" + d;
    }
    return {};
}

TEST(DynamicCellGrid, TracksRelocationsExactly) {
    const double radius = 50.0;
    auto points = test::random_points(80, 300.0, 17);
    DynamicCellGrid grid(points, radius);
    rnd::Xoshiro256 rng(99);
    for (int step = 0; step < 200; ++step) {
        const auto v = static_cast<NodeId>(rng.below(points.size()));
        const geom::Point to = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        grid.relocate(v, points[v], to);
        points[v] = to;
        if (step % 3 == 0) {
            const auto id = static_cast<NodeId>(points.size());
            points.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
            grid.insert(id, points.back());
        }
    }
    std::map<proximity::CellCoord, std::vector<NodeId>> by_cell;
    for (NodeId v = 0; v < points.size(); ++v) {
        by_cell[proximity::cell_of(points[v], radius)].push_back(v);
    }
    ASSERT_EQ(grid.cells(), CellBuckets(by_cell.begin(), by_cell.end()));
    // Neighborhood enumeration equals a brute-force range scan.
    std::vector<NodeId> got;
    for (NodeId v = 0; v < points.size(); ++v) {
        got.clear();
        grid.collect_neighbors(points, radius, v, got);
        std::vector<NodeId> want;
        for (NodeId u = 0; u < points.size(); ++u) {
            if (u != v &&
                geom::squared_distance(points[u], points[v]) <= radius * radius) {
                want.push_back(u);
            }
        }
        ASSERT_EQ(got, want) << "node " << v;
    }
}

TEST(DynamicSpanner, InitialBuildMatchesReference) {
    for (const auto& param : test::standard_sweep()) {
        const auto udg = test::connected_udg(param.n, 200.0, param.radius, param.seed);
        ASSERT_GT(udg.node_count(), 0u);
        engine::SpannerEngine engine(engine_options());
        DynamicSpanner dyn(engine, udg.points(), param.radius);
        EXPECT_EQ(divergence(dyn), "")
            << "n=" << param.n << " r=" << param.radius << " seed=" << param.seed;
    }
}

TEST(DynamicSpanner, InvalidBatchThrowsBeforeTouchingState) {
    const auto udg = test::connected_udg(40, 200.0, 60.0, 3);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), 60.0);
    const std::vector<geom::Point> points = dyn.positions();
    const graph::GeometricGraph before_udg = dyn.udg();
    const core::Backbone before = dyn.backbone();
    const auto n = static_cast<NodeId>(dyn.node_count());

    UpdateBatch nan_move;
    nan_move.moves.push_back({1, {10.0, 10.0}});  // valid, must not land either
    nan_move.moves.push_back({0, {std::numeric_limits<double>::quiet_NaN(), 5.0}});
    UpdateBatch inf_join;
    inf_join.joins.push_back({std::numeric_limits<double>::infinity(), 0.0});
    UpdateBatch bad_move_id;
    bad_move_id.moves.push_back({n, {1.0, 1.0}});
    UpdateBatch bad_leave;
    bad_leave.leaves = {n - 1, n - 1};  // the second names a swapped-away id
    for (const UpdateBatch* batch : {&nan_move, &inf_join, &bad_move_id, &bad_leave}) {
        EXPECT_NE(validate_batch(*batch, dyn.node_count(), dyn.radius()), "");
        EXPECT_THROW(dyn.apply(*batch), std::invalid_argument);
        EXPECT_EQ(dyn.positions(), points);
        EXPECT_EQ(dyn.udg(), before_udg);
        EXPECT_EQ(test::backbone_diff(dyn.backbone(), before), "");
    }

    UpdateBatch leave_then_last;
    leave_then_last.leaves = {0, n - 2};  // in range after the first swap-remove
    EXPECT_EQ(validate_batch(leave_then_last, dyn.node_count(), dyn.radius()), "");
    dyn.apply(leave_then_last);
    EXPECT_EQ(divergence(dyn), "");
}

TEST(DynamicSpanner, SingleMovesMatchReference) {
    for (const auto& param : test::standard_sweep()) {
        const auto udg = test::connected_udg(param.n, 200.0, param.radius, param.seed);
        ASSERT_GT(udg.node_count(), 0u);
        engine::SpannerEngine engine(engine_options());
        DynamicSpanner dyn(engine, udg.points(), param.radius);
        rnd::Xoshiro256 rng(param.seed * 1000003);
        for (int step = 0; step < 12; ++step) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            UpdateBatch batch;
            batch.moves.push_back({v,
                                   {p.x + rng.uniform(-param.radius, param.radius),
                                    p.y + rng.uniform(-param.radius, param.radius)}});
            dyn.apply(batch);
            ASSERT_EQ(divergence(dyn), "")
                << "n=" << param.n << " r=" << param.radius << " seed=" << param.seed
                << " step=" << step;
        }
    }
}

TEST(DynamicSpanner, BatchedMovesMatchReference) {
    const auto udg = test::connected_udg(70, 200.0, 55.0, 31);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), 55.0);
    rnd::Xoshiro256 rng(4242);
    for (int step = 0; step < 10; ++step) {
        UpdateBatch batch;
        for (int i = 0; i < 5; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            batch.moves.push_back(
                {v, {p.x + rng.uniform(-30.0, 30.0), p.y + rng.uniform(-30.0, 30.0)}});
        }
        dyn.apply(batch);
        ASSERT_EQ(divergence(dyn), "") << "step " << step;
    }
}

TEST(DynamicSpanner, JoinsMatchReference) {
    const auto udg = test::connected_udg(50, 200.0, 60.0, 7);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), 60.0);
    rnd::Xoshiro256 rng(512);
    for (int step = 0; step < 8; ++step) {
        UpdateBatch batch;
        const geom::Point anchor = dyn.positions()[rng.below(dyn.node_count())];
        batch.joins.push_back(
            {anchor.x + rng.uniform(-50.0, 50.0), anchor.y + rng.uniform(-50.0, 50.0)});
        const std::size_t before = dyn.node_count();
        dyn.apply(batch);
        ASSERT_EQ(dyn.node_count(), before + 1);
        ASSERT_EQ(divergence(dyn), "") << "step " << step;
    }
}

TEST(DynamicSpanner, LeavesFallBackAndMatchReference) {
    const auto udg = test::connected_udg(50, 200.0, 60.0, 19);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), 60.0);
    rnd::Xoshiro256 rng(77);
    for (int step = 0; step < 5; ++step) {
        UpdateBatch batch;
        batch.leaves.push_back(static_cast<NodeId>(rng.below(dyn.node_count())));
        const std::size_t before = dyn.node_count();
        const PatchStats stats = dyn.apply(batch);
        EXPECT_TRUE(stats.fell_back);
        ASSERT_EQ(dyn.node_count(), before - 1);
        ASSERT_EQ(divergence(dyn), "") << "step " << step;
    }
}

TEST(DynamicSpanner, ForcedFallbackStaysIdentical) {
    // In a world this dense every node's 2-hop region holds more than
    // half the nodes, past the whole-batch rebuild gate, so every batch
    // takes the full-rebuild path; both repair paths must land on the
    // same topology.
    const auto udg = test::connected_udg(40, 80.0, 55.0, 23);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), 55.0);
    rnd::Xoshiro256 rng(5);
    for (int step = 0; step < 5; ++step) {
        const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
        const geom::Point p = dyn.positions()[v];
        UpdateBatch batch;
        batch.moves.push_back(
            {v, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
        const PatchStats stats = dyn.apply(batch);
        EXPECT_TRUE(stats.fell_back) << "step " << step;
        ASSERT_EQ(divergence(dyn), "") << "step " << step;
    }
}

/// `n` uniform points at mean UDG degree 12 for radius 1.
std::vector<geom::Point> degree12_points(std::size_t n, std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = std::sqrt(static_cast<double>(n) * 3.14159265358979 / 12.0);
    config.radius = 1.0;
    config.seed = seed;
    return core::uniform_points(config);
}

// A rebuild hands its connector elections and local triangle lists to
// the patch path as retained state. Localized patches after it read and
// update that state, so any entry, refcount or list loaded wrong shows
// up as a divergence within a few batches.
TEST(DynamicSpanner, PatchesAfterRebuildStayExact) {
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        engine::SpannerEngine engine(test::dynamic_engine_options(lanes));
        DynamicSpanner dyn(engine, degree12_points(1600, 11), 1.0);
        rnd::Xoshiro256 rng(97 + lanes);
        UpdateBatch leave;
        leave.leaves.push_back(static_cast<NodeId>(rng.below(dyn.node_count())));
        ASSERT_TRUE(dyn.apply(leave).fell_back);
        ASSERT_EQ(divergence(dyn), "") << "lanes " << lanes << " leave";
        for (int step = 0; step < 20; ++step) {
            UpdateBatch batch;
            for (int i = 0; i < 2; ++i) {
                const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
                const geom::Point p = dyn.positions()[v];
                batch.moves.push_back(
                    {v, {p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3)}});
            }
            const PatchStats stats = dyn.apply(batch);
            ASSERT_FALSE(stats.fell_back) << "lanes " << lanes << " step " << step;
            ASSERT_EQ(divergence(dyn), "") << "lanes " << lanes << " step " << step;
        }
    }
}

/// "" when `got` holds the same retained rows as `want`; otherwise the
/// name of the first differing one.
std::string retained_diff(const engine::PatchSeed& got, const engine::PatchSeed& want) {
    if (!(got.elected == want.elected)) return "elected";
    if (!(got.elected_by == want.elected_by)) return "elected_by";
    if (got.connector_refs != want.connector_refs) return "connector_refs";
    if (!(got.cds_refs == want.cds_refs)) return "cds_refs";
    if (!(got.local == want.local)) return "local";
    return {};
}

// The retained elections, refcounts and local lists after patches equal
// those a fresh construction on the same positions starts from. Output
// equality alone would miss a stale entry that has not changed an edge
// yet.
TEST(DynamicSpanner, RetainedStateMatchesRebuild) {
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        engine::SpannerEngine engine(test::dynamic_engine_options(lanes));
        DynamicSpanner dyn(engine, degree12_points(1600, 11), 1.0);
        rnd::Xoshiro256 rng(31 + lanes);
        const auto diff = [&] {
            const DynamicSpanner fresh(engine, dyn.positions(), 1.0);
            return retained_diff(dyn.retained(), fresh.retained());
        };
        // A long role cascade may legitimately fall back; nearly every
        // batch must still take the patch path.
        int localized = 0;
        const auto localized_batches = [&](const char* phase) {
            for (int step = 0; step < 8; ++step) {
                UpdateBatch batch;
                for (int i = 0; i < 2; ++i) {
                    const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
                    const geom::Point p = dyn.positions()[v];
                    batch.moves.push_back(
                        {v, {p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3)}});
                }
                if (step % 2 == 0) {
                    const geom::Point p = dyn.positions()[rng.below(dyn.node_count())];
                    batch.joins.push_back(
                        {p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3)});
                }
                localized += dyn.apply(batch).fell_back ? 0 : 1;
                ASSERT_EQ(diff(), "") << "lanes " << lanes << " " << phase << " step "
                                      << step;
            }
        };
        localized_batches("before leave");
        UpdateBatch leave;
        leave.leaves.push_back(static_cast<NodeId>(rng.below(dyn.node_count())));
        ASSERT_TRUE(dyn.apply(leave).fell_back);
        ASSERT_EQ(diff(), "") << "lanes " << lanes << " leave";
        localized_batches("after leave");
        EXPECT_GE(localized, 14) << "lanes " << lanes;
        ASSERT_EQ(divergence(dyn), "") << "lanes " << lanes;
    }
}

TEST(DynamicSpanner, PatchedOutputsPassLemmaAudits) {
    const double radius = 60.0;
    const auto udg = test::connected_udg(60, 200.0, radius, 41);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), radius);
    rnd::Xoshiro256 rng(8);
    for (int step = 0; step < 6; ++step) {
        UpdateBatch batch;
        for (int i = 0; i < 3; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point p = dyn.positions()[v];
            batch.moves.push_back(
                {v, {p.x + rng.uniform(-25.0, 25.0), p.y + rng.uniform(-25.0, 25.0)}});
        }
        dyn.apply(batch);
        verify::AuditOptions audit;
        audit.radius = radius;
        const auto trail = verify::audit_backbone(dyn.udg(), dyn.backbone(), audit);
        ASSERT_TRUE(trail.pass()) << "step " << step << "\n" << trail.summary();
    }
}

TEST(DynamicSpanner, PatchStatsReportLocalizedWork) {
    const auto udg = test::connected_udg(90, 260.0, 50.0, 47);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(engine_options());
    DynamicSpanner dyn(engine, udg.points(), 50.0);
    const geom::Point p = dyn.positions()[5];
    UpdateBatch batch;
    batch.moves.push_back({5, {p.x + 1.0, p.y + 1.0}});
    const PatchStats stats = dyn.apply(batch);
    if (!stats.fell_back) {
        EXPECT_LT(stats.dirty_nodes, dyn.node_count());
        EXPECT_FALSE(stats.pipeline.stages.empty());
    }
    EXPECT_EQ(divergence(dyn), "");
}

// A backbone node that jumps far outside the deployment leaves its
// LDel¹ triangles where they were: only triangles near those old boxes
// and near its new spot re-run Algorithm 3. Boxing a departed triangle
// at its new positions would stretch it across the whole deployment
// and retest a large share of the set.
TEST(DynamicSpanner, FarMoveRetestsStayLocal) {
    constexpr std::size_t kNodes = 5000;
    constexpr double kRadius = 1.0;
    const double side = std::sqrt(static_cast<double>(kNodes) * 3.14159265358979 / 12.0);
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        core::WorkloadConfig config;
        config.node_count = kNodes;
        config.side = side;
        config.radius = kRadius;
        config.seed = seed;
        engine::SpannerEngine engine(engine_options());
        DynamicSpanner dyn(engine, core::uniform_points(config), kRadius);

        // The backbone node closest to the centre, so its triangles are
        // surrounded by others on every side.
        NodeId mover = 0;
        double best = std::numeric_limits<double>::infinity();
        for (NodeId v = 0; v < dyn.node_count(); ++v) {
            if (!dyn.backbone().in_backbone[v]) continue;
            const double d = geom::squared_distance(dyn.positions()[v],
                                                    {side / 2.0, side / 2.0});
            if (d < best) {
                best = d;
                mover = v;
            }
        }
        UpdateBatch batch;
        batch.moves.push_back({mover, {side + 10.0 * kRadius, side + 10.0 * kRadius}});
        const PatchStats stats = dyn.apply(batch);
        ASSERT_FALSE(stats.fell_back) << "seed " << seed;
        ASSERT_EQ(divergence(dyn), "") << "seed " << seed;
        const auto triangles = static_cast<double>(dyn.backbone().ldel_triangles.size());
        EXPECT_LT(static_cast<double>(stats.triangles_retested), 0.03 * triangles)
            << "seed " << seed << ": " << stats.triangles_retested << " of " << triangles;
    }
}

// Trace-replay fuzz across the generator family: any divergence is
// ddmin-shrunk to a minimal point set and dumped as a repro artifact.
TEST(DynamicFuzz, TraceReplayAcrossGenerators) {
    for (const auto mode : test::all_fuzz_modes()) {
        for (const std::uint64_t seed : {1ULL, 2ULL}) {
            core::WorkloadConfig config;
            config.node_count = 36;
            config.side = 170.0;
            config.radius = 50.0;
            config.seed = seed;
            const auto points = test::fuzz_points(mode, config);
            const auto fails = [&](const std::vector<geom::Point>& pts) {
                return !replay_divergence(pts, config.radius, seed * 7919 + 1, 10, true)
                            .empty();
            };
            if (!fails(points)) continue;
            const auto shrunk = test::shrink_points(points, fails);
            io::ReproCase repro;
            repro.seed = seed;
            repro.mode = std::string("dynamic_") + test::fuzz_mode_name(mode);
            repro.radius = config.radius;
            repro.failed_check =
                "incremental_equivalence:" +
                replay_divergence(shrunk, config.radius, seed * 7919 + 1, 10, true);
            repro.points = shrunk;
            const auto path = test::dump_repro(repro);
            ADD_FAILURE() << "incremental replay diverged (mode="
                          << test::fuzz_mode_name(mode) << ", seed=" << seed
                          << "): " << repro.failed_check << "\nshrunk to "
                          << shrunk.size() << " points; repro: " << path;
        }
    }
}

}  // namespace
}  // namespace geospanner::dynamic
