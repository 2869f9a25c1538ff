// Concurrent dirty-component patching: the TEST_P sweep drives the
// component decomposition across instance shapes × seeds × batch sizes
// × thread counts and holds every patched topology to edge-for-edge
// identity with a from-scratch build, plus the verify:: patch-layout
// certificate (disjoint regions, hop separation) on every decomposed
// batch. The adversarial cases pin the decomposition's edge behavior:
// nearby seeds must merge into one component, over-cap components must
// fall back without divergence, and a move racing a leave of an
// adjacent node must stay exact through the fallback path.
#include "dynamic/spanner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "dynamic_test_util.h"
#include "proximity/udg.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::dynamic {
namespace {

using graph::NodeId;
using test::divergence;

/// One sweep point: instance shape, generator seed, updates per batch,
/// worker threads in the engine pool.
struct ConcurrentParam {
    test::FuzzMode mode;
    std::uint64_t seed;
    std::size_t batch;
    std::size_t threads;
};

std::string param_name(const testing::TestParamInfo<ConcurrentParam>& info) {
    return std::string(test::fuzz_mode_name(info.param.mode)) + "_seed" +
           std::to_string(info.param.seed) + "_batch" +
           std::to_string(info.param.batch) + "_threads" +
           std::to_string(info.param.threads);
}

std::vector<ConcurrentParam> sweep() {
    std::vector<ConcurrentParam> params;
    for (const test::FuzzMode mode :
         {test::FuzzMode::kUniform, test::FuzzMode::kClustered, test::FuzzMode::kGrid}) {
        for (const std::uint64_t seed : {3ULL, 59ULL}) {
            for (const std::size_t batch : {1u, 8u, 32u, 128u}) {
                for (const std::size_t threads : {1u, 2u, 8u}) {
                    params.push_back({mode, seed, batch, threads});
                }
            }
        }
    }
    return params;
}

/// Patch certificate from one apply(): region layout fed to the
/// verify:: auditor. Empty layout (fallback or no decomposition) audits
/// vacuously.
testing::AssertionResult components_certified(const DynamicSpanner& dyn,
                                              const PatchStats& stats) {
    if (stats.fell_back || stats.components.empty()) {
        return testing::AssertionSuccess();
    }
    verify::PatchLayout layout;
    layout.separation_hops = stats.separation_hops;
    for (const auto& comp : stats.components) layout.regions.push_back(comp.region);
    const verify::StageAudit audit =
        verify::audit_patch_components(dyn.udg(), layout);
    if (audit.pass()) return testing::AssertionSuccess();
    auto failure = testing::AssertionFailure();
    for (const auto& report : audit.reports) failure << report.summary() << "\n";
    return failure;
}

class DynamicConcurrent : public testing::TestWithParam<ConcurrentParam> {};

INSTANTIATE_TEST_SUITE_P(Sweep, DynamicConcurrent, testing::ValuesIn(sweep()),
                         param_name);

TEST_P(DynamicConcurrent, PatchedTopologyMatchesReference) {
    const ConcurrentParam& p = GetParam();
    core::WorkloadConfig config;
    config.node_count = 90;
    config.side = 260.0;
    config.radius = 50.0;
    config.seed = p.seed;
    const auto points = test::fuzz_points(p.mode, config);
    ASSERT_FALSE(points.empty());

    engine::SpannerEngine engine(test::dynamic_engine_options(p.threads));
    DynamicSpanner dyn(engine, points, config.radius);
    ASSERT_EQ(divergence(dyn), "") << "initial build";

    rnd::Xoshiro256 rng(p.seed * 16923 + p.batch * 7 + p.threads);
    for (int step = 0; step < 3; ++step) {
        UpdateBatch batch;
        for (std::size_t i = 0; i < p.batch; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
            const geom::Point q = dyn.positions()[v];
            batch.moves.push_back(
                {v, {q.x + rng.uniform(-15.0, 15.0), q.y + rng.uniform(-15.0, 15.0)}});
        }
        const PatchStats stats = dyn.apply(batch);
        ASSERT_TRUE(components_certified(dyn, stats)) << "step " << step;
        ASSERT_EQ(divergence(dyn), "")
            << "step " << step << " components=" << stats.components.size()
            << " fell_back=" << stats.fell_back;
    }
}

TEST(DynamicConcurrent, ThreadCountsProduceIdenticalTopology) {
    // The plan/commit split's determinism claim, pinned directly: the
    // same batch sequence through pools of 1, 2, and 8 threads must
    // yield bit-identical backbones at every step.
    const double radius = 50.0;
    const auto udg = test::connected_udg(120, 300.0, radius, 71);
    ASSERT_GT(udg.node_count(), 0u);

    std::vector<std::unique_ptr<engine::SpannerEngine>> engines;
    std::vector<std::unique_ptr<DynamicSpanner>> dyns;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        engines.push_back(std::make_unique<engine::SpannerEngine>(
            test::dynamic_engine_options(threads)));
        dyns.push_back(
            std::make_unique<DynamicSpanner>(*engines.back(), udg.points(), radius));
    }

    rnd::Xoshiro256 rng(31337);
    for (int step = 0; step < 6; ++step) {
        UpdateBatch batch;
        for (int i = 0; i < 24; ++i) {
            const auto v = static_cast<NodeId>(rng.below(dyns[0]->node_count()));
            const geom::Point q = dyns[0]->positions()[v];
            batch.moves.push_back(
                {v, {q.x + rng.uniform(-20.0, 20.0), q.y + rng.uniform(-20.0, 20.0)}});
        }
        for (auto& dyn : dyns) dyn->apply(batch);
        for (std::size_t i = 1; i < dyns.size(); ++i) {
            ASSERT_TRUE(dyns[i]->udg() == dyns[0]->udg())
                << "step " << step << ": UDG differs between thread counts";
            ASSERT_EQ(test::backbone_diff(dyns[i]->backbone(), dyns[0]->backbone()), "")
                << "step " << step << ": backbone differs between thread counts";
        }
    }
    ASSERT_EQ(divergence(*dyns[0]), "");
}

TEST(DynamicConcurrent, AdjacentSeedsMergeIntoOneComponent) {
    // Two moved nodes one hop apart sit far inside the merge margin
    // (separation_hops ≥ 13), so the decomposition must put them in a
    // single component — two components here would let their connector
    // plans race on shared pairs.
    const double radius = 55.0;
    const auto udg = test::connected_udg(80, 240.0, radius, 13);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    DynamicSpanner dyn(engine, udg.points(), radius);

    NodeId v = 0;
    while (dyn.udg().neighbors(v).empty()) ++v;
    const NodeId u = dyn.udg().neighbors(v).front();
    UpdateBatch batch;
    const geom::Point pv = dyn.positions()[v];
    const geom::Point pu = dyn.positions()[u];
    batch.moves.push_back({v, {pv.x + 3.0, pv.y - 2.0}});
    batch.moves.push_back({u, {pu.x - 2.0, pu.y + 3.0}});
    const PatchStats stats = dyn.apply(batch);
    if (!stats.fell_back) {
        EXPECT_EQ(stats.components.size(), 1u);
        EXPECT_TRUE(components_certified(dyn, stats));
    }
    ASSERT_EQ(divergence(dyn), "");
}

TEST(DynamicConcurrent, AllComponentsOverCapFallBackIdentically) {
    // One move in a world where a node's 2-hop region holds between a
    // quarter and half of the nodes: past the per-component rebuild gate
    // but inside the whole-batch one. The batch must decompose, find its
    // one component over cap, take the full-rebuild path, and still land
    // on the reference topology.
    const double radius = 50.0;
    const auto udg = test::connected_udg(100, 240.0, radius, 1);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    DynamicSpanner dyn(engine, udg.points(), radius);

    rnd::Xoshiro256 rng(404);
    UpdateBatch batch;
    const auto v = static_cast<NodeId>(rng.below(dyn.node_count()));
    const geom::Point q = dyn.positions()[v];
    batch.moves.push_back(
        {v, {q.x + rng.uniform(-20.0, 20.0), q.y + rng.uniform(-20.0, 20.0)}});
    const PatchStats stats = dyn.apply(batch);
    EXPECT_TRUE(stats.fell_back);
    EXPECT_FALSE(stats.components.empty());
    EXPECT_GE(stats.component_fallbacks, 1u);
    EXPECT_EQ(stats.component_fallbacks, stats.components.size());
    ASSERT_EQ(divergence(dyn), "");
}

TEST(DynamicConcurrent, SimultaneousMoveAndLeaveOnAdjacentNodes) {
    // A move racing a leave of a UDG neighbor in one batch: leaves force
    // the fallback path (swap-with-last renumbering invalidates every
    // incremental structure), and the combined application — moves
    // first, then the swap-delete — must still match a from-scratch
    // build on the final positions.
    const double radius = 55.0;
    const auto udg = test::connected_udg(60, 220.0, radius, 91);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    DynamicSpanner dyn(engine, udg.points(), radius);

    NodeId v = 0;
    while (dyn.udg().neighbors(v).empty()) ++v;
    const NodeId u = dyn.udg().neighbors(v).back();
    UpdateBatch batch;
    const geom::Point pv = dyn.positions()[v];
    batch.moves.push_back({v, {pv.x + 10.0, pv.y + 10.0}});
    batch.leaves.push_back(u);
    const std::size_t before = dyn.node_count();
    const PatchStats stats = dyn.apply(batch);
    EXPECT_TRUE(stats.fell_back);
    ASSERT_EQ(dyn.node_count(), before - 1);
    ASSERT_EQ(divergence(dyn), "");
}

}  // namespace
}  // namespace geospanner::dynamic
