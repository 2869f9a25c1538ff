// Engine subsystem: thread pool semantics, and the determinism contract
// — the staged parallel pipeline at 1, 2, and 8 threads is edge-for-edge
// identical to the sequential centralized path across seeds and
// workload shapes.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/backbone.h"
#include "core/workload.h"
#include "engine/batch.h"
#include "engine/thread_pool.h"
#include "proximity/ldel.h"
#include "proximity/udg.h"
#include "test_util.h"

namespace geospanner::engine {
namespace {

using graph::GeometricGraph;

// ---- ThreadPool ------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
    for (const std::size_t threads : {1u, 2u, 5u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.thread_count(), threads);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, NonZeroBeginAndEmptyRange) {
    ThreadPool pool(3);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(10, 20, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 145u);  // 10 + ... + 19
    pool.parallel_for(7, 7, [&](std::size_t) { FAIL() << "empty range ran a body"; });
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
    ThreadPool pool(4);
    std::size_t total = 0;
    for (int round = 0; round < 50; ++round) {
        std::vector<std::size_t> out(64, 0);
        pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i; });
        total += std::accumulate(out.begin(), out.end(), std::size_t{0});
    }
    EXPECT_EQ(total, 50u * (63u * 64u / 2u));
}

TEST(ThreadPool, NestedCallsRunInline) {
    ThreadPool pool(4);
    std::vector<std::size_t> sums(8, 0);
    pool.parallel_for(0, sums.size(), [&](std::size_t i) {
        EXPECT_TRUE(ThreadPool::on_worker_thread());
        pool.parallel_for(0, 10, [&](std::size_t j) { sums[i] += j; });
    });
    for (const std::size_t s : sums) EXPECT_EQ(s, 45u);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [&](std::size_t i) {
                                       if (i == 37) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool stays usable afterwards.
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
}

// ---- Determinism contract --------------------------------------------

enum class Shape { kUniform, kClustered, kGrid };

std::vector<geom::Point> make_points(Shape shape, const core::WorkloadConfig& config) {
    switch (shape) {
        case Shape::kUniform:
            return core::uniform_points(config);
        case Shape::kClustered:
            return core::clustered_points(config, 4);
        case Shape::kGrid:
            return core::grid_points(config, 0.25);
    }
    return {};
}

void expect_backbones_equal(const core::Backbone& expected, const core::Backbone& got) {
    EXPECT_EQ(expected.cluster.role, got.cluster.role);
    EXPECT_EQ(expected.cluster.dominators_of, got.cluster.dominators_of);
    EXPECT_EQ(expected.cluster.two_hop_dominators_of, got.cluster.two_hop_dominators_of);
    EXPECT_EQ(expected.is_connector, got.is_connector);
    EXPECT_EQ(expected.in_backbone, got.in_backbone);
    EXPECT_EQ(expected.cds, got.cds);
    EXPECT_EQ(expected.cds_prime, got.cds_prime);
    EXPECT_EQ(expected.icds, got.icds);
    EXPECT_EQ(expected.icds_prime, got.icds_prime);
    EXPECT_EQ(expected.ldel_triangles, got.ldel_triangles);
    EXPECT_EQ(expected.ldel_icds, got.ldel_icds);
    EXPECT_EQ(expected.ldel_icds_prime, got.ldel_icds_prime);
}

class EngineDeterminism : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(EngineDeterminism, MatchesSequentialPathAtEveryThreadCount) {
    const auto [shape, seed] = GetParam();
    core::WorkloadConfig config;
    config.node_count = 70;
    config.side = 220.0;
    config.radius = 55.0;
    config.seed = seed;
    const auto points = make_points(shape, config);

    const GeometricGraph udg = proximity::build_udg(points, config.radius);
    const core::Backbone expected =
        core::build_backbone(udg, {core::Engine::kCentralized});

    PatchSeed seed_at_one_lane;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        EngineOptions options;
        options.threads = threads;
        SpannerEngine engine(options);
        core::PipelineStats stats;
        BuildResult result = engine.build(points, config.radius);
        EXPECT_EQ(result.udg, udg) << "threads=" << threads;
        expect_backbones_equal(expected, result.backbone);
        EXPECT_TRUE(result.audit.stages.empty()) << "audit trail without opt-in";

        // Same through the UDG-skipping entry point.
        const core::Backbone direct = engine.build_backbone(udg, &stats);
        expect_backbones_equal(expected, direct);

        // The retained state a build hands to dynamic::DynamicSpanner is
        // lane-independent too, and handing it over changes no output.
        PatchSeed seed;
        expect_backbones_equal(expected, build_backbone_staged(engine.pool(), udg,
                                                               engine.options(), nullptr,
                                                               nullptr, &seed));
        if (threads == 1) {
            EXPECT_TRUE(
                std::ranges::any_of(seed.connector_refs, [](int r) { return r > 0; }));
            seed_at_one_lane = seed;
        } else {
            EXPECT_TRUE(seed == seed_at_one_lane) << "threads=" << threads;
        }

        // Audits are read-only: with them enabled, output stays
        // edge-identical to the audits-off build at the same thread
        // count, and the trail itself passes.
        EngineOptions audited;
        audited.threads = threads;
        audited.audit = true;
        audited.audit_options.radius = config.radius;
        SpannerEngine audited_engine(audited);
        const BuildResult audited_result =
            audited_engine.build(points, config.radius);
        EXPECT_EQ(audited_result.udg, udg) << "threads=" << threads;
        expect_backbones_equal(expected, audited_result.backbone);
        EXPECT_TRUE(audited_result.audit.pass()) << audited_result.audit.summary();
        std::vector<std::string> stages;
        for (const auto& s : audited_result.audit.stages) stages.push_back(s.stage);
        EXPECT_EQ(stages, (std::vector<std::string>{"clustering", "connectors",
                                                    "icds", "ldel"}));
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, EngineDeterminism,
    ::testing::Combine(::testing::Values(Shape::kUniform, Shape::kClustered,
                                         Shape::kGrid),
                       ::testing::Values(11ULL, 29ULL, 53ULL)));

/// `udg` with every `every`-th link (in edge order) lost: a lossy radio
/// graph, which the pipeline takes like any other. Over a full UDG,
/// LDel⁽¹⁾(ICDS) almost never has crossing triangles; lost links hide
/// circumcircle witnesses, so Algorithm 3 has pairs to decide.
GeometricGraph drop_links(const GeometricGraph& udg, std::size_t every) {
    std::vector<std::pair<graph::NodeId, graph::NodeId>> kept;
    std::size_t k = 0;
    for (const auto& edge : udg.edges()) {
        if (++k % every != 0) kept.push_back(edge);
    }
    return GeometricGraph::from_edges(udg.points(), kept);
}

TEST(Engine, PlanarizeCellBlocksMatchSerialAlgorithm3) {
    // The planarize stage splits Algorithm 3's pair scan over blocks of
    // grid cells. Pairs whose triangles fall in different blocks must
    // still be tested exactly once, so at every lane count the kept set
    // equals the one-block scan over the same LDel⁽¹⁾ triangles. The
    // lattice has integer coordinates, so many of its crossings are
    // exactly cocircular and decided by the key tie-break.
    core::WorkloadConfig clustered;
    clustered.node_count = 2400;
    clustered.side = 30.0;
    clustered.radius = 1.0;
    clustered.seed = 41;
    core::WorkloadConfig lattice;
    lattice.node_count = 1600;  // 40 x 40 at spacing side / 41 = 1
    lattice.side = 41.0;
    lattice.radius = 3.2;
    const std::vector<std::pair<const char*, GeometricGraph>> instances{
        {"clustered",
         drop_links(proximity::build_udg(core::clustered_points(clustered, 100),
                                         clustered.radius),
                    2)},
        {"lattice",
         drop_links(proximity::build_udg(core::grid_points(lattice, 0.0), lattice.radius),
                    3)}};

    for (const auto& [name, graph] : instances) {
        SCOPED_TRACE(name);
        const core::Backbone expected =
            core::build_backbone(graph, {core::Engine::kCentralized});
        const auto ldel = proximity::ldel1_triangles(expected.icds);
        const auto serial = proximity::planarize_triangles(expected.icds, ldel);
        ASSERT_LT(serial.size(), ldel.size()) << "no crossing pair to decide";
        for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
            EngineOptions options;
            options.threads = threads;
            SpannerEngine engine(options);
            const core::Backbone got = engine.build_backbone(graph);
            EXPECT_EQ(got.ldel_triangles, serial) << "threads=" << threads;
            expect_backbones_equal(expected, got);
        }
    }
}

// ---- StageStats ------------------------------------------------------

TEST(Engine, RecordsOneStatsEntryPerStage) {
    core::WorkloadConfig config;
    config.node_count = 80;
    config.seed = 3;
    EngineOptions options;
    options.threads = 2;
    SpannerEngine engine(options);
    const BuildResult result =
        engine.build(core::uniform_points(config), config.radius);

    std::vector<std::string> names;
    for (const auto& s : result.stats.stages) names.push_back(s.name);
    EXPECT_EQ(names, (std::vector<std::string>{"grid", "udg", "clustering",
                                               "connectors", "icds", "ldel",
                                               "planarize", "assemble"}));
    for (const auto& s : result.stats.stages) {
        EXPECT_GE(s.wall_ms, 0.0) << s.name;
        EXPECT_GE(s.threads, 1u) << s.name;
        EXPECT_LE(s.threads, 2u) << s.name;
        if (s.name == "clustering" || s.name == "planarize" || s.name == "assemble") {
            EXPECT_EQ(s.threads, 2u) << s.name;
        }
    }
    EXPECT_EQ(result.stats.stages.front().items, config.node_count);
    EXPECT_GE(result.stats.total_ms(), 0.0);
    EXPECT_NE(result.stats.table().find("planarize"), std::string::npos);
    EXPECT_NE(result.stats.json().find("\"name\":\"udg\""), std::string::npos);
}

// ---- Batch API -------------------------------------------------------

TEST(Batch, MatchesStandaloneBuildsInInputOrder) {
    std::vector<core::WorkloadConfig> configs;
    for (const std::uint64_t seed : {5ULL, 6ULL, 7ULL, 8ULL}) {
        core::WorkloadConfig config;
        config.node_count = 50 + 10 * (seed % 3);
        config.side = 200.0;
        config.radius = 55.0;
        config.seed = seed;
        configs.push_back(config);
    }
    EngineOptions options;
    options.threads = 4;
    SpannerEngine engine(options);
    const auto results = build_batch(engine, configs);
    ASSERT_EQ(results.size(), configs.size());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto udg = core::random_connected_udg(configs[i]);
        ASSERT_TRUE(udg.has_value());
        ASSERT_TRUE(results[i].udg.has_value());
        EXPECT_EQ(*results[i].udg, *udg);
        const core::Backbone expected =
            core::build_backbone(*udg, {core::Engine::kCentralized});
        expect_backbones_equal(expected, results[i].backbone);
        EXPECT_FALSE(results[i].stats.stages.empty());
    }
}

TEST(Batch, ExhaustedBudgetYieldsNullopt) {
    core::WorkloadConfig hopeless;
    hopeless.node_count = 40;
    hopeless.side = 10000.0;
    hopeless.radius = 1.0;
    hopeless.max_attempts = 3;
    core::WorkloadConfig fine;
    fine.node_count = 40;
    fine.side = 150.0;
    fine.radius = 55.0;
    fine.seed = 9;

    EngineOptions options;
    options.threads = 2;
    SpannerEngine engine(options);
    const auto results = build_batch(engine, {hopeless, fine});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].udg.has_value());
    EXPECT_TRUE(results[1].udg.has_value());
}

}  // namespace
}  // namespace geospanner::engine
