// Backend subsystem: registry round-trip, the EngineBackend's
// edge-for-edge equivalence with a direct SpannerEngine build across
// workload shapes, seeds, and thread counts, and the claimed-bounds
// contract — every registered backend audited against exactly its own
// advertised guarantees on uniform, clustered, and degenerate
// (collinear / cocircular) inputs.
#include "backends/backend.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "backends/biniaz.h"
#include "backends/engine_backend.h"
#include "core/backbone.h"
#include "core/workload.h"
#include "engine/engine.h"
#include "proximity/udg.h"
#include "test_util.h"
#include "verify/backend_audit.h"

namespace geospanner::backends {
namespace {

using graph::GeometricGraph;

std::string audit_message(const verify::StageAudit& audit) {
    std::ostringstream out;
    for (const auto& report : audit.reports) {
        out << report.check << ": " << (report.pass ? "pass" : "FAIL");
        if (!report.pass && !report.witnesses.empty()) {
            out << " (" << report.witnesses.front().detail << ")";
        }
        out << '\n';
    }
    return out.str();
}

// ---- Registry --------------------------------------------------------

TEST(BackendRegistry, BuiltinsRoundTrip) {
    const auto names = registered_backends();
    for (const std::string expected :
         {"baswana_sen", "biniaz", "engine", "kanj_perkovic"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
            << "missing builtin " << expected;
        const auto backend = make_backend(expected);
        ASSERT_NE(backend, nullptr) << expected;
        EXPECT_EQ(backend->name(), expected);
    }
}

TEST(BackendRegistry, UnknownNameIsNull) {
    EXPECT_EQ(make_backend("no_such_backend"), nullptr);
    EXPECT_EQ(make_backend(""), nullptr);
}

TEST(BackendRegistry, DuplicateRegistrationRejected) {
    // The builtin name is taken; the original factory stays in place.
    EXPECT_FALSE(register_backend("engine", [](const BackendOptions&) {
        return std::unique_ptr<SpannerBackend>{};
    }));
    ASSERT_NE(make_backend("engine"), nullptr);
}

TEST(BackendRegistry, CustomRegistrationResolves) {
    const std::string name = "test_custom_biniaz";
    if (register_backend(name, [](const BackendOptions& options) {
            return std::make_unique<BiniazBackend>(options);
        })) {
        const auto names = registered_backends();
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
    }
    ASSERT_NE(make_backend(name), nullptr);
}

// ---- EngineBackend equivalence ---------------------------------------

enum class Shape { kUniform, kClustered, kCollinear };

std::vector<geom::Point> make_points(Shape shape, const core::WorkloadConfig& config) {
    switch (shape) {
        case Shape::kUniform:
            return core::uniform_points(config);
        case Shape::kClustered:
            return core::clustered_points(config, 4);
        case Shape::kCollinear:
            return core::collinear_points(config, 5);
    }
    return {};
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(EngineEquivalence, MatchesDirectEngineAtEveryThreadCount) {
    const auto [shape, seed] = GetParam();
    core::WorkloadConfig config;
    config.node_count = 70;
    config.side = 220.0;
    config.radius = 55.0;
    config.seed = seed;
    const auto points = make_points(shape, config);
    const auto udg = proximity::build_udg(points, config.radius);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        BackendOptions options;
        options.threads = threads;
        EngineBackend backend(options);
        const BackendResult via_backend = backend.build(udg, config.radius);

        engine::EngineOptions engine_options;
        engine_options.threads = threads;
        engine::SpannerEngine direct(engine_options);
        const core::Backbone expected = direct.build_backbone(udg);

        // Bit-identical output: the full backbone, not just the spanner.
        EXPECT_EQ(via_backend.spanner, expected.ldel_icds_prime)
            << "threads=" << threads;
        const core::Backbone& got = backend.last_backbone();
        EXPECT_EQ(got.cds, expected.cds) << "threads=" << threads;
        EXPECT_EQ(got.cds_prime, expected.cds_prime);
        EXPECT_EQ(got.icds, expected.icds);
        EXPECT_EQ(got.icds_prime, expected.icds_prime);
        EXPECT_EQ(got.ldel_icds, expected.ldel_icds);
        EXPECT_EQ(got.ldel_icds_prime, expected.ldel_icds_prime);
        EXPECT_EQ(got.in_backbone, expected.in_backbone);

        // The raw-points entry point agrees with the engine facade.
        engine::BuildResult full = direct.build(points, config.radius);
        EngineBackend from_points(options);
        const BackendResult via_points = from_points.build_points(points, config.radius);
        EXPECT_EQ(via_points.spanner, full.backbone.ldel_icds_prime);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, EngineEquivalence,
    ::testing::Combine(::testing::Values(Shape::kUniform, Shape::kClustered,
                                         Shape::kCollinear),
                       ::testing::Values(3ULL, 17ULL, 1234ULL)));

// ---- Claimed-bounds audits -------------------------------------------

enum class Family { kUniform, kClustered, kCollinear, kCocircular };

std::vector<geom::Point> family_points(Family family,
                                       const core::WorkloadConfig& config) {
    switch (family) {
        case Family::kUniform:
            return core::uniform_points(config);
        case Family::kClustered:
            return core::clustered_points(config, 4);
        case Family::kCollinear:
            return core::collinear_points(config, 5);
        case Family::kCocircular:
            return core::cocircular_points(config, 4);
    }
    return {};
}

class BackendClaimsAudit
    : public ::testing::TestWithParam<std::tuple<std::string, Family, std::uint64_t>> {
};

TEST_P(BackendClaimsAudit, SpannerSatisfiesOwnClaims) {
    const auto& [name, family, seed] = GetParam();
    core::WorkloadConfig config;
    config.node_count = 60;
    config.side = 200.0;
    config.radius = 50.0;
    config.seed = seed;
    const auto points = family_points(family, config);
    const auto udg = proximity::build_udg(points, config.radius);
    ASSERT_GT(udg.node_count(), 0u);

    auto backend = make_backend(name);
    ASSERT_NE(backend, nullptr);
    const BackendResult result = backend->build(udg, config.radius);

    verify::AuditOptions options;
    options.radius = config.radius;
    const verify::StageAudit audit =
        verify::audit_backend(udg, result.spanner, backend->claims(), options);
    EXPECT_TRUE(audit.pass()) << name << ":\n" << audit_message(audit);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllFamilies, BackendClaimsAudit,
    ::testing::Combine(::testing::Values("engine", "biniaz", "kanj_perkovic",
                                         "baswana_sen"),
                       ::testing::Values(Family::kUniform, Family::kClustered,
                                         Family::kCollinear, Family::kCocircular),
                       ::testing::Values(7ULL, 99ULL)));

// ---- Per-backend behavior --------------------------------------------

TEST(BackendBuild, EmptyAndSingletonInputs) {
    for (const auto& name : registered_backends()) {
        auto backend = make_backend(name);
        const auto empty = proximity::build_udg({}, 1.0);
        const BackendResult none = backend->build(empty, 1.0);
        EXPECT_EQ(none.spanner.node_count(), 0u) << name;
        EXPECT_EQ(none.spanner.edge_count(), 0u) << name;

        const auto one = proximity::build_udg({{3.0, 4.0}}, 1.0);
        const BackendResult single = make_backend(name)->build(one, 1.0);
        EXPECT_EQ(single.spanner.node_count(), 1u) << name;
        EXPECT_EQ(single.spanner.edge_count(), 0u) << name;
    }
}

TEST(BackendBuild, RejectsInvalidInput) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto udg = proximity::build_udg({{0.0, 0.0}, {0.5, 0.0}, {0.0, 0.5}}, 1.0);
    const GeometricGraph non_finite(std::vector<geom::Point>{{0.0, 0.0}, {inf, 0.0}});
    for (const auto& name : registered_backends()) {
        const auto build = [&](const GeometricGraph& g, double radius) {
            (void)make_backend(name)->build(g, radius);
        };
        EXPECT_THROW(build(udg, nan), std::invalid_argument) << name;
        EXPECT_THROW(build(udg, -1.0), std::invalid_argument) << name;
        EXPECT_THROW(build(non_finite, 1.0), std::invalid_argument) << name;
    }
}

TEST(BackendBuild, DeterministicPerSeed) {
    core::WorkloadConfig config;
    config.node_count = 80;
    config.side = 200.0;
    config.radius = 50.0;
    config.seed = 21;
    const auto udg = proximity::build_udg(core::uniform_points(config), config.radius);

    for (const auto& name : registered_backends()) {
        const BackendResult a = make_backend(name)->build(udg, config.radius);
        const BackendResult b = make_backend(name)->build(udg, config.radius);
        EXPECT_EQ(a.spanner, b.spanner) << name;
    }
    // A different seed is allowed (and expected) to change the
    // randomized baseline.
    BackendOptions reseeded;
    reseeded.seed = 0xabcdefULL;
    const BackendResult c = make_backend("baswana_sen", reseeded)->build(udg, config.radius);
    EXPECT_EQ(c.spanner.node_count(), udg.node_count());
}

TEST(BackendBuild, StageStatsNamedPerBackend) {
    core::WorkloadConfig config;
    config.node_count = 50;
    config.side = 180.0;
    config.radius = 50.0;
    config.seed = 5;
    const auto udg = proximity::build_udg(core::uniform_points(config), config.radius);

    const std::vector<std::pair<std::string, std::vector<std::string>>> expected = {
        {"biniaz", {"gabriel", "grid", "augment"}},
        {"kanj_perkovic", {"pldel", "yao", "repair"}},
        {"baswana_sen", {"cluster", "join"}},
    };
    for (const auto& [name, stages] : expected) {
        const BackendResult result = make_backend(name)->build(udg, config.radius);
        ASSERT_EQ(result.stats.stages.size(), stages.size()) << name;
        for (std::size_t i = 0; i < stages.size(); ++i) {
            EXPECT_EQ(result.stats.stages[i].name, stages[i]) << name;
        }
    }
    // The engine backend reports the pipeline's own stage breakdown.
    const BackendResult engine_result = make_backend("engine")->build(udg, config.radius);
    EXPECT_FALSE(engine_result.stats.stages.empty());
}

TEST(BackendBuild, BaswanaSenKOneKeepsEveryEdge) {
    core::WorkloadConfig config;
    config.node_count = 40;
    config.side = 150.0;
    config.radius = 50.0;
    config.seed = 8;
    const auto udg = proximity::build_udg(core::uniform_points(config), config.radius);

    BackendOptions options;
    options.k = 1;  // (2k-1) = 1: the spanner must preserve all distances
    const BackendResult result = make_backend("baswana_sen", options)->build(udg, 50.0);
    EXPECT_EQ(result.spanner, udg);
}

}  // namespace
}  // namespace geospanner::backends
