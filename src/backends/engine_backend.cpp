#include "backends/engine_backend.h"

#include <utility>

#include "core/input.h"

namespace geospanner::backends {

namespace {

engine::EngineOptions engine_options(const BackendOptions& options) {
    engine::EngineOptions opts;
    opts.threads = options.threads;
    return opts;
}

}  // namespace

EngineBackend::EngineBackend(const BackendOptions& options)
    : engine_(engine_options(options)) {}

verify::BackendClaims EngineBackend::claims() const {
    verify::BackendClaims claims;
    claims.subgraph_of_udg = true;
    claims.connected = true;
    claims.plane = false;    // dominatee links of the primed variant may cross
    claims.max_degree = 0;   // primed variants track the UDG degree
    claims.max_length_stretch = 16.0;  // Lemma 6 empirical pin (AuditOptions default)
    return claims;
}

BackendResult EngineBackend::build(const graph::GeometricGraph& udg, double radius) {
    core::validate_input(udg.points(), radius);
    BackendResult result;
    backbone_ = engine_.build_backbone(udg, &result.stats);
    result.spanner = backbone_.ldel_icds_prime;
    result.messages = backbone_.messages;
    return result;
}

BackendResult EngineBackend::build_points(std::vector<geom::Point> points,
                                          double radius) {
    engine::BuildResult built = engine_.build(std::move(points), radius);
    backbone_ = std::move(built.backbone);
    BackendResult result;
    result.spanner = backbone_.ldel_icds_prime;
    result.messages = backbone_.messages;
    result.stats = std::move(built.stats);
    return result;
}

}  // namespace geospanner::backends
