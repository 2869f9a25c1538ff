// Shared helpers for the dynamic-maintenance suites (test_dynamic,
// test_dynamic_concurrent, test_service, fuzz schedule convergence):
// the reference from-scratch build and the edge-for-edge divergence
// check every incremental path is held to.
#pragma once

#include <string>

#include "core/backbone.h"
#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "proximity/udg.h"

namespace geospanner::test {

inline engine::EngineOptions dynamic_engine_options(std::size_t threads = 2) {
    engine::EngineOptions opts;
    opts.threads = threads;
    return opts;
}

inline core::Backbone reference_backbone(const graph::GeometricGraph& udg) {
    return core::build_backbone(udg, {core::Engine::kCentralized});
}

/// Component-wise comparison so a divergence names the structure.
inline std::string backbone_diff(const core::Backbone& got, const core::Backbone& want) {
    if (got.cluster.role != want.cluster.role) return "cluster.role";
    if (got.cluster.dominators_of != want.cluster.dominators_of) {
        return "cluster.dominators_of";
    }
    if (got.cluster.two_hop_dominators_of != want.cluster.two_hop_dominators_of) {
        return "cluster.two_hop_dominators_of";
    }
    if (got.is_connector != want.is_connector) return "is_connector";
    if (got.in_backbone != want.in_backbone) return "in_backbone";
    if (!(got.cds == want.cds)) return "cds";
    if (!(got.cds_prime == want.cds_prime)) return "cds_prime";
    if (!(got.icds == want.icds)) return "icds";
    if (!(got.icds_prime == want.icds_prime)) return "icds_prime";
    if (!(got.ldel_icds == want.ldel_icds)) return "ldel_icds";
    if (!(got.ldel_icds_prime == want.ldel_icds_prime)) return "ldel_icds_prime";
    if (got.ldel_triangles != want.ldel_triangles) return "ldel_triangles";
    return {};
}

/// "" when (udg, backbone) equals a from-scratch build on `points`;
/// otherwise the name of the first diverging structure.
inline std::string state_divergence(const std::vector<geom::Point>& points,
                                    double radius, const graph::GeometricGraph& udg,
                                    const core::Backbone& backbone) {
    const graph::GeometricGraph want = proximity::build_udg(points, radius);
    if (!(want == udg)) return "udg";
    return backbone_diff(backbone, reference_backbone(want));
}

/// "" when the patched state equals a from-scratch build on the same
/// positions; otherwise the name of the first diverging structure.
inline std::string divergence(const dynamic::DynamicSpanner& dyn) {
    return state_divergence(dyn.positions(), dyn.radius(), dyn.udg(), dyn.backbone());
}

}  // namespace geospanner::test
