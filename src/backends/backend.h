// Pluggable spanner-construction backends.
//
// The paper's clustered-CDS + localized-Delaunay pipeline is one point
// in a design space of localized UDG spanners. This subsystem factors
// the construction behind a uniform interface so competing designs can
// be built on the same UDG, measured by the same metrics, and audited
// against their own advertised guarantees with one generic
// verify::audit_backend call:
//
//   * "engine"        — the paper pipeline behind engine::SpannerEngine,
//                       bit-identical to calling the engine directly;
//   * "biniaz"        — a grid-based plane hop spanner after Biniaz
//                       (arXiv:1902.10051) and Catusse–Chepoi–Vaxès;
//   * "kanj_perkovic" — a bounded-degree plane spanner after
//                       Kanj–Perković (arXiv:0802.2864);
//   * "baswana_sen"   — the classic randomized (2k−1)-spanner, the
//                       non-geometric baseline.
//
// Each backend declares its claimed bounds (plane or not, degree cap,
// stretch constants) as a verify::BackendClaims value; the claim set is
// part of the backend's contract and tests/test_backends.cpp audits
// every backend against exactly its own claims across uniform,
// clustered, and degenerate (collinear / cocircular) inputs.
//
// Backends are registered in a string-keyed factory registry so benches
// and tools can select a construction by name (see bench_backends for
// the head-to-head sweep).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/report.h"
#include "graph/geometric_graph.h"
#include "verify/backend_audit.h"

namespace geospanner::backends {

/// Construction-time knobs shared by the registry factories. Each
/// backend reads only the fields it documents; unread fields are
/// ignored, so one options value can drive a sweep over all backends.
struct BackendOptions {
    /// Worker lanes for backends that parallelize ("engine");
    /// 0 = hardware concurrency.
    std::size_t threads = 0;
    /// Seed for randomized backends ("baswana_sen"). Builds are
    /// deterministic per seed.
    std::uint64_t seed = 0x5eedf00dULL;
    /// Cone count of the degree-bounding Yao step ("kanj_perkovic").
    int cones = 14;
    /// Stretch parameter of Baswana–Sen: the spanner guarantees length
    /// stretch 2k − 1.
    std::size_t k = 2;
};

/// One backend build: the spanner over the full node set, the per-stage
/// timing breakdown, and (for backends that execute a message-passing
/// protocol) per-node message counts.
struct BackendResult {
    graph::GeometricGraph spanner;
    core::PipelineStats stats;
    core::MessageStats messages;  ///< empty unless the backend runs a protocol
};

/// A spanner construction: build from a UDG (or raw points + radius),
/// report per-stage StageStats, and declare the bounds the construction
/// claims — the contract verify::audit_backend checks.
class SpannerBackend {
  public:
    virtual ~SpannerBackend() = default;

    /// Registry key, e.g. "engine", "biniaz".
    [[nodiscard]] virtual std::string name() const = 0;

    /// The bounds this construction advertises. Constant per backend
    /// configuration; audited by verify::audit_backend.
    [[nodiscard]] virtual verify::BackendClaims claims() const = 0;

    /// Builds the spanner over an existing UDG with the given
    /// transmission radius. Deterministic: same UDG + same options
    /// (including seed) produce the same edge set. Throws
    /// std::invalid_argument before any work when core::input_error
    /// rejects the UDG's points or the radius.
    [[nodiscard]] virtual BackendResult build(const graph::GeometricGraph& udg,
                                              double radius) = 0;

    /// Builds from raw node positions: constructs the UDG, then the
    /// spanner. Backends may override to fuse the stages (the engine
    /// backend runs its own staged UDG construction). Throws
    /// std::invalid_argument before any work when core::input_error
    /// rejects the points or radius.
    [[nodiscard]] virtual BackendResult build_points(std::vector<geom::Point> points,
                                                     double radius);
};

using BackendFactory =
    std::function<std::unique_ptr<SpannerBackend>(const BackendOptions&)>;

/// Registers a factory under `name`; returns false (and leaves the
/// existing entry) when the name is already taken. The four built-in
/// backends are pre-registered on first registry access.
bool register_backend(const std::string& name, BackendFactory factory);

/// Instantiates the named backend, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<SpannerBackend> make_backend(
    const std::string& name, const BackendOptions& options = {});

/// All registered names, sorted.
[[nodiscard]] std::vector<std::string> registered_backends();

}  // namespace geospanner::backends
