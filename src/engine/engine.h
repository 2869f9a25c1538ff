// Batched, multi-threaded spanner-construction pipeline.
//
// The paper's construction is node-local at every step — O(1) messages
// per node, and per-node computation that here is one walk of the
// node's local Delaunay star, O(d·k) predicates for degree d and star
// size k — so the engine parallelizes the per-node work inside each
// stage: grid-cell UDG edge generation, the per-node dominator lists,
// per-pair connector elections, the per-node 1-hop local Delaunay
// stars, the Algorithm-3 pair scan over blocks of grid cells, and the
// per-node Gabriel test of the assembled graph.
//
// The engine builds the paper's configuration only: lowest-ID MIS
// clustering, Algorithm 1 connectors, LDel⁽¹⁾ and Algorithm 3. The
// variants the paper reviews (highest-degree clustering, LDel⁽²⁾) are
// selectable in core::BuildOptions alone.
//
// Determinism contract: for any thread count, the engine produces
// edge-for-edge identical output to the sequential centralized path
// (`proximity::build_udg` + `core::build_backbone` with
// Engine::kCentralized and default options). Parallel loops write only
// block-owned slots and results are merged in block order on the
// calling thread; nothing ever depends on scheduling order. On one lane
// every stage is one block, so it does exactly the serial path's work.
// tests/test_engine.cpp asserts the equality across thread counts,
// seeds, and workload shapes.
//
// Each stage records wall time, items processed, and thread count into
// a core::PipelineStats report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/backbone.h"
#include "core/report.h"
#include "engine/thread_pool.h"
#include "graph/cow_rows.h"
#include "graph/geometric_graph.h"
#include "protocol/connectors.h"
#include "proximity/ldel.h"
#include "verify/audit.h"

namespace geospanner::engine {

struct EngineOptions {
    std::size_t threads = 0;  ///< 0 → hardware concurrency
    /// Opt-in post-stage verification: after the clustering, connector,
    /// ICDS, and LDel stages the engine runs the matching verify::
    /// checkers and appends a StageAudit to the result's trail. Audits
    /// are read-only — output is edge-identical with audits on or off at
    /// any thread count (test_engine.cpp pins this).
    bool audit = false;
    verify::AuditOptions audit_options;  ///< caps used when audit is on
};

/// One thing a connector election holds, in the row of its pair's first
/// dominator: a node it elected (`edge` false, x == y) or a CDS edge
/// (x, y), x < y, it contributed. Rows ascend, so election (three_hop,
/// first, second) is one run of row `first`: its connectors, then its
/// edges, each ascending as protocol::PairElection leaves them.
struct ElectedItem {
    bool three_hop = false;    ///< ordered three-hop pair; else two-hop, first < second
    graph::NodeId second = 0;  ///< the pair's other dominator
    bool edge = false;
    graph::NodeId x = 0;
    graph::NodeId y = 0;

    friend auto operator<=>(const ElectedItem&, const ElectedItem&) = default;
};

/// Appends `election`'s items, for a pair ending at `second`, to `row`.
void append_elected(bool three_hop, graph::NodeId second,
                    const protocol::PairElection& election, std::vector<ElectedItem>& row);

/// Reverse index entry: row v names each election whose pair ends at v.
struct ElectionRef {
    bool three_hop = false;
    graph::NodeId first = 0;

    friend auto operator<=>(const ElectionRef&, const ElectionRef&) = default;
};

/// A CDS edge (row, other), row < other, with the number of elections
/// contributing it.
struct EdgeCount {
    graph::NodeId other = 0;
    std::uint32_t count = 0;

    friend bool operator==(const EdgeCount&, const EdgeCount&) = default;
};

/// The state dynamic::DynamicSpanner keeps between patches, as rows keyed
/// by node: every connector election that elected a node or an edge,
/// with its refcounts, and the LDel⁽¹⁾ votes. build_backbone_staged and
/// build_backbone_from_cluster replace one when given it; without one
/// they do no extra work.
struct PatchSeed {
    graph::CowRows<ElectedItem> elected;     ///< row u: elections whose pair starts at u
    graph::CowRows<ElectionRef> elected_by;  ///< row v: elections whose pair ends at v
    std::vector<int> connector_refs;         ///< per node: elections electing it
    graph::CowRows<EdgeCount> cds_refs;      ///< row u: CDS edges (u, v > u), ascending
    /// Per-node proximity::local_triangles_at lists over the ICDS, the
    /// LDel⁽¹⁾ votes.
    graph::CowRows<proximity::TriangleKey> local;

    friend bool operator==(const PatchSeed&, const PatchSeed&) = default;
};

/// One constructed instance: the UDG, every backbone topology, the
/// stage timing breakdown, and (when EngineOptions::audit) the
/// per-stage invariant certificates.
struct BuildResult {
    graph::GeometricGraph udg;
    core::Backbone backbone;
    core::PipelineStats stats;
    verify::AuditTrail audit;  ///< empty unless EngineOptions::audit
};

/// UDG stage on `pool`'s lanes: the per-node grid-cell scan runs in
/// parallel, the edge merge happens in node order. Identical output to
/// proximity::build_udg. Appends "grid" (spatial-grid / Morton reorder
/// cost) and "udg" (neighbor scans) stages to `stats` when given.
[[nodiscard]] graph::GeometricGraph build_udg_staged(ThreadPool& pool,
                                                     std::vector<geom::Point> points,
                                                     double radius,
                                                     core::PipelineStats* stats = nullptr);

/// Clustering stage on `pool`'s lanes: the MIS rounds (protocol::
/// elect_roles, lowest-ID) run serially, then the dominators_of and
/// two_hop_dominators_of rows are derived in parallel node blocks.
/// Identical output to protocol::cluster_reference.
[[nodiscard]] protocol::ClusterState cluster_staged(ThreadPool& pool,
                                                    const graph::GeometricGraph& udg);

/// Clustering → connectors → ICDS → LDel → planarize → assemble over an
/// existing UDG, parallelizing the per-node work of each stage on
/// `pool`'s lanes. Identical output to core::build_backbone with
/// Engine::kCentralized (message stats stay empty, as there). Appends
/// one StageStats entry per stage to `stats` when given. When
/// `options.audit` and `trail` are both set, runs the post-stage
/// verify:: audits and appends their StageAudits to `trail`. When
/// `seed` is set, also replaces it with the connector elections and
/// the per-node local triangle lists; the output is the same
/// either way. Throws std::invalid_argument before any work when
/// core::input_error rejects the UDG's points.
[[nodiscard]] core::Backbone build_backbone_staged(ThreadPool& pool,
                                                   const graph::GeometricGraph& udg,
                                                   const EngineOptions& options,
                                                   core::PipelineStats* stats = nullptr,
                                                   verify::AuditTrail* trail = nullptr,
                                                   PatchSeed* seed = nullptr);

/// The pipeline from the connector stage on, over an externally supplied
/// clustering — the seam the tile-sharded builder (src/shard) plugs
/// into: the MIS election is the one stage whose decision chains are not
/// O(1)-hop local (a lowest-id chain propagates roles arbitrarily far),
/// so the sharded engine clusters once on the merged UDG (cluster_staged)
/// and runs this per tile with the cluster state restricted to the
/// tile's halo region. build_backbone_staged is exactly cluster_staged +
/// this call. No clustering StageStats/StageAudit entry is appended here;
/// the caller owns that stage. `seed` as in build_backbone_staged.
[[nodiscard]] core::Backbone build_backbone_from_cluster(
    ThreadPool& pool, const graph::GeometricGraph& udg,
    protocol::ClusterState cluster, const EngineOptions& options,
    core::PipelineStats* stats = nullptr, verify::AuditTrail* trail = nullptr,
    PatchSeed* seed = nullptr);

/// Facade owning the pool: one engine, many builds.
class SpannerEngine {
  public:
    explicit SpannerEngine(EngineOptions options = {});

    [[nodiscard]] std::size_t thread_count() const noexcept {
        return pool_.thread_count();
    }
    [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
    [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

    /// Full pipeline from raw node positions. Throws
    /// std::invalid_argument before any work when core::input_error
    /// rejects the points or radius.
    [[nodiscard]] BuildResult build(std::vector<geom::Point> points, double radius);

    /// Staged pipeline over an existing UDG (no UDG stage). `trail`
    /// receives the post-stage audit certificates when the engine was
    /// configured with EngineOptions::audit. Throws
    /// std::invalid_argument, as build_backbone_staged does.
    [[nodiscard]] core::Backbone build_backbone(const graph::GeometricGraph& udg,
                                                core::PipelineStats* stats = nullptr,
                                                verify::AuditTrail* trail = nullptr);

  private:
    EngineOptions options_;
    ThreadPool pool_;
};

}  // namespace geospanner::engine
