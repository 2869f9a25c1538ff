// Tile-sharded spanner construction for million-node worlds.
//
// The monolithic engine (src/engine) parallelizes the per-node work
// *inside* each stage but still walks every stage over the full graph on
// one thread's orchestration. TileShardedEngine instead carves the plane
// into an axis-aligned tile grid (shard::partition_points), runs the
// whole staged pipeline per tile over the tile's halo-extended region,
// and deterministically merges the per-tile outputs.
//
// Equivalence contract: the merged UDG, cluster state, connector flags,
// all six backbone graphs, and the LDel triangle set are edge-for-edge
// identical to a monolithic SpannerEngine build of the same input, for
// any tile count and thread count (tests/test_shard.cpp pins this
// across shapes × seeds × tiles × threads, audits on).
//
// Why it works — the per-stage locality ledger (full argument in
// docs/ARCHITECTURE.md):
//   * the MIS election is the one stage with unbounded decision chains
//     (a collinear run of ascending ids propagates roles arbitrarily
//     far), so roles are elected ONCE on the merged UDG — cheap,
//     O(rounds · m) — and the global ClusterState is restricted to each
//     region (restriction only drops out-of-region list entries, never
//     invents any);
//   * every downstream decision of an owned node then reads a bounded
//     hop ball: connector elections ≲ 4 hops, ICDS rows 5, LDel¹
//     triangle membership 6, Algorithm-3 partner certification ≲ 9,
//     Gabriel witnesses 1 — all under the default halo of
//     halo_hops = 10 hops (one hop spans ≤ radius, so a Euclidean halo
//     of halo_hops · radius dominates the hop ball; regions are
//     cell-granular supersets, and extra context never changes an owned
//     decision).
// verify::audit_shards certifies the halo/ownership/coverage invariants
// on every audited build.
//
// Ownership rule (the merge's determinism anchor): an edge is owned by
// the tile owning its lexicographically smaller endpoint; a triangle by
// the tile owning its least vertex; a node flag by the node's tile.
// Region node lists are sorted by global id, so local ids are
// order-isomorphic to global ids and every id-based election inside a
// tile decides exactly as the monolithic run does.
#pragma once

#include <cstddef>
#include <vector>

#include "core/backbone.h"
#include "core/report.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "graph/geometric_graph.h"
#include "shard/partition.h"
#include "verify/audit.h"

namespace geospanner::shard {

struct ShardOptions {
    std::size_t threads = 0;  ///< 0 → hardware concurrency
    /// Target tile count; 0 → 4 × thread count (enough tiles that the
    /// slowest tile cannot straggle the whole build).
    std::size_t tiles = 0;
    /// Halo width in units of the transmission radius. 10 covers the
    /// deepest decision chain of the pipeline (see header comment); it
    /// is a tunable, not a guess — verify::audit_shards plus the
    /// equivalence suite will catch a halo set too thin.
    std::size_t halo_hops = 10;
    /// Opt-in verification: runs the monolithic per-stage audits on the
    /// MERGED structures plus verify::audit_shards on the tile layout.
    bool audit = false;
    verify::AuditOptions audit_options;
};

/// Timing breakdown of one tile's pipeline run.
struct ShardStats {
    std::size_t tile = 0;            ///< tile index (row-major)
    std::size_t owned = 0;           ///< nodes this tile owns
    std::size_t region = 0;          ///< nodes in the halo-extended region
    core::PipelineStats stats;       ///< per-stage times of the tile's pipeline
};

struct ShardBuildResult {
    graph::GeometricGraph udg;       ///< merged, identical to monolithic
    core::Backbone backbone;         ///< merged, identical to monolithic
    core::PipelineStats stats;       ///< partition / udg / clustering / shards / merge
    std::vector<ShardStats> shards;  ///< one entry per tile that built anything
    verify::AuditTrail audit;        ///< empty unless ShardOptions::audit
};

/// Facade owning the pool: one engine, many sharded builds.
class TileShardedEngine {
  public:
    explicit TileShardedEngine(ShardOptions options = {});

    [[nodiscard]] std::size_t thread_count() const noexcept {
        return pool_.thread_count();
    }
    [[nodiscard]] const ShardOptions& options() const noexcept { return options_; }

    /// Full sharded pipeline from raw node positions. Degenerate inputs
    /// (no points, radius 0) take the monolithic path — there is
    /// nothing to shard and the stage names reflect that. Throws
    /// std::invalid_argument before any work when core::input_error
    /// rejects the points or radius.
    [[nodiscard]] ShardBuildResult build(std::vector<geom::Point> points, double radius);

  private:
    ShardOptions options_;
    engine::ThreadPool pool_;
};

}  // namespace geospanner::shard
