// Incremental spanner maintenance for dynamic topologies.
//
// The paper's construction is local at every stage: a node's cluster
// role depends on its 1-hop neighborhood, a connector election on the
// 2-hop ball of its dominator pair, and an LDel¹ triangle on the 1-hop
// balls of its three corners. DynamicSpanner exploits that locality to
// repair a finished backbone after point updates (move/join/leave
// batches) by recomputing only the *dirty region* — the k-hop closure,
// over the union of old and new adjacency, of the nodes whose inputs
// changed — and splicing the recomputed sub-results into the retained
// GeometricGraphs.
//
// Correctness contract: after any update sequence the patched topology
// is edge-for-edge identical to a from-scratch build on the same
// positions (proximity::build_udg + core::build_backbone with
// Engine::kCentralized, or equivalently the staged engine). The
// per-stage dirty-set expansion rules that guarantee this are derived
// in docs/ARCHITECTURE.md; tests/test_dynamic.cpp fuzzes the equality
// across trace replays and runs the verify:: auditors on patched
// outputs.
//
// Concurrency: a batch's dirty set is decomposed into connected dirty
// components (multi-source label BFS over old ∪ new adjacency with a
// fixed 12-hop merge margin, unioned when frontiers meet). Components
// whose seed sets stay >= 13 hops apart have disjoint
// per-stage read and write sets — every stage's dirty expansion reaches
// at most 7 hops past the seeds — so their connector elections are
// *planned* concurrently on the engine ThreadPool against the frozen
// pre-commit state and committed serially in deterministic component
// order. The LDel/Alg3 and Gabriel kernels stay global (crossing
// triangles couple hop-distant regions spatially, which is exactly what
// Algorithm 3 resolves) and parallelize over items as before.
//
// Retained state: beside the positions, the node grid, the UDG and the
// Backbone itself, only what a Backbone cannot answer, in the per-node
// rows of the engine::PatchSeed a full build hands over as is — the
// connector elections with their node and CDS-edge refcounts, and each
// node's local triangle list over the ICDS. A patch rewrites only the
// rows of its dirty nodes. The rest is re-derived per patch:
// LDel⁽¹⁾ membership from the lists' votes, the Algorithm 3 survivors
// from Backbone::ldel_triangles, Algorithm 3 partners from the node
// grid (LDel⁽¹⁾ sides are at most the radius, so every corner of a
// partner lies within one radius of the triangle's box; each partner
// is found at its least corner), LDel(ICDS) rows from Gabriel tests
// plus kept triangles, and each primed graph from its base graph plus
// the dominatee links.
//
// Fallback policy: the rebuild decision is per component. Only a batch
// with a *single* component whose 2-hop dirty region exceeds a quarter
// of n (or whose union of regions exceeds half of n, or that contains
// leaves, whose swap-remove id compaction perturbs the id-keyed
// elections globally) falls back to a full rebuild from the current positions. Many small
// far-apart updates therefore stay on the localized path even when
// their merged dirty set spans the graph. The full rebuild is the
// engine's staged build (the reference the patch path is held to), and
// its connector elections and local triangle lists become the retained
// state that later patches update.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/backbone.h"
#include "core/report.h"
#include "dynamic/dynamic_cell_grid.h"
#include "engine/engine.h"
#include "graph/geometric_graph.h"
#include "proximity/ldel.h"

namespace geospanner::dynamic {

/// One batch of point updates, applied in this order: moves (to current
/// ids), then joins (appended as new largest ids, returned implicitly
/// as node_count() .. node_count()+joins-1), then leaves (each applied
/// sequentially with swap-remove: the last node takes the leaver's id).
struct UpdateBatch {
    struct Move {
        graph::NodeId node;
        geom::Point to;
    };
    std::vector<Move> moves;
    std::vector<geom::Point> joins;
    std::vector<graph::NodeId> leaves;

    [[nodiscard]] bool empty() const {
        return moves.empty() && joins.empty() && leaves.empty();
    }
};

/// Structural validation of `batch` against a spanner of `node_count`
/// nodes and the given radius: "" when every move and leave names an
/// existing node and every move target and join passes
/// core::input_error at `radius` (finite, and within the cell grids'
/// range), otherwise the first problem found. Leaves are checked
/// sequentially, each against the count left by the previous
/// swap-removes. Cheap enough to run on every batch.
[[nodiscard]] std::string validate_batch(const UpdateBatch& batch, std::size_t node_count,
                                         double radius);

/// One connected dirty component of a batch: its connector-stage seed
/// set size, its 2-hop dirty region (sorted node ids), and whether that
/// region alone exceeded the per-component rebuild gate.
struct ComponentStats {
    std::size_t seed_count = 0;
    bool over_cap = false;                 ///< region > n / 4
    std::vector<graph::NodeId> region;     ///< sorted 2-hop dirty region
};

/// What one apply() did: the repair path taken, the per-stage dirty
/// volumes, the dirty-component decomposition, and the stage timing
/// breakdown (same PipelineStats type the engine emits for full builds).
struct PatchStats {
    bool fell_back = false;            ///< batch took the full-rebuild path
    std::size_t dirty_nodes = 0;       ///< union of all per-stage dirty sets
    std::size_t udg_edge_changes = 0;  ///< UDG edges added + removed
    std::size_t roles_changed = 0;     ///< cluster roles flipped by the cascade
    std::size_t pairs_recomputed = 0;  ///< connector pair elections rerun
    std::size_t triangles_retested = 0;  ///< Algorithm-3 survivals re-evaluated
    /// The connected dirty components the batch decomposed into, in
    /// deterministic (smallest-seed) order. Empty when the batch fell
    /// back before decomposition (leaves, cascade blowout, total gate).
    std::vector<ComponentStats> components;
    std::size_t component_fallbacks = 0;  ///< components over the per-component cap
    /// Certified minimum hop separation between distinct components'
    /// seed sets over old ∪ new adjacency (the 12-hop merge margin + 1);
    /// 0 when no decomposition ran. verify::audit_patch_components
    /// checks the region layout against it.
    std::size_t separation_hops = 0;
    core::PipelineStats pipeline;
};

/// A maintained (UDG, Backbone) pair under point updates, in the
/// paper's configuration (lowest-ID clustering, LDel⁽¹⁾ + Algorithm 3)
/// that the engine builds. The engine reference supplies the ThreadPool
/// for the bulk kernels and the full rebuilds.
class DynamicSpanner {
  public:
    /// Builds the initial state. Throws std::invalid_argument when
    /// core::input_error rejects the points or radius, or the radius is
    /// 0.
    DynamicSpanner(engine::SpannerEngine& engine, std::vector<geom::Point> points,
                   double radius);

    /// Applies one update batch and repairs the backbone. Returns the
    /// patch report; stats.pipeline carries one StageStats per patch
    /// kernel (or the engine's stage names on the fallback path).
    /// Throws std::invalid_argument, before touching any state, when
    /// validate_batch rejects the batch.
    PatchStats apply(const UpdateBatch& batch);

    [[nodiscard]] const graph::GeometricGraph& udg() const noexcept { return udg_; }
    [[nodiscard]] const core::Backbone& backbone() const noexcept { return backbone_; }
    [[nodiscard]] const std::vector<geom::Point>& positions() const noexcept {
        return points_;
    }
    [[nodiscard]] std::size_t node_count() const noexcept { return points_.size(); }
    [[nodiscard]] double radius() const noexcept { return radius_; }
    [[nodiscard]] engine::SpannerEngine& engine() noexcept { return *engine_; }
    /// The retained state: equal, after any update sequence, to that of a
    /// fresh DynamicSpanner on the same positions.
    [[nodiscard]] const engine::PatchSeed& retained() const noexcept { return retained_; }

  private:
    using NodeId = graph::NodeId;
    using Pair = std::pair<NodeId, NodeId>;
    using TriangleKey = proximity::TriangleKey;
    using Item = engine::ElectedItem;

    /// One connector election: two-hop elections use unordered (min,
    /// max) dominator pairs, three-hop elections ordered (u, v) pairs.
    struct ElectionKey {
        bool three_hop = false;
        NodeId first = 0;
        NodeId second = 0;

        friend auto operator<=>(const ElectionKey&, const ElectionKey&) = default;
    };

    /// Scratch + dirty sets of one localized apply(), rebuilt per batch.
    struct PatchContext {
        std::vector<NodeId> moved;        ///< sorted; nodes whose position changed
        std::vector<char> moved_flag;     ///< n-sized
        /// Batch-start positions of the moved nodes, by node: the boxes of
        /// the LDel⁽¹⁾ triangles they held are built where those stood.
        std::vector<std::pair<NodeId, geom::Point>> moved_from;
        std::vector<NodeId> joined;       ///< sorted new ids
        std::vector<NodeId> adj_changed;  ///< sorted; endpoints of UDG edge deltas
        std::vector<Pair> udg_added;
        std::vector<Pair> udg_removed;
        /// udg_removed both ways, sorted: run (v, ·) is the *old* adjacency
        /// v lost, for k-hop expansion over old ∪ new edges.
        std::vector<Pair> udg_removed_adj;

        /// Sorted after the cascade. Each flips once, so its old role is
        /// the opposite of its current one.
        std::vector<NodeId> roles_changed;
        /// Nodes whose dominators_of list changed, and the dominatee
        /// links (v, dominator) their old lists held, normalized.
        std::vector<NodeId> dom_list_changed;
        std::vector<Pair> old_links;
        std::vector<NodeId> two_hop_changed;

        /// Nodes whose election refcount hit or left zero, for the
        /// connector-flag settle pass.
        std::vector<NodeId> conn_touched;
        std::vector<NodeId> connector_changed;  ///< is_connector flips
        std::vector<Pair> cds_changed;  ///< CDS edges added or removed
        std::size_t pairs_deleted = 0;
        std::size_t pairs_reelected = 0;
        [[nodiscard]] std::size_t pairs_recomputed() const {
            return pairs_deleted + pairs_reelected;
        }

        std::vector<NodeId> backbone_changed;  ///< in_backbone flips
        std::vector<Pair> icds_added;
        std::vector<Pair> icds_removed;
        std::vector<NodeId> icds_adj_changed;  ///< sorted after the stage

        std::vector<NodeId> ldel_dirty;  ///< sorted; local triangle lists recomputed
        /// Alg3-survivor deltas: merged into ldel_triangles, and their
        /// corners' LDel(ICDS) rows recomputed.
        std::vector<TriangleKey> kept_added;
        std::vector<TriangleKey> kept_removed;
        std::vector<Pair> ldel_changed;  ///< LDel(ICDS) edges added or removed
        std::vector<char> dirty_union;  ///< union of all per-stage dirty nodes
        std::size_t dirty_count = 0;

        explicit PatchContext(std::size_t n) : moved_flag(n, 0), dirty_union(n, 0) {}
        void touch(NodeId v) {  ///< adds v to the dirty union
            dirty_count += dirty_union[v] == 0 ? 1 : 0;
            dirty_union[v] = 1;
        }
    };

    /// The deferred effects of one component's connector re-election,
    /// computed read-only against the frozen pre-commit state. Plans of
    /// disjoint components touch disjoint elections, refcounts, and
    /// edges, so committing them serially in component order is
    /// equivalent to any sequential per-component execution.
    /// Re-elections whose items match the retained election are dropped
    /// at plan time (the delete + recommit would be a refcount no-op),
    /// so deletions/commits carry only actual changes.
    struct ConnectorPlan {
        std::vector<NodeId> touched;  ///< s2 — nodes to mark dirty
        std::vector<ElectionKey> deletions;
        /// Elections to commit as (first dominator, end): commit k holds
        /// items[end of commit k - 1, or 0, end).
        std::vector<std::pair<NodeId, std::size_t>> commits;
        std::vector<Item> items;
        std::size_t pairs_reelected = 0;  ///< candidate pairs considered
    };

    // Stage kernels. Each reads the dirty inputs from `ctx`, patches the
    // retained state, and records what it invalidated for the next
    // stage. The paper's rules come from the same functions the engine
    // calls: protocol::derive_(two_hop_)dominators for the lowest-ID
    // cascade, the protocol election kernel (collect_candidates,
    // elect_two_hop, elect_three_hop) for connector planning,
    // proximity::ldel1_member and alg3_removed_by for LDel⁽¹⁾ and
    // Algorithm 3, and proximity::is_gabriel_edge for the Gabriel patch.
    // What stays here is the dirty-set bookkeeping and the retained rows.
    void stage_udg(const UpdateBatch& batch, PatchContext& ctx);
    /// Role cascade + derived-list recompute; false → more than `cap`
    /// roles flipped, caller falls back to a full rebuild.
    bool run_cluster_cascade(PatchContext& ctx, std::size_t cap);
    /// Partitions `c2` into connected dirty components: multi-source
    /// label BFS over old ∪ new adjacency, depth 6 per side (half the
    /// 12-hop merge margin), union-find merging labels whose frontiers
    /// meet. Distinct components' seed sets end up >= 13 hops apart.
    /// Components come back as sorted seed slices in deterministic
    /// smallest-seed order; each one's ComponentStats, with its 2-hop
    /// dirty region, is appended to `out`.
    [[nodiscard]] std::vector<std::vector<NodeId>> decompose_components(
        const PatchContext& ctx, const std::vector<NodeId>& c2,
        std::vector<ComponentStats>& out) const;
    /// Read-only election planning for one component's seed slice: the
    /// election kernel over the W2 scan, filtered to pairs with a
    /// recompute endpoint, diffed against the retained elections.
    void plan_connectors(const PatchContext& ctx, const std::vector<NodeId>& c2,
                         ConnectorPlan& plan) const;
    /// Plans all components concurrently on the engine pool, commits
    /// them serially in component order, then settles is_connector
    /// flags from the final refcounts.
    void stage_connectors_componentwise(PatchContext& ctx,
                                        const std::vector<std::vector<NodeId>>& comps);
    void stage_icds(PatchContext& ctx);
    void stage_ldel(PatchContext& ctx, PatchStats& stats);
    void stage_gabriel(PatchContext& ctx);
    void stage_assemble(PatchContext& ctx);

    void append_node(geom::Point p);
    /// The engine's staged build from the current positions; its
    /// PatchSeed becomes the retained state as is. `stats` is marked
    /// fell_back and gets the engine's stages and the totals an
    /// everything-dirty patch would report.
    void rebuild_from_scratch(PatchStats& stats);
    void apply_positions_only(const UpdateBatch& batch);

    // Connector-election helpers: an election's run of items plus the
    // refcounts and CDS edges it holds. delete_election returns false
    // when the election was already gone (idempotent).
    bool delete_election(const ElectionKey& key, PatchContext& ctx);
    void commit_election(NodeId first, std::span<const Item> items, PatchContext& ctx);
    /// Counts `item` in (+1) or out (-1) of its connector's or CDS
    /// edge's refcount, recording flips in `ctx`.
    void hold(const Item& item, int delta, PatchContext& ctx);

    /// Sorted k-hop closure of `seeds` over the UDG plus the edges the
    /// batch removed.
    [[nodiscard]] std::vector<NodeId> expand_hops(const PatchContext& ctx,
                                                  const std::vector<NodeId>& seeds,
                                                  int hops) const;

    engine::SpannerEngine* engine_;
    double radius_ = 1.0;
    std::vector<geom::Point> points_;
    DynamicCellGrid grid_;
    graph::GeometricGraph udg_;
    core::Backbone backbone_;

    /// What the Backbone cannot answer, in the rows the engine builds:
    /// the connector elections with their node and CDS-edge refcounts,
    /// and each node's local triangle list over the ICDS, whose votes
    /// define LDel⁽¹⁾ (ldel1_member) and which finds a triangle at its
    /// least corner.
    engine::PatchSeed retained_;
};

}  // namespace geospanner::dynamic
