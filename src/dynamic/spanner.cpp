#include "dynamic/spanner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>

#include "core/input.h"
#include "engine/thread_pool.h"
#include "protocol/clustering.h"
#include "protocol/connectors.h"
#include "proximity/classic.h"

namespace geospanner::dynamic {

using graph::GeometricGraph;
using protocol::Role;

namespace {

/// Minimum dirty-item count before a kernel is worth the pool; smaller
/// patches run inline (results are identical either way — kernels write
/// index-owned slots and commit in index order).
constexpr std::size_t kParallelThreshold = 64;

/// Dirty components whose seed sets lie within this many hops (over the
/// union of pre- and post-batch adjacency) merge before patching. The
/// per-stage dirty expansions reach at most 7 hops past a component's
/// seeds, so any margin >= 8 keeps the planned write/read sets of
/// distinct components disjoint; the rest is safety slack.
constexpr std::size_t kComponentMergeHops = 12;

/// Per-component rebuild gate: only a *single* dirty component whose
/// 2-hop region exceeds this fraction of n forces the full-rebuild
/// path. A batch of many small, far-apart updates stays localized even
/// when the union of its regions is large, since disjoint components
/// are patched independently.
constexpr double kRebuildFraction = 0.25;

/// Whole-batch gate: past this fraction of n in the union of all dirty
/// regions (or in the cascade's role flips), even perfectly parallel
/// localized patching loses to one parallel rebuild.
constexpr double kTotalRebuildFraction = 0.5;

/// body(i) for every i < count, on the pool from kParallelThreshold
/// items up.
void for_items(engine::ThreadPool& pool, std::size_t count,
               const std::function<void(std::size_t)>& body) {
    if (count >= kParallelThreshold) {
        pool.parallel_for(0, count, body);
    } else {
        for (std::size_t i = 0; i < count; ++i) body(i);
    }
}

template <typename T>
void sort_unique(std::vector<T>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

std::pair<graph::NodeId, graph::NodeId> norm(graph::NodeId a, graph::NodeId b) {
    return {std::min(a, b), std::max(a, b)};
}

/// Runs `stage`, which returns its item count, and appends its wall
/// time to the patch's PipelineStats.
template <typename Stage>
void timed(core::PipelineStats& stats, const char* name, Stage&& stage,
           std::size_t threads = 1) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t items = stage();
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    stats.stages.push_back({name, wall.count(), items, threads});
}

/// One merge pass over two sorted lists: removed(x) for every x only in
/// `stale`, added(x) for every x only in `want`.
template <typename Removed, typename Added>
void diff_sorted(const std::vector<graph::NodeId>& stale,
                 const std::vector<graph::NodeId>& want, Removed&& removed, Added&& added) {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < stale.size() || j < want.size()) {
        if (j == want.size() || (i < stale.size() && stale[i] < want[j])) {
            removed(stale[i++]);
        } else if (i == stale.size() || want[j] < stale[i]) {
            added(want[j++]);
        } else {
            ++i;
            ++j;
        }
    }
}

/// The (v, ·) run of a sorted pair list: the UDG neighbors v lost.
std::span<const std::pair<graph::NodeId, graph::NodeId>> lost_at(
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& removed_adj,
    graph::NodeId v) {
    const auto run = std::ranges::equal_range(
        removed_adj, v, {}, &std::pair<graph::NodeId, graph::NodeId>::first);
    return {run.begin(), run.end()};
}

/// Bounds [lo, hi) of the election (three_hop, ·, second) in its first
/// dominator's row; lo == hi, the insertion point, when there is none.
std::pair<std::size_t, std::size_t> run_of(std::span<const engine::ElectedItem> row,
                                           bool three_hop, graph::NodeId second) {
    const auto key = [](const engine::ElectedItem& item) {
        return std::pair{item.three_hop, item.second};
    };
    const auto run = std::ranges::equal_range(row, std::pair{three_hop, second}, {}, key);
    return {static_cast<std::size_t>(run.begin() - row.begin()),
            static_cast<std::size_t>(run.end() - row.begin())};
}

/// True when row[k] opens an election's run.
bool opens_run(std::span<const engine::ElectedItem> row, std::size_t k) {
    return k == 0 || row[k].three_hop != row[k - 1].three_hop ||
           row[k].second != row[k - 1].second;
}

/// Index of the first element of sorted `row` whose projection is not
/// below `value`.
template <typename T, typename Value, typename Proj = std::identity>
std::size_t lower_index(std::span<const T> row, const Value& value, Proj proj = {}) {
    return static_cast<std::size_t>(std::ranges::lower_bound(row, value, {}, proj) -
                                    row.begin());
}

struct Box {
    double min_x, max_x, min_y, max_y;
};

Box box_of(geom::Point a, geom::Point b, geom::Point c) {
    return {std::min({a.x, b.x, c.x}), std::max({a.x, b.x, c.x}),
            std::min({a.y, b.y, c.y}), std::max({a.y, b.y, c.y})};
}

bool boxes_meet(const Box& p, const Box& q) {
    return p.min_x <= q.max_x && q.min_x <= p.max_x && p.min_y <= q.max_y &&
           q.min_y <= p.max_y;
}

/// Calls fn(t) once for every LDel⁽¹⁾ triangle t, by the votes in
/// `local`, whose box meets one of `boxes`. A triangle is found at its
/// least corner. Its sides are UDG edges, so every corner of a triangle
/// meeting a box lies within the radius (the grid's cell side) of it.
/// The UDG test rounds, so a side's exact length can exceed the radius
/// by a few ulps; `reach` covers that. Each grid cell is read once, for
/// all the boxes whose widened extent reaches it.
template <typename Fn>
void for_each_ldel1_meeting(const DynamicCellGrid& grid,
                            const std::vector<geom::Point>& points,
                            const std::vector<bool>& in_backbone,
                            const graph::CowRows<proximity::TriangleKey>& local,
                            std::span<const Box> boxes, Fn&& fn) {
    const double r = grid.cell_side();
    const double reach = r * (1.0 + std::ldexp(1.0, -40));
    std::vector<std::pair<proximity::CellCoord, std::size_t>> reached;  // (cell, box)
    reached.reserve(16 * boxes.size());  // a widened box spans about 4x4 cells
    for (std::size_t i = 0; i < boxes.size(); ++i) {
        const Box& b = boxes[i];
        const auto lo = proximity::cell_of({b.min_x - reach, b.min_y - reach}, r);
        const auto hi = proximity::cell_of({b.max_x + reach, b.max_y + reach}, r);
        for (long long cx = lo.first; cx <= hi.first; ++cx) {
            for (long long cy = lo.second; cy <= hi.second; ++cy) {
                reached.push_back({{cx, cy}, i});
            }
        }
    }
    std::sort(reached.begin(), reached.end());
    for (std::size_t first = 0, last = 0; first < reached.size(); first = last) {
        while (last < reached.size() && reached[last].first == reached[first].first) ++last;
        const auto meets_one = [&](const Box& b) {
            for (std::size_t k = first; k < last; ++k) {
                if (boxes_meet(boxes[reached[k].second], b)) return true;
            }
            return false;
        };
        for (const graph::NodeId u : grid.at(reached[first].first)) {
            // Nodes off the backbone (most of a dense cell) list nothing.
            if (!in_backbone[u]) continue;
            const geom::Point p = points[u];
            if (!meets_one({p.x - reach, p.x + reach, p.y - reach, p.y + reach})) continue;
            // Every key in local[u] contains u, so those with least
            // corner u are the sorted list's tail.
            const auto list = local[u];
            auto it = std::lower_bound(list.begin(), list.end(),
                                       proximity::TriangleKey{u, 0, 0});
            for (; it != list.end(); ++it) {
                const proximity::TriangleKey t = *it;
                if (meets_one(box_of(p, points[t.b], points[t.c])) &&
                    proximity::ldel1_member(local, t)) {
                    fn(t);
                }
            }
        }
    }
}

}  // namespace

std::string validate_batch(const UpdateBatch& batch, std::size_t node_count,
                           double radius) {
    for (const auto& mv : batch.moves) {
        if (mv.node >= node_count) {
            return "move targets nonexistent node " + std::to_string(mv.node);
        }
        if (std::string error = core::input_error({&mv.to, 1}, radius); !error.empty()) {
            return "move of node " + std::to_string(mv.node) + ": " + error;
        }
    }
    if (std::string error = core::input_error(batch.joins, radius); !error.empty()) {
        return "join: " + error;
    }
    std::size_t count = node_count + batch.joins.size();
    for (const graph::NodeId leaver : batch.leaves) {
        if (leaver >= count) {
            return "leave targets nonexistent node " + std::to_string(leaver);
        }
        --count;
    }
    return {};
}

// ---- Construction ----------------------------------------------------

DynamicSpanner::DynamicSpanner(engine::SpannerEngine& engine,
                               std::vector<geom::Point> points, double radius)
    : engine_(&engine), radius_(radius), points_(std::move(points)) {
    core::validate_input(points_, radius_);
    if (radius_ == 0.0) throw std::invalid_argument("radius must be positive");
    PatchStats stats;
    rebuild_from_scratch(stats);
}

void DynamicSpanner::append_node(geom::Point p) {
    const auto v = static_cast<NodeId>(points_.size());
    points_.push_back(p);
    grid_.insert(v, p);
    udg_.add_node(p);
    backbone_.cds.add_node(p);
    backbone_.cds_prime.add_node(p);
    backbone_.icds.add_node(p);
    backbone_.icds_prime.add_node(p);
    backbone_.ldel_icds.add_node(p);
    backbone_.ldel_icds_prime.add_node(p);
    backbone_.cluster.role.push_back(Role::kDominatee);
    backbone_.cluster.dominators_of.push_back();
    backbone_.cluster.two_hop_dominators_of.push_back();
    backbone_.is_connector.push_back(false);
    backbone_.in_backbone.push_back(false);
    retained_.elected.push_back();
    retained_.elected_by.push_back();
    retained_.connector_refs.push_back(0);
    retained_.cds_refs.push_back();
    retained_.local.push_back();
}

void DynamicSpanner::apply_positions_only(const UpdateBatch& batch) {
    for (const auto& mv : batch.moves) {
        assert(mv.node < points_.size());
        points_[mv.node] = mv.to;
    }
    for (const geom::Point p : batch.joins) points_.push_back(p);
    for (const NodeId leaver : batch.leaves) {
        assert(leaver < points_.size());
        points_[leaver] = points_.back();
        points_.pop_back();
    }
}

void DynamicSpanner::rebuild_from_scratch(PatchStats& stats) {
    grid_ = DynamicCellGrid(points_, radius_);
    udg_ = engine::build_udg_staged(engine_->pool(), points_, radius_, &stats.pipeline);
    backbone_ = engine::build_backbone_staged(engine_->pool(), udg_, engine_->options(),
                                              &stats.pipeline, nullptr, &retained_);

    // A rebuild counts as a patch with everything dirty, so per-batch
    // means stay comparable with localized batches: every node dirty,
    // every dominator a role flip, every LDel⁽¹⁾ triangle retested.
    stats.fell_back = true;
    stats.dirty_nodes = points_.size();
    stats.roles_changed = static_cast<std::size_t>(
        std::ranges::count(backbone_.cluster.role, Role::kDominator));
    for (const core::StageStats& stage : stats.pipeline.stages) {
        if (stage.name == "planarize") stats.triangles_retested = stage.items;
    }
}

// ---- apply -----------------------------------------------------------

PatchStats DynamicSpanner::apply(const UpdateBatch& batch) {
    if (std::string invalid = validate_batch(batch, points_.size(), radius_);
        !invalid.empty()) {
        throw std::invalid_argument(std::move(invalid));
    }
    PatchStats stats;
    if (!batch.leaves.empty()) {
        apply_positions_only(batch);
        rebuild_from_scratch(stats);
        return stats;
    }

    const std::size_t n_after = points_.size() + batch.joins.size();
    PatchContext ctx(n_after);

    timed(stats.pipeline, "udg-patch", [&] {
        stage_udg(batch, ctx);
        return ctx.udg_added.size() + ctx.udg_removed.size();
    });
    stats.udg_edge_changes = ctx.udg_added.size() + ctx.udg_removed.size();

    // Whole-batch gate: the dirty region every later stage works from
    // is bounded by the 2-hop closure (over old ∪ new adjacency) of the
    // nodes whose position or incident edge set changed. Past
    // kTotalRebuildFraction of n, even perfectly decomposed localized
    // patching loses to one parallel rebuild (which depends only on
    // current positions, so bailing here — after stage_udg already
    // mutated state — is safe). Whether a *component* is too big is
    // decided after decomposition, per component.
    std::vector<NodeId> seeds = ctx.moved;
    seeds.insert(seeds.end(), ctx.adj_changed.begin(), ctx.adj_changed.end());
    seeds.insert(seeds.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(seeds);
    const auto comp_cap =
        static_cast<std::size_t>(kRebuildFraction * static_cast<double>(n_after));
    const auto total_cap =
        static_cast<std::size_t>(kTotalRebuildFraction * static_cast<double>(n_after));
    const auto region = expand_hops(ctx, seeds, 2);
    if (region.size() > total_cap) {
        rebuild_from_scratch(stats);
        return stats;
    }
    for (const NodeId v : region) ctx.touch(v);

    bool cascade_ok = true;
    timed(stats.pipeline, "cluster-patch", [&] {
        cascade_ok = run_cluster_cascade(ctx, total_cap);
        return ctx.roles_changed.size();
    });
    if (!cascade_ok) {
        rebuild_from_scratch(stats);
        return stats;
    }

    // Decompose the connector-stage seed set into connected dirty
    // components and make the rebuild decision per component: only a
    // single over-cap component (or an over-cap union) forces the
    // fallback, so many small far-apart updates stay localized.
    std::vector<std::vector<NodeId>> comps;
    timed(stats.pipeline, "decompose-patch", [&] {
        // Seeds: the connector-stage set C2 — nodes whose election-
        // relevant state changed (adjacency, role, dominator list,
        // two-hop dominator list, or a fresh join). Every pair whose
        // election can differ has a dominator within the 2-hop closure
        // S2 of C2 over old ∪ new edges, because elections are pure
        // functions of the states of N2(pair). Plus every moved node: a
        // move that changed no UDG edge still dirties the LDel/Gabriel
        // stages, so it must occupy a component (and count against the
        // caps). Planning with the superset only re-runs elections
        // whose inputs are unchanged, which is idempotent.
        std::vector<NodeId> comp_seeds = ctx.moved;
        for (const auto* nodes : {&ctx.adj_changed, &ctx.joined, &ctx.roles_changed,
                                  &ctx.dom_list_changed, &ctx.two_hop_changed}) {
            comp_seeds.insert(comp_seeds.end(), nodes->begin(), nodes->end());
        }
        sort_unique(comp_seeds);
        comps = decompose_components(ctx, comp_seeds, stats.components);
        return comps.size();
    });
    stats.separation_hops = kComponentMergeHops + 1;
    std::size_t region_total = 0;
    for (ComponentStats& comp : stats.components) {
        comp.over_cap = comp.region.size() > comp_cap;
        region_total += comp.region.size();
        if (comp.over_cap) ++stats.component_fallbacks;
    }
    if (stats.component_fallbacks > 0 || region_total > total_cap) {
        rebuild_from_scratch(stats);
        return stats;
    }
    const std::size_t plan_lanes = comps.size() > 1 ? engine_->thread_count() : 1;
    timed(stats.pipeline, "connectors-patch", [&] {
        stage_connectors_componentwise(ctx, comps);
        return ctx.pairs_recomputed();
    }, plan_lanes);
    timed(stats.pipeline, "icds-patch", [&] {
        stage_icds(ctx);
        return ctx.icds_added.size() + ctx.icds_removed.size();
    });
    timed(stats.pipeline, "ldel-patch", [&] {
        stage_ldel(ctx, stats);
        return ctx.ldel_dirty.size();
    });
    timed(stats.pipeline, "gabriel-patch", [&] {
        stage_gabriel(ctx);
        return ctx.ldel_dirty.size();
    });
    timed(stats.pipeline, "assemble-patch", [&] {
        stage_assemble(ctx);
        return ctx.dom_list_changed.size();
    });
    stats.dirty_nodes = ctx.dirty_count;
    stats.roles_changed = ctx.roles_changed.size();
    stats.pairs_recomputed = ctx.pairs_recomputed();
    return stats;
}

// ---- Stage U: positions, grid, UDG edge deltas -----------------------

void DynamicSpanner::stage_udg(const UpdateBatch& batch, PatchContext& ctx) {
    for (const geom::Point p : batch.joins) {
        const auto id = static_cast<NodeId>(points_.size());
        append_node(p);
        ctx.joined.push_back(id);
        ctx.touch(id);
    }
    for (const auto& mv : batch.moves) {
        assert(mv.node < points_.size());
        const geom::Point old = points_[mv.node];
        if (old == mv.to) continue;
        grid_.relocate(mv.node, old, mv.to);
        points_[mv.node] = mv.to;
        if (ctx.moved_flag[mv.node] == 0) {
            ctx.moved_flag[mv.node] = 1;
            ctx.moved.push_back(mv.node);
            ctx.moved_from.emplace_back(mv.node, old);
            ctx.touch(mv.node);
        }
    }
    sort_unique(ctx.moved);
    std::ranges::sort(ctx.moved_from, {}, &std::pair<NodeId, geom::Point>::first);
    for (const NodeId v : ctx.moved) udg_.set_point(v, points_[v]);
    // All seven graphs hold the same positions: share the UDG's array
    // instead of patching (and, after a snapshot, cloning) six copies.
    for (GeometricGraph* g : {&backbone_.cds, &backbone_.cds_prime, &backbone_.icds,
                              &backbone_.icds_prime, &backbone_.ldel_icds,
                              &backbone_.ldel_icds_prime}) {
        g->share_points(udg_);
    }

    // Re-derive the incident edge set of every moved/joined node from
    // the grid. Desired sets are functions of the final positions, so
    // processing order between two affected nodes cannot disagree;
    // add/remove return-values dedupe the doubly-enumerated case.
    std::vector<NodeId> affected = ctx.moved;
    affected.insert(affected.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(affected);
    const auto mark_adj = [&](NodeId v) {
        ctx.adj_changed.push_back(v);  // deduplicated once the splice is done
        ctx.touch(v);
    };
    // Grid queries are pure reads of the settled grid + positions, so
    // the desired lists collect in parallel; the edge splice below
    // mutates shared adjacency and stays serial in node order.
    std::vector<std::vector<NodeId>> desired(affected.size());
    const auto collect = [&](std::size_t i) {
        grid_.collect_neighbors(points_, radius_, affected[i], desired[i]);
    };
    for_items(engine_->pool(), affected.size(), collect);
    std::vector<NodeId> stale;
    for (std::size_t ai = 0; ai < affected.size(); ++ai) {
        const NodeId v = affected[ai];
        stale.assign(udg_.neighbors(v).begin(), udg_.neighbors(v).end());
        diff_sorted(
            stale, desired[ai],
            [&](NodeId u) {
                if (!udg_.remove_edge(v, u)) return;
                ctx.udg_removed.push_back(norm(v, u));
                mark_adj(v);
                mark_adj(u);
            },
            [&](NodeId u) {
                if (!udg_.add_edge(v, u)) return;
                ctx.udg_added.push_back(norm(v, u));
                mark_adj(v);
                mark_adj(u);
            });
    }
    sort_unique(ctx.adj_changed);
    sort_unique(ctx.udg_added);
    sort_unique(ctx.udg_removed);
    for (const auto& [u, v] : ctx.udg_removed) {
        ctx.udg_removed_adj.insert(ctx.udg_removed_adj.end(), {{u, v}, {v, u}});
    }
    std::ranges::sort(ctx.udg_removed_adj);
}

// ---- Stage 1: clustering cascade + derived lists ---------------------

bool DynamicSpanner::run_cluster_cascade(PatchContext& ctx, std::size_t cap) {
    auto& cluster = backbone_.cluster;

    // Seeds: every node whose neighbor set changed (adj_changed, joins).
    // The min-heap keys by node id, the lowest-ID election order.
    std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> worklist;
    for (const NodeId v : ctx.adj_changed) worklist.push(v);
    for (const NodeId v : ctx.joined) worklist.push(v);

    // Greedy MIS in id order (== cluster_reference's synchronized
    // rounds): v is a dominator iff no smaller-id neighbor is one.
    // Pops increase monotonically and a role change only re-enqueues
    // larger-id neighbors, so every processed node sees the final
    // roles of all smaller-id nodes — the defining property of the
    // greedy order, which makes the localized cascade exact. It also
    // means each node is decided once: its copies pop together.
    while (!worklist.empty()) {
        const NodeId v = worklist.top();
        while (!worklist.empty() && worklist.top() == v) worklist.pop();
        bool dominated = false;
        for (const NodeId u : udg_.neighbors(v)) {
            if (u < v && cluster.role[u] == Role::kDominator) {
                dominated = true;
                break;
            }
        }
        const Role role = dominated ? Role::kDominatee : Role::kDominator;
        if (role == cluster.role[v]) continue;
        cluster.role[v] = role;
        ctx.roles_changed.push_back(v);
        if (ctx.roles_changed.size() > cap) return false;
        for (const NodeId u : udg_.neighbors(v)) {
            if (u > v) worklist.push(u);
        }
    }
    sort_unique(ctx.roles_changed);
    for (const NodeId v : ctx.roles_changed) ctx.touch(v);

    // dominators_of[v] depends on v's role, v's neighbor set, and the
    // roles of its neighbors.
    std::vector<NodeId> dom_recompute = ctx.roles_changed;
    for (const NodeId v : ctx.roles_changed) {
        for (const NodeId u : udg_.neighbors(v)) dom_recompute.push_back(u);
    }
    dom_recompute.insert(dom_recompute.end(), ctx.adj_changed.begin(),
                         ctx.adj_changed.end());
    dom_recompute.insert(dom_recompute.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(dom_recompute);
    std::vector<NodeId> fresh;
    for (const NodeId v : dom_recompute) {
        protocol::derive_dominators(udg_, cluster.role, v, fresh);
        const auto old = cluster.dominators_of[v];
        if (!std::ranges::equal(fresh, old)) {
            for (const NodeId d : old) ctx.old_links.push_back(norm(v, d));
            cluster.dominators_of.assign(v, fresh);
            ctx.dom_list_changed.push_back(v);
            ctx.touch(v);
        }
    }

    // two_hop_dominators_of[v] depends on v's neighbor set and, for
    // each neighbor w, on role[w] and dominators_of[w].
    std::vector<NodeId> two_hop_recompute = ctx.adj_changed;
    two_hop_recompute.insert(two_hop_recompute.end(), ctx.joined.begin(),
                             ctx.joined.end());
    for (const NodeId w : ctx.roles_changed) {
        for (const NodeId v : udg_.neighbors(w)) two_hop_recompute.push_back(v);
    }
    for (const NodeId w : ctx.dom_list_changed) {
        for (const NodeId v : udg_.neighbors(w)) two_hop_recompute.push_back(v);
    }
    sort_unique(two_hop_recompute);
    for (const NodeId v : two_hop_recompute) {
        protocol::derive_two_hop_dominators(udg_, cluster, v, fresh);
        if (!std::ranges::equal(fresh, cluster.two_hop_dominators_of[v])) {
            cluster.two_hop_dominators_of.assign(v, fresh);
            ctx.two_hop_changed.push_back(v);
            ctx.touch(v);
        }
    }
    return true;
}

// ---- Stage 2: connector pair elections -------------------------------

void DynamicSpanner::hold(const Item& item, int delta, PatchContext& ctx) {
    if (!item.edge) {
        int& refs = retained_.connector_refs[item.x];
        const bool was = refs > 0;
        refs += delta;
        if (was != (refs > 0)) ctx.conn_touched.push_back(item.x);
        return;
    }
    // The edge's count sits in the row of its smaller endpoint; a count
    // that reaches zero leaves the row, and the edge leaves the CDS.
    auto& counts = retained_.cds_refs;
    const auto row = counts[item.x];
    const std::size_t pos = lower_index(row, item.y, &engine::EdgeCount::other);
    const std::uint32_t count =
        pos < row.size() && row[pos].other == item.y ? row[pos].count : 0;
    assert(delta > 0 || count > 0);
    const engine::EdgeCount now{item.y, count + static_cast<std::uint32_t>(delta)};
    counts.replace(item.x, pos, count > 0 ? 1 : 0,
                   std::span(&now, now.count > 0 ? 1 : 0));
    if (count == 0) backbone_.cds.add_edge(item.x, item.y);
    if (now.count == 0) backbone_.cds.remove_edge(item.x, item.y);
    if (count == 0 || now.count == 0) ctx.cds_changed.emplace_back(item.x, item.y);
}

bool DynamicSpanner::delete_election(const ElectionKey& key, PatchContext& ctx) {
    const auto row = retained_.elected[key.first];
    const auto [lo, hi] = run_of(row, key.three_hop, key.second);
    if (lo == hi) return false;
    for (const Item& item : row.subspan(lo, hi - lo)) hold(item, -1, ctx);
    retained_.elected.replace(key.first, lo, hi - lo, {});
    auto& by = retained_.elected_by;
    const engine::ElectionRef ref{key.three_hop, key.first};
    by.erase(key.second, lower_index(by[key.second], ref));
    return true;
}

void DynamicSpanner::commit_election(NodeId first, std::span<const Item> items,
                                     PatchContext& ctx) {
    for (const Item& item : items) hold(item, +1, ctx);
    const Item& head = items.front();
    const auto [lo, hi] = run_of(retained_.elected[first], head.three_hop, head.second);
    assert(lo == hi);
    retained_.elected.replace(first, lo, 0, items);
    auto& by = retained_.elected_by;
    const engine::ElectionRef ref{head.three_hop, first};
    by.insert(head.second, lower_index(by[head.second], ref), ref);
}

std::vector<std::vector<graph::NodeId>> DynamicSpanner::decompose_components(
    const PatchContext& ctx, const std::vector<NodeId>& c2,
    std::vector<ComponentStats>& out) const {
    std::vector<std::vector<NodeId>> comps;
    if (c2.empty()) return comps;

    // Union-find over seed indices; smaller root wins, so each class's
    // root is its smallest seed and the final component order is the
    // deterministic smallest-seed order.
    std::vector<std::uint32_t> parent(c2.size());
    for (std::uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
    const auto find = [&](std::uint32_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    const auto unite = [&](std::uint32_t a, std::uint32_t b) {
        a = find(a);
        b = find(b);
        if (a == b) return;
        if (a < b) {
            parent[b] = a;
        } else {
            parent[a] = b;
        }
    };

    // Multi-source label BFS over old ∪ new adjacency,
    // ceil(kComponentMergeHops/2) rounds per side. Seeds within
    // 2·depth >= kComponentMergeHops hops collide on some middle node and
    // merge; seeds of distinct final components are therefore
    // >= 2·depth + 1 >= kComponentMergeHops + 1 hops apart — clear of the
    // <= 7-hop reach of every stage's dirty expansion, which is what
    // makes the per-component plans' read/write sets disjoint.
    const std::size_t depth = (kComponentMergeHops + 1) / 2;
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::vector<std::uint32_t> label(points_.size(), kNone);
    std::vector<NodeId> frontier;
    std::vector<NodeId> next;
    for (std::uint32_t i = 0; i < c2.size(); ++i) {
        label[c2[i]] = i;
        frontier.push_back(c2[i]);
    }
    for (std::size_t h = 0; h < depth && !frontier.empty(); ++h) {
        next.clear();
        for (const NodeId v : frontier) {
            const std::uint32_t cv = label[v];
            const auto visit = [&](NodeId u) {
                if (label[u] == kNone) {
                    label[u] = cv;
                    next.push_back(u);
                } else {
                    unite(cv, label[u]);
                }
            };
            for (const NodeId u : udg_.neighbors(v)) visit(u);
            for (const auto& [v_, u] : lost_at(ctx.udg_removed_adj, v)) visit(u);
        }
        std::swap(frontier, next);
    }

    // Group seeds by root. Seed indices ascend within each class and c2
    // is sorted, so every component's seed list comes out sorted.
    std::vector<std::vector<std::uint32_t>> members(c2.size());
    for (std::uint32_t i = 0; i < c2.size(); ++i) members[find(i)].push_back(i);
    for (std::uint32_t r = 0; r < members.size(); ++r) {
        if (members[r].empty()) continue;
        std::vector<NodeId>& seeds = comps.emplace_back();
        for (const std::uint32_t idx : members[r]) seeds.push_back(c2[idx]);
        out.push_back({seeds.size(), false, expand_hops(ctx, seeds, 2)});
    }
    return comps;
}

void DynamicSpanner::plan_connectors(const PatchContext& ctx,
                                     const std::vector<NodeId>& c2,
                                     ConnectorPlan& plan) const {
    const auto& cluster = backbone_.cluster;

    // Delete every election with a dirty-dominator endpoint in this
    // component's S2 and re-run it. Everything here reads the frozen
    // pre-commit state only — ctx dirty sets, the UDG, the cluster
    // lists, and the retained rows are not mutated until commit.
    const auto s2 = expand_hops(ctx, c2, 2);
    plan.touched = s2;

    // A dirty dominator is one now or before the batch (a role flip is a
    // change of role): drop the elections whose pairs it starts or ends.
    // Re-elect every pair with an endpoint that is a dominator now (a
    // recompute dominator). All its candidate generators w lie within 2
    // hops of that endpoint, so the election kernel's scan of W2
    // rebuilds its complete candidate list.
    std::vector<ElectionKey>& deletions = plan.deletions;
    std::vector<NodeId> rec;
    std::vector<char> rec_flag(points_.size(), 0);
    for (const NodeId d : s2) {
        const bool now = cluster.role[d] == Role::kDominator;
        if (!now && !std::ranges::binary_search(ctx.roles_changed, d)) continue;
        if (now) {
            rec.push_back(d);
            rec_flag[d] = 1;
        }
        const auto row = retained_.elected[d];
        for (std::size_t k = 0; k < row.size(); ++k) {
            if (opens_run(row, k)) {
                deletions.push_back({row[k].three_hop, d, row[k].second});
            }
        }
        for (const engine::ElectionRef& ref : retained_.elected_by[d]) {
            deletions.push_back({ref.three_hop, ref.first, d});
        }
    }
    const protocol::ConnectorCandidates cands =
        protocol::collect_candidates(cluster, expand_hops(ctx, rec, 2), rec_flag);

    // A re-election whose items equal the pair's retained run makes its
    // delete + recommit a refcount no-op: record the key as retained
    // (ascending — groups come in pair order) and emit neither.
    std::vector<ElectionKey> retained;
    protocol::PairElection election;
    const auto plan_groups = [&](bool three_hop, const protocol::PairGroups& groups) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const Pair pair = groups.pairs[g];
            if (three_hop) {
                protocol::elect_three_hop(udg_, cluster, pair, groups.candidates(g),
                                          election);
            } else {
                protocol::elect_two_hop(udg_, pair, groups.candidates(g), election);
            }
            ++plan.pairs_reelected;
            const std::size_t begin = plan.items.size();
            engine::append_elected(three_hop, pair.second, election, plan.items);
            const auto fresh = std::span(plan.items).subspan(begin);
            const auto row = retained_.elected[pair.first];
            const auto [lo, hi] = run_of(row, three_hop, pair.second);
            if (std::ranges::equal(row.subspan(lo, hi - lo), fresh)) {
                retained.push_back({three_hop, pair.first, pair.second});
                plan.items.resize(begin);
            } else if (!fresh.empty()) {
                plan.commits.push_back({pair.first, plan.items.size()});
            }
        }
    };
    plan_groups(false, cands.two_hop);
    plan_groups(true, cands.three_hop);

    std::erase_if(deletions, [&](const ElectionKey& key) {
        return std::ranges::binary_search(retained, key);
    });
}

void DynamicSpanner::stage_connectors_componentwise(
    PatchContext& ctx, const std::vector<std::vector<NodeId>>& comps) {
    // Plans are read-only against the frozen state and component
    // regions are disjoint, so planning parallelizes freely; commits
    // mutate the shared rows/refcounts/graphs and run serially in
    // deterministic component order. Disjointness makes the serial
    // commit order immaterial to the result — the output is
    // edge-identical to planning all seeds as one component at any
    // thread count.
    std::vector<ConnectorPlan> plans(comps.size());
    engine_->pool().parallel_for(0, comps.size(), [&](std::size_t i) {
        plan_connectors(ctx, comps[i], plans[i]);
    });
    for (const ConnectorPlan& plan : plans) {
        for (const NodeId v : plan.touched) ctx.touch(v);
        // A pair with both endpoints dirty in the same component is
        // planned for deletion twice; delete_election is idempotent and
        // only real deletions count.
        for (const ElectionKey& key : plan.deletions) {
            if (delete_election(key, ctx)) ++ctx.pairs_deleted;
        }
        std::size_t begin = 0;
        for (const auto& [first, end] : plan.commits) {
            commit_election(first, std::span(plan.items).subspan(begin, end - begin), ctx);
            begin = end;
        }
        ctx.pairs_reelected += plan.pairs_reelected;
    }
    // is_connector flags from the final refcounts.
    sort_unique(ctx.conn_touched);
    for (const NodeId c : ctx.conn_touched) {
        const bool now = retained_.connector_refs[c] > 0;
        if (backbone_.is_connector[c] == now) continue;
        backbone_.is_connector[c] = now;
        ctx.connector_changed.push_back(c);
        ctx.touch(c);
    }
}

// ---- Stage 3: induced backbone (ICDS) --------------------------------

void DynamicSpanner::stage_icds(PatchContext& ctx) {
    auto& in_backbone = backbone_.in_backbone;
    const auto record = [&](std::vector<Pair>& delta, NodeId u, NodeId v) {
        delta.push_back(norm(u, v));
        ctx.icds_adj_changed.insert(ctx.icds_adj_changed.end(), {u, v});
    };

    std::vector<NodeId> flips = ctx.roles_changed;
    flips.insert(flips.end(), ctx.connector_changed.begin(),
                 ctx.connector_changed.end());
    flips.insert(flips.end(), ctx.joined.begin(), ctx.joined.end());
    sort_unique(flips);
    for (const NodeId v : flips) {
        const bool now =
            backbone_.cluster.role[v] == Role::kDominator || backbone_.is_connector[v];
        if (in_backbone[v] != now) {
            in_backbone[v] = now;
            ctx.backbone_changed.push_back(v);
            ctx.touch(v);
        }
    }

    // UDG edge deltas restricted to backbone endpoints, then membership
    // flips: a node entering the backbone gains its UDG edges to other
    // backbone nodes, a node leaving drops every incident ICDS edge.
    for (const auto& [u, v] : ctx.udg_added) {
        if (in_backbone[u] && in_backbone[v] && backbone_.icds.add_edge(u, v)) {
            record(ctx.icds_added, u, v);
        }
    }
    for (const auto& [u, v] : ctx.udg_removed) {
        if (backbone_.icds.remove_edge(u, v)) record(ctx.icds_removed, u, v);
    }
    std::vector<NodeId> incident;
    for (const NodeId v : ctx.backbone_changed) {
        if (in_backbone[v]) {
            for (const NodeId u : udg_.neighbors(v)) {
                if (in_backbone[u] && backbone_.icds.add_edge(v, u)) {
                    record(ctx.icds_added, v, u);
                }
            }
        } else {
            incident.assign(backbone_.icds.neighbors(v).begin(),
                            backbone_.icds.neighbors(v).end());
            for (const NodeId u : incident) {
                if (backbone_.icds.remove_edge(v, u)) record(ctx.icds_removed, v, u);
            }
        }
    }
    sort_unique(ctx.icds_adj_changed);
    sort_unique(ctx.icds_added);
    sort_unique(ctx.icds_removed);
}

// ---- Stage 4: LDel¹ triangles + Algorithm-3 survival -----------------

void DynamicSpanner::stage_ldel(PatchContext& ctx, PatchStats& stats) {
    // Local triangle lists to recompute: local_triangles_at(icds, v)
    // reads v's ICDS neighbor set, the positions of v and those
    // neighbors, and the ICDS edges among the neighbors (the opposite
    // sides). So v is dirty exactly when (a) its adjacency changed, (b)
    // v or a current neighbor moved, or (c) an edge between two of its
    // current neighbors was added or removed — i.e. v is a common
    // neighbor of an edge delta. A node that lost its adjacency to the
    // changed/moved node is in icds_adj_changed already, which is why
    // (b) and (c) only need current adjacency.
    std::vector<NodeId> seeds = ctx.icds_adj_changed;
    for (const NodeId v : ctx.moved) {
        if (!backbone_.in_backbone[v]) continue;
        seeds.push_back(v);
        const auto nbrs = backbone_.icds.neighbors(v);
        seeds.insert(seeds.end(), nbrs.begin(), nbrs.end());
    }
    const auto mark_common = [&](Pair e) {
        const auto na = backbone_.icds.neighbors(e.first);
        const auto nb = backbone_.icds.neighbors(e.second);
        std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                              std::back_inserter(seeds));
    };
    for (const Pair& e : ctx.icds_added) mark_common(e);
    for (const Pair& e : ctx.icds_removed) mark_common(e);
    sort_unique(seeds);
    ctx.ldel_dirty = std::move(seeds);
    const auto& dirty = ctx.ldel_dirty;
    for (const NodeId v : dirty) ctx.touch(v);

    std::vector<std::vector<TriangleKey>> fresh(dirty.size());
    const auto body = [&](std::size_t i) {
        // One triangulation arena per lane, as in the engine's ldel stage.
        thread_local proximity::LocalDelaunayScratch scratch;
        proximity::local_triangles_at(backbone_.icds, dirty[i], scratch, fresh[i]);
    };
    for_items(engine_->pool(), dirty.size(), body);

    // Candidate triangles: anything in an old or new local list of a
    // dirty node. A triangle none of whose corners is dirty has all
    // three membership votes unchanged. The old votes are read before
    // the fresh lists replace them.
    auto& local = retained_.local;
    std::vector<TriangleKey> candidates;
    for (std::size_t i = 0; i < dirty.size(); ++i) {
        const auto old = local[dirty[i]];
        candidates.insert(candidates.end(), old.begin(), old.end());
        candidates.insert(candidates.end(), fresh[i].begin(), fresh[i].end());
    }
    sort_unique(candidates);
    std::vector<char> was(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        was[i] = proximity::ldel1_member(local, candidates[i]) ? 1 : 0;
    }
    for (std::size_t i = 0; i < dirty.size(); ++i) local.assign(dirty[i], fresh[i]);

    // Membership delta. `touched` collects the box of every triangle
    // that left LDel¹ where it was (batch-start positions), of every one
    // that entered where it is, and both boxes of a retained triangle
    // with a moved corner; any LDel¹ triangle whose box meets one of
    // them must re-run its survival test. A departed triangle is never
    // boxed at its new positions: a corner that moved far would make
    // that box span the deployment.
    const auto& kept = backbone_.ldel_triangles;
    const auto is_kept = [&](TriangleKey t) {
        return std::binary_search(kept.begin(), kept.end(), t);
    };
    const auto old_point = [&](NodeId v) {
        if (ctx.moved_flag[v] == 0) return points_[v];
        return std::ranges::lower_bound(ctx.moved_from, v, {},
                                        &std::pair<NodeId, geom::Point>::first)
            ->second;
    };
    const auto old_box = [&](TriangleKey t) {
        return box_of(old_point(t.a), old_point(t.b), old_point(t.c));
    };
    const auto new_box = [&](TriangleKey t) {
        return box_of(points_[t.a], points_[t.b], points_[t.c]);
    };
    std::vector<Box> touched;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const TriangleKey t = candidates[i];
        const bool now = proximity::ldel1_member(local, t);
        if (was[i] != 0 && !now) {
            touched.push_back(old_box(t));
            if (is_kept(t)) ctx.kept_removed.push_back(t);
        } else if (now && was[i] == 0) {
            touched.push_back(new_box(t));
        } else if (now && (ctx.moved_flag[t.a] != 0 || ctx.moved_flag[t.b] != 0 ||
                           ctx.moved_flag[t.c] != 0)) {
            touched.push_back(old_box(t));
            touched.push_back(new_box(t));
        }
    }

    // Survival recompute set: a retained triangle's verdict can only
    // change when its partner set or a partner's geometry did, and
    // partner coupling requires box intersection — so only LDel¹
    // triangles whose box meets a touched box re-run the test.
    std::vector<TriangleKey> retest;
    for_each_ldel1_meeting(grid_, points_, backbone_.in_backbone, local, touched,
                           [&](TriangleKey r) { retest.push_back(r); });
    std::sort(retest.begin(), retest.end());
    stats.triangles_retested += retest.size();

    // Each retest's partners are the LDel¹ triangles its box meets.
    std::vector<char> survives(retest.size(), 0);
    for_items(engine_->pool(), retest.size(), [&](std::size_t i) {
        const TriangleKey t = retest[i];
        const Box box = new_box(t);
        bool removed = false;
        const auto test = [&](TriangleKey r) {
            removed = removed || (r != t && proximity::alg3_removed_by(backbone_.icds, t, r));
        };
        for_each_ldel1_meeting(grid_, points_, backbone_.in_backbone, local, {&box, 1},
                               test);
        survives[i] = removed ? 0 : 1;
    });
    for (std::size_t i = 0; i < retest.size(); ++i) {
        const bool keep = survives[i] != 0;
        if (keep != is_kept(retest[i])) {
            (keep ? ctx.kept_added : ctx.kept_removed).push_back(retest[i]);
        }
    }

    // Merge the survivor deltas into the sorted triangle list in place.
    // A key transitions at most once per patch; kept_added comes out of
    // the sorted retest list.
    std::vector<TriangleKey>& list = backbone_.ldel_triangles;
    if (!ctx.kept_removed.empty()) {
        std::ranges::sort(ctx.kept_removed);
        std::erase_if(list, [&](TriangleKey t) {
            return std::ranges::binary_search(ctx.kept_removed, t);
        });
    }
    const auto staying = static_cast<std::ptrdiff_t>(list.size());
    list.insert(list.end(), ctx.kept_added.begin(), ctx.kept_added.end());
    std::inplace_merge(list.begin(), list.begin() + staying, list.end());
}

// ---- Stage 4b: LDel(ICDS) rows ---------------------------------------

void DynamicSpanner::stage_gabriel(PatchContext& ctx) {
    // A node's LDel(ICDS) row is its Gabriel ICDS neighbors plus the
    // other corners of its kept triangles. An edge's Gabriel status
    // depends on its endpoints' positions and common-ICDS-neighbor set
    // — dirty exactly when an endpoint is in the LDel dirty set: a moved
    // or gained/lost witness marks both endpoints (they are its current
    // neighbors / adjacency-changed), and moved or adjacency-changed
    // endpoints mark themselves. Kept-triangle sides change only at the
    // corners of a survivor delta.
    std::vector<NodeId> rows = ctx.ldel_dirty;
    for (const auto* delta : {&ctx.kept_added, &ctx.kept_removed}) {
        for (const TriangleKey t : *delta) rows.insert(rows.end(), {t.a, t.b, t.c});
    }
    sort_unique(rows);

    const auto& kept = backbone_.ldel_triangles;
    std::vector<std::vector<NodeId>> fresh(rows.size());
    const auto body = [&](std::size_t i) {
        const NodeId v = rows[i];
        std::vector<NodeId>& row = fresh[i];
        for (const NodeId u : backbone_.icds.neighbors(v)) {
            const auto [a, b] = norm(u, v);
            if (proximity::is_gabriel_edge(backbone_.icds, a, b)) row.push_back(u);
        }
        for (const TriangleKey t : retained_.local[v]) {
            if (!std::binary_search(kept.begin(), kept.end(), t)) continue;
            for (const NodeId u : {t.a, t.b, t.c}) {
                if (u != v) row.push_back(u);
            }
        }
        sort_unique(row);
    };
    for_items(engine_->pool(), rows.size(), body);

    // The row rule is symmetric in the two endpoints, so rows diffed in
    // any order agree on every edge they share.
    GeometricGraph& ldel = backbone_.ldel_icds;
    std::vector<NodeId> stale;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const NodeId v = rows[i];
        stale.assign(ldel.neighbors(v).begin(), ldel.neighbors(v).end());
        diff_sorted(
            stale, fresh[i],
            [&](NodeId u) {
                if (ldel.remove_edge(v, u)) ctx.ldel_changed.push_back(norm(v, u));
            },
            [&](NodeId u) {
                if (ldel.add_edge(v, u)) ctx.ldel_changed.push_back(norm(v, u));
            });
    }
}

// ---- Stage 5: assembly (primed graphs) -------------------------------

void DynamicSpanner::stage_assemble(PatchContext& ctx) {
    // Each primed graph is its base graph plus the dominatee links (a
    // dominatee's links are its dominators_of list). A pair's presence
    // can only change where its base edge changed or it was or is a
    // link of a dom_list_changed node (old lists captured during the
    // cascade); each such pair is re-derived from the final state.
    const auto& dominators = backbone_.cluster.dominators_of;
    std::vector<Pair> links = ctx.old_links;
    for (const NodeId v : ctx.dom_list_changed) {
        for (const NodeId d : dominators[v]) links.push_back(norm(v, d));
    }
    const auto linked = [&](NodeId u, NodeId v) {
        return std::ranges::binary_search(dominators[u], v) ||
               std::ranges::binary_search(dominators[v], u);
    };
    const auto settle = [&](GeometricGraph& prime, const GeometricGraph& base,
                            std::initializer_list<const std::vector<Pair>*> changed) {
        std::vector<Pair> pairs = links;
        for (const auto* delta : changed) {
            pairs.insert(pairs.end(), delta->begin(), delta->end());
        }
        sort_unique(pairs);
        for (const auto& [u, v] : pairs) {
            if (base.has_edge(u, v) || linked(u, v)) {
                prime.add_edge(u, v);
            } else {
                prime.remove_edge(u, v);
            }
        }
    };
    settle(backbone_.cds_prime, backbone_.cds, {&ctx.cds_changed});
    settle(backbone_.icds_prime, backbone_.icds, {&ctx.icds_added, &ctx.icds_removed});
    settle(backbone_.ldel_icds_prime, backbone_.ldel_icds, {&ctx.ldel_changed});
}

// ---- k-hop expansion over old ∪ new adjacency ------------------------

std::vector<graph::NodeId> DynamicSpanner::expand_hops(const PatchContext& ctx,
                                                       const std::vector<NodeId>& seeds,
                                                       int hops) const {
    std::vector<char> visited(udg_.node_count(), 0);
    std::vector<NodeId> frontier;
    std::vector<NodeId> result;
    for (const NodeId v : seeds) {
        if (visited[v] == 0) {
            visited[v] = 1;
            frontier.push_back(v);
            result.push_back(v);
        }
    }
    std::vector<NodeId> next;
    for (int h = 0; h < hops && !frontier.empty(); ++h) {
        next.clear();
        const auto visit = [&](NodeId u) {
            if (visited[u] == 0) {
                visited[u] = 1;
                next.push_back(u);
                result.push_back(u);
            }
        };
        for (const NodeId v : frontier) {
            for (const NodeId u : udg_.neighbors(v)) visit(u);
            for (const auto& [v_, u] : lost_at(ctx.udg_removed_adj, v)) visit(u);
        }
        std::swap(frontier, next);
    }
    std::sort(result.begin(), result.end());
    return result;
}

}  // namespace geospanner::dynamic
