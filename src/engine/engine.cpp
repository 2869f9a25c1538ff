#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <ranges>
#include <span>
#include <utility>

#include "core/input.h"
#include "protocol/clustering.h"
#include "protocol/connectors.h"
#include "proximity/cell_grid.h"
#include "proximity/classic.h"
#include "proximity/ldel.h"

namespace geospanner::engine {

using graph::GeometricGraph;
using graph::NodeId;
using proximity::TriangleKey;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void push_stage(core::PipelineStats* stats, const char* name, Clock::time_point start,
                std::size_t items, std::size_t threads) {
    if (stats == nullptr) return;
    stats->stages.push_back({name, ms_since(start), items, threads});
}

/// Lanes a stage actually runs at: nested calls (batch workers) execute
/// their parallel_for inline on one lane.
std::size_t stage_threads(const ThreadPool& pool) {
    return ThreadPool::on_worker_thread() ? 1 : pool.thread_count();
}

/// Contiguous blocks a stage splits `items` into: eight per lane for
/// load balance, and a single block on one lane, so the one-lane run is
/// the serial loop itself.
std::size_t block_count(std::size_t items, std::size_t lanes) {
    return std::min(items, lanes <= 1 ? std::size_t{1} : 8 * lanes);
}

/// Block b's share [first, last) of `items` split into `blocks`.
std::pair<std::size_t, std::size_t> block_range(std::size_t items, std::size_t blocks,
                                                std::size_t b) {
    return {b * items / blocks, (b + 1) * items / blocks};
}

/// Per-node rows in CSR form: row v is values[offsets[v], offsets[v + 1]).
template <class T>
struct Rows {
    std::vector<std::size_t> offsets{0};
    std::vector<T> values;

    [[nodiscard]] std::span<const T> operator[](std::size_t v) const {
        return std::span(values).subspan(offsets[v], offsets[v + 1] - offsets[v]);
    }
};

/// Rows filled by `fill(v, row)` (which replaces `row`) in parallel node
/// blocks. Each block writes its slice as CSR, never one vector per
/// node, and the slices are concatenated in node order.
template <class T, class Fill>
Rows<T> parallel_rows(ThreadPool& pool, std::size_t lanes, std::size_t n,
                      const Fill& fill) {
    std::vector<Rows<T>> blocks(block_count(n, lanes));
    pool.parallel_for(0, blocks.size(), [&](std::size_t b) {
        Rows<T>& out = blocks[b];
        const auto [first, last] = block_range(n, blocks.size(), b);
        out.offsets.reserve(last - first + 1);
        std::vector<T> row;
        for (std::size_t v = first; v < last; ++v) {
            fill(static_cast<NodeId>(v), row);
            out.values.insert(out.values.end(), row.begin(), row.end());
            out.offsets.push_back(out.values.size());
        }
    });
    if (blocks.size() == 1) return std::move(blocks[0]);
    Rows<T> rows;
    rows.offsets.reserve(n + 1);
    for (const Rows<T>& block : blocks) {
        const std::size_t base = rows.values.size();
        for (std::size_t r = 1; r < block.offsets.size(); ++r) {
            rows.offsets.push_back(base + block.offsets[r]);
        }
        rows.values.insert(rows.values.end(), block.values.begin(), block.values.end());
    }
    return rows;
}

template <class T>
graph::CowRows<T> cow_rows(const Rows<T>& rows) {
    return graph::CowRows<T>(rows.offsets, rows.values);
}

/// The rows of `n` nodes that hold each (node, value) entry's value in
/// that node's row, taking the `lists` of entries in order and each in
/// entry order: a stable counting sort.
template <class T, class Lists>
Rows<T> grouped_rows(std::size_t n, const Lists& lists) {
    Rows<T> rows;
    rows.offsets.assign(n + 1, 0);
    for (const auto& list : lists) {
        for (const auto& [v, value] : list) ++rows.offsets[v + 1];
    }
    for (std::size_t v = 0; v < n; ++v) rows.offsets[v + 1] += rows.offsets[v];
    rows.values.resize(rows.offsets[n]);
    std::vector<std::size_t> cursor(rows.offsets.begin(), rows.offsets.end() - 1);
    for (const auto& list : lists) {
        for (const auto& [v, value] : list) rows.values[cursor[v]++] = value;
    }
    return rows;
}

/// The graph whose edges are {v, u} for every u in row v. Each row must
/// be ascending and hold only u > v, so the edge list comes out
/// lexicographic — the bulk constructor's precondition.
GeometricGraph graph_from_rows(std::vector<geom::Point> points, const Rows<NodeId>& above) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(above.values.size());
    for (std::size_t v = 0; v + 1 < above.offsets.size(); ++v) {
        for (std::size_t k = above.offsets[v]; k < above.offsets[v + 1]; ++k) {
            edges.emplace_back(static_cast<NodeId>(v), above.values[k]);
        }
    }
    return GeometricGraph::from_edges(std::move(points), edges);
}

// ---- Connector stage -------------------------------------------------
//
// The protocol election kernel over all nodes: one collection pass,
// then the per-pair elections in parallel over fixed-size blocks of
// pair groups. Each block owns its outcome buffer and one reused
// PairElection; blocks merge in pair order and the CDS edges are sorted
// and deduplicated once. With a PatchSeed, each block also keeps every
// election's items keyed by its first dominator and its reverse entry
// keyed by its second; the merge groups both into rows straight from
// the block buffers and counts the refcounts.

protocol::ConnectorState parallel_connectors(ThreadPool& pool, const GeometricGraph& udg,
                                             const protocol::ClusterState& cluster,
                                             std::size_t* items, PatchSeed* seed) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    const protocol::ConnectorCandidates cands =
        protocol::collect_candidates(cluster, all, {});

    struct Block {
        std::vector<NodeId> connectors;
        std::vector<protocol::DominatorPair> edges;
        std::size_t second_leg_candidates = 0;
        // Seed only: the items keyed by first dominator, the reverse
        // index entries keyed by second dominator.
        std::vector<std::pair<NodeId, ElectedItem>> elected;
        std::vector<std::pair<NodeId, ElectionRef>> refs;
    };
    constexpr std::size_t kBlock = 256;
    const std::size_t two = cands.two_hop.size();
    const std::size_t groups = two + cands.three_hop.size();
    std::vector<Block> blocks((groups + kBlock - 1) / kBlock);
    pool.parallel_for(0, blocks.size(), [&](std::size_t b) {
        protocol::PairElection election;
        std::vector<ElectedItem> row;
        Block& out = blocks[b];
        for (std::size_t g = b * kBlock; g < std::min(groups, (b + 1) * kBlock); ++g) {
            const bool three_hop = g >= two;
            const protocol::DominatorPair pair =
                three_hop ? cands.three_hop.pairs[g - two] : cands.two_hop.pairs[g];
            if (three_hop) {
                protocol::elect_three_hop(udg, cluster, pair,
                                          cands.three_hop.candidates(g - two), election);
            } else {
                protocol::elect_two_hop(udg, pair, cands.two_hop.candidates(g), election);
            }
            out.connectors.insert(out.connectors.end(), election.connectors.begin(),
                                  election.connectors.end());
            out.edges.insert(out.edges.end(), election.edges.begin(),
                             election.edges.end());
            out.second_leg_candidates += election.second_leg_candidates;
            if (seed == nullptr) continue;
            row.clear();
            append_elected(three_hop, pair.second, election, row);
            for (const ElectedItem& item : row) out.elected.emplace_back(pair.first, item);
            if (!row.empty()) out.refs.push_back({pair.second, {three_hop, pair.first}});
        }
    });

    protocol::ConnectorState state;
    state.is_connector.assign(n, false);
    *items = cands.two_hop.nodes.size() + cands.three_hop.nodes.size();
    if (seed != nullptr) seed->connector_refs.assign(n, 0);
    for (const Block& block : blocks) {
        for (const NodeId c : block.connectors) {
            state.is_connector[c] = true;
            if (seed != nullptr) ++seed->connector_refs[c];
        }
        state.cds_edges.insert(state.cds_edges.end(), block.edges.begin(),
                               block.edges.end());
        *items += block.second_leg_candidates;
    }
    std::vector<protocol::DominatorPair>& edges = state.cds_edges;
    std::sort(edges.begin(), edges.end());
    if (seed != nullptr) {
        // Equal edges are adjacent in sorted order: each run is one edge
        // and its count, and the runs ascend by row.
        Rows<EdgeCount> counts;
        counts.offsets.assign(n + 1, 0);
        for (std::size_t k = 0, end = 0; k < edges.size(); k = end) {
            while (end < edges.size() && edges[end] == edges[k]) ++end;
            const auto count = static_cast<std::uint32_t>(end - k);
            counts.values.push_back({edges[k].second, count});
            ++counts.offsets[edges[k].first + 1];
        }
        for (std::size_t v = 0; v < n; ++v) counts.offsets[v + 1] += counts.offsets[v];
        seed->cds_refs = cow_rows(counts);
        // Elections arrive two-hop then three-hop, each in pair order,
        // so the stable groupings leave every row sorted.
        seed->elected = cow_rows(grouped_rows<ElectedItem>(
            n, std::views::transform(blocks, &Block::elected)));
        seed->elected_by = cow_rows(
            grouped_rows<ElectionRef>(n, std::views::transform(blocks, &Block::refs)));
    }
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return state;
}

// ---- ICDS stage ------------------------------------------------------

GeometricGraph parallel_induce(ThreadPool& pool, std::size_t lanes,
                               const GeometricGraph& udg,
                               const std::vector<bool>& in_backbone) {
    // Rows inherit the adjacency order (ascending).
    const Rows<NodeId> above = parallel_rows<NodeId>(pool, lanes, udg.node_count(),
                                     [&](NodeId v, std::vector<NodeId>& row) {
                                         row.clear();
                                         if (!in_backbone[v]) return;
                                         for (const NodeId u : udg.neighbors(v)) {
                                             if (u > v && in_backbone[u]) row.push_back(u);
                                         }
                                     });
    return graph_from_rows(udg.points(), above);
}

// ---- LDel stage ------------------------------------------------------

/// LDel⁽¹⁾ triangles via the per-node kernel, in parallel node blocks.
/// Same filter as proximity::ldel1_triangles: a triangle survives iff it
/// appears in the local Delaunay triangulation of all three vertices.
/// The per-node lists move into `keep` when it is set.
std::vector<TriangleKey> parallel_ldel1_triangles(ThreadPool& pool, std::size_t lanes,
                                                  const GeometricGraph& icds,
                                                  graph::CowRows<TriangleKey>* keep) {
    const std::size_t n = icds.node_count();
    const Rows<TriangleKey> local = parallel_rows<TriangleKey>(
        pool, lanes, n, [&](NodeId u, std::vector<TriangleKey>& row) {
            // One triangulation arena per lane, reused across nodes and
            // builds: the per-node local Delaunay cost is allocator-bound
            // without it. Results are independent of scratch history.
            thread_local proximity::LocalDelaunayScratch scratch;
            proximity::local_triangles_at(icds, u, scratch, row);
        });
    // Each triangle once, at its least vertex: concatenated in node
    // order, the rows are the globally sorted set.
    Rows<TriangleKey> mine = parallel_rows<TriangleKey>(
        pool, lanes, n, [&](NodeId u, std::vector<TriangleKey>& row) {
            row.clear();
            for (const TriangleKey& t : local[u]) {
                if (t.a == u && proximity::ldel1_member(local, t)) row.push_back(t);
            }
        });
    if (keep != nullptr) *keep = cow_rows(local);
    return std::move(mine.values);
}

/// Algorithm 3 over blocks of the filter's grid cells: each block runs
/// the pair-once scan over its cell range, and the blocks' removal lists
/// are ORed into one mask on the calling thread, in block order.
std::vector<TriangleKey> parallel_planarize(ThreadPool& pool, std::size_t lanes,
                                            const GeometricGraph& icds,
                                            std::vector<TriangleKey> triangles) {
    const proximity::Alg3Filter filter(icds, std::move(triangles));
    const std::size_t cells = filter.cell_count();
    std::vector<std::vector<std::uint32_t>> lists(block_count(cells, lanes));
    pool.parallel_for(0, lists.size(), [&](std::size_t b) {
        const auto [first, last] = block_range(cells, lists.size(), b);
        filter.removal_scan(first, last, lists[b]);
    });
    return filter.survivors(lists);
}

// ---- Assemble stage --------------------------------------------------

/// LDel(ICDS) in one bulk construction: per node block (in parallel),
/// each node's higher neighbors among its Gabriel edges and its kept
/// triangles' sides.
GeometricGraph parallel_ldel_graph(ThreadPool& pool, std::size_t lanes,
                                   const GeometricGraph& icds,
                                   const std::vector<TriangleKey>& triangles) {
    // Triangle sides grouped at their smaller endpoint, in CSR form.
    const std::size_t n = icds.node_count();
    std::vector<std::size_t> offset(n + 1, 0);
    for (const TriangleKey& t : triangles) {
        offset[t.a + 1] += 2;
        ++offset[t.b + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
    std::vector<NodeId> sides(offset[n]);
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (const TriangleKey& t : triangles) {
        sides[cursor[t.a]++] = t.b;
        sides[cursor[t.a]++] = t.c;
        sides[cursor[t.b]++] = t.c;
    }

    const Rows<NodeId> above =
        parallel_rows<NodeId>(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
            row.assign(sides.begin() + static_cast<std::ptrdiff_t>(offset[v]),
                       sides.begin() + static_cast<std::ptrdiff_t>(offset[v + 1]));
            for (const NodeId u : icds.neighbors(v)) {
                if (u > v && proximity::is_gabriel_edge(icds, v, u)) row.push_back(u);
            }
            std::sort(row.begin(), row.end());
            row.erase(std::unique(row.begin(), row.end()), row.end());
        });
    return graph_from_rows(icds.points(), above);
}

}  // namespace

void append_elected(bool three_hop, NodeId second, const protocol::PairElection& election,
                    std::vector<ElectedItem>& row) {
    for (const NodeId c : election.connectors) {
        row.push_back({three_hop, second, false, c, c});
    }
    for (const auto& [x, y] : election.edges) {
        row.push_back({three_hop, second, true, x, y});
    }
}

protocol::ClusterState cluster_staged(ThreadPool& pool, const GeometricGraph& udg) {
    // The MIS rounds are serial (a few ms); the lists derived from the
    // roles are the stage's bulk, and node-local.
    const std::size_t lanes = stage_threads(pool);
    const std::size_t n = udg.node_count();
    protocol::ClusterState state;
    state.role = protocol::elect_roles(udg);
    const Rows<NodeId> dominators =
        parallel_rows<NodeId>(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
            protocol::derive_dominators(udg, state.role, v, row);
        });
    state.dominators_of = cow_rows(dominators);
    const Rows<NodeId> two_hop =
        parallel_rows<NodeId>(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
            protocol::derive_two_hop_dominators(udg, state, v, row);
        });
    state.two_hop_dominators_of = cow_rows(two_hop);
    return state;
}

GeometricGraph build_udg_staged(ThreadPool& pool, std::vector<geom::Point> points,
                                double radius, core::PipelineStats* stats) {
    auto start = Clock::now();
    const auto n = static_cast<NodeId>(points.size());
    if (n == 0 || radius <= 0.0) {
        push_stage(stats, "grid", start, n, 1);
        push_stage(stats, "udg", start, n, stage_threads(pool));
        return GeometricGraph(std::move(points));
    }

    // The grid build is the Morton permutation of the point set (cells
    // ordered by Morton code, coordinates gathered into slot order) —
    // reported as its own stage so the reorder cost is visible next to
    // the scans it accelerates.
    const proximity::CompactCellGrid grid(points, radius);
    push_stage(stats, "grid", start, n, 1);

    start = Clock::now();
    const double r2 = radius * radius;
    const std::size_t lanes = stage_threads(pool);
    const Rows<NodeId> above =
        parallel_rows<NodeId>(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
            row.clear();
            grid.for_neighbors_above(points[v], v, r2, [&](NodeId u) { row.push_back(u); });
            std::sort(row.begin(), row.end());
        });
    GeometricGraph g = graph_from_rows(std::move(points), above);
    push_stage(stats, "udg", start, n, lanes);
    return g;
}

core::Backbone build_backbone_staged(ThreadPool& pool, const GeometricGraph& udg,
                                     const EngineOptions& options,
                                     core::PipelineStats* stats,
                                     verify::AuditTrail* trail, PatchSeed* seed) {
    core::validate_input(udg.points(), 0.0);
    const auto start = Clock::now();
    protocol::ClusterState cluster = cluster_staged(pool, udg);
    push_stage(stats, "clustering", start, udg.node_count(), stage_threads(pool));
    if (options.audit && trail != nullptr) {
        trail->stages.push_back(
            verify::audit_clustering(udg, cluster, options.audit_options));
    }
    return build_backbone_from_cluster(pool, udg, std::move(cluster), options, stats,
                                       trail, seed);
}

core::Backbone build_backbone_from_cluster(ThreadPool& pool, const GeometricGraph& udg,
                                           protocol::ClusterState cluster,
                                           const EngineOptions& options,
                                           core::PipelineStats* stats,
                                           verify::AuditTrail* trail, PatchSeed* seed) {
    const auto n = static_cast<NodeId>(udg.node_count());
    const std::size_t lanes = stage_threads(pool);
    const bool audit = options.audit && trail != nullptr;
    if (seed != nullptr) *seed = {};
    core::Backbone result;
    result.cluster = std::move(cluster);

    auto start = Clock::now();
    std::size_t candidate_items = 0;
    protocol::ConnectorState connectors =
        parallel_connectors(pool, udg, result.cluster, &candidate_items, seed);
    push_stage(stats, "connectors", start, candidate_items, lanes);
    if (audit) {
        trail->stages.push_back(verify::audit_connectors(
            udg, result.cluster, connectors.cds_edges, options.audit_options));
    }

    start = Clock::now();
    result.in_backbone.assign(n, false);
    for (NodeId v = 0; v < n; ++v) {
        result.in_backbone[v] =
            result.cluster.is_dominator(v) || connectors.is_connector[v];
    }
    result.icds = parallel_induce(pool, lanes, udg, result.in_backbone);
    push_stage(stats, "icds", start, n, lanes);
    if (audit) {
        trail->stages.push_back(verify::audit_icds(udg, result.in_backbone,
                                                   result.icds, options.audit_options));
    }

    start = Clock::now();
    std::vector<TriangleKey> triangles = parallel_ldel1_triangles(
        pool, lanes, result.icds, seed == nullptr ? nullptr : &seed->local);
    push_stage(stats, "ldel", start, result.backbone_size(), lanes);

    start = Clock::now();
    const std::size_t triangle_count = triangles.size();
    result.ldel_triangles =
        parallel_planarize(pool, lanes, result.icds, std::move(triangles));
    push_stage(stats, "planarize", start, triangle_count, lanes);

    start = Clock::now();
    result.ldel_icds = parallel_ldel_graph(pool, lanes, result.icds, result.ldel_triangles);
    // cds_edges is sorted and duplicate-free by the connector stage's
    // contract, exactly the bulk constructor's precondition.
    result.cds = GeometricGraph::from_edges(udg.points(), connectors.cds_edges);
    result.is_connector = std::move(connectors.is_connector);
    // The primed graphs stay on the calling thread: built on pool lanes,
    // their multi-megabyte temporaries would stay resident in each
    // lane's malloc arena and raise the process's peak RSS.
    result.cds_prime = core::with_dominatee_links(result.cds, result.cluster);
    result.icds_prime = core::with_dominatee_links(result.icds, result.cluster);
    result.ldel_icds_prime = core::with_dominatee_links(result.ldel_icds, result.cluster);
    push_stage(stats, "assemble", start, n, lanes);
    if (audit) {
        // The LDel audit certifies the planarized graphs, so it runs
        // once they are assembled.
        trail->stages.push_back(verify::audit_ldel(udg, result, options.audit_options));
    }
    return result;
}

SpannerEngine::SpannerEngine(EngineOptions options)
    : options_(options), pool_(options.threads) {}

BuildResult SpannerEngine::build(std::vector<geom::Point> points, double radius) {
    core::validate_input(points, radius);
    BuildResult result;
    result.udg = build_udg_staged(pool_, std::move(points), radius, &result.stats);
    result.backbone = build_backbone_staged(pool_, result.udg, options_, &result.stats,
                                            &result.audit);
    return result;
}

core::Backbone SpannerEngine::build_backbone(const GeometricGraph& udg,
                                             core::PipelineStats* stats,
                                             verify::AuditTrail* trail) {
    return build_backbone_staged(pool_, udg, options_, stats, trail);
}

}  // namespace geospanner::engine
