#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/input.h"
#include "protocol/clustering.h"
#include "protocol/connectors.h"
#include "proximity/cell_grid.h"
#include "proximity/classic.h"
#include "proximity/ldel.h"
#include "proximity/ldel_k.h"

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
struct Rows {
    std::vector<std::size_t> offsets{0};
    std::vector<NodeId> values;
};

/// Rows filled by `fill(v, row)` (which replaces `row`) in parallel node
/// blocks. Each block writes its slice as CSR, never one vector per
/// node, and the slices are concatenated in node order.
template <class Fill>
Rows parallel_rows(ThreadPool& pool, std::size_t lanes, std::size_t n, const Fill& fill) {
    std::vector<Rows> blocks(block_count(n, lanes));
    pool.parallel_for(0, blocks.size(), [&](std::size_t b) {
        Rows& out = blocks[b];
        const auto [first, last] = block_range(n, blocks.size(), b);
        out.offsets.reserve(last - first + 1);
        std::vector<NodeId> row;
        for (std::size_t v = first; v < last; ++v) {
            fill(static_cast<NodeId>(v), row);
            out.values.insert(out.values.end(), row.begin(), row.end());
            out.offsets.push_back(out.values.size());
        }
    });
    if (blocks.size() == 1) return std::move(blocks[0]);
    Rows rows;
    rows.offsets.reserve(n + 1);
    for (const Rows& block : blocks) {
        const std::size_t base = rows.values.size();
        for (std::size_t r = 1; r < block.offsets.size(); ++r) {
            rows.offsets.push_back(base + block.offsets[r]);
        }
        rows.values.insert(rows.values.end(), block.values.begin(), block.values.end());
    }
    return rows;
}

/// The graph whose edges are {v, u} for every u in row v. Each row must
/// be ascending and hold only u > v, so the edge list comes out
/// lexicographic — the bulk constructor's precondition.
GeometricGraph graph_from_rows(std::vector<geom::Point> points, const Rows& above) {
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
// and deduplicated once. With a PatchSeed, each block also records which
// pair elected which slice of its buffers.

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
        // Seed only: the electing pairs, where each one's slices end,
        // and how many of them are two-hop.
        std::vector<protocol::DominatorPair> pairs;
        std::vector<std::size_t> connector_ends;
        std::vector<std::size_t> edge_ends;
        std::size_t two_hop_pairs = 0;
    };
    constexpr std::size_t kBlock = 256;
    const std::size_t two = cands.two_hop.size();
    const std::size_t groups = two + cands.three_hop.size();
    std::vector<Block> blocks((groups + kBlock - 1) / kBlock);
    pool.parallel_for(0, blocks.size(), [&](std::size_t b) {
        protocol::PairElection election;
        Block& out = blocks[b];
        for (std::size_t g = b * kBlock; g < std::min(groups, (b + 1) * kBlock); ++g) {
            if (g < two) {
                protocol::elect_two_hop(udg, cands.two_hop.pairs[g],
                                        cands.two_hop.candidates(g), election);
            } else {
                protocol::elect_three_hop(udg, cluster, cands.three_hop.pairs[g - two],
                                          cands.three_hop.candidates(g - two), election);
            }
            out.connectors.insert(out.connectors.end(), election.connectors.begin(),
                                  election.connectors.end());
            out.edges.insert(out.edges.end(), election.edges.begin(),
                             election.edges.end());
            out.second_leg_candidates += election.second_leg_candidates;
            if (seed != nullptr &&
                !(election.connectors.empty() && election.edges.empty())) {
                out.pairs.push_back(g < two ? cands.two_hop.pairs[g]
                                            : cands.three_hop.pairs[g - two]);
                out.connector_ends.push_back(out.connectors.size());
                out.edge_ends.push_back(out.edges.size());
                if (g < two) ++out.two_hop_pairs;
            }
        }
    });

    protocol::ConnectorState state;
    state.is_connector.assign(n, false);
    *items = cands.two_hop.nodes.size() + cands.three_hop.nodes.size();
    for (const Block& block : blocks) {
        for (const NodeId c : block.connectors) state.is_connector[c] = true;
        state.cds_edges.insert(state.cds_edges.end(), block.edges.begin(),
                               block.edges.end());
        *items += block.second_leg_candidates;
        if (seed == nullptr) continue;
        const std::size_t connector_base = seed->connectors.size();
        const std::size_t edge_base = seed->edges.size();
        seed->two_hop_count += block.two_hop_pairs;
        seed->pairs.insert(seed->pairs.end(), block.pairs.begin(), block.pairs.end());
        for (const std::size_t end : block.connector_ends) {
            seed->connector_offsets.push_back(connector_base + end);
        }
        for (const std::size_t end : block.edge_ends) {
            seed->edge_offsets.push_back(edge_base + end);
        }
        seed->connectors.insert(seed->connectors.end(), block.connectors.begin(),
                                block.connectors.end());
        seed->edges.insert(seed->edges.end(), block.edges.begin(), block.edges.end());
    }
    std::sort(state.cds_edges.begin(), state.cds_edges.end());
    state.cds_edges.erase(std::unique(state.cds_edges.begin(), state.cds_edges.end()),
                          state.cds_edges.end());
    return state;
}

// ---- ICDS stage ------------------------------------------------------

GeometricGraph parallel_induce(ThreadPool& pool, std::size_t lanes,
                               const GeometricGraph& udg,
                               const std::vector<bool>& in_backbone) {
    // Rows inherit the adjacency order (ascending).
    const Rows above = parallel_rows(pool, lanes, udg.node_count(),
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

/// LDel⁽¹⁾ triangles via the per-node kernel, node loops in parallel.
/// Same filter as proximity::ldel1_triangles: a triangle survives iff it
/// appears in the local Delaunay triangulation of all three vertices.
/// The per-node lists move into `keep` when it is set.
std::vector<TriangleKey> parallel_ldel1_triangles(
    ThreadPool& pool, const GeometricGraph& icds,
    std::vector<std::vector<TriangleKey>>* keep) {
    const auto n = static_cast<NodeId>(icds.node_count());
    std::vector<std::vector<TriangleKey>> local(n);
    pool.parallel_for(0, n, [&](std::size_t u) {
        // One triangulation arena per lane, reused across nodes and
        // builds: the per-node local Delaunay cost is allocator-bound
        // without it. Results are independent of scratch history.
        thread_local proximity::LocalDelaunayScratch scratch;
        proximity::local_triangles_at(icds, static_cast<NodeId>(u), scratch, local[u]);
    });

    std::vector<std::vector<TriangleKey>> mine(n);
    pool.parallel_for(0, n, [&](std::size_t u) {
        for (const auto& t : local[u]) {
            // Count each triangle once, at its least vertex.
            if (t.a == u && proximity::ldel1_member(local, t)) mine[u].push_back(t);
        }
    });

    // Concatenating in node order yields the globally sorted set (the
    // least vertex is the leading key component).
    std::vector<TriangleKey> result;
    for (NodeId u = 0; u < n; ++u) {
        result.insert(result.end(), mine[u].begin(), mine[u].end());
    }
    if (keep != nullptr) *keep = std::move(local);
    return result;
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

    const Rows above =
        parallel_rows(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
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

protocol::ClusterState cluster_staged(ThreadPool& pool, const GeometricGraph& udg,
                                      protocol::ClusterPolicy policy) {
    // The MIS rounds are serial (a few ms); the lists derived from the
    // roles are the stage's bulk, and node-local.
    const std::size_t lanes = stage_threads(pool);
    const std::size_t n = udg.node_count();
    protocol::ClusterState state;
    state.role = protocol::elect_roles(udg, policy);
    const Rows dominators =
        parallel_rows(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
            protocol::derive_dominators(udg, state.role, v, row);
        });
    state.dominators_of = graph::CowRows<NodeId>(dominators.offsets, dominators.values);
    const Rows two_hop =
        parallel_rows(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
            protocol::derive_two_hop_dominators(udg, state, v, row);
        });
    state.two_hop_dominators_of = graph::CowRows<NodeId>(two_hop.offsets, two_hop.values);
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
    const Rows above =
        parallel_rows(pool, lanes, n, [&](NodeId v, std::vector<NodeId>& row) {
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
    protocol::ClusterState cluster = cluster_staged(pool, udg, options.cluster_policy);
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

    if (options.planarizer == core::Planarizer::kLdel1) {
        start = Clock::now();
        std::vector<TriangleKey> triangles = parallel_ldel1_triangles(
            pool, result.icds, seed == nullptr ? nullptr : &seed->local);
        push_stage(stats, "ldel", start, result.backbone_size(), lanes);

        start = Clock::now();
        const std::size_t triangle_count = triangles.size();
        result.ldel_triangles =
            parallel_planarize(pool, lanes, result.icds, std::move(triangles));
        push_stage(stats, "planarize", start, triangle_count, lanes);
    } else {
        start = Clock::now();
        result.ldel_triangles = proximity::ldel_k_triangles(result.icds, 2);
        push_stage(stats, "ldel", start, result.backbone_size(), 1);
    }

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
