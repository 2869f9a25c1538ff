#include "shard/tile_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/input.h"
#include "protocol/clustering.h"
#include "proximity/cell_grid.h"

namespace geospanner::shard {

using graph::GeometricGraph;
using graph::NodeId;
using proximity::TriangleKey;

namespace {

using Clock = std::chrono::steady_clock;
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void push_stage(core::PipelineStats& stats, const char* name, Clock::time_point start,
                std::size_t items, std::size_t threads) {
    stats.stages.push_back({name, ms_since(start), items, threads});
}

/// Local index of global id g in a sorted region list (must be present).
NodeId local_of(const std::vector<NodeId>& region, NodeId g) {
    return static_cast<NodeId>(
        std::lower_bound(region.begin(), region.end(), g) - region.begin());
}

bool in_list(const std::vector<NodeId>& sorted, NodeId g) {
    return std::binary_search(sorted.begin(), sorted.end(), g);
}

/// The owned slice a tile contributes to the merge: global-id edge lists
/// per backbone graph (each sorted — extraction preserves the local
/// lexicographic order because local ids are order-isomorphic to global
/// ids), owned triangles, and owned connector flags.
struct TileOutput {
    EdgeList cds, cds_prime, icds, icds_prime, ldel, ldel_prime;
    std::vector<TriangleKey> triangles;
    std::vector<NodeId> connectors;  ///< owned nodes whose flag is set
    ShardStats stats;
    bool built = false;
};

/// Edges of the local graph whose global smaller endpoint this tile
/// owns, translated to global ids. Stays sorted: edges() is local-
/// lexicographic and region[] is strictly increasing.
EdgeList owned_edges(const GeometricGraph& local, const std::vector<NodeId>& region,
                     const std::vector<std::uint32_t>& tile_of, std::uint32_t tile) {
    EdgeList out;
    for (const auto& [a, b] : local.edges()) {
        const NodeId ga = region[a];
        if (tile_of[ga] != tile) continue;
        out.emplace_back(ga, region[b]);
    }
    return out;
}

/// Restricts the globally elected cluster state to a region: roles are
/// copied, dominator / two-hop lists keep only in-region entries
/// (remapped to local ids). Restriction never invents entries, so every
/// owned node — whose full lists lie inside the halo — sees exactly the
/// lists the monolithic run used.
protocol::ClusterState restrict_cluster(const protocol::ClusterState& global,
                                        const std::vector<NodeId>& region) {
    protocol::ClusterState local;
    const std::size_t m = region.size();
    local.role.resize(m);
    std::vector<std::size_t> dominator_offsets{0};
    std::vector<NodeId> dominators;
    std::vector<std::size_t> two_hop_offsets{0};
    std::vector<NodeId> two_hop;
    for (std::size_t i = 0; i < m; ++i) {
        const NodeId g = region[i];
        local.role[i] = global.role[g];
        for (const NodeId d : global.dominators(g)) {
            if (in_list(region, d)) dominators.push_back(local_of(region, d));
        }
        for (const NodeId d : global.two_hop_dominators(g)) {
            if (in_list(region, d)) two_hop.push_back(local_of(region, d));
        }
        dominator_offsets.push_back(dominators.size());
        two_hop_offsets.push_back(two_hop.size());
    }
    local.dominators_of = graph::CowRows<NodeId>(dominator_offsets, dominators);
    local.two_hop_dominators_of = graph::CowRows<NodeId>(two_hop_offsets, two_hop);
    return local;
}

/// Concatenates per-tile owned slices (disjoint by the ownership rule)
/// and canonicalizes into a graph via the bulk constructor.
GeometricGraph merge_graph(const std::vector<geom::Point>& points,
                           const std::vector<TileOutput>& outputs,
                           EdgeList TileOutput::* member) {
    std::size_t total = 0;
    for (const TileOutput& out : outputs) total += (out.*member).size();
    EdgeList edges;
    edges.reserve(total);
    for (const TileOutput& out : outputs) {
        edges.insert(edges.end(), (out.*member).begin(), (out.*member).end());
    }
    std::sort(edges.begin(), edges.end());
    return GeometricGraph::from_edges(points, edges);
}

}  // namespace

TileShardedEngine::TileShardedEngine(ShardOptions options)
    : options_(options), pool_(options.threads) {}

ShardBuildResult TileShardedEngine::build(std::vector<geom::Point> points,
                                          double radius) {
    core::validate_input(points, radius);
    ShardBuildResult result;
    if (points.empty() || radius <= 0.0) {
        // Nothing to shard: no geometry to partition (and the monolithic
        // path is exact on these inputs by definition).
        engine::EngineOptions eopts;
        eopts.audit = options_.audit;
        eopts.audit_options = options_.audit_options;
        result.udg = engine::build_udg_staged(pool_, std::move(points), radius,
                                              &result.stats);
        result.backbone = engine::build_backbone_staged(pool_, result.udg, eopts,
                                                        &result.stats, &result.audit);
        return result;
    }

    // Partition: one shared cell grid serves the halo queries here and
    // every per-node UDG scan below, so region extraction and neighbor
    // enumeration agree on bucketing.
    auto start = Clock::now();
    const std::size_t n = points.size();
    const std::size_t tile_target =
        options_.tiles > 0 ? options_.tiles : 4 * pool_.thread_count();
    const proximity::CompactCellGrid grid(points, radius);
    const PartitionPlan plan =
        partition_points(points, radius, tile_target, options_.halo_hops, grid);
    push_stage(result.stats, "partition", start, n, 1);

    // UDG: each tile scans its owned nodes against the shared grid; the
    // per-node kernel is the monolithic engine's, so the merged edge set
    // is identical by construction.
    start = Clock::now();
    const double r2 = radius * radius;
    std::vector<std::vector<NodeId>> above(n);
    pool_.parallel_for(0, plan.tile_count(), [&](std::size_t t) {
        for (const NodeId v : plan.tiles[t].owned) {
            grid.for_neighbors_above(points[v], v, r2,
                                     [&](NodeId u) { above[v].push_back(u); });
            std::sort(above[v].begin(), above[v].end());
        }
    });
    {
        std::size_t total = 0;
        for (const auto& list : above) total += list.size();
        EdgeList edges;
        edges.reserve(total);
        for (NodeId v = 0; v < n; ++v) {
            for (const NodeId u : above[v]) edges.emplace_back(v, u);
        }
        result.udg = GeometricGraph::from_edges(std::move(points), edges);
    }
    above.clear();
    above.shrink_to_fit();
    push_stage(result.stats, "udg", start, n, pool_.thread_count());

    // Clustering runs globally, through the engine's clustering stage:
    // the lowest-id MIS has unbounded decision chains (see header), and
    // one global election is cheap next to the geometric stages it
    // unlocks for sharding.
    start = Clock::now();
    protocol::ClusterState cluster = engine::cluster_staged(pool_, result.udg);
    push_stage(result.stats, "clustering", start, n, pool_.thread_count());
    if (options_.audit) {
        result.audit.stages.push_back(
            verify::audit_clustering(result.udg, cluster, options_.audit_options));
    }

    // Per-tile pipelines: each tile builds its region subgraph, restricts
    // the global cluster state to it, and runs the staged pipeline from
    // the connector stage on (engine::build_backbone_from_cluster — the
    // exact monolithic code path, executed inline on the worker lane).
    start = Clock::now();
    std::vector<TileOutput> outputs(plan.tile_count());
    pool_.parallel_for(0, plan.tile_count(), [&](std::size_t t) {
        const Tile& tile = plan.tiles[t];
        if (tile.owned.empty()) return;
        TileOutput& out = outputs[t];
        const std::vector<NodeId>& region = tile.region;

        std::vector<geom::Point> local_points;
        local_points.reserve(region.size());
        for (const NodeId g : region) local_points.push_back(result.udg.point(g));
        EdgeList local_edges;
        for (NodeId a = 0; a < region.size(); ++a) {
            const NodeId ga = region[a];
            for (const NodeId gb : result.udg.neighbors(ga)) {
                if (gb <= ga || !in_list(region, gb)) continue;
                local_edges.emplace_back(a, local_of(region, gb));
            }
        }
        const GeometricGraph local_udg =
            GeometricGraph::from_edges(std::move(local_points), local_edges);

        const core::Backbone local = engine::build_backbone_from_cluster(
            pool_, local_udg, restrict_cluster(cluster, region), {}, &out.stats.stats,
            nullptr);

        const auto tile_id = static_cast<std::uint32_t>(t);
        out.cds = owned_edges(local.cds, region, plan.tile_of, tile_id);
        out.cds_prime = owned_edges(local.cds_prime, region, plan.tile_of, tile_id);
        out.icds = owned_edges(local.icds, region, plan.tile_of, tile_id);
        out.icds_prime = owned_edges(local.icds_prime, region, plan.tile_of, tile_id);
        out.ldel = owned_edges(local.ldel_icds, region, plan.tile_of, tile_id);
        out.ldel_prime = owned_edges(local.ldel_icds_prime, region, plan.tile_of, tile_id);
        for (const TriangleKey& tri : local.ldel_triangles) {
            if (plan.tile_of[region[tri.a]] != tile_id) continue;
            out.triangles.push_back({region[tri.a], region[tri.b], region[tri.c]});
        }
        for (const NodeId v : tile.owned) {
            if (local.is_connector[local_of(region, v)]) out.connectors.push_back(v);
        }
        out.stats.tile = t;
        out.stats.owned = tile.owned.size();
        out.stats.region = region.size();
        out.built = true;
    });
    {
        std::size_t built = 0;
        for (const TileOutput& out : outputs) built += out.built ? 1 : 0;
        push_stage(result.stats, "shards", start, built, pool_.thread_count());
    }

    // Merge: per-tile slices are disjoint (every edge/triangle/flag has
    // exactly one owner), so concatenate + sort canonicalizes; the
    // result is assembled through the O(m) bulk graph constructor.
    start = Clock::now();
    core::Backbone& backbone = result.backbone;
    backbone.is_connector.assign(n, false);
    for (const TileOutput& out : outputs) {
        for (const NodeId v : out.connectors) backbone.is_connector[v] = true;
    }
    backbone.in_backbone.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        backbone.in_backbone[v] = cluster.is_dominator(v) || backbone.is_connector[v];
    }
    const std::vector<geom::Point>& merged_points = result.udg.points();
    backbone.cds = merge_graph(merged_points, outputs, &TileOutput::cds);
    backbone.cds_prime = merge_graph(merged_points, outputs, &TileOutput::cds_prime);
    backbone.icds = merge_graph(merged_points, outputs, &TileOutput::icds);
    backbone.icds_prime = merge_graph(merged_points, outputs, &TileOutput::icds_prime);
    backbone.ldel_icds = merge_graph(merged_points, outputs, &TileOutput::ldel);
    backbone.ldel_icds_prime =
        merge_graph(merged_points, outputs, &TileOutput::ldel_prime);
    for (const TileOutput& out : outputs) {
        backbone.ldel_triangles.insert(backbone.ldel_triangles.end(),
                                       out.triangles.begin(), out.triangles.end());
    }
    std::sort(backbone.ldel_triangles.begin(), backbone.ldel_triangles.end());
    backbone.cluster = std::move(cluster);
    for (TileOutput& out : outputs) {
        if (out.built) result.shards.push_back(std::move(out.stats));
    }
    push_stage(result.stats, "merge", start, plan.tile_count(), 1);

    if (options_.audit) {
        // The monolithic per-stage audits certify the MERGED structures
        // (a shard bug that survives the merge fails here exactly as it
        // would in the monolithic engine), then audit_shards certifies
        // the layout itself.
        result.audit.stages.push_back(
            verify::audit_connectors(result.udg, backbone.cluster,
                                     backbone.cds.edges(), options_.audit_options));
        result.audit.stages.push_back(verify::audit_icds(result.udg,
                                                         backbone.in_backbone,
                                                         backbone.icds,
                                                         options_.audit_options));
        result.audit.stages.push_back(
            verify::audit_ldel(result.udg, backbone, options_.audit_options));
        verify::ShardLayout layout;
        layout.tile_of = plan.tile_of;
        layout.regions = plan.regions();
        layout.halo_hops = options_.halo_hops;
        result.audit.stages.push_back(
            verify::audit_shards(result.udg, backbone, layout, options_.audit_options));
    }
    return result;
}

}  // namespace geospanner::shard
