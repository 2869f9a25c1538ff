#include "backends/baswana_sen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/input.h"
#include "random/rng.h"

namespace geospanner::backends {

using graph::GeometricGraph;
using graph::NodeId;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Strict total order on the edges incident to one fixed vertex:
/// (length, neighbor id). Unique because a neighbor appears once.
struct IncidentEdge {
    double length = 0.0;
    NodeId neighbor = graph::kInvalidNode;

    [[nodiscard]] bool lighter_than(const IncidentEdge& other) const {
        if (length != other.length) return length < other.length;
        return neighbor < other.neighbor;
    }
};

}  // namespace

BaswanaSenBackend::BaswanaSenBackend(const BackendOptions& options)
    : k_(std::max<std::size_t>(options.k, 1)), seed_(options.seed) {}

verify::BackendClaims BaswanaSenBackend::claims() const {
    verify::BackendClaims claims;
    claims.subgraph_of_udg = true;
    claims.connected = true;  // every edge is spanned within (2k-1) * |uv|
    claims.plane = false;
    claims.max_degree = 0;
    claims.max_length_stretch = static_cast<double>(2 * k_ - 1);
    return claims;
}

BackendResult BaswanaSenBackend::build(const GeometricGraph& udg, double radius) {
    core::validate_input(udg.points(), radius);
    BackendResult result;
    result.spanner = GeometricGraph(udg.points());
    const auto n = static_cast<NodeId>(udg.node_count());
    if (n == 0) return result;

    rnd::Xoshiro256 rng(seed_);
    auto start = Clock::now();

    // Residual graph (mutated by deletions) and the current clustering.
    std::vector<std::unordered_map<NodeId, double>> adj(n);
    for (const auto& [u, v] : udg.edges()) {
        const double len = udg.edge_length(u, v);
        adj[u].emplace(v, len);
        adj[v].emplace(u, len);
    }
    std::vector<NodeId> center(n);
    for (NodeId v = 0; v < n; ++v) center[v] = v;

    const double sample_prob =
        std::pow(static_cast<double>(n), -1.0 / static_cast<double>(k_));

    const auto delete_edges =
        [&](const std::vector<std::pair<NodeId, NodeId>>& doomed) {
            for (const auto& [u, v] : doomed) {
                adj[u].erase(v);
                adj[v].erase(u);
            }
        };

    // Phase 1: k-1 rounds of sampled cluster promotion.
    for (std::size_t round = 0; round + 1 < k_; ++round) {
        // Sample the current centers, in sorted order so the RNG stream
        // is deterministic.
        std::vector<NodeId> centers;
        for (NodeId v = 0; v < n; ++v) {
            if (center[v] == v) centers.push_back(v);
        }
        std::vector<char> sampled(n, 0);
        for (const NodeId c : centers) sampled[c] = rng.uniform01() < sample_prob;

        std::vector<NodeId> new_center(n, graph::kInvalidNode);
        std::vector<std::pair<NodeId, NodeId>> doomed;
        for (NodeId v = 0; v < n; ++v) {
            if (center[v] == graph::kInvalidNode) continue;  // retired earlier
            if (sampled[center[v]]) {
                new_center[v] = center[v];  // cluster survives as sampled
                continue;
            }
            // Lightest residual edge toward each neighboring cluster.
            std::unordered_map<NodeId, IncidentEdge> best;
            for (const auto& [u, len] : adj[v]) {
                const NodeId cu = center[u];
                if (cu == graph::kInvalidNode) continue;
                const IncidentEdge e{len, u};
                const auto [it, inserted] = best.emplace(cu, e);
                if (!inserted && e.lighter_than(it->second)) it->second = e;
            }
            // Lightest edge into a *sampled* neighboring cluster, if any.
            NodeId join_cluster = graph::kInvalidNode;
            IncidentEdge join_edge;
            for (const auto& [cluster, e] : best) {
                if (!sampled[cluster]) continue;
                if (join_cluster == graph::kInvalidNode ||
                    e.lighter_than(join_edge)) {
                    join_cluster = cluster;
                    join_edge = e;
                }
            }
            if (join_cluster == graph::kInvalidNode) {
                // No sampled neighbor: connect once to every neighboring
                // cluster and retire from the residual graph.
                for (const auto& [cluster, e] : best) {
                    result.spanner.add_edge(v, e.neighbor);
                }
                for (const auto& [u, len] : adj[v]) doomed.emplace_back(v, u);
            } else {
                // Join the lightest sampled cluster; also take (and then
                // sever) every strictly lighter neighboring cluster.
                result.spanner.add_edge(v, join_edge.neighbor);
                new_center[v] = join_cluster;
                for (const auto& [u, len] : adj[v]) {
                    const NodeId cu = center[u];
                    if (cu == graph::kInvalidNode) continue;
                    if (cu == join_cluster) {
                        doomed.emplace_back(v, u);
                        continue;
                    }
                    const auto it = best.find(cu);
                    if (it != best.end() && it->second.lighter_than(join_edge)) {
                        doomed.emplace_back(v, u);
                    }
                }
                for (const auto& [cluster, e] : best) {
                    if (cluster != join_cluster && e.lighter_than(join_edge)) {
                        result.spanner.add_edge(v, e.neighbor);
                    }
                }
            }
        }
        delete_edges(doomed);
        // Remove intra-cluster edges under the new clustering.
        doomed.clear();
        for (NodeId v = 0; v < n; ++v) {
            if (new_center[v] == graph::kInvalidNode) continue;
            for (const auto& [u, len] : adj[v]) {
                if (v < u && new_center[u] == new_center[v]) doomed.emplace_back(v, u);
            }
        }
        delete_edges(doomed);
        center = std::move(new_center);
    }
    result.stats.stages.push_back(
        {"cluster", ms_since(start), result.spanner.edge_count(), 1});

    // Phase 2: vertex-cluster joining — lightest remaining edge per
    // adjacent cluster.
    start = Clock::now();
    std::size_t joined = 0;
    for (NodeId v = 0; v < n; ++v) {
        std::unordered_map<NodeId, IncidentEdge> best;
        for (const auto& [u, len] : adj[v]) {
            const NodeId cu = center[u];
            if (cu == graph::kInvalidNode) continue;
            const IncidentEdge e{len, u};
            const auto [it, inserted] = best.emplace(cu, e);
            if (!inserted && e.lighter_than(it->second)) it->second = e;
        }
        for (const auto& [cluster, e] : best) {
            joined += result.spanner.add_edge(v, e.neighbor) ? 1 : 0;
        }
    }
    result.stats.stages.push_back({"join", ms_since(start), joined, 1});
    return result;
}

}  // namespace geospanner::backends
