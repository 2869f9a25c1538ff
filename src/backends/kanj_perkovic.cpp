#include "backends/kanj_perkovic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "core/input.h"
#include "graph/union_find.h"
#include "proximity/classic.h"
#include "proximity/ldel.h"

namespace geospanner::backends {

using graph::GeometricGraph;
using graph::NodeId;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Cone index of the direction u -> v among `cones` equal sectors
/// anchored at angle 0. Deterministic: atan2 is exact enough for a
/// sector decision and identical across runs on the same input.
int cone_of(const GeometricGraph& g, NodeId u, NodeId v, int cones) {
    const geom::Point p = g.point(u);
    const geom::Point q = g.point(v);
    const double angle = std::atan2(q.y - p.y, q.x - p.x);  // [-pi, pi]
    const double two_pi = 2.0 * 3.14159265358979323846;
    double normalized = angle < 0.0 ? angle + two_pi : angle;
    int c = static_cast<int>(normalized / two_pi * cones);
    if (c >= cones) c = cones - 1;  // angle == 2*pi after rounding
    return c;
}

struct RankedEdge {
    double length;
    NodeId u, v;

    friend bool operator<(const RankedEdge& a, const RankedEdge& b) {
        if (a.length != b.length) return a.length < b.length;
        if (a.u != b.u) return a.u < b.u;
        return a.v < b.v;
    }
};

}  // namespace

KanjPerkovicBackend::KanjPerkovicBackend(const BackendOptions& options)
    : cones_(std::max(options.cones, 6)) {}

verify::BackendClaims KanjPerkovicBackend::claims() const {
    verify::BackendClaims claims;
    claims.subgraph_of_udg = true;
    claims.connected = true;  // mutual-Yao drops are repaired from PLDel
    claims.plane = true;      // subgraph of the planarized LDel
    claims.max_degree = static_cast<std::size_t>(cones_) + kRepairDegreeSlack;
    // Empirical far-pair pin; the paper's canonical-path argument gives
    // 1+eps, which this simplified selection does not reproduce.
    claims.max_length_stretch = 8.0;
    return claims;
}

BackendResult KanjPerkovicBackend::build(const GeometricGraph& udg, double radius) {
    core::validate_input(udg.points(), radius);
    BackendResult result;
    auto& stats = result.stats.stages;

    // Stage 1: PLDel over the full node set — Gabriel edges plus the
    // edges of the Algorithm-3 survivors (the pipeline's LDel assembly,
    // applied to the UDG instead of the ICDS).
    auto start = Clock::now();
    const auto triangles =
        proximity::planarize_triangles(udg, proximity::ldel1_triangles(udg));
    GeometricGraph pldel = proximity::build_gabriel(udg);
    for (const auto& t : triangles) {
        pldel.add_edge(t.a, t.b);
        pldel.add_edge(t.b, t.c);
        pldel.add_edge(t.a, t.c);
    }
    stats.push_back({"pldel", ms_since(start), pldel.edge_count(), 1});

    // Stage 2: mutual Yao — per node, the shortest incident PLDel edge
    // in each of `cones_` sectors (ties to the smaller neighbor id); an
    // edge survives only if both endpoints selected it.
    start = Clock::now();
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<std::vector<NodeId>> selected(n);
    for (NodeId u = 0; u < n; ++u) {
        std::vector<NodeId> best(static_cast<std::size_t>(cones_), graph::kInvalidNode);
        for (const NodeId v : pldel.neighbors(u)) {
            const int c = cone_of(pldel, u, v, cones_);
            NodeId& b = best[static_cast<std::size_t>(c)];
            if (b == graph::kInvalidNode) {
                b = v;
                continue;
            }
            const double lv = pldel.edge_length(u, v);
            const double lb = pldel.edge_length(u, b);
            if (lv < lb || (lv == lb && v < b)) b = v;
        }
        for (const NodeId b : best) {
            if (b != graph::kInvalidNode) selected[u].push_back(b);
        }
        std::sort(selected[u].begin(), selected[u].end());
    }
    const auto mutually_selected = [&](NodeId u, NodeId v) {
        return std::binary_search(selected[u].begin(), selected[u].end(), v) &&
               std::binary_search(selected[v].begin(), selected[v].end(), u);
    };
    result.spanner = GeometricGraph(udg.points());
    std::vector<RankedEdge> dropped;
    for (const auto& [u, v] : pldel.edges()) {
        if (mutually_selected(u, v)) {
            result.spanner.add_edge(u, v);
        } else {
            dropped.push_back({pldel.edge_length(u, v), u, v});
        }
    }
    stats.push_back({"yao", ms_since(start), result.spanner.edge_count(), 1});

    // Stage 3: repair — dropped PLDel edges, shortest first, re-added
    // whenever they join two components (the stand-in for the paper's
    // canonical paths; still a PLDel subgraph, so still plane).
    start = Clock::now();
    std::sort(dropped.begin(), dropped.end());
    graph::UnionFind uf(n);
    for (const auto& [u, v] : result.spanner.edges()) uf.unite(u, v);
    std::size_t repaired = 0;
    for (const RankedEdge& e : dropped) {
        if (uf.unite(e.u, e.v)) {
            result.spanner.add_edge(e.u, e.v);
            ++repaired;
        }
    }
    stats.push_back({"repair", ms_since(start), repaired, 1});
    return result;
}

}  // namespace geospanner::backends
