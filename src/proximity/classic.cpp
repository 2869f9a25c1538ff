#include "proximity/classic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <vector>

#include "delaunay/delaunay.h"
#include "geom/predicates.h"

namespace geospanner::proximity {

using geom::Point;
using graph::GeometricGraph;
using graph::NodeId;

namespace {

/// Calls fn(w) for every common UDG neighbor w of u and v.
template <typename Fn>
void for_common_neighbors(const GeometricGraph& udg, NodeId u, NodeId v, Fn fn) {
    const auto nu = udg.neighbors(u);
    const auto nv = udg.neighbors(v);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
            ++i;
        } else if (nu[i] > nv[j]) {
            ++j;
        } else {
            fn(nu[i]);
            ++i;
            ++j;
        }
    }
}

/// Sector index of the direction u -> v among `cones` equal sectors
/// anchored at angle 0.
int cone_of(Point u, Point v, int cones) {
    double theta = geom::angle_of(v - u);
    const double two_pi = 2.0 * std::numbers::pi;
    if (theta < 0.0) theta += two_pi;
    int c = static_cast<int>(theta / two_pi * cones);
    return std::min(c, cones - 1);  // Guard against theta == 2*pi rounding.
}

/// Directed Yao selection: for each node, the closest out-neighbor per
/// cone (ties by smaller id). Returns out[u] = chosen targets.
std::vector<std::vector<NodeId>> yao_out_edges(const GeometricGraph& udg, int cones) {
    assert(cones >= 1);
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<std::vector<NodeId>> out(n);
    std::vector<NodeId> best(static_cast<std::size_t>(cones));
    std::vector<double> best_d2(static_cast<std::size_t>(cones));
    for (NodeId u = 0; u < n; ++u) {
        std::fill(best.begin(), best.end(), graph::kInvalidNode);
        std::fill(best_d2.begin(), best_d2.end(), 0.0);
        for (const NodeId v : udg.neighbors(u)) {
            const int c = cone_of(udg.point(u), udg.point(v), cones);
            const double d2 = geom::squared_distance(udg.point(u), udg.point(v));
            if (best[c] == graph::kInvalidNode || d2 < best_d2[c] ||
                (d2 == best_d2[c] && v < best[c])) {
                best[c] = v;
                best_d2[c] = d2;
            }
        }
        for (int c = 0; c < cones; ++c) {
            if (best[c] != graph::kInvalidNode) out[u].push_back(best[c]);
        }
    }
    return out;
}

}  // namespace

GeometricGraph build_rng(const GeometricGraph& udg) {
    GeometricGraph g(udg.points());
    for (const auto& [u, v] : udg.edges()) {
        const double d2 = geom::squared_distance(udg.point(u), udg.point(v));
        bool blocked = false;
        // Any blocker w has |uw| < |uv| <= 1 and |wv| < |uv| <= 1, hence
        // is a common UDG neighbor.
        for_common_neighbors(udg, u, v, [&](NodeId w) {
            if (blocked) return;
            if (geom::squared_distance(udg.point(u), udg.point(w)) < d2 &&
                geom::squared_distance(udg.point(v), udg.point(w)) < d2) {
                blocked = true;
            }
        });
        if (!blocked) g.add_edge(u, v);
    }
    return g;
}

GeometricGraph build_gabriel(const GeometricGraph& udg) {
    GeometricGraph g(udg.points());
    for (const auto& [u, v] : udg.edges()) {
        if (is_gabriel_edge(udg, u, v)) g.add_edge(u, v);
    }
    return g;
}

bool is_gabriel_edge(const GeometricGraph& udg, NodeId u, NodeId v) {
    // A witness anywhere in the *closed* diametral disk blocks the edge
    // (boundary witnesses included: with exactly-cocircular inputs,
    // e.g. integer grids, strict blocking would keep both crossing
    // diagonals of a square and break planarity; the paper assumes
    // general position where the two rules coincide). Any witness is
    // within |uv| of both endpoints, hence a common UDG neighbor.
    bool blocked = false;
    for_common_neighbors(udg, u, v, [&](NodeId w) {
        blocked = blocked ||
                  geom::in_diametral_circle(udg.point(u), udg.point(v), udg.point(w)) >= 0;
    });
    return !blocked;
}

GeometricGraph build_yao(const GeometricGraph& udg, int cones) {
    GeometricGraph g(udg.points());
    const auto out = yao_out_edges(udg, cones);
    for (NodeId u = 0; u < udg.node_count(); ++u) {
        for (const NodeId v : out[u]) g.add_edge(u, v);
    }
    return g;
}

GeometricGraph build_theta(const GeometricGraph& udg, int cones) {
    assert(cones >= 1);
    GeometricGraph g(udg.points());
    const auto n = static_cast<NodeId>(udg.node_count());
    const double two_pi = 2.0 * std::numbers::pi;
    std::vector<NodeId> best(static_cast<std::size_t>(cones));
    std::vector<double> best_proj(static_cast<std::size_t>(cones));
    for (NodeId u = 0; u < n; ++u) {
        std::fill(best.begin(), best.end(), graph::kInvalidNode);
        std::fill(best_proj.begin(), best_proj.end(), 0.0);
        for (const NodeId v : udg.neighbors(u)) {
            const int c = cone_of(udg.point(u), udg.point(v), cones);
            // Projection of uv onto the cone's bisector direction.
            const double bisector = (static_cast<double>(c) + 0.5) / cones * two_pi;
            const geom::Vec2 dir{std::cos(bisector), std::sin(bisector)};
            const double proj = dot(udg.point(v) - udg.point(u), dir);
            if (best[c] == graph::kInvalidNode || proj < best_proj[c] ||
                (proj == best_proj[c] && v < best[c])) {
                best[c] = v;
                best_proj[c] = proj;
            }
        }
        for (int c = 0; c < cones; ++c) {
            if (best[c] != graph::kInvalidNode) g.add_edge(u, best[c]);
        }
    }
    return g;
}

GeometricGraph build_yao_sink(const GeometricGraph& udg, int cones) {
    const auto n = static_cast<NodeId>(udg.node_count());
    const auto out = yao_out_edges(udg, cones);

    // Incoming Yao edges per node.
    std::vector<std::vector<NodeId>> in(n);
    for (NodeId u = 0; u < n; ++u) {
        for (const NodeId v : out[u]) in[v].push_back(u);
    }

    // Reverse Yao at each sink v: among in-neighbors, keep the closest
    // per cone (ties by smaller id). This bounds in-degree by `cones`.
    GeometricGraph g(udg.points());
    std::vector<NodeId> best(static_cast<std::size_t>(cones));
    std::vector<double> best_d2(static_cast<std::size_t>(cones));
    for (NodeId v = 0; v < n; ++v) {
        std::fill(best.begin(), best.end(), graph::kInvalidNode);
        std::fill(best_d2.begin(), best_d2.end(), 0.0);
        for (const NodeId u : in[v]) {
            const int c = cone_of(udg.point(v), udg.point(u), cones);
            const double d2 = geom::squared_distance(udg.point(u), udg.point(v));
            if (best[c] == graph::kInvalidNode || d2 < best_d2[c] ||
                (d2 == best_d2[c] && u < best[c])) {
                best[c] = u;
                best_d2[c] = d2;
            }
        }
        for (int c = 0; c < cones; ++c) {
            if (best[c] != graph::kInvalidNode) g.add_edge(best[c], v);
        }
    }
    return g;
}

GeometricGraph build_udel(const GeometricGraph& udg) {
    GeometricGraph g(udg.points());
    const delaunay::DelaunayTriangulation del(udg.points());
    for (const auto& [u, v] : del.edges()) {
        if (udg.has_edge(u, v)) g.add_edge(u, v);
    }
    return g;
}

}  // namespace geospanner::proximity
