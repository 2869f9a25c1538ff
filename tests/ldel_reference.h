// Reference computations of one node's LDel⁽¹⁾ star, for checking
// proximity::local_triangles_at (the gift-wrap walk around u).
//
//  * bw_local_triangles_at — the whole Bowyer–Watson triangulation of
//    N1(u), filtered to the triangles at u. On inputs without four
//    cocircular points the Delaunay triangulation is unique, so the walk
//    must list exactly these triangles.
//  * perturbed_star_at — the definition under the symbolic perturbation:
//    uvw is listed at u iff vw is an edge and no distinct neighbor of u
//    is inside its circle by geom::incircle_ccw_sos keyed by node id.
//    O(d^3) per node; it decides cocircular inputs, where Bowyer–Watson
//    picks an arbitrary triangulation.
//
// Both apply the kernel's dedup: neighbors exactly on u are dropped and
// of coincident neighbors the first in adjacency order stands for all.
#pragma once

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "delaunay/delaunay.h"
#include "geom/predicates.h"
#include "graph/geometric_graph.h"
#include "proximity/ldel.h"

namespace geospanner::proximity {

/// Lets gtest print triangle lists as "{a,b,c}" on failure.
inline void PrintTo(const TriangleKey& t, std::ostream* os) {
    *os << '{' << t.a << ',' << t.b << ',' << t.c << '}';
}

}  // namespace geospanner::proximity

namespace geospanner::test {

inline std::vector<proximity::TriangleKey> bw_local_triangles_at(
    const graph::GeometricGraph& udg, graph::NodeId u) {
    std::vector<proximity::TriangleKey> out;
    const auto nbrs = udg.neighbors(u);
    if (nbrs.size() < 2) return out;
    // Local point set: u first, then its neighbors. Duplicate-coordinate
    // neighbors dedup onto their first occurrence (u's onto index 0), so
    // "incident to u" is exactly "contains local index 0".
    std::vector<geom::Point> pts{udg.point(u)};
    std::vector<graph::NodeId> ids{u};
    for (const graph::NodeId v : nbrs) {
        pts.push_back(udg.point(v));
        ids.push_back(v);
    }
    delaunay::Workspace ws;
    std::vector<delaunay::Triangle> tris;
    if (!delaunay::triangulate(pts, ws, tris)) return out;
    for (const auto& t : tris) {
        if (t.a != 0 && t.b != 0 && t.c != 0) continue;
        const graph::NodeId x = ids[t.a];
        const graph::NodeId y = ids[t.b];
        const graph::NodeId z = ids[t.c];
        const auto [p, q] = x == u ? std::pair{y, z} : y == u ? std::pair{x, z} : std::pair{x, y};
        if (udg.has_edge(p, q)) out.push_back(proximity::make_triangle_key(x, y, z));
    }
    std::sort(out.begin(), out.end());
    return out;
}

inline std::vector<proximity::TriangleKey> perturbed_star_at(const graph::GeometricGraph& udg,
                                                             graph::NodeId u) {
    const geom::Point pu = udg.point(u);
    std::vector<graph::NodeId> cands;
    for (const graph::NodeId v : udg.neighbors(u)) {
        const geom::Point p = udg.point(v);
        const bool coincident =
            p == pu || std::ranges::any_of(cands, [&](graph::NodeId c) {
                return udg.point(c) == p;
            });
        if (!coincident) cands.push_back(v);
    }
    std::vector<proximity::TriangleKey> out;
    for (const graph::NodeId v : cands) {
        for (const graph::NodeId w : cands) {
            // Each triangle once, as the counter-clockwise (u, v, w).
            if (geom::orient_sign(pu, udg.point(v), udg.point(w)) <= 0) continue;
            if (!udg.has_edge(v, w)) continue;
            const bool empty = std::ranges::none_of(cands, [&](graph::NodeId p) {
                return p != v && p != w &&
                       geom::incircle_ccw_sos(pu, udg.point(v), udg.point(w), udg.point(p),
                                              u, v, w, p) > 0;
            });
            if (empty) out.push_back(proximity::make_triangle_key(u, v, w));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace geospanner::test
