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
//
// And references for Algorithm 3, for checking the kernel behind
// proximity::triangles_intersect, alg3_removed_by and Alg3Filter:
//
//  * intersect_reference — the exhaustive test alone: some edge pair
//    properly crosses or some corner lies strictly inside the other
//    triangle (nine crossing tests, six strictly-inside tests);
//    edges_cross_reference is its crossing half.
//  * planarize_reference — Algorithm 3 over all pairs of a sorted set:
//    of each intersecting pair, remove every triangle whose circumcircle
//    strictly holds a corner of the other, or the larger key when
//    neither does.
#pragma once

#include <algorithm>
#include <array>
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

/// Corners of t, counter-clockwise unless collinear.
inline std::array<geom::Point, 3> ccw_corners(const graph::GeometricGraph& g,
                                              proximity::TriangleKey t) {
    std::array<geom::Point, 3> p{g.point(t.a), g.point(t.b), g.point(t.c)};
    if (geom::orient_sign(p[0], p[1], p[2]) < 0) std::swap(p[1], p[2]);
    return p;
}

/// True iff some edge of s properly crosses some edge of t.
inline bool edges_cross_reference(const graph::GeometricGraph& g, proximity::TriangleKey s,
                                  proximity::TriangleKey t) {
    const auto ps = ccw_corners(g, s);
    const auto pt = ccw_corners(g, t);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            if (geom::segments_properly_cross(ps[i], ps[(i + 1) % 3], pt[j],
                                              pt[(j + 1) % 3])) {
                return true;
            }
        }
    }
    return false;
}

inline bool intersect_reference(const graph::GeometricGraph& g, proximity::TriangleKey s,
                                proximity::TriangleKey t) {
    if (edges_cross_reference(g, s, t)) return true;
    const auto ps = ccw_corners(g, s);
    const auto pt = ccw_corners(g, t);
    const auto strictly_inside = [](const std::array<geom::Point, 3>& tri, geom::Point p) {
        return geom::orient_sign(tri[0], tri[1], p) > 0 &&
               geom::orient_sign(tri[1], tri[2], p) > 0 &&
               geom::orient_sign(tri[2], tri[0], p) > 0;
    };
    for (const geom::Point p : pt) {
        if (strictly_inside(ps, p)) return true;
    }
    for (const geom::Point p : ps) {
        if (strictly_inside(pt, p)) return true;
    }
    return false;
}

inline std::vector<proximity::TriangleKey> planarize_reference(
    const graph::GeometricGraph& g, const std::vector<proximity::TriangleKey>& triangles) {
    const auto holds_corner_of = [&](proximity::TriangleKey s, proximity::TriangleKey t) {
        const auto ps = ccw_corners(g, s);
        return std::ranges::any_of(ccw_corners(g, t), [&](geom::Point p) {
            return geom::in_circumcircle(ps[0], ps[1], ps[2], p) > 0;
        });
    };
    std::vector<char> removed(triangles.size(), 0);
    for (std::size_t i = 0; i < triangles.size(); ++i) {
        for (std::size_t j = i + 1; j < triangles.size(); ++j) {
            if (!intersect_reference(g, triangles[i], triangles[j])) continue;
            const bool remove_i = holds_corner_of(triangles[i], triangles[j]);
            const bool remove_j = holds_corner_of(triangles[j], triangles[i]);
            if (remove_i) removed[i] = 1;
            if (remove_j || !remove_i) removed[j] = 1;
        }
    }
    std::vector<proximity::TriangleKey> kept;
    for (std::size_t i = 0; i < triangles.size(); ++i) {
        if (!removed[i]) kept.push_back(triangles[i]);
    }
    return kept;
}

}  // namespace geospanner::test
