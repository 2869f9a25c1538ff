#include "proximity/ldel.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "geom/predicates.h"
#include "proximity/classic.h"

namespace geospanner::proximity {

using geom::Point;
using graph::GeometricGraph;
using graph::NodeId;

TriangleKey make_triangle_key(NodeId x, NodeId y, NodeId z) {
    std::array<NodeId, 3> v{x, y, z};
    std::sort(v.begin(), v.end());
    return {v[0], v[1], v[2]};
}

namespace {

/// True iff p is strictly inside the CCW triangle (a, b, c).
bool strictly_inside_triangle(Point a, Point b, Point c, Point p) {
    return geom::orient_sign(a, b, p) > 0 && geom::orient_sign(b, c, p) > 0 &&
           geom::orient_sign(c, a, p) > 0;
}

using TrianglePoints = Alg3Filter::CcwTri;

TrianglePoints ccw_points(const GeometricGraph& g, TriangleKey t) {
    Point a = g.point(t.a);
    Point b = g.point(t.b);
    Point c = g.point(t.c);
    const int o = geom::orient_sign(a, b, c);
    if (o < 0) std::swap(b, c);
    return {a, b, c, o != 0};
}

/// True iff some edge line of the strictly CCW triangle s has all three
/// corners of t in its closed outer half-plane (orient_sign <= 0).
bool edge_line_separates(const TrianglePoints& s, const TrianglePoints& t) {
    for (const auto& [p, q] : {std::pair{s.a, s.b}, {s.b, s.c}, {s.c, s.a}}) {
        if (geom::orient_sign(p, q, t.a) <= 0 && geom::orient_sign(p, q, t.b) <= 0 &&
            geom::orient_sign(p, q, t.c) <= 0) {
            return true;
        }
    }
    return false;
}

/// Algorithm 3's one intersection kernel. Almost every pair that
/// reaches it is disjoint, so it first looks for a separating edge line
/// and only then runs the exhaustive test (nine proper crossings, six
/// corners strictly inside).
///
/// Why the early exit is exact. Let s and t be strictly CCW, (p, q) an
/// edge of s with third corner r, L its line, and H- / H+ the closed
/// half-planes where orient_sign(p, q, ·) <= 0 / >= 0. If all corners
/// of t are in H-, then t lies in H- and s in H+, with r off L.
///  * A proper crossing needs both endpoints of one segment strictly on
///    opposite sides of the other's line. A crossing of an edge e of s
///    and an edge f of t lies in both open segments and in H+ ∩ H- = L.
///    The open edges (q, r) and (r, p) lie strictly inside H+, off L, so
///    e = (p, q); but f's endpoints are in H-, not strictly on both
///    sides of L.
///  * A corner strictly inside the other triangle needs three strictly
///    positive orientations. No corner of t has orient_sign(p, q, ·) > 0,
///    so none is strictly inside s; a corner of s strictly inside t
///    would lie in the interior of H-, yet p and q are on L and r is in
///    H+.
/// The strict-CCW guard is needed: an edge of a zero-area triangle may
/// have p == q, whose "line" puts every point at 0. Pairs the early
/// exit does not reject, zero-area triangles included, get the
/// exhaustive test.
bool intersect_impl(const TrianglePoints& s, const TrianglePoints& t) {
    if (s.strict && t.strict && (edge_line_separates(s, t) || edge_line_separates(t, s))) {
        return false;
    }
    const std::array<std::pair<Point, Point>, 3> se{{{s.a, s.b}, {s.b, s.c}, {s.c, s.a}}};
    const std::array<std::pair<Point, Point>, 3> te{{{t.a, t.b}, {t.b, t.c}, {t.c, t.a}}};
    for (const auto& [p1, p2] : se) {
        for (const auto& [q1, q2] : te) {
            if (geom::segments_properly_cross(p1, p2, q1, q2)) return true;
        }
    }
    for (const Point p : {t.a, t.b, t.c}) {
        if (strictly_inside_triangle(s.a, s.b, s.c, p)) return true;
    }
    for (const Point p : {s.a, s.b, s.c}) {
        if (strictly_inside_triangle(t.a, t.b, t.c, p)) return true;
    }
    return false;
}

bool cc_contains_impl(const TrianglePoints& s, const TrianglePoints& t) {
    for (const Point p : {t.a, t.b, t.c}) {
        if (geom::in_circumcircle(s.a, s.b, s.c, p) > 0) return true;
    }
    return false;
}

bool bbox_disjoint(const TrianglePoints& s, const TrianglePoints& t) {
    return std::max({s.a.x, s.b.x, s.c.x}) < std::min({t.a.x, t.b.x, t.c.x}) ||
           std::max({t.a.x, t.b.x, t.c.x}) < std::min({s.a.x, s.b.x, s.c.x}) ||
           std::max({s.a.y, s.b.y, s.c.y}) < std::min({t.a.y, t.b.y, t.c.y}) ||
           std::max({t.a.y, t.b.y, t.c.y}) < std::min({s.a.y, s.b.y, s.c.y});
}

/// Algorithm 3's removal rule for an intersecting pair, where `s` is the
/// triangle with the smaller canonical key. The lemma of [30] guarantees
/// at least one circumcircle test fires for genuinely intersecting
/// 1-localized Delaunay triangles in general position; for exactly-
/// cocircular configurations (where each triangle's vertices lie ON the
/// other's circumcircle and neither strict test fires) the larger
/// canonical key is removed as a deterministic tie-break.
struct PairRemoval {
    bool smaller = false;  ///< s (smaller key) is removed
    bool larger = false;   ///< t (larger key) is removed
};

PairRemoval alg3_pair(const TrianglePoints& s, const TrianglePoints& t) {
    const bool remove_s = cc_contains_impl(s, t);
    const bool remove_t = cc_contains_impl(t, s);
    if (!remove_s && !remove_t) return {false, true};
    return {remove_s, remove_t};
}

GeometricGraph graph_from(const GeometricGraph& udg,
                          const std::vector<TriangleKey>& triangles) {
    GeometricGraph g = build_gabriel(udg);
    for (const auto& t : triangles) {
        g.add_edge(t.a, t.b);
        g.add_edge(t.b, t.c);
        g.add_edge(t.a, t.c);
    }
    return g;
}

}  // namespace

std::vector<TriangleKey> local_triangles_at(const GeometricGraph& udg, NodeId u) {
    LocalDelaunayScratch scratch;
    std::vector<TriangleKey> result;
    local_triangles_at(udg, u, scratch, result);
    return result;
}

void local_triangles_at(const GeometricGraph& udg, NodeId u,
                        LocalDelaunayScratch& scratch, std::vector<TriangleKey>& out) {
    out.clear();
    const auto nbrs = udg.neighbors(u);
    if (nbrs.size() < 2) return;
    const Point pu = udg.point(u);

    // Candidates: u's distinct neighbors. Sorted by (point, id), each run
    // of coincident neighbors starts with its least id — the first in
    // adjacency order — which stands for the run; neighbors on u go.
    auto& ids = scratch.ids;
    auto& pts = scratch.pts;
    ids.assign(nbrs.begin(), nbrs.end());
    std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
        const Point pa = udg.point(a);
        const Point pb = udg.point(b);
        if (pa.x != pb.x) return pa.x < pb.x;
        if (pa.y != pb.y) return pa.y < pb.y;
        return a < b;
    });
    pts.clear();
    std::size_t k = 0;
    for (const NodeId v : ids) {
        const Point p = udg.point(v);
        if (p == pu || (k > 0 && p == pts[k - 1])) continue;
        ids[k++] = v;
        pts.push_back(p);
    }
    ids.resize(k);
    if (k < 2) return;

    // Start edge: u's nearest neighbor, made exact. While some candidate
    // lies in or on the diametral circle of (u, s0) it is strictly closer
    // to u, so it takes over and the loop ends; the closed diametral
    // circle is then empty, and (u, s0) is a Delaunay edge under any
    // perturbation.
    std::size_t s0 = 0;
    double nearest = geom::squared_norm(pts[0] - pu);
    for (std::size_t i = 1; i < k; ++i) {
        const double d2 = geom::squared_norm(pts[i] - pu);
        if (d2 < nearest) {
            nearest = d2;
            s0 = i;
        }
    }
    for (bool moved = true; moved;) {
        moved = false;
        for (std::size_t i = 0; i < k; ++i) {
            if (i != s0 && geom::in_diametral_circle(pu, pts[s0], pts[i]) >= 0) {
                s0 = i;
                moved = true;
            }
        }
    }

    // One gift-wrap step from the star edge (u, v): the candidate strictly
    // on the `side` (+1 left, -1 right) of u→v whose circle through u and
    // v holds no other candidate there. Ties go by the perturbation keyed
    // by global id; returns k when that side is empty.
    const auto in_circle = [&](std::size_t b, std::size_t c, std::size_t p) {
        // Precondition: (u, b, c) is counter-clockwise.
        return geom::incircle_ccw_sos(pu, pts[b], pts[c], pts[p], u, ids[b], ids[c],
                                      ids[p]) > 0;
    };
    const auto step = [&](std::size_t v, int side) {
        std::size_t w = k;
        for (std::size_t i = 0; i < k; ++i) {
            if (geom::orient_sign(pu, pts[v], pts[i]) != side) continue;
            if (w == k || (side > 0 ? in_circle(v, w, i) : in_circle(w, v, i))) w = i;
        }
        return w;
    };
    // Sides at u are graph edges by construction; the far side must be
    // one too.
    const auto emit = [&](std::size_t v, std::size_t w) {
        if (udg.has_edge(ids[v], ids[w])) out.push_back(make_triangle_key(u, ids[v], ids[w]));
    };

    // Walk counter-clockwise from s0; if the fan does not close (u is on
    // the hull of its neighborhood), walk clockwise from s0 as well. Each
    // star triangle is met once; k steps bound either walk.
    bool closed = false;
    std::size_t v = s0;
    for (std::size_t steps = 0; steps < k && !closed; ++steps) {
        const std::size_t w = step(v, 1);
        if (w == k) break;
        emit(v, w);
        closed = w == s0;
        v = w;
    }
    v = s0;
    for (std::size_t steps = 0; steps < k && !closed; ++steps) {
        const std::size_t w = step(v, -1);
        if (w == k) break;
        emit(w, v);
        v = w;
    }
    std::sort(out.begin(), out.end());
}

bool triangles_intersect(const GeometricGraph& g, TriangleKey s, TriangleKey t) {
    return intersect_impl(ccw_points(g, s), ccw_points(g, t));
}

bool circumcircle_contains_vertex_of(const GeometricGraph& g, TriangleKey s,
                                     TriangleKey t) {
    return cc_contains_impl(ccw_points(g, s), ccw_points(g, t));
}

bool alg3_removed_by(const GeometricGraph& g, TriangleKey t, TriangleKey r) {
    const TrianglePoints pt = ccw_points(g, t);
    const TrianglePoints pr = ccw_points(g, r);
    if (bbox_disjoint(pt, pr) || !intersect_impl(pt, pr)) return false;
    return r < t ? alg3_pair(pr, pt).larger : alg3_pair(pt, pr).smaller;
}

std::vector<TriangleKey> ldel1_triangles(const GeometricGraph& udg) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<std::vector<TriangleKey>> local(n);
    LocalDelaunayScratch scratch;
    for (NodeId u = 0; u < n; ++u) {
        local_triangles_at(udg, u, scratch, local[u]);
    }

    // Concatenating the least-vertex hits in node order is already
    // globally sorted.
    std::vector<TriangleKey> result;
    for (NodeId u = 0; u < n; ++u) {
        for (const auto& t : local[u]) {
            // Count each triangle once, at its least vertex.
            if (t.a == u && ldel1_member(local, t)) result.push_back(t);
        }
    }
    return result;
}

std::vector<TriangleKey> ldel1_triangles_reference(const GeometricGraph& udg) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<TriangleKey> result;
    for (NodeId u = 0; u < n; ++u) {
        const auto nbrs = udg.neighbors(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
                const NodeId v = nbrs[i];
                const NodeId w = nbrs[j];
                if (u > v || u > w) continue;  // Enumerate at the least vertex.
                if (!udg.has_edge(v, w)) continue;
                const Point pu = udg.point(u);
                const Point pv = udg.point(v);
                const Point pw = udg.point(w);
                if (geom::orient_sign(pu, pv, pw) == 0) continue;  // Degenerate.
                // Circumcircle must be empty of N1(u) ∪ N1(v) ∪ N1(w).
                bool empty = true;
                for (const NodeId center : {u, v, w}) {
                    for (const NodeId x : udg.neighbors(center)) {
                        if (x == u || x == v || x == w) continue;
                        if (geom::in_circumcircle(pu, pv, pw, udg.point(x)) > 0) {
                            empty = false;
                            break;
                        }
                    }
                    if (!empty) break;
                }
                if (empty) result.push_back(make_triangle_key(u, v, w));
            }
        }
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    return result;
}

Alg3Filter::Alg3Filter(const GeometricGraph& g, std::vector<TriangleKey> triangles)
    : keys_(std::move(triangles)) {
    tris_.reserve(keys_.size());
    boxes_.reserve(keys_.size());
    double max_extent = 0.0;
    double max_abs = 0.0;
    for (const auto& t : keys_) {
        const TrianglePoints p = ccw_points(g, t);
        tris_.push_back(p);
        const Box box{std::min({p.a.x, p.b.x, p.c.x}), std::max({p.a.x, p.b.x, p.c.x}),
                      std::min({p.a.y, p.b.y, p.c.y}), std::max({p.a.y, p.b.y, p.c.y})};
        boxes_.push_back(box);
        max_extent = std::max({max_extent, box.max_x - box.min_x, box.max_y - box.min_y});
        max_abs = std::max({max_abs, -box.min_x, box.max_x, -box.min_y, box.max_y});
    }
    // The side must cover every box extent; its floor keeps every
    // coordinate/side ratio below 2^62, so cell_of never overflows its
    // integer cast, whatever the coordinates.
    cell_side_ = std::max(max_extent, std::ldexp(max_abs, -61));
    if (cell_side_ == 0.0) cell_side_ = 1.0;
    // CSR bucket build: sort (cell, index) pairs, then split the index
    // column at cell boundaries. One allocation each, no per-cell nodes.
    std::vector<std::pair<std::pair<long long, long long>, std::uint32_t>> entries;
    entries.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        const CellCoord c = cell_of({boxes_[i].min_x, boxes_[i].min_y}, cell_side_);
        entries.push_back({{c.first, c.second}, static_cast<std::uint32_t>(i)});
    }
    std::sort(entries.begin(), entries.end());
    cell_items_.reserve(entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
        if (k == 0 || entries[k].first != entries[k - 1].first) {
            cell_keys_.push_back(entries[k].first);
            cell_offsets_.push_back(static_cast<std::uint32_t>(k));
        }
        cell_items_.push_back(entries[k].second);
    }
    cell_offsets_.push_back(static_cast<std::uint32_t>(entries.size()));
}

template <typename Fn>
void Alg3Filter::for_each_box_neighbor(std::size_t i, Fn&& fn) const {
    // Boxes are bucketed by their min corner and no box extent exceeds
    // cell_side_, so any box intersecting box i has its min corner in
    // [min - cell_side_, max] per axis — at most a 3x3 cell block.
    const Box& box = boxes_[i];
    const auto [x_lo, y_lo] =
        cell_of({box.min_x - cell_side_, box.min_y - cell_side_}, cell_side_);
    const auto [x_hi, y_hi] = cell_of({box.max_x, box.max_y}, cell_side_);
    for (long long cx = x_lo; cx <= x_hi; ++cx) {
        for (long long cy = y_lo; cy <= y_hi; ++cy) {
            const auto it = std::lower_bound(cell_keys_.begin(), cell_keys_.end(),
                                             std::pair{cx, cy});
            if (it == cell_keys_.end() || *it != std::pair{cx, cy}) continue;
            const auto k = static_cast<std::size_t>(it - cell_keys_.begin());
            for (std::uint32_t s = cell_offsets_[k]; s < cell_offsets_[k + 1]; ++s) {
                fn(static_cast<std::size_t>(cell_items_[s]));
            }
        }
    }
}

void Alg3Filter::removal_scan(std::size_t first_cell, std::size_t last_cell,
                              std::vector<std::uint32_t>& removed) const {
    // Cell order keeps consecutive triangles' neighbor blocks (and their
    // cached corner points) shared.
    for (std::uint32_t k = cell_offsets_[first_cell]; k < cell_offsets_[last_cell]; ++k) {
        const std::uint32_t i = cell_items_[k];
        const auto& s = tris_[i];
        // The grid finds every intersecting pair from both sides; the
        // j > i filter tests each unordered pair once, in the range
        // holding its smaller index.
        for_each_box_neighbor(i, [&](std::size_t j) {
            if (j <= i) return;
            const auto& t = tris_[j];
            if (bbox_disjoint(s, t) || !intersect_impl(s, t)) return;
            const PairRemoval r = alg3_pair(s, t);
            if (r.smaller) removed.push_back(i);
            if (r.larger) removed.push_back(static_cast<std::uint32_t>(j));
        });
    }
}

std::vector<TriangleKey> Alg3Filter::survivors(
    std::span<const std::vector<std::uint32_t>> removed) const {
    std::vector<char> gone(size(), 0);
    for (const auto& list : removed) {
        for (const std::uint32_t i : list) gone[i] = 1;
    }
    std::vector<TriangleKey> kept;
    for (std::size_t i = 0; i < size(); ++i) {
        if (!gone[i]) kept.push_back(keys_[i]);
    }
    return kept;
}

std::vector<TriangleKey> planarize_triangles(const GeometricGraph& udg,
                                             const std::vector<TriangleKey>& triangles) {
    // The one-block scan: every cell in one range.
    const Alg3Filter filter(udg, triangles);
    std::vector<std::uint32_t> removed;
    filter.removal_scan(0, filter.cell_count(), removed);
    return filter.survivors({&removed, 1});
}

GeometricGraph build_ldel1(const GeometricGraph& udg) {
    return graph_from(udg, ldel1_triangles(udg));
}

GeometricGraph build_pldel(const GeometricGraph& udg) {
    return graph_from(udg, planarize_triangles(udg, ldel1_triangles(udg)));
}

}  // namespace geospanner::proximity
