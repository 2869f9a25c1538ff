// Localized Delaunay graph LDel⁽¹⁾ and its planarization PLDel
// (Li, Calinescu, Wan [30]; Algorithms 2 and 3 of the paper).
//
// A triangle uvw with all sides in the UDG is a *1-localized Delaunay
// triangle* iff its circumcircle contains no node of N1(u) ∪ N1(v) ∪
// N1(w). LDel⁽¹⁾(V) consists of all Gabriel edges plus the edges of all
// 1-localized Delaunay triangles; it has thickness 2. Algorithm 3 then
// removes, from every pair of *intersecting* triangles, the one whose
// circumcircle contains a vertex of the other, yielding the planar PLDel.
//
// These functions are the centralized reference; the message-passing
// versions live in src/protocol and are tested for exact equality with
// these results.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/geometric_graph.h"
#include "proximity/cell_grid.h"

namespace geospanner::proximity {

/// Canonical triangle key: a < b < c.
struct TriangleKey {
    graph::NodeId a = 0;
    graph::NodeId b = 0;
    graph::NodeId c = 0;

    friend bool operator==(TriangleKey, TriangleKey) = default;
    friend auto operator<=>(TriangleKey, TriangleKey) = default;
};

[[nodiscard]] TriangleKey make_triangle_key(graph::NodeId x, graph::NodeId y,
                                            graph::NodeId z);

/// Triangles incident to u in the Delaunay triangulation of N1(u) whose
/// three sides are all UDG edges — what node u computes locally in
/// Algorithm 2. Sorted canonical keys.
///
/// Only u's star is computed: a gift-wrap walk around u over its
/// distinct neighbors, O(d·k) predicates for degree d and star size k.
/// A neighbor exactly on u is dropped; of coincident neighbors the first
/// in adjacency order (the least id) stands for them all. Exactly
/// cocircular ties go through geom::incircle_ccw_sos keyed by global node
/// id, so every corner of a cocircular quadruple resolves it the same
/// way and the lists of different nodes stay consistent.
[[nodiscard]] std::vector<TriangleKey> local_triangles_at(const graph::GeometricGraph& udg,
                                                          graph::NodeId u);

/// Arena for repeated local_triangles_at calls: the kernel runs once per
/// node per build, so its candidate columns (the ids and points of u's
/// distinct neighbors) live here and are reused call to call — zero
/// steady-state heap traffic. One scratch per thread; results never
/// depend on history.
struct LocalDelaunayScratch {
    std::vector<graph::NodeId> ids;
    std::vector<geom::Point> pts;
};

/// Scratch-reusing form of local_triangles_at: replaces `out` with the
/// same sorted canonical keys the one-shot overload returns.
void local_triangles_at(const graph::GeometricGraph& udg, graph::NodeId u,
                        LocalDelaunayScratch& scratch, std::vector<TriangleKey>& out);

/// Strict geometric intersection of two distinct triangles: some edge
/// pair properly crosses or a vertex of one lies strictly inside the
/// other (sharing vertices or edges alone does not count). Exact. This
/// is Algorithm 3's one intersection kernel: two strictly CCW triangles
/// with an edge line of one leaving the other wholly on its closed outer
/// side are rejected on those orientations alone; every other pair gets
/// the exhaustive crossing and inside tests.
[[nodiscard]] bool triangles_intersect(const graph::GeometricGraph& g, TriangleKey s,
                                       TriangleKey t);

/// True iff the circumcircle of s strictly contains some vertex of t —
/// Algorithm 3's removal trigger. Exact.
[[nodiscard]] bool circumcircle_contains_vertex_of(const graph::GeometricGraph& g,
                                                   TriangleKey s, TriangleKey t);

/// Algorithm 3's rule for one pair: true iff triangle t is removed
/// because of r — they intersect and t's circumcircle strictly contains
/// a vertex of r, or neither circumcircle strictly contains a vertex of
/// the other (exactly cocircular corners) and t has the larger key.
/// The rule Alg3Filter applies to every intersecting pair, behind the
/// same bounding-box check and intersection kernel. Exact.
[[nodiscard]] bool alg3_removed_by(const graph::GeometricGraph& g, TriangleKey t,
                                   TriangleKey r);

/// LDel⁽¹⁾'s membership rule over per-node local_triangles_at lists:
/// t is a 1-localized Delaunay triangle iff all three of its corners
/// list it (a Delaunay triangle of N1(x) has its circumcircle empty of
/// N1(x)). `local[v]` is v's sorted list, read as a row (a span, e.g.
/// from graph::CowRows).
template <class Rows>
[[nodiscard]] bool ldel1_member(const Rows& local, TriangleKey t) {
    return std::ranges::binary_search(local[t.a], t) &&
           std::ranges::binary_search(local[t.b], t) &&
           std::ranges::binary_search(local[t.c], t);
}

/// All 1-localized Delaunay triangles of the UDG, sorted. Computed from
/// the per-node local Delaunay stars (O(d·k) per node, so O(d) on the
/// bounded-degree backbone; equivalent to the circumcircle definition).
[[nodiscard]] std::vector<TriangleKey> ldel1_triangles(const graph::GeometricGraph& udg);

/// Definitional O(d^4)-per-node computation of the same triangle set:
/// enumerates UDG triangles and tests circumcircle emptiness against the
/// three 1-hop neighborhoods directly. For validation on small inputs.
[[nodiscard]] std::vector<TriangleKey> ldel1_triangles_reference(
    const graph::GeometricGraph& udg);

/// Subset of `triangles` surviving Algorithm 3: a triangle is removed iff
/// it intersects another triangle of the set and its circumcircle
/// strictly contains one of the other's vertices. Sorted.
[[nodiscard]] std::vector<TriangleKey> planarize_triangles(
    const graph::GeometricGraph& udg, const std::vector<TriangleKey>& triangles);

/// Algorithm 3 over a triangle set, with the pairs pruned by a uniform
/// bucket grid. The constructor precomputes CCW corner points, bounding
/// boxes, and a CSR grid of the boxes' min corners (triangle sides are
/// UDG edges, so box extents are bounded by the radius and only a 3x3
/// cell block can hold intersecting partners — the all-pairs scan
/// collapses to near-linear). Scans read only this immutable state, so
/// scans over disjoint cell ranges may run concurrently; each range
/// tests the pairs whose smaller-index triangle it owns, so a partition
/// of the cells tests every intersecting pair exactly once, and any
/// partition yields the same survivors (`planarize_triangles` is the
/// one-range scan). Index order must be key order (a sorted set) for
/// the larger-key tie-break on cocircular crossings. Each pair whose
/// boxes overlap goes through triangles_intersect's kernel, with the
/// corners' strict-CCW flag computed once per triangle here.
class Alg3Filter {
  public:
    /// Triangle corners in CCW order; `strict` iff they are not
    /// collinear, which arms the intersection test's early exit.
    struct CcwTri {
        geom::Point a, b, c;
        bool strict = false;
    };

    Alg3Filter(const graph::GeometricGraph& g, std::vector<TriangleKey> triangles);

    [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

    /// Occupied grid cells; scan ranges index them in [0, cell_count()).
    [[nodiscard]] std::size_t cell_count() const noexcept { return cell_keys_.size(); }

    /// Pair-once removal scan over the triangles bucketed in cells
    /// [first_cell, last_cell), walked in cell order: each triangle i is
    /// tested against its grid neighbors j > i, and every index the pair
    /// rule removes (i or j, so possibly outside the range, possibly
    /// repeated) is appended to `removed`.
    void removal_scan(std::size_t first_cell, std::size_t last_cell,
                      std::vector<std::uint32_t>& removed) const;

    /// The triangles no list names, in index order: the Algorithm 3
    /// survivors once the lists' scans cover every cell.
    [[nodiscard]] std::vector<TriangleKey> survivors(
        std::span<const std::vector<std::uint32_t>> removed) const;

  private:
    struct Box {
        double min_x, max_x, min_y, max_y;
    };

    /// Calls fn(j) for every j whose bucket could hold a box
    /// intersecting box i (includes i itself; callers filter).
    template <typename Fn>
    void for_each_box_neighbor(std::size_t i, Fn&& fn) const;

    std::vector<TriangleKey> keys_;
    std::vector<CcwTri> tris_;
    std::vector<Box> boxes_;
    double cell_side_ = 1.0;
    // Occupied cells in CSR form: `cell_keys_` holds the sorted distinct
    // cell coordinates, bucket k is cell_items_[cell_offsets_[k],
    // cell_offsets_[k+1]). Lookups binary-search the key column — the
    // three columns stay contiguous, unlike per-cell node vectors.
    std::vector<std::pair<long long, long long>> cell_keys_;
    std::vector<std::uint32_t> cell_offsets_;
    std::vector<std::uint32_t> cell_items_;
};

/// LDel⁽¹⁾(V): Gabriel edges plus edges of all 1-localized Delaunay
/// triangles. Thickness 2; not necessarily planar.
[[nodiscard]] graph::GeometricGraph build_ldel1(const graph::GeometricGraph& udg);

/// PLDel(V): Gabriel edges plus edges of the Algorithm-3 surviving
/// triangles. Planar.
[[nodiscard]] graph::GeometricGraph build_pldel(const graph::GeometricGraph& udg);

}  // namespace geospanner::proximity
