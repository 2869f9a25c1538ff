// Delaunay triangulation of a planar point set.
//
// The library uses it for the global "Del ∩ UDG" baseline of the
// paper's Table I (proximity::build_udel). The localized stages do not
// triangulate neighborhoods: every LDel⁽ᵏ⁾ path (the engine, the
// protocols, DynamicSpanner, ldel_k_triangles) walks only u's star with
// proximity::local_triangles_at, and this triangulation is the
// reference that walk is tested against.
//
// Implementation: incremental Bowyer–Watson insertion. Instead of an
// enclosing super-triangle with large coordinates (which perturbs
// circumcircle tests near the hull), the exterior is covered by *ghost
// triangles* sharing a symbolic vertex at infinity; their "circumdisk"
// test degenerates to an exact half-plane test. All decisions go through
// the exact predicates in geom/predicates.h, so the triangulation is
// correct for any input, including cocircular quadruples and points on
// hull edges. Fully collinear inputs yield the degenerate Delaunay graph
// (the path of consecutive points along the line) and no triangles.
//
// Repeated small triangulations (the hot-path bench's side-by-side rows
// and the end-to-end benchmark's triangulation probe) are bound by
// allocator traffic, not geometry. All mutable state of a triangulation
// run (triangle pool, edge→triangle map, cavity queues, dedup and
// Morton scratch) therefore lives in a reusable Workspace: the first
// run sizes the buffers, subsequent runs reuse them without touching
// the heap. `triangulate` is the workspace-based entry point;
// DelaunayTriangulation wraps it with a private workspace for one-shot
// callers.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geom/vec2.h"

namespace geospanner::delaunay {

using VertexId = std::uint32_t;

/// A Delaunay triangle; vertices in counter-clockwise order, rotated so
/// that a is the smallest index (canonical form, comparable across runs).
struct Triangle {
    VertexId a = 0;
    VertexId b = 0;
    VertexId c = 0;

    friend bool operator==(Triangle, Triangle) = default;
    friend auto operator<=>(Triangle, Triangle) = default;
};

/// Arena of buffers for repeated triangulations. One workspace serves
/// any number of sequential `triangulate` calls; distinct threads need
/// distinct workspaces (the engine's parallel LDel stage keeps one per
/// lane). Results never depend on the workspace's history.
class Workspace {
  public:
    Workspace();
    ~Workspace();
    Workspace(Workspace&&) noexcept;
    Workspace& operator=(Workspace&&) noexcept;
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;

    friend bool triangulate(const std::vector<geom::Point>& pts, Workspace& ws,
                            std::vector<Triangle>& out);
    friend class DelaunayTriangulation;  // reads the dedup result on the
                                         // degenerate (collinear) path
};

/// Triangulates `pts` using `ws`'s buffers and appends every Delaunay
/// triangle — canonical rotation (least vertex first, CCW), in no
/// particular order — to `out`. Exact duplicate points keep only their
/// first occurrence. Returns false when the input is degenerate (fewer
/// than three distinct points, or all collinear): no triangles then.
bool triangulate(const std::vector<geom::Point>& pts, Workspace& ws,
                 std::vector<Triangle>& out);

class DelaunayTriangulation {
  public:
    /// Triangulates the given points. Duplicate points keep only their
    /// first occurrence (later duplicates become isolated vertices).
    explicit DelaunayTriangulation(std::vector<geom::Point> points);

    [[nodiscard]] const std::vector<geom::Point>& points() const noexcept { return points_; }

    /// All Delaunay triangles in canonical form, sorted.
    [[nodiscard]] const std::vector<Triangle>& triangles() const noexcept { return triangles_; }

    /// All Delaunay edges (u < v, sorted). For degenerate (collinear)
    /// inputs this is the path along the line.
    [[nodiscard]] const std::vector<std::pair<VertexId, VertexId>>& edges() const noexcept {
        return edges_;
    }

    /// True iff the input had no three non-collinear points.
    [[nodiscard]] bool degenerate() const noexcept { return degenerate_; }

  private:
    std::vector<geom::Point> points_;
    std::vector<Triangle> triangles_;
    std::vector<std::pair<VertexId, VertexId>> edges_;
    bool degenerate_ = false;
};

}  // namespace geospanner::delaunay
