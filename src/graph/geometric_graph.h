// Geometric graph: a fixed set of plane points plus an undirected edge set.
//
// Every topology this library builds — UDG, RNG, Gabriel, Yao, Delaunay
// variants, CDS backbones — is a GeometricGraph over the same node set, so
// they can be compared edge-for-edge and measured with the same metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.h"
#include "graph/cow_rows.h"

namespace geospanner::graph {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Undirected graph on a fixed point set. Invariants: adjacency lists are
/// sorted, duplicate-free, and symmetric (u in adj[v] iff v in adj[u]);
/// no self-loops.
///
/// Adjacency lives in copy-on-write pages (CowRows) and the point array
/// in one copy-on-write buffer: copying a graph shares both, add_edge /
/// remove_edge clone only the pages of the two endpoints, and the first
/// set_point / add_node on a shared point array clones it. Copies are
/// fully independent values.
class GeometricGraph {
  public:
    GeometricGraph() = default;
    explicit GeometricGraph(std::vector<geom::Point> points)
        : points_(std::make_shared<std::vector<geom::Point>>(std::move(points))),
          adjacency_(points_->size()) {}

    /// Bulk construction from complete adjacency lists in CSR form (node
    /// v's neighbors are `neighbors[offsets[v], offsets[v + 1])`) that
    /// already satisfy the class invariants: sorted, duplicate-free,
    /// symmetric, loop-free. The lists are copied into fresh pages with
    /// no per-edge insert.
    GeometricGraph(std::vector<geom::Point> points, std::span<const std::size_t> offsets,
                   std::span<const NodeId> neighbors);

    [[nodiscard]] std::size_t node_count() const noexcept { return points().size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

    [[nodiscard]] geom::Point point(NodeId v) const { return points()[v]; }
    [[nodiscard]] const std::vector<geom::Point>& points() const noexcept {
        return points_ ? *points_ : kNoPoints;
    }

    /// Sorted neighbor ids; valid until the next edge change.
    [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
        return adjacency_[v];
    }
    [[nodiscard]] std::size_t degree(NodeId v) const { return adjacency_[v].size(); }

    /// Moves node v to `p`. Edges are untouched: callers maintaining a
    /// proximity graph (UDG) must re-derive the incident edge set
    /// themselves (see dynamic::DynamicSpanner).
    void set_point(NodeId v, geom::Point p) { own_points()[v] = p; }

    /// Adopts `other`'s point array, sharing its storage; `other` must
    /// have the same node count. DynamicSpanner moves nodes in its UDG
    /// and lets the backbone graphs share the result, so they and every
    /// snapshot of them hold one point array instead of seven.
    void share_points(const GeometricGraph& other);

    /// Appends an isolated node at `p` and returns its id (the new
    /// largest id, so existing ids and edges are undisturbed).
    NodeId add_node(geom::Point p);

    /// Adds the undirected edge {u, v}; no-op if already present.
    /// Returns true if the edge was inserted. Precondition: u != v.
    bool add_edge(NodeId u, NodeId v);

    /// Removes the undirected edge {u, v}; returns true if it was present.
    bool remove_edge(NodeId u, NodeId v);

    [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

    [[nodiscard]] double edge_length(NodeId u, NodeId v) const {
        return geom::distance(point(u), point(v));
    }

    /// All edges as (u, v) pairs with u < v, in lexicographic order.
    [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

    /// Bulk construction from a lexicographically sorted, duplicate-free
    /// edge list with u < v per pair — the inverse of edges(). Equal to
    /// add_edge-ing every pair, but O(nodes + edges) instead of paying a
    /// sorted insert per edge; the merge step of the tile-sharded
    /// builder assembles million-edge graphs through this.
    [[nodiscard]] static GeometricGraph from_edges(
        std::vector<geom::Point> points,
        const std::vector<std::pair<NodeId, NodeId>>& sorted_edges);

    /// Structural equality: same points, same edge set.
    friend bool operator==(const GeometricGraph& a, const GeometricGraph& b);

  private:
    /// The point array, cloned first if another graph shares it (same
    /// uniqueness rule as CowRows, see geometric_graph.cpp).
    std::vector<geom::Point>& own_points();

    static const std::vector<geom::Point> kNoPoints;  ///< points() of an empty graph

    std::shared_ptr<std::vector<geom::Point>> points_;
    CowRows<NodeId> adjacency_;
    std::size_t edge_count_ = 0;
};

}  // namespace geospanner::graph
