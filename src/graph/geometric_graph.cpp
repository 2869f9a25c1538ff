#include "graph/geometric_graph.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>

namespace geospanner::graph {

namespace {

/// Position of `value` in the sorted list, or of where it would go.
std::size_t slot(std::span<const NodeId> list, NodeId value) {
    return static_cast<std::size_t>(std::lower_bound(list.begin(), list.end(), value) -
                                    list.begin());
}

}  // namespace

GeometricGraph::GeometricGraph(std::vector<geom::Point> points,
                               std::span<const std::size_t> offsets,
                               std::span<const NodeId> neighbors)
    : points_(std::make_shared<std::vector<geom::Point>>(std::move(points))),
      adjacency_(offsets, neighbors),
      edge_count_(neighbors.size() / 2) {
    assert(offsets.size() == node_count() + 1 && offsets.back() == neighbors.size());
#ifndef NDEBUG
    for (NodeId v = 0; v < node_count(); ++v) {
        const auto list = adjacency_[v];
        assert(std::adjacent_find(list.begin(), list.end(),
                                  std::greater_equal<NodeId>()) == list.end());
        assert(!std::binary_search(list.begin(), list.end(), v));
    }
#endif
}

const std::vector<geom::Point> GeometricGraph::kNoPoints;

std::vector<geom::Point>& GeometricGraph::own_points() {
    if (!points_) {
        points_ = std::make_shared<std::vector<geom::Point>>();
    } else if (points_.use_count() != 1) {
        points_ = std::make_shared<std::vector<geom::Point>>(*points_);
    } else {
        // use_count() is a relaxed load; the acquire fence orders the
        // last other holder's reads (released by its decrement) before
        // our in-place writes.
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    return *points_;
}

void GeometricGraph::share_points(const GeometricGraph& other) {
    assert(other.node_count() == node_count());
    points_ = other.points_;
}

NodeId GeometricGraph::add_node(geom::Point p) {
    own_points().push_back(p);
    adjacency_.push_back();
    return static_cast<NodeId>(node_count() - 1);
}

// add_edge/remove_edge look before they write, so a no-op never clones
// a shared page.
bool GeometricGraph::add_edge(NodeId u, NodeId v) {
    assert(u != v && u < node_count() && v < node_count());
    const std::size_t at_u = slot(adjacency_[u], v);
    if (at_u < adjacency_[u].size() && adjacency_[u][at_u] == v) return false;
    const std::size_t at_v = slot(adjacency_[v], u);
    adjacency_.insert(u, at_u, v);
    adjacency_.insert(v, at_v, u);
    ++edge_count_;
    return true;
}

bool GeometricGraph::remove_edge(NodeId u, NodeId v) {
    assert(u < node_count() && v < node_count());
    const std::size_t at_u = slot(adjacency_[u], v);
    if (at_u == adjacency_[u].size() || adjacency_[u][at_u] != v) return false;
    const std::size_t at_v = slot(adjacency_[v], u);
    adjacency_.erase(u, at_u);
    adjacency_.erase(v, at_v);
    --edge_count_;
    return true;
}

bool GeometricGraph::has_edge(NodeId u, NodeId v) const {
    if (u >= node_count() || v >= node_count()) return false;
    const auto list = adjacency_[u];
    return std::binary_search(list.begin(), list.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> GeometricGraph::edges() const {
    std::vector<std::pair<NodeId, NodeId>> result;
    result.reserve(edge_count_);
    for (NodeId u = 0; u < node_count(); ++u) {
        for (const NodeId v : adjacency_[u]) {
            if (u < v) result.emplace_back(u, v);
        }
    }
    return result;
}

GeometricGraph GeometricGraph::from_edges(
    std::vector<geom::Point> points,
    const std::vector<std::pair<NodeId, NodeId>>& sorted_edges) {
    assert(std::is_sorted(sorted_edges.begin(), sorted_edges.end()) &&
           std::adjacent_find(sorted_edges.begin(), sorted_edges.end()) ==
               sorted_edges.end());
    const std::size_t n = points.size();
    std::vector<std::size_t> offsets(n + 1, 0);
    for (const auto& [u, v] : sorted_edges) {
        assert(u < v && v < n);
        ++offsets[u + 1];
        ++offsets[v + 1];
    }
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    std::vector<NodeId> neighbors(offsets[n]);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    // Lower neighbors first (u ascends across the sorted list for any
    // fixed v), then higher neighbors (v ascends within each u) — and
    // every lower neighbor is < the node < every higher neighbor, so
    // each adjacency list comes out sorted without a merge.
    for (const auto& [u, v] : sorted_edges) neighbors[cursor[v]++] = u;
    for (const auto& [u, v] : sorted_edges) neighbors[cursor[u]++] = v;
    return GeometricGraph(std::move(points), offsets, neighbors);
}

bool operator==(const GeometricGraph& a, const GeometricGraph& b) {
    return (a.points_ == b.points_ || a.points() == b.points()) &&
           a.adjacency_ == b.adjacency_;
}

}  // namespace geospanner::graph
