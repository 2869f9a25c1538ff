// Mutable spatial hash grid for dynamic topologies.
//
// Same cell geometry as proximity::CompactCellGrid (square cells of side
// `cell_side`, ascending node ids per cell), but stored as a sorted
// list of occupied cells with one node list each — updates need
// per-cell insertion and removal, which the static CSR layout cannot
// offer — plus O(1) amortized point relocation: moving a node re-buckets
// it only when it crosses a cell boundary. After any update sequence the
// grid equals bucketing the current positions from scratch — the delta
// enumeration of the incremental engine and the from-scratch UDG
// builder therefore see identical candidate sets (tests/test_dynamic.cpp
// pins the equality).
#pragma once

#include <algorithm>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "geom/vec2.h"
#include "graph/geometric_graph.h"
#include "proximity/cell_grid.h"

namespace geospanner::dynamic {

/// Occupied cells in ascending coordinate order, each with its
/// ascending node ids; the mutable counterpart of the CSR grid.
using CellBuckets =
    std::vector<std::pair<proximity::CellCoord, std::vector<graph::NodeId>>>;

class DynamicCellGrid {
  public:
    DynamicCellGrid() = default;

    DynamicCellGrid(const std::vector<geom::Point>& points, double cell_side)
        : cell_side_(cell_side) {
        std::vector<std::pair<proximity::CellCoord, graph::NodeId>> entries;
        entries.reserve(points.size());
        for (graph::NodeId v = 0; v < points.size(); ++v) {
            entries.emplace_back(proximity::cell_of(points[v], cell_side), v);
        }
        // In (cell, id) order every insert appends.
        std::sort(entries.begin(), entries.end());
        for (const auto& [cell, v] : entries) insert(v, points[v]);
    }

    [[nodiscard]] double cell_side() const noexcept { return cell_side_; }
    [[nodiscard]] const CellBuckets& cells() const noexcept { return grid_; }

    /// The ascending node ids in `cell`; empty when it is unoccupied.
    [[nodiscard]] std::span<const graph::NodeId> at(proximity::CellCoord cell) const {
        const auto it = lower(grid_, cell);
        if (it == grid_.end() || it->first != cell) return {};
        return it->second;
    }

    void insert(graph::NodeId v, geom::Point p) {
        const auto cell = proximity::cell_of(p, cell_side_);
        auto it = lower(grid_, cell);
        if (it == grid_.end() || it->first != cell) {
            it = grid_.emplace(it, cell, std::vector<graph::NodeId>{});
        }
        auto& list = it->second;
        list.insert(std::lower_bound(list.begin(), list.end(), v), v);
    }

    void remove(graph::NodeId v, geom::Point p) {
        const auto cell = proximity::cell_of(p, cell_side_);
        const auto it = lower(grid_, cell);
        if (it == grid_.end() || it->first != cell) return;
        auto& list = it->second;
        const auto pos = std::lower_bound(list.begin(), list.end(), v);
        if (pos != list.end() && *pos == v) list.erase(pos);
        if (list.empty()) grid_.erase(it);
    }

    /// Moves v from `from` to `to`; no re-bucketing when both positions
    /// share a cell (the common case for small displacements).
    void relocate(graph::NodeId v, geom::Point from, geom::Point to) {
        if (proximity::cell_of(from, cell_side_) == proximity::cell_of(to, cell_side_)) {
            return;
        }
        remove(v, from);
        insert(v, to);
    }

    /// Appends every u != v with |pu - pv| <= radius to `out`, then
    /// sorts it — the full (not id-above) neighborhood of v, used to
    /// diff a node's incident UDG edge set after it moved. Requires
    /// radius <= cell_side.
    void collect_neighbors(const std::vector<geom::Point>& points, double radius,
                           graph::NodeId v, std::vector<graph::NodeId>& out) const {
        const double r2 = radius * radius;
        const auto [cx, cy] = proximity::cell_of(points[v], cell_side_);
        for (long long dx = -1; dx <= 1; ++dx) {
            for (long long dy = -1; dy <= 1; ++dy) {
                for (const graph::NodeId u : at({cx + dx, cy + dy})) {
                    if (u == v) continue;
                    if (geom::squared_distance(points[u], points[v]) <= r2) {
                        out.push_back(u);
                    }
                }
            }
        }
        std::sort(out.begin(), out.end());
    }

  private:
    /// The first entry of `grid` (const or not) not below `cell`.
    template <class Buckets>
    static std::ranges::iterator_t<Buckets> lower(Buckets& grid,
                                                  proximity::CellCoord cell) {
        return std::ranges::lower_bound(grid, cell, {}, &CellBuckets::value_type::first);
    }

    CellBuckets grid_;
    double cell_side_ = 1.0;
};

}  // namespace geospanner::dynamic
