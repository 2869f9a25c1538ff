// Unit disk graph construction (grid-accelerated) vs brute force, the
// shared cell grid, and its overflow-safe hash.
#include "proximity/udg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "proximity/cell_grid.h"
#include "test_util.h"

namespace geospanner::proximity {
namespace {

using graph::GeometricGraph;
using graph::NodeId;

class UdgRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UdgRandom, MatchesBruteForce) {
    const auto pts = test::random_points(120, 300.0, GetParam());
    const double radius = 40.0 + static_cast<double>(GetParam() % 5) * 13.0;
    const GeometricGraph fast = build_udg(pts, radius);
    GeometricGraph slow(pts);
    for (NodeId u = 0; u < pts.size(); ++u) {
        for (NodeId v = u + 1; v < pts.size(); ++v) {
            if (geom::squared_distance(pts[u], pts[v]) <= radius * radius) {
                slow.add_edge(u, v);
            }
        }
    }
    EXPECT_EQ(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdgRandom, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Udg, BoundaryDistanceIsInclusive) {
    const GeometricGraph g = build_udg({{0, 0}, {1, 0}, {2.0001, 0}}, 1.0);
    EXPECT_TRUE(g.has_edge(0, 1));   // Exactly at the radius.
    EXPECT_FALSE(g.has_edge(1, 2));  // Just beyond.
}

TEST(Udg, EmptyAndZeroRadius) {
    EXPECT_EQ(build_udg({}, 1.0).node_count(), 0u);
    const GeometricGraph g = build_udg({{0, 0}, {0, 0}}, 0.0);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Udg, FarOutCoordinatesMatchBruteForce) {
    // Cells beyond ~9e12 made the old signed-multiply cell hash overflow
    // (UB); the splitmix-finalized unsigned hash must keep the grid and
    // brute force in agreement out there. Doubles near 1e13 still
    // resolve ~2e-3, far below the unit radius used here.
    for (const double ox : {-1.0e13, 9.7e12}) {
        for (const double oy : {8.3e12, -4.1e12}) {
            std::vector<geom::Point> pts;
            rnd::Xoshiro256 rng(static_cast<std::uint64_t>(ox * 1e-10) ^
                                static_cast<std::uint64_t>(-oy));
            for (int i = 0; i < 40; ++i) {
                pts.push_back({ox + rng.uniform(0.0, 6.0), oy + rng.uniform(0.0, 6.0)});
            }
            const GeometricGraph fast = build_udg(pts, 1.0);
            GeometricGraph slow(pts);
            for (NodeId u = 0; u < pts.size(); ++u) {
                for (NodeId v = u + 1; v < pts.size(); ++v) {
                    if (geom::squared_distance(pts[u], pts[v]) <= 1.0) slow.add_edge(u, v);
                }
            }
            EXPECT_EQ(fast, slow) << "offset (" << ox << ", " << oy << ")";
        }
    }
}

TEST(CellGrid, BucketsEveryNodeOnceInAscendingOrder) {
    const auto pts = test::random_points(200, 100.0, 13);
    const proximity::CompactCellGrid grid(pts, 7.0);
    ASSERT_EQ(grid.node_count(), pts.size());
    ASSERT_EQ(grid.cell_offsets().size(), grid.cell_count() + 1);
    EXPECT_EQ(grid.cell_offsets().front(), 0u);
    EXPECT_EQ(grid.cell_offsets().back(), pts.size());
    std::vector<char> seen(pts.size(), 0);
    for (std::size_t k = 0; k < grid.cell_count(); ++k) {
        const auto cell = grid.cell_coords()[k];
        EXPECT_EQ(grid.find_cell(cell), k);
        const auto begin = grid.cell_offsets()[k];
        const auto end = grid.cell_offsets()[k + 1];
        EXPECT_LT(begin, end);  // only populated cells are stored
        for (auto s = begin; s < end; ++s) {
            const NodeId v = grid.slot_ids()[s];
            EXPECT_FALSE(seen[v]);
            seen[v] = 1;
            // Slots carry the gathered coordinates of their node and
            // ascend by id within the cell.
            EXPECT_EQ(grid.slot_xs()[s], pts[v].x);
            EXPECT_EQ(grid.slot_ys()[s], pts[v].y);
            EXPECT_EQ(proximity::cell_of(pts[v], 7.0), cell);
            if (s > begin) {
                EXPECT_LT(grid.slot_ids()[s - 1], v);
            }
        }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(pts.size()));
    EXPECT_EQ(grid.find_cell({1'000'000'000LL, -1'000'000'000LL}),
              proximity::CompactCellGrid::kNoCell);
}

TEST(CellGrid, NeighborScanMatchesBruteForce) {
    // The batched 3x3 scan vs the definition, over the same offsets the
    // UDG equivalence test uses (far-out coordinates stress the cell
    // hashing and the gathered-coordinate filter equally).
    const double radius = 1.0;
    for (const double ox : {0.0, 8.8e12}) {
        const auto local = test::random_points(120, 9.0,
                                               static_cast<std::uint64_t>(31.0 + ox));
        std::vector<geom::Point> pts;
        for (const geom::Point p : local) pts.push_back({ox + p.x, p.y});
        const proximity::CompactCellGrid grid(pts, radius);
        for (NodeId v = 0; v < pts.size(); ++v) {
            std::vector<NodeId> got;
            grid.for_neighbors_above(pts[v], v, radius * radius,
                                     [&](NodeId u) { got.push_back(u); });
            std::sort(got.begin(), got.end());
            std::vector<NodeId> want;
            for (NodeId u = v + 1; u < pts.size(); ++u) {
                if (geom::squared_distance(pts[u], pts[v]) <= radius * radius) {
                    want.push_back(u);
                }
            }
            EXPECT_EQ(got, want) << "node " << v << " offset " << ox;
        }
    }
}

TEST(CellGrid, CellsInRectMatchesBruteForce) {
    // The tile-addressable range query vs the definition: every node
    // whose CELL intersects the rectangle (not just nodes inside it),
    // ascending and duplicate-free. Swept over query rects of every
    // size class, including empty, degenerate (line/point), and
    // grid-spanning ones, at near-origin and far-out offsets mirroring
    // FarOutCoordinatesMatchBruteForce.
    const double side = 5.0;
    for (const double ox : {0.0, 9.7e12}) {
        for (const double oy : {0.0, -4.1e12}) {
            const auto local = test::random_points(
                150, 90.0, static_cast<std::uint64_t>(ox + 17.0 - oy));
            std::vector<geom::Point> pts;
            for (const geom::Point p : local) pts.push_back({ox + p.x, oy + p.y});
            const proximity::CompactCellGrid grid(pts, side);

            const double rects[][4] = {
                {10.0, 10.0, 40.0, 30.0},    // interior box
                {-20.0, -20.0, 150.0, 150.0},  // covers everything
                {25.0, 5.0, 25.0, 80.0},     // zero-width line
                {33.0, 44.0, 33.0, 44.0},    // single point
                {60.0, 60.0, 50.0, 70.0},    // inverted → empty
                {-5000.0, 3.0, 5000.0, 7.0},  // spans far more cells than exist
            };
            for (const auto& r : rects) {
                const double min_x = ox + r[0], min_y = oy + r[1];
                const double max_x = ox + r[2], max_y = oy + r[3];
                std::vector<NodeId> expected;
                if (min_x <= max_x && min_y <= max_y) {
                    const auto lo = proximity::cell_of({min_x, min_y}, side);
                    const auto hi = proximity::cell_of({max_x, max_y}, side);
                    for (NodeId v = 0; v < pts.size(); ++v) {
                        const auto c = proximity::cell_of(pts[v], side);
                        if (c.first >= lo.first && c.first <= hi.first &&
                            c.second >= lo.second && c.second <= hi.second) {
                            expected.push_back(v);
                        }
                    }
                }
                EXPECT_EQ(grid.nodes_in_rect(min_x, min_y, max_x, max_y), expected)
                    << "rect (" << r[0] << "," << r[1] << ")-(" << r[2] << "," << r[3]
                    << ") offset (" << ox << "," << oy << ")";
            }
        }
    }
}

TEST(CellGrid, HashSpreadsAdjacentAndFarCells) {
    // Sanity: the finalizer separates neighboring cells and does not
    // collapse far-out coordinates onto one bucket.
    const proximity::CellHash hash;
    std::set<std::size_t> values;
    for (long long x = -2; x <= 2; ++x) {
        for (long long y = -2; y <= 2; ++y) {
            values.insert(hash({x, y}));
            values.insert(hash({x + 9'000'000'000'000LL, y - 9'000'000'000'000LL}));
        }
    }
    EXPECT_EQ(values.size(), 50u);
}

}  // namespace
}  // namespace geospanner::proximity
