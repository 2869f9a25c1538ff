// GeometricGraph container semantics and UnionFind.
#include "graph/geometric_graph.h"

#include <gtest/gtest.h>

#include "graph/cow_rows.h"
#include "graph/union_find.h"
#include "protocol/clustering.h"

namespace geospanner::graph {
namespace {

GeometricGraph square_graph() {
    GeometricGraph g({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    return g;
}

TEST(GeometricGraph, BasicAccounting) {
    const GeometricGraph g = square_graph();
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_DOUBLE_EQ(g.edge_length(0, 1), 1.0);
}

TEST(GeometricGraph, AddIsIdempotent) {
    GeometricGraph g = square_graph();
    EXPECT_FALSE(g.add_edge(0, 1));
    EXPECT_FALSE(g.add_edge(1, 0));
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_TRUE(g.add_edge(0, 2));
    EXPECT_EQ(g.edge_count(), 5u);
}

TEST(GeometricGraph, RemoveEdge) {
    GeometricGraph g = square_graph();
    EXPECT_TRUE(g.remove_edge(1, 0));
    EXPECT_FALSE(g.remove_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 3u);
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(GeometricGraph, NeighborsSorted) {
    GeometricGraph g({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
    g.add_edge(2, 3);
    g.add_edge(2, 0);
    g.add_edge(2, 1);
    const auto nbrs = g.neighbors(2);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_EQ(nbrs[0], 0u);
    EXPECT_EQ(nbrs[1], 1u);
    EXPECT_EQ(nbrs[2], 3u);
}

TEST(GeometricGraph, EdgesCanonicalOrder) {
    const GeometricGraph g = square_graph();
    const auto e = g.edges();
    ASSERT_EQ(e.size(), 4u);
    EXPECT_EQ(e[0], (std::pair<NodeId, NodeId>{0, 1}));
    EXPECT_EQ(e[1], (std::pair<NodeId, NodeId>{0, 3}));
    EXPECT_EQ(e[2], (std::pair<NodeId, NodeId>{1, 2}));
    EXPECT_EQ(e[3], (std::pair<NodeId, NodeId>{2, 3}));
}

TEST(GeometricGraph, Equality) {
    const GeometricGraph a = square_graph();
    GeometricGraph b = square_graph();
    EXPECT_EQ(a, b);
    b.remove_edge(0, 1);
    EXPECT_FALSE(a == b);
    b.add_edge(0, 1);
    EXPECT_EQ(a, b);
}

std::vector<NodeId> as_vector(std::span<const NodeId> row) {
    return {row.begin(), row.end()};
}

/// 40 rows (three 16-row pages, the last partial) with distinct contents.
std::vector<std::vector<NodeId>> sample_rows() {
    std::vector<std::vector<NodeId>> rows(40);
    for (NodeId i = 0; i < rows.size(); ++i) {
        for (NodeId k = 0; k < i % 5; ++k) rows[i].push_back(100 * i + k);
    }
    return rows;
}

TEST(CowRows, CopySharesPagesAndWritesCloneOnlyTheirPage) {
    const auto rows = sample_rows();
    CowRows<NodeId> original(rows);
    ASSERT_EQ(original.size(), 40u);
    EXPECT_EQ(original.shared_pages(), 0u);

    const CowRows<NodeId> copy = original;
    EXPECT_EQ(copy.shared_pages(), 3u);
    EXPECT_EQ(original.shared_pages(), 3u);

    original.insert(6, 0, 7);      // page 0
    original.erase(33, 1);         // page 2
    original.assign(34, rows[4]);  // page 2 again: no second clone
    EXPECT_EQ(original.shared_pages(), 1u);
    EXPECT_EQ(as_vector(original[6]), (std::vector<NodeId>{7, 600}));
    EXPECT_EQ(as_vector(original[33]), (std::vector<NodeId>{3300, 3302}));
    EXPECT_EQ(as_vector(original[34]), rows[4]);
    EXPECT_FALSE(original == copy);

    // The copy still holds exactly the rows it was taken from.
    for (NodeId i = 0; i < rows.size(); ++i) EXPECT_EQ(as_vector(copy[i]), rows[i]) << i;
    EXPECT_EQ(copy, CowRows<NodeId>(rows));
}

TEST(CowRows, PushBackAcrossPageBoundaryLeavesCopiesAlone) {
    CowRows<NodeId> a(15);
    const CowRows<NodeId> before = a;
    a.push_back(std::vector<NodeId>{1, 2});  // row 15, last of page 0
    a.push_back();                           // row 16 opens page 1
    a.push_back(std::vector<NodeId>{3});
    ASSERT_EQ(a.size(), 18u);
    EXPECT_EQ(as_vector(a[15]), (std::vector<NodeId>{1, 2}));
    EXPECT_TRUE(a[16].empty());
    EXPECT_EQ(as_vector(a[17]), (std::vector<NodeId>{3}));
    EXPECT_EQ(before.size(), 15u);
    EXPECT_EQ(before, CowRows<NodeId>(15));
}

TEST(GeometricGraph, CopyIsIsolatedFromLaterEdits) {
    GeometricGraph original = square_graph();
    const GeometricGraph copy = original;
    original.remove_edge(0, 1);
    original.add_edge(0, 2);
    EXPECT_EQ(copy, square_graph());
    EXPECT_TRUE(copy.has_edge(0, 1));
    EXPECT_FALSE(copy.has_edge(0, 2));
    EXPECT_EQ(copy.edge_count(), 4u);
    EXPECT_EQ(original.edge_count(), 4u);
}

TEST(GeometricGraph, AddNodeAcrossPageBoundary) {
    std::vector<geom::Point> points;
    for (int i = 0; i < 15; ++i) points.push_back({static_cast<double>(i), 0.0});
    GeometricGraph g(points);
    g.add_edge(0, 14);
    const GeometricGraph before = g;

    EXPECT_EQ(g.add_node({15.0, 0.0}), 15u);
    EXPECT_EQ(g.add_node({16.0, 0.0}), 16u);  // first node of the second page
    EXPECT_EQ(g.add_node({17.0, 0.0}), 17u);
    g.add_edge(14, 16);
    g.add_edge(17, 15);
    g.add_edge(16, 17);
    EXPECT_EQ(g.node_count(), 18u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(as_vector(g.neighbors(14)), (std::vector<NodeId>{0, 16}));
    EXPECT_EQ(as_vector(g.neighbors(17)), (std::vector<NodeId>{15, 16}));
    EXPECT_EQ(before.node_count(), 15u);
    EXPECT_EQ(as_vector(before.neighbors(14)), (std::vector<NodeId>{0}));
}

TEST(GeometricGraph, EqualityIgnoresPageSharing) {
    std::vector<geom::Point> points;
    for (int i = 0; i < 40; ++i) points.push_back({static_cast<double>(i), 1.0});
    const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 20}, {5, 39}, {20, 39}};
    const GeometricGraph built = GeometricGraph::from_edges(points, edges);

    GeometricGraph shared = built;  // every page shared
    GeometricGraph cloned = built;
    cloned.remove_edge(1, 20);  // pages 0 and 1 cloned, content restored
    cloned.add_edge(20, 1);
    GeometricGraph inserted(points);  // fresh pages, built edge by edge
    for (const auto& [u, v] : edges) inserted.add_edge(u, v);

    EXPECT_EQ(shared, built);
    EXPECT_EQ(cloned, built);
    EXPECT_EQ(inserted, built);
    EXPECT_EQ(cloned.edges(), edges);
}

TEST(ClusterState, CopyIsIsolated) {
    std::vector<geom::Point> points;
    for (int i = 0; i < 20; ++i) points.push_back({0.6 * i, 0.0});
    GeometricGraph path(points);
    for (NodeId v = 1; v < 20; ++v) path.add_edge(v - 1, v);
    protocol::ClusterState original = protocol::cluster_reference(path);
    const protocol::ClusterState copy = original;

    ASSERT_EQ(original.role[1], protocol::Role::kDominatee);
    original.role[1] = protocol::Role::kDominator;
    original.dominators_of.assign(1, std::vector<NodeId>{});
    original.two_hop_dominators_of.assign(17, std::vector<NodeId>{3, 4});

    const protocol::ClusterState fresh = protocol::cluster_reference(path);
    EXPECT_EQ(copy.role, fresh.role);
    EXPECT_EQ(copy.dominators_of, fresh.dominators_of);
    EXPECT_EQ(copy.two_hop_dominators_of, fresh.two_hop_dominators_of);
    EXPECT_EQ(as_vector(copy.dominators(1)), (std::vector<NodeId>{0, 2}));
    EXPECT_FALSE(original.dominators_of == copy.dominators_of);
}

TEST(UnionFind, MergesAndCounts) {
    UnionFind uf(6);
    EXPECT_EQ(uf.component_count(), 6u);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_TRUE(uf.unite(2, 3));
    EXPECT_FALSE(uf.unite(1, 0));
    EXPECT_EQ(uf.component_count(), 4u);
    EXPECT_TRUE(uf.same(0, 1));
    EXPECT_FALSE(uf.same(0, 2));
    EXPECT_TRUE(uf.unite(1, 3));
    EXPECT_TRUE(uf.same(0, 2));
    EXPECT_EQ(uf.component_size(3), 4u);
    EXPECT_EQ(uf.component_size(5), 1u);
}

TEST(UnionFind, FullMerge) {
    UnionFind uf(100);
    for (std::size_t i = 1; i < 100; ++i) uf.unite(i - 1, i);
    EXPECT_EQ(uf.component_count(), 1u);
    EXPECT_TRUE(uf.same(0, 99));
    EXPECT_EQ(uf.component_size(42), 100u);
}

}  // namespace
}  // namespace geospanner::graph
