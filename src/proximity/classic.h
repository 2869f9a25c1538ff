// Classic proximity subgraphs of the unit disk graph.
//
// These are the flat structures the paper compares against (Section II /
// Table I): the relative neighborhood graph and Gabriel graph (used by
// GPSR as planar substrates, but with length stretch Θ(n) and Θ(√n)),
// the Yao graph (length spanner, unbounded in-degree, not planar, not a
// hop spanner), Yao+Sink (bounded degree, length spanner), and
// UDel = Del(V) ∩ UDG (the best planar length spanner, but not locally
// computable).
//
// All builders take a unit disk graph: its adjacency defines which pairs
// are "within one unit", so the same code serves the full node set and
// the induced backbone graph ICDS.
#pragma once

#include "graph/geometric_graph.h"

namespace geospanner::proximity {

/// Relative neighborhood graph restricted to UDG edges: keep edge (u, v)
/// iff no third node w has max(|uw|, |wv|) < |uv| (open lune empty).
[[nodiscard]] graph::GeometricGraph build_rng(const graph::GeometricGraph& udg);

/// Gabriel graph restricted to UDG edges: keep edge (u, v) iff the open
/// disk with diameter uv contains no node. Exact predicate.
[[nodiscard]] graph::GeometricGraph build_gabriel(const graph::GeometricGraph& udg);

/// The Gabriel test of one edge (u, v) of `udg`: true iff no common
/// neighbor lies in the *closed* diametral disk of uv (the rule
/// build_gabriel applies to every edge).
[[nodiscard]] bool is_gabriel_edge(const graph::GeometricGraph& udg, graph::NodeId u,
                                   graph::NodeId v);

/// Yao graph with `cones` equal sectors per node: each node keeps its
/// shortest UDG edge in every sector (ties broken by smaller node id);
/// result is the undirected union. cones >= 6 gives a length spanner.
[[nodiscard]] graph::GeometricGraph build_yao(const graph::GeometricGraph& udg, int cones = 8);

/// Theta graph with `cones` equal sectors per node: like Yao, but each
/// node keeps, per sector, the neighbor with the shortest *projection
/// onto the sector's bisector* rather than the shortest Euclidean
/// distance (the θ-graph the paper equates with Yao in Section II; the
/// two differ on which representative a cone keeps). Undirected union.
[[nodiscard]] graph::GeometricGraph build_theta(const graph::GeometricGraph& udg,
                                                int cones = 8);

/// Yao + reverse-Yao ("sink") structure of Li, Wan, Wang: applies a
/// reverse Yao step on each node's incoming Yao edges, bounding total
/// degree by a constant while remaining a length spanner.
[[nodiscard]] graph::GeometricGraph build_yao_sink(const graph::GeometricGraph& udg,
                                                   int cones = 8);

/// UDel: edges of the global Delaunay triangulation no longer than one
/// unit (i.e. present in the UDG).
[[nodiscard]] graph::GeometricGraph build_udel(const graph::GeometricGraph& udg);

}  // namespace geospanner::proximity
