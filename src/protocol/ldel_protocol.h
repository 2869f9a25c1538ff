// Distributed localized Delaunay graphs over an arbitrary unit-disk-style
// radio graph — the induced backbone ICDS in the paper's pipeline, or the
// full UDG when building PLDel(V) directly.
//
// Both protocols run the paper's Algorithm 2 negotiation over each
// node's local Delaunay star (proximity::local_triangles_at, the one
// kernel with its one SoS tie rule keyed by node id): a node proposes
// each star triangle whose angle at the proposer is at least π/3 (so
// every genuine triangle has a proposer), the other two corners answer
// Accept iff the triangle is in their own stars too, and a triangle
// holds once all three corners agree.
//
//  * run_ldel (Algorithms 2 and 3) walks 1-hop stars, then planarizes
//    with two aggregate triangle broadcasts: announce (drop an own
//    triangle that proximity::alg3_removed_by rules beaten by an
//    intersecting known one) and keep (a triangle survives iff all three
//    corners kept it). It equals the centralized
//    planarize_triangles(ldel1_triangles(g)) exactly.
//  * run_ldel2 (Algorithm 2 with k = 2) first broadcasts each node's
//    1-hop neighbor list (one aggregate message), then walks each star
//    over the 2-hop view the lists assemble. 2-hop knowledge already
//    rules out every crossing (Li et al.), so there is no planarization
//    pass: heavier messages (lists are O(degree) sized) for a protocol
//    one phase shorter. It equals proximity::ldel_k_triangles(g, 2)
//    exactly, cocircular ties included.
//
// The tests assert both equalities across uniform sweeps, cocircular
// rings, zero-jitter lattices and the fuzz generator modes.
#pragma once

#include <vector>

#include "protocol/messages.h"
#include "proximity/ldel.h"

namespace geospanner::protocol {

struct LDelState {
    /// Triangles surviving acceptance (and planarization), sorted.
    std::vector<proximity::TriangleKey> triangles;
    /// Gabriel edges ∪ surviving triangle edges, over the full node set.
    graph::GeometricGraph graph;
};

/// Runs Algorithms 2 + 3 over the radio graph of `net`, which must be
/// `g` itself (nodes with no neighbors in g do not participate). If
/// `announce_positions` is set, each participating node first broadcasts
/// a Hello beacon (set when running standalone; the backbone pipeline
/// already knows positions from the clustering beacons).
[[nodiscard]] LDelState run_ldel(Net& net, const graph::GeometricGraph& g,
                                 bool announce_positions);

/// Runs the LDel⁽²⁾ protocol over the radio graph of `net` (== `g`).
/// If announce_positions is set, Hello beacons are broadcast first.
[[nodiscard]] LDelState run_ldel2(Net& net, const graph::GeometricGraph& g,
                                  bool announce_positions);

}  // namespace geospanner::protocol
