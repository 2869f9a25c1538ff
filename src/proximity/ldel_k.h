// k-localized Delaunay graphs LDel⁽ᵏ⁾ for k >= 1 (Li, Calinescu, Wan).
//
// A triangle uvw with all sides in the UDG is k-localized Delaunay iff
// its circumcircle contains no node of N_k(u) ∪ N_k(v) ∪ N_k(w). The
// paper's pipeline uses k = 1 (the only thickness-2 case, planarized by
// Algorithm 3); for k >= 2 the graph is already planar, at the cost of
// gathering k-hop neighborhoods — the accuracy/locality trade-off this
// module makes measurable.
//
// Every k goes through the one local-Delaunay kernel: each node walks
// its star over its k-hop view (local_triangles_at), and a triangle is
// kept iff all three corners list it (unanimous_triangles). Exactly
// cocircular ties follow the kernel's one SoS rule keyed by node id, so
// protocol::run_ldel2 equals ldel_k_triangles(g, 2) on degenerate input
// too.
#pragma once

#include "proximity/ldel.h"

namespace geospanner::proximity {

/// All k-localized Delaunay triangles, sorted. For k = 1 this equals
/// ldel1_triangles. Throws std::invalid_argument for k < 1.
[[nodiscard]] std::vector<TriangleKey> ldel_k_triangles(const graph::GeometricGraph& udg,
                                                        int k);

/// LDel⁽ᵏ⁾(V): Gabriel edges plus edges of all k-localized Delaunay
/// triangles. Planar for k >= 2. Throws std::invalid_argument for k < 1.
[[nodiscard]] graph::GeometricGraph build_ldel_k(const graph::GeometricGraph& udg, int k);

}  // namespace geospanner::proximity
