#include "proximity/ldel_k.h"

#include <stdexcept>

#include "graph/khop.h"

namespace geospanner::proximity {

using graph::GeometricGraph;
using graph::NodeId;

std::vector<TriangleKey> ldel_k_triangles(const GeometricGraph& udg, int k) {
    if (k < 1) throw std::invalid_argument("ldel_k_triangles: k must be at least 1");
    if (k == 1) return ldel1_triangles(udg);
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<std::vector<TriangleKey>> local(n);
    LocalDelaunayScratch scratch;
    for (NodeId u = 0; u < n; ++u) {
        local_triangles_at(udg, u, graph::k_hop_neighborhood(udg, u, k), scratch, local[u]);
    }
    return unanimous_triangles(local);
}

GeometricGraph build_ldel_k(const GeometricGraph& udg, int k) {
    return ldel_graph(udg, ldel_k_triangles(udg, k));
}

}  // namespace geospanner::proximity
