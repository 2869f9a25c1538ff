#include "core/backbone.h"

#include <algorithm>
#include <iterator>

#include "core/input.h"
#include "protocol/clustering.h"
#include "proximity/ldel_k.h"
#include "protocol/ldel_protocol.h"
#include "protocol/messages.h"

namespace geospanner::core {

using graph::GeometricGraph;
using graph::NodeId;

namespace {

/// UDG edges restricted to backbone nodes (the ICDS of the paper).
GeometricGraph induce_on_backbone(const GeometricGraph& udg,
                                  const std::vector<bool>& in_backbone) {
    GeometricGraph g(udg.points());
    for (const auto& [u, v] : udg.edges()) {
        if (in_backbone[u] && in_backbone[v]) g.add_edge(u, v);
    }
    return g;
}

}  // namespace

std::size_t MessageStats::max_of(const std::vector<std::size_t>& counts) {
    std::size_t m = 0;
    for (const std::size_t c : counts) m = std::max(m, c);
    return m;
}

double MessageStats::avg_of(const std::vector<std::size_t>& counts) {
    if (counts.empty()) return 0.0;
    std::size_t total = 0;
    for (const std::size_t c : counts) total += c;
    return static_cast<double>(total) / static_cast<double>(counts.size());
}

GeometricGraph with_dominatee_links(const GeometricGraph& base,
                                    const protocol::ClusterState& cluster) {
    // Each node's links in CSR form: a dominatee's are its dominators_of
    // list, a dominator's are the dominatees naming it (appended in
    // ascending id order). Both come out sorted, so every adjacency list
    // is one sorted merge with the base list, written into fresh pages
    // rather than a copy of `base` patched page by page.
    const auto n = static_cast<NodeId>(base.node_count());
    std::vector<std::size_t> offset(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
        if (cluster.role[v] != protocol::Role::kDominatee) continue;
        for (const NodeId d : cluster.dominators(v)) {
            ++offset[v + 1];
            ++offset[d + 1];
        }
    }
    for (NodeId v = 0; v < n; ++v) offset[v + 1] += offset[v];
    std::vector<NodeId> links(offset[n]);
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
        if (cluster.role[v] != protocol::Role::kDominatee) continue;
        for (const NodeId d : cluster.dominators(v)) {
            links[fill[v]++] = d;
            links[fill[d]++] = v;
        }
    }

    std::vector<std::size_t> offsets{0};
    offsets.reserve(n + 1);
    std::vector<NodeId> neighbors;
    neighbors.reserve(2 * base.edge_count() + links.size());
    for (NodeId v = 0; v < n; ++v) {
        const auto own = base.neighbors(v);
        std::set_union(own.begin(), own.end(),
                       links.begin() + static_cast<std::ptrdiff_t>(offset[v]),
                       links.begin() + static_cast<std::ptrdiff_t>(offset[v + 1]),
                       std::back_inserter(neighbors));
        offsets.push_back(neighbors.size());
    }
    return GeometricGraph(base.points(), offsets, neighbors);
}

Backbone build_backbone(const GeometricGraph& udg, BuildOptions options) {
    validate_input(udg.points(), 0.0);
    const auto n = static_cast<NodeId>(udg.node_count());
    Backbone result;

    protocol::ConnectorState connectors;
    if (options.engine == Engine::kDistributed) {
        protocol::Net net(udg);
        result.cluster = protocol::run_clustering(net, udg, options.cluster_policy);
        connectors = protocol::run_connectors(net, udg, result.cluster);
        result.messages.after_cds = net.per_node_sent();

        // One RoleAnnounce per node turns CDS knowledge into ICDS
        // knowledge (each node learns which neighbors are backbone).
        result.in_backbone.assign(n, false);
        for (NodeId v = 0; v < n; ++v) {
            result.in_backbone[v] =
                result.cluster.is_dominator(v) || connectors.is_connector[v];
            net.broadcast(v, protocol::RoleAnnounce{result.in_backbone[v]});
        }
        net.advance();
        result.messages.after_icds = net.per_node_sent();

        result.icds = induce_on_backbone(udg, result.in_backbone);

        // The LDel negotiation runs among backbone nodes; its radio graph
        // is exactly ICDS (backbone nodes within range hear each other).
        protocol::Net backbone_net(result.icds);
        protocol::LDelState ldel =
            options.planarizer == Planarizer::kLdel1
                ? protocol::run_ldel(backbone_net, result.icds,
                                     /*announce_positions=*/false)
                : protocol::run_ldel2(backbone_net, result.icds,
                                      /*announce_positions=*/false);
        result.ldel_triangles = std::move(ldel.triangles);
        result.ldel_icds = std::move(ldel.graph);

        result.messages.after_ldel = result.messages.after_icds;
        result.messages.ldel_units.assign(n, 0);
        for (NodeId v = 0; v < n; ++v) {
            result.messages.after_ldel[v] += backbone_net.messages_sent(v);
            result.messages.ldel_units[v] = backbone_net.units_sent(v);
        }
    } else {
        result.cluster = protocol::cluster_reference(udg, options.cluster_policy);
        connectors = protocol::find_connectors(udg, result.cluster);
        result.in_backbone.assign(n, false);
        for (NodeId v = 0; v < n; ++v) {
            result.in_backbone[v] =
                result.cluster.is_dominator(v) || connectors.is_connector[v];
        }
        result.icds = induce_on_backbone(udg, result.in_backbone);
        result.ldel_triangles =
            options.planarizer == Planarizer::kLdel1
                ? proximity::planarize_triangles(result.icds,
                                                 proximity::ldel1_triangles(result.icds))
                : proximity::ldel_k_triangles(result.icds, 2);
        result.ldel_icds = proximity::ldel_graph(result.icds, result.ldel_triangles);
    }

    result.is_connector = connectors.is_connector;
    result.cds = GeometricGraph(udg.points());
    for (const auto& [u, v] : connectors.cds_edges) result.cds.add_edge(u, v);

    result.cds_prime = with_dominatee_links(result.cds, result.cluster);
    result.icds_prime = with_dominatee_links(result.icds, result.cluster);
    result.ldel_icds_prime = with_dominatee_links(result.ldel_icds, result.cluster);
    return result;
}

}  // namespace geospanner::core
