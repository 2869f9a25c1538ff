// The paper's primary contribution, packaged as a single call: from a
// unit disk graph, build the clustered CDS backbone and its localized-
// Delaunay planarization, producing every topology evaluated in the
// paper (CDS, CDS', ICDS, ICDS', LDel(ICDS), LDel(ICDS')) plus the
// per-node communication cost of each construction stage.
//
// Two engines produce bit-identical topologies:
//  * kDistributed — executes the actual message-passing protocols on the
//    round-based simulator and reports per-node message counts;
//  * kCentralized — computes the same elections directly (fast path, no
//    message accounting).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/geometric_graph.h"
#include "protocol/cluster_state.h"
#include "protocol/clustering.h"
#include "protocol/connectors.h"
#include "proximity/ldel.h"

namespace geospanner::core {

enum class Engine {
    kDistributed,
    kCentralized,
};

/// Per-node broadcast counts accumulated up to the end of each stage
/// (empty when built with the centralized engine). "CDS" covers the
/// initial beacon, clustering, and connector election; "ICDS" adds the
/// one RoleAnnounce per node; "LDel" adds the triangle negotiation.
struct MessageStats {
    std::vector<std::size_t> after_cds;
    std::vector<std::size_t> after_icds;
    std::vector<std::size_t> after_ldel;
    /// Payload units (aggregate messages weighted by their entry count)
    /// for the LDel stage only — exposes the bandwidth asymmetry between
    /// the LDel¹ and LDel² planarizers that raw message counts hide.
    std::vector<std::size_t> ldel_units;

    [[nodiscard]] static std::size_t max_of(const std::vector<std::size_t>& counts);
    [[nodiscard]] static double avg_of(const std::vector<std::size_t>& counts);
};

/// Every structure of the paper over one node set. All graphs share the
/// full point set; backbone-only graphs simply leave dominatees isolated.
struct Backbone {
    protocol::ClusterState cluster;
    std::vector<bool> is_connector;
    std::vector<bool> in_backbone;  ///< dominator or connector

    graph::GeometricGraph cds;              ///< dominators + connectors, elected links
    graph::GeometricGraph cds_prime;        ///< CDS + dominatee→dominator links
    graph::GeometricGraph icds;             ///< UDG induced on backbone nodes
    graph::GeometricGraph icds_prime;       ///< ICDS + dominatee→dominator links
    graph::GeometricGraph ldel_icds;        ///< planar LDel⁽¹⁾ of ICDS
    graph::GeometricGraph ldel_icds_prime;  ///< LDel(ICDS) + dominatee links

    std::vector<proximity::TriangleKey> ldel_triangles;
    MessageStats messages;

    [[nodiscard]] std::size_t backbone_size() const {
        std::size_t c = 0;
        for (const bool b : in_backbone) c += b ? 1 : 0;
        return c;
    }
};

/// How the induced backbone is planarized.
enum class Planarizer {
    kLdel1,  ///< LDel⁽¹⁾ + Algorithm 3 (the paper's pipeline)
    kLdel2,  ///< LDel⁽²⁾: 2-hop knowledge, planar by itself
};

struct BuildOptions {
    Engine engine = Engine::kDistributed;
    /// Clusterhead election criterion (paper default: lowest id).
    protocol::ClusterPolicy cluster_policy = protocol::ClusterPolicy::kLowestId;
    /// Planarization variant (paper default: LDel¹ + Algorithm 3).
    Planarizer planarizer = Planarizer::kLdel1;
};

/// Builds all backbone structures from a (connected) unit disk graph.
/// Throws std::invalid_argument before any work when core::input_error
/// rejects the graph's points.
[[nodiscard]] Backbone build_backbone(const graph::GeometricGraph& udg,
                                      BuildOptions options = {});

/// Adds every dominatee→dominator link to a copy of `base` (the primed
/// variants of the paper: CDS', ICDS', LDel(ICDS')).
[[nodiscard]] graph::GeometricGraph with_dominatee_links(
    const graph::GeometricGraph& base, const protocol::ClusterState& cluster);

}  // namespace geospanner::core
