// Clustering: distributed maximal-independent-set election
// (Section III-A.1 of the paper, after Baker & Ephremides / Alzoubi).
//
// Protocol: every node starts *white*. A white node that is the best of
// its still-white neighborhood under the chosen criterion elects itself
// dominator and broadcasts IamDominator. A white node receiving
// IamDominator becomes a dominatee of the sender and broadcasts
// IamDominatee(self, dominator) — rebroadcast for every further
// dominator it acquires (at most five in total, Lemma 1). Nodes drop
// neighbors from their white list as these announcements arrive, so the
// local-optimum test always sees fresh information.
//
// Selection criteria (the paper reviews both families):
//  * kLowestId      — Baker/Ephremides, Alzoubi: smallest id wins; the
//                     elected set is the lexicographically-first MIS.
//  * kHighestDegree — Gerla/Tsai: largest UDG degree wins, ties to the
//                     smaller id (degrees are exchanged in the Hello
//                     beacon).
#pragma once

#include <span>
#include <vector>

#include "protocol/cluster_state.h"
#include "protocol/messages.h"

namespace geospanner::protocol {

enum class ClusterPolicy {
    kLowestId,
    kHighestDegree,
};

/// Election ranking: the smaller key wins. kLowestId ranks by id alone;
/// kHighestDegree prefers larger degree, then smaller id.
struct ClusterKey {
    std::size_t primary = 0;
    NodeId id = 0;
    friend auto operator<=>(const ClusterKey&, const ClusterKey&) = default;
};

[[nodiscard]] ClusterKey cluster_key(const graph::GeometricGraph& udg, NodeId v,
                                     ClusterPolicy policy);

/// The dominators_of row of v: its dominator neighbors when v is a
/// dominatee, empty otherwise. Replaces `out`; ascending.
void derive_dominators(const graph::GeometricGraph& udg, std::span<const Role> role,
                       NodeId v, std::vector<NodeId>& out);

/// The two_hop_dominators_of row of v: the dominators of v's dominatee
/// neighbors (read from `state.dominators_of`) that are neither v nor
/// adjacent to it. Replaces `out`; ascending.
void derive_two_hop_dominators(const graph::GeometricGraph& udg, const ClusterState& state,
                               NodeId v, std::vector<NodeId>& out);

/// Runs the distributed clustering protocol over the radio graph of
/// `net` (which must be the UDG). Every node first broadcasts a Hello
/// beacon (the paper's initial id announcement; it also carries the
/// node degree for the kHighestDegree criterion). Returns roles,
/// dominator lists, and the two-hop dominator lists harvested from
/// IamDominatee traffic (used later by connector election).
[[nodiscard]] ClusterState run_clustering(Net& net, const graph::GeometricGraph& udg,
                                          ClusterPolicy policy = ClusterPolicy::kLowestId);

/// The MIS rounds of cluster_reference alone: every node's role.
[[nodiscard]] std::vector<Role> elect_roles(const graph::GeometricGraph& udg,
                                            ClusterPolicy policy = ClusterPolicy::kLowestId);

/// Centralized reference: simulates the same synchronized rounds without
/// messages (elect_roles), then derives both lists serially with
/// derive_dominators and derive_two_hop_dominators. Exactly equals the
/// distributed protocol's output for any policy. Tests assert this.
[[nodiscard]] ClusterState cluster_reference(const graph::GeometricGraph& udg,
                                             ClusterPolicy policy = ClusterPolicy::kLowestId);

/// The lexicographically-first MIS of the UDG (a node is a dominator iff
/// it has no smaller-id dominator neighbor, deciding in increasing id
/// order), with the same derived lists. Equals cluster_reference with
/// kLowestId — kept as an independent formulation for cross-checking.
[[nodiscard]] ClusterState lowest_id_mis(const graph::GeometricGraph& udg);

}  // namespace geospanner::protocol
