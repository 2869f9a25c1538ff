// Finding connectors (Algorithm 1 of the paper).
//
// After clustering, dominators that are two or three UDG hops apart must
// be joined through dominatees. Candidates announce themselves with
// TryConnector and an election picks, among mutually audible candidates,
// the ones with locally smallest id (several non-adjacent candidates can
// win for the same dominator pair — the paper shows at most 2 for a
// two-hop pair, and notes the redundancy increases backbone robustness).
//
//  * Two-hop pairs: a dominatee adjacent to both dominators u and v is a
//    candidate; a winner w contributes backbone edges (u,w), (w,v).
//  * Three-hop pairs (ordered: u searches a path to v): a dominatee w of
//    u that knows v as a two-hop dominator is a first-leg candidate; a
//    winner w contributes (u,w) and triggers the second-leg election
//    among dominatees x of v adjacent to some winner w, contributing
//    (w,x) and (x,v).
//
// The dominators + elected connectors with these edges form the CDS
// backbone graph.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "protocol/cluster_state.h"
#include "protocol/messages.h"

namespace geospanner::protocol {

using DominatorPair = std::pair<NodeId, NodeId>;

struct ConnectorState {
    std::vector<bool> is_connector;                       ///< per node
    std::vector<std::pair<NodeId, NodeId>> cds_edges;     ///< backbone links, u < v, sorted
};

// ---- Election kernel -------------------------------------------------
//
// The one implementation of Algorithm 1's per-pair election behind the
// engine's connector stage (all nodes, elections in parallel) and
// DynamicSpanner's connector patch (a dirty region's 2-hop ball).
// find_connectors stays the reference it is tested against.

/// Candidate lists of many dominator pairs in flat columns: group g is
/// pairs[g] with candidates nodes[offsets[g], offsets[g + 1]), groups
/// in ascending pair order and candidates ascending within a group.
struct PairGroups {
    std::vector<DominatorPair> pairs;
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> nodes;

    [[nodiscard]] std::size_t size() const noexcept { return pairs.size(); }
    [[nodiscard]] std::span<const NodeId> candidates(std::size_t g) const {
        return std::span(nodes).subspan(offsets[g], offsets[g + 1] - offsets[g]);
    }
};

/// Algorithm 1's candidates: two-hop pairs are unordered (u < v) with
/// the dominatees adjacent to both; three-hop pairs are ordered (u, v)
/// with the first-leg candidates, dominatees of u that know v as a
/// two-hop dominator.
struct ConnectorCandidates {
    PairGroups two_hop;
    PairGroups three_hop;
};

/// Gathers the candidates that the nodes of `nodes` (ascending)
/// generate. A non-empty `endpoint_filter` (n-sized) keeps only pairs
/// with an endpoint d where endpoint_filter[d] != 0. A pair's group is
/// its complete candidate list when `nodes` covers the 2-hop ball of
/// one of its endpoints (always, when `nodes` is every node).
[[nodiscard]] ConnectorCandidates collect_candidates(const ClusterState& cluster,
                                                     std::span<const NodeId> nodes,
                                                     std::span<const char> endpoint_filter);

/// One pair's election outcome in caller-owned buffers that each
/// elect_* call clears and refills, so a loop over many pairs
/// allocates nothing once the buffers have grown.
struct PairElection {
    std::vector<NodeId> connectors;    ///< elected nodes, sorted, unique
    std::vector<DominatorPair> edges;  ///< CDS edges (min, max), sorted, unique
    std::size_t second_leg_candidates = 0;  ///< three-hop second-leg candidates
    // Second-leg scratch: first-leg winners, (x, winner) audibility
    // entries sorted by x, and the distinct x column.
    std::vector<NodeId> winners;
    std::vector<std::pair<NodeId, NodeId>> audible;
    std::vector<NodeId> second;
};

/// Two-hop election for unordered `pair`: a candidate wins iff no
/// smaller-id candidate is UDG-adjacent; each winner w links to both
/// dominators.
void elect_two_hop(const graph::GeometricGraph& udg, DominatorPair pair,
                   std::span<const NodeId> candidates, PairElection& out);

/// Three-hop election for ordered `pair` (u, v) from its first-leg
/// candidates: first-leg winners w link to u; the dominatees x of v
/// adjacent to some w then elect the same way, and each winner x links
/// to v and to every first-leg winner it hears.
void elect_three_hop(const graph::GeometricGraph& udg, const ClusterState& cluster,
                     DominatorPair pair, std::span<const NodeId> candidates,
                     PairElection& out);

/// Runs the distributed connector election over the UDG radio graph,
/// continuing from a completed clustering (same Net for cumulative
/// message counts).
[[nodiscard]] ConnectorState run_connectors(Net& net, const graph::GeometricGraph& udg,
                                            const ClusterState& cluster);

/// Centralized reference producing bit-identical output (same elections
/// evaluated directly on the graph).
[[nodiscard]] ConnectorState find_connectors(const graph::GeometricGraph& udg,
                                             const ClusterState& cluster);

/// The alternative prior art the paper reviews (Alzoubi/Wan/Frieder):
/// dominator-initiated selection. For every ordered dominator pair
/// (u, v) at most 3 hops apart, u picks the smallest-id dominatee
/// adjacent to both (2 hops), or the smallest-id neighbor w that is two
/// hops from v, which in turn picks the smallest-id node completing the
/// path (3 hops). Exactly one path per ordered pair — a leaner CDS than
/// Algorithm 1's election, with none of its redundancy (see
/// bench_ablation_robustness).
[[nodiscard]] ConnectorState find_connectors_alzoubi(const graph::GeometricGraph& udg,
                                                     const ClusterState& cluster);

}  // namespace geospanner::protocol
