#include "protocol/clustering.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace geospanner::protocol {

using graph::GeometricGraph;

namespace {

/// Inserts v into a sorted unique vector; returns true if newly added.
bool sorted_insert(std::vector<NodeId>& list, NodeId value) {
    const auto it = std::lower_bound(list.begin(), list.end(), value);
    if (it != list.end() && *it == value) return false;
    list.insert(it, value);
    return true;
}

/// Harvest pass shared by both engines: dominator lists come from
/// adjacency + roles; two-hop dominators from dominatee neighbors'
/// lists (what IamDominatee traffic reveals).
void derive_lists(const GeometricGraph& udg, ClusterState& state) {
    const auto n = static_cast<NodeId>(udg.node_count());
    // Both passes fill rows in node order, so they build CSR arrays and
    // hand them to fresh pages in one step.
    std::vector<std::size_t> offsets{0};
    std::vector<NodeId> lists;
    std::vector<NodeId> row;
    for (NodeId v = 0; v < n; ++v) {
        derive_dominators(udg, state.role, v, row);
        lists.insert(lists.end(), row.begin(), row.end());
        offsets.push_back(lists.size());
    }
    state.dominators_of = graph::CowRows<NodeId>(offsets, lists);

    offsets.assign(1, 0);
    lists.clear();
    for (NodeId v = 0; v < n; ++v) {
        derive_two_hop_dominators(udg, state, v, row);
        lists.insert(lists.end(), row.begin(), row.end());
        offsets.push_back(lists.size());
    }
    state.two_hop_dominators_of = graph::CowRows<NodeId>(offsets, lists);
}

}  // namespace

ClusterKey cluster_key(const GeometricGraph& udg, NodeId v, ClusterPolicy policy) {
    switch (policy) {
        case ClusterPolicy::kLowestId:
            return {0, v};
        case ClusterPolicy::kHighestDegree:
            // Invert degree so that operator< means "wins".
            return {udg.node_count() - udg.degree(v), v};
    }
    return {0, v};
}

void derive_dominators(const GeometricGraph& udg, std::span<const Role> role, NodeId v,
                       std::vector<NodeId>& out) {
    out.clear();
    if (role[v] != Role::kDominatee) return;
    for (const NodeId u : udg.neighbors(v)) {
        if (role[u] == Role::kDominator) out.push_back(u);
    }
}

void derive_two_hop_dominators(const GeometricGraph& udg, const ClusterState& state,
                               NodeId v, std::vector<NodeId>& out) {
    out.clear();
    for (const NodeId w : udg.neighbors(v)) {
        if (state.role[w] != Role::kDominatee) continue;
        for (const NodeId d : state.dominators(w)) {
            if (d != v && !udg.has_edge(v, d)) sorted_insert(out, d);
        }
    }
}

ClusterState run_clustering(Net& net, const GeometricGraph& udg, ClusterPolicy policy) {
    const auto n = static_cast<NodeId>(udg.node_count());
    ClusterState state;
    state.role.assign(n, Role::kDominatee);
    std::vector<std::vector<NodeId>> dominators(n);
    std::vector<std::vector<NodeId>> two_hop(n);

    // Per-node protocol state: whiteness of self and of each neighbor as
    // currently known (updated from received announcements). Election
    // keys of neighbors are known from the Hello beacons (id + degree).
    std::vector<char> white(n, 1);
    std::vector<std::set<ClusterKey>> white_neighbors(n);
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId u : udg.neighbors(v)) {
            white_neighbors[v].insert(cluster_key(udg, u, policy));
        }
    }

    // Initial beacon: every node announces its id/position (and thereby
    // its degree) once, which is how nodes learn their 1-hop neighbor
    // sets in the paper's model.
    for (NodeId v = 0; v < n; ++v) net.broadcast(v, Hello{udg.point(v)});
    net.advance();

    while (true) {
        // Process this round's inbox: track neighbors leaving the white
        // state, acquire dominators, harvest two-hop dominators.
        for (NodeId v = 0; v < n; ++v) {
            for (const auto& env : net.inbox(v)) {
                if (std::holds_alternative<IamDominator>(env.payload)) {
                    white_neighbors[v].erase(cluster_key(udg, env.from, policy));
                    if (white[v]) {
                        // First dominator: v leaves the white state.
                        white[v] = 0;
                        state.role[v] = Role::kDominatee;
                    }
                    if (state.role[v] == Role::kDominatee &&
                        sorted_insert(dominators[v], env.from)) {
                        net.broadcast(v, IamDominatee{env.from});
                    }
                } else if (const auto* msg = std::get_if<IamDominatee>(&env.payload)) {
                    white_neighbors[v].erase(cluster_key(udg, env.from, policy));
                    const NodeId d = msg->dominator;
                    if (d != v && !udg.has_edge(v, d)) {
                        sorted_insert(two_hop[v], d);
                    }
                }
            }
        }
        // Decision step: a white node that ranks best among its
        // still-white neighbors elects itself dominator.
        for (NodeId v = 0; v < n; ++v) {
            if (!white[v]) continue;
            const ClusterKey mine = cluster_key(udg, v, policy);
            if (white_neighbors[v].empty() || mine < *white_neighbors[v].begin()) {
                white[v] = 0;
                state.role[v] = Role::kDominator;
                net.broadcast(v, IamDominator{});
            }
        }
        if (!net.advance()) break;
    }

    assert(std::none_of(white.begin(), white.end(), [](char w) { return w != 0; }));
    state.dominators_of = graph::CowRows<NodeId>(dominators);
    state.two_hop_dominators_of = graph::CowRows<NodeId>(two_hop);
    return state;
}

std::vector<Role> elect_roles(const GeometricGraph& udg, ClusterPolicy policy) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<Role> role(n, Role::kDominatee);

    // Synchronized rounds: in each round, every white node that is a
    // local optimum among white neighbors becomes a dominator; its white
    // neighbors become dominatees. This mirrors the protocol exactly.
    std::vector<char> white(n, 1);
    std::size_t remaining = n;
    while (remaining > 0) {
        std::vector<NodeId> winners;
        for (NodeId v = 0; v < n; ++v) {
            if (!white[v]) continue;
            const ClusterKey mine = cluster_key(udg, v, policy);
            bool best = true;
            for (const NodeId u : udg.neighbors(v)) {
                if (white[u] && cluster_key(udg, u, policy) < mine) {
                    best = false;
                    break;
                }
            }
            if (best) winners.push_back(v);
        }
        assert(!winners.empty() && "a global optimum always wins");
        for (const NodeId v : winners) {
            white[v] = 0;
            role[v] = Role::kDominator;
            --remaining;
        }
        for (const NodeId v : winners) {
            for (const NodeId u : udg.neighbors(v)) {
                if (white[u]) {
                    white[u] = 0;
                    role[u] = Role::kDominatee;
                    --remaining;
                }
            }
        }
    }
    return role;
}

ClusterState cluster_reference(const GeometricGraph& udg, ClusterPolicy policy) {
    ClusterState state;
    state.role = elect_roles(udg, policy);
    derive_lists(udg, state);
    return state;
}

ClusterState lowest_id_mis(const GeometricGraph& udg) {
    const auto n = static_cast<NodeId>(udg.node_count());
    ClusterState state;
    state.role.assign(n, Role::kDominatee);

    // Lexicographically-first MIS: in increasing id order, v becomes a
    // dominator iff no smaller-id neighbor already is one.
    for (NodeId v = 0; v < n; ++v) {
        bool dominated = false;
        for (const NodeId u : udg.neighbors(v)) {
            if (u < v && state.role[u] == Role::kDominator) {
                dominated = true;
                break;
            }
        }
        state.role[v] = dominated ? Role::kDominatee : Role::kDominator;
    }
    derive_lists(udg, state);
    return state;
}

}  // namespace geospanner::protocol
