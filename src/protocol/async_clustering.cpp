#include "protocol/async_clustering.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace geospanner::protocol {

using graph::GeometricGraph;

namespace {

bool sorted_insert(std::vector<NodeId>& list, NodeId value) {
    const auto it = std::lower_bound(list.begin(), list.end(), value);
    if (it != list.end() && *it == value) return false;
    list.insert(it, value);
    return true;
}

}  // namespace

ClusterState run_async_clustering(AsyncNet& net, const GeometricGraph& udg) {
    const auto n = static_cast<NodeId>(udg.node_count());
    ClusterState state;
    state.role.assign(n, Role::kDominatee);
    std::vector<std::vector<NodeId>> dominators(n);
    std::vector<std::vector<NodeId>> two_hop(n);

    std::vector<char> white(n, 1);
    // Smaller-id neighbors whose decision v has not yet heard about.
    std::vector<std::set<NodeId>> undecided_smaller(n);
    for (NodeId v = 0; v < n; ++v) {
        for (const NodeId u : udg.neighbors(v)) {
            if (u < v) undecided_smaller[v].insert(u);
        }
    }

    const auto elect = [&](NodeId v) {
        assert(white[v]);
        white[v] = 0;
        state.role[v] = Role::kDominator;
        net.broadcast(v, IamDominator{});
    };

    // Initial beacons (id announcement; ids of neighbors are assumed
    // known, as the paper requires for the asynchronous variant) and the
    // unconditional first electors: nodes with no smaller-id neighbor.
    for (NodeId v = 0; v < n; ++v) net.broadcast(v, Hello{udg.point(v)});
    for (NodeId v = 0; v < n; ++v) {
        if (undecided_smaller[v].empty()) elect(v);
    }

    net.run([&](NodeId v, const AsyncNet::Envelope& env) {
        const auto on_neighbor_decided = [&](NodeId u) {
            if (!white[v]) return;
            undecided_smaller[v].erase(u);
            if (undecided_smaller[v].empty() && white[v]) elect(v);
        };
        if (std::holds_alternative<IamDominator>(env.payload)) {
            if (white[v]) {
                white[v] = 0;
                state.role[v] = Role::kDominatee;
            }
            if (state.role[v] == Role::kDominatee &&
                sorted_insert(dominators[v], env.from)) {
                // This broadcast also tells v's waiting neighbors that v
                // has decided.
                net.broadcast(v, IamDominatee{env.from});
            }
        } else if (const auto* msg = std::get_if<IamDominatee>(&env.payload)) {
            const NodeId d = msg->dominator;
            if (d != v && !udg.has_edge(v, d)) {
                sorted_insert(two_hop[v], d);
            }
            on_neighbor_decided(env.from);
        }
    });

    assert(std::none_of(white.begin(), white.end(), [](char w) { return w != 0; }));
    state.dominators_of = graph::CowRows<NodeId>(dominators);
    state.two_hop_dominators_of = graph::CowRows<NodeId>(two_hop);
    return state;
}

}  // namespace geospanner::protocol
