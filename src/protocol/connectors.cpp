#include "protocol/connectors.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

namespace geospanner::protocol {

using graph::GeometricGraph;

namespace {

void add_edge_once(std::set<std::pair<NodeId, NodeId>>& edges, NodeId a, NodeId b) {
    edges.insert({std::min(a, b), std::max(a, b)});
}

ConnectorState finish(std::size_t n, const std::vector<bool>& connector,
                      const std::set<std::pair<NodeId, NodeId>>& edges) {
    ConnectorState state;
    state.is_connector = connector;
    state.is_connector.resize(n, false);
    state.cds_edges.assign(edges.begin(), edges.end());
    return state;
}

}  // namespace

ConnectorState run_connectors(Net& net, const GeometricGraph& udg,
                              const ClusterState& cluster) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::set<std::pair<NodeId, NodeId>> edges;

    // ---- Phase A: connectors for dominators two hops apart. ----
    // Candidates: dominatees adjacent to both dominators of a pair.
    std::vector<std::vector<DominatorPair>> two_hop_claims(n);
    for (NodeId w = 0; w < n; ++w) {
        const auto& doms = cluster.dominators_of[w];
        for (std::size_t i = 0; i < doms.size(); ++i) {
            for (std::size_t j = i + 1; j < doms.size(); ++j) {
                two_hop_claims[w].push_back({doms[i], doms[j]});
                net.broadcast(w, TryConnector{doms[i], doms[j], ConnectorStage::kTwoHop});
            }
        }
    }
    net.advance();

    // Election: w wins pair (u, v) iff no audible candidate for the same
    // pair has a smaller id.
    for (NodeId w = 0; w < n; ++w) {
        if (two_hop_claims[w].empty()) continue;
        std::set<DominatorPair> beaten;
        for (const auto& env : net.inbox(w)) {
            if (const auto* try_msg = std::get_if<TryConnector>(&env.payload)) {
                if (try_msg->stage == ConnectorStage::kTwoHop && env.from < w) {
                    beaten.insert({try_msg->u, try_msg->v});
                }
            }
        }
        for (const auto& [u, v] : two_hop_claims[w]) {
            if (beaten.contains({u, v})) continue;
            net.broadcast(w, IamConnector{u, v, ConnectorStage::kTwoHop});
            connector[w] = true;
            add_edge_once(edges, u, w);
            add_edge_once(edges, w, v);
        }
    }
    net.advance();  // Deliver IamConnector announcements (informational).

    // ---- Phase B: first leg of three-hop connections (ordered pairs). ----
    std::vector<std::vector<DominatorPair>> first_claims(n);
    for (NodeId w = 0; w < n; ++w) {
        for (const NodeId u : cluster.dominators_of[w]) {
            for (const NodeId v : cluster.two_hop_dominators_of[w]) {
                first_claims[w].push_back({u, v});
                net.broadcast(w, TryConnector{u, v, ConnectorStage::kThreeHopFirst});
            }
        }
    }
    net.advance();

    for (NodeId w = 0; w < n; ++w) {
        if (first_claims[w].empty()) continue;
        std::set<DominatorPair> beaten;
        for (const auto& env : net.inbox(w)) {
            if (const auto* try_msg = std::get_if<TryConnector>(&env.payload)) {
                if (try_msg->stage == ConnectorStage::kThreeHopFirst && env.from < w) {
                    beaten.insert({try_msg->u, try_msg->v});
                }
            }
        }
        for (const auto& [u, v] : first_claims[w]) {
            if (beaten.contains({u, v})) continue;
            net.broadcast(w, IamConnector{u, v, ConnectorStage::kThreeHopFirst});
            connector[w] = true;
            add_edge_once(edges, u, w);
        }
    }
    net.advance();

    // ---- Phase C: second leg. A dominatee x of v that hears a first-leg
    // winner w for (u, v) becomes a candidate; a winner links to v and to
    // every audible first-leg winner. ----
    std::vector<std::map<DominatorPair, std::vector<NodeId>>> first_winners_heard(n);
    for (NodeId x = 0; x < n; ++x) {
        for (const auto& env : net.inbox(x)) {
            if (const auto* iam = std::get_if<IamConnector>(&env.payload)) {
                if (iam->stage != ConnectorStage::kThreeHopFirst) continue;
                const auto& my_doms = cluster.dominators_of[x];
                if (!std::binary_search(my_doms.begin(), my_doms.end(), iam->v)) continue;
                first_winners_heard[x][{iam->u, iam->v}].push_back(env.from);
            }
        }
        for (const auto& [pair, winners] : first_winners_heard[x]) {
            (void)winners;
            net.broadcast(x, TryConnector{pair.first, pair.second,
                                          ConnectorStage::kThreeHopSecond});
        }
    }
    net.advance();

    for (NodeId x = 0; x < n; ++x) {
        if (first_winners_heard[x].empty()) continue;
        std::set<DominatorPair> beaten;
        for (const auto& env : net.inbox(x)) {
            if (const auto* try_msg = std::get_if<TryConnector>(&env.payload)) {
                if (try_msg->stage == ConnectorStage::kThreeHopSecond && env.from < x) {
                    beaten.insert({try_msg->u, try_msg->v});
                }
            }
        }
        for (const auto& [pair, winners] : first_winners_heard[x]) {
            if (beaten.contains(pair)) continue;
            net.broadcast(x, IamConnector{pair.first, pair.second,
                                          ConnectorStage::kThreeHopSecond});
            connector[x] = true;
            add_edge_once(edges, x, pair.second);
            for (const NodeId w : winners) add_edge_once(edges, x, w);
        }
    }
    net.advance();

    return finish(n, connector, edges);
}

ConnectorState find_connectors(const GeometricGraph& udg, const ClusterState& cluster) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::set<std::pair<NodeId, NodeId>> edges;

    // Candidate sets keyed by dominator pair, in node-id order (lists
    // built by ascending w, so they are sorted).
    std::map<DominatorPair, std::vector<NodeId>> two_hop_candidates;
    for (NodeId w = 0; w < n; ++w) {
        const auto& doms = cluster.dominators_of[w];
        for (std::size_t i = 0; i < doms.size(); ++i) {
            for (std::size_t j = i + 1; j < doms.size(); ++j) {
                two_hop_candidates[{doms[i], doms[j]}].push_back(w);
            }
        }
    }
    const auto wins = [&udg](NodeId w, const std::vector<NodeId>& candidates) {
        // w wins iff no smaller-id candidate is audible (UDG-adjacent).
        return std::none_of(candidates.begin(), candidates.end(), [&](NodeId c) {
            return c < w && udg.has_edge(c, w);
        });
    };
    for (const auto& [pair, candidates] : two_hop_candidates) {
        for (const NodeId w : candidates) {
            if (!wins(w, candidates)) continue;
            connector[w] = true;
            add_edge_once(edges, pair.first, w);
            add_edge_once(edges, w, pair.second);
        }
    }

    // First leg of three-hop connections (ordered pairs u -> v).
    std::map<DominatorPair, std::vector<NodeId>> first_candidates;
    for (NodeId w = 0; w < n; ++w) {
        for (const NodeId u : cluster.dominators_of[w]) {
            for (const NodeId v : cluster.two_hop_dominators_of[w]) {
                first_candidates[{u, v}].push_back(w);
            }
        }
    }
    std::map<DominatorPair, std::vector<NodeId>> first_winners;
    for (const auto& [pair, candidates] : first_candidates) {
        for (const NodeId w : candidates) {
            if (!wins(w, candidates)) continue;
            first_winners[pair].push_back(w);
            connector[w] = true;
            add_edge_once(edges, pair.first, w);
        }
    }

    // Second leg: dominatees of v audible from a first-leg winner.
    std::map<DominatorPair, std::vector<NodeId>> second_candidates;
    std::map<std::pair<DominatorPair, NodeId>, std::vector<NodeId>> audible_winners;
    for (const auto& [pair, winners] : first_winners) {
        std::set<NodeId> candidates;
        for (const NodeId w : winners) {
            for (const NodeId x : udg.neighbors(w)) {
                const auto& doms = cluster.dominators_of[x];
                if (std::binary_search(doms.begin(), doms.end(), pair.second)) {
                    candidates.insert(x);
                    audible_winners[{pair, x}].push_back(w);
                }
            }
        }
        second_candidates[pair].assign(candidates.begin(), candidates.end());
    }
    for (const auto& [pair, candidates] : second_candidates) {
        for (const NodeId x : candidates) {
            if (!wins(x, candidates)) continue;
            connector[x] = true;
            add_edge_once(edges, x, pair.second);
            for (const NodeId w : audible_winners[{pair, x}]) add_edge_once(edges, x, w);
        }
    }

    return finish(n, connector, edges);
}

ConnectorCandidates collect_candidates(const ClusterState& cluster,
                                       std::span<const NodeId> nodes,
                                       std::span<const char> endpoint_filter) {
    const auto keep = [&](NodeId u, NodeId v) {
        return endpoint_filter.empty() || endpoint_filter[u] != 0 ||
               endpoint_filter[v] != 0;
    };
    // Entries are unique per phase and emitted with the candidate
    // ascending, so sorting them groups each pair's candidates in the
    // ascending order the election expects.
    std::vector<std::pair<DominatorPair, NodeId>> entries;
    const auto group = [&](PairGroups& groups) {
        std::sort(entries.begin(), entries.end());
        groups.nodes.reserve(entries.size());
        for (const auto& [pair, w] : entries) {
            if (groups.pairs.empty() || groups.pairs.back() != pair) {
                groups.pairs.push_back(pair);
                groups.offsets.push_back(static_cast<std::uint32_t>(groups.nodes.size()));
            }
            groups.nodes.push_back(w);
        }
        groups.offsets.push_back(static_cast<std::uint32_t>(groups.nodes.size()));
    };

    ConnectorCandidates out;
    for (const NodeId w : nodes) {
        const auto doms = cluster.dominators(w);
        for (std::size_t i = 0; i < doms.size(); ++i) {
            for (std::size_t j = i + 1; j < doms.size(); ++j) {
                if (keep(doms[i], doms[j])) entries.push_back({{doms[i], doms[j]}, w});
            }
        }
    }
    group(out.two_hop);

    entries.clear();
    for (const NodeId w : nodes) {
        for (const NodeId u : cluster.dominators(w)) {
            for (const NodeId v : cluster.two_hop_dominators(w)) {
                if (keep(u, v)) entries.push_back({{u, v}, w});
            }
        }
    }
    group(out.three_hop);
    return out;
}

namespace {

/// w wins iff no smaller-id candidate is UDG-adjacent to it. Candidates
/// ascend, so the scan stops at w.
bool wins(const GeometricGraph& udg, NodeId w, std::span<const NodeId> candidates) {
    for (const NodeId c : candidates) {
        if (c >= w) break;
        if (udg.has_edge(c, w)) return false;
    }
    return true;
}

DominatorPair edge(NodeId a, NodeId b) { return {std::min(a, b), std::max(a, b)}; }

void settle(PairElection& out) {
    std::sort(out.connectors.begin(), out.connectors.end());
    std::sort(out.edges.begin(), out.edges.end());
    out.edges.erase(std::unique(out.edges.begin(), out.edges.end()), out.edges.end());
}

}  // namespace

void elect_two_hop(const GeometricGraph& udg, DominatorPair pair,
                   std::span<const NodeId> candidates, PairElection& out) {
    out.connectors.clear();
    out.edges.clear();
    out.second_leg_candidates = 0;
    for (const NodeId w : candidates) {
        if (!wins(udg, w, candidates)) continue;
        out.connectors.push_back(w);
        out.edges.push_back(edge(pair.first, w));
        out.edges.push_back(edge(w, pair.second));
    }
    settle(out);
}

void elect_three_hop(const GeometricGraph& udg, const ClusterState& cluster,
                     DominatorPair pair, std::span<const NodeId> candidates,
                     PairElection& out) {
    out.connectors.clear();
    out.edges.clear();
    out.winners.clear();
    out.audible.clear();
    out.second.clear();
    for (const NodeId w : candidates) {
        if (!wins(udg, w, candidates)) continue;
        out.winners.push_back(w);
        out.connectors.push_back(w);
        out.edges.push_back(edge(pair.first, w));
    }

    // Second leg: the dominatees x of v audible from a first-leg winner.
    for (const NodeId w : out.winners) {
        for (const NodeId x : udg.neighbors(w)) {
            const auto doms = cluster.dominators(x);
            if (std::binary_search(doms.begin(), doms.end(), pair.second)) {
                out.audible.push_back({x, w});
            }
        }
    }
    std::sort(out.audible.begin(), out.audible.end());
    for (const auto& [x, w] : out.audible) {
        if (out.second.empty() || out.second.back() != x) out.second.push_back(x);
    }
    out.second_leg_candidates = out.second.size();
    auto heard = out.audible.begin();
    for (const NodeId x : out.second) {
        const auto heard_end = std::find_if(
            heard, out.audible.end(), [x](const auto& entry) { return entry.first != x; });
        if (wins(udg, x, out.second)) {
            out.connectors.push_back(x);
            out.edges.push_back(edge(x, pair.second));
            for (auto it = heard; it != heard_end; ++it) {
                out.edges.push_back(edge(x, it->second));
            }
        }
        heard = heard_end;
    }
    settle(out);
}

ConnectorState find_connectors_alzoubi(const GeometricGraph& udg,
                                       const ClusterState& cluster) {
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<bool> connector(n, false);
    std::set<std::pair<NodeId, NodeId>> edges;

    // Dominators of each node's 2-hop ball, for the "w two hops from v"
    // test: w is two hops from dominator v iff v is in w's two-hop
    // dominator list (w not adjacent to v, some common neighbor exists).
    for (NodeId u = 0; u < n; ++u) {
        if (!cluster.is_dominator(u)) continue;

        // Two-hop pairs: smallest-id common dominatee.
        std::set<NodeId> two_hop_dominators;
        for (const NodeId w : udg.neighbors(u)) {
            for (const NodeId v : cluster.dominators_of[w]) {
                if (v != u) two_hop_dominators.insert(v);
            }
        }
        for (const NodeId v : two_hop_dominators) {
            NodeId pick = graph::kInvalidNode;
            for (const NodeId w : udg.neighbors(u)) {
                if (udg.has_edge(w, v) && (pick == graph::kInvalidNode || w < pick)) {
                    pick = w;
                }
            }
            assert(pick != graph::kInvalidNode);
            connector[pick] = true;
            add_edge_once(edges, u, pick);
            add_edge_once(edges, pick, v);
        }

        // Three-hop pairs: smallest-id neighbor w two hops from v, then
        // w's smallest-id neighbor adjacent to v.
        std::set<NodeId> three_hop_dominators;
        for (const NodeId w : udg.neighbors(u)) {
            for (const NodeId v : cluster.two_hop_dominators_of[w]) {
                if (v != u && !two_hop_dominators.contains(v) && !udg.has_edge(u, v)) {
                    three_hop_dominators.insert(v);
                }
            }
        }
        for (const NodeId v : three_hop_dominators) {
            NodeId first = graph::kInvalidNode;
            for (const NodeId w : udg.neighbors(u)) {
                const auto& list = cluster.two_hop_dominators_of[w];
                if (std::binary_search(list.begin(), list.end(), v) &&
                    (first == graph::kInvalidNode || w < first)) {
                    first = w;
                }
            }
            assert(first != graph::kInvalidNode);
            NodeId second = graph::kInvalidNode;
            for (const NodeId x : udg.neighbors(first)) {
                if (udg.has_edge(x, v) && (second == graph::kInvalidNode || x < second)) {
                    second = x;
                }
            }
            assert(second != graph::kInvalidNode);
            connector[first] = true;
            connector[second] = true;
            add_edge_once(edges, u, first);
            add_edge_once(edges, first, second);
            add_edge_once(edges, second, v);
        }
    }
    return finish(n, connector, edges);
}

}  // namespace geospanner::protocol
