// Output of the clustering phase.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/cow_rows.h"
#include "graph/geometric_graph.h"

namespace geospanner::protocol {

enum class Role : std::uint8_t {
    kDominatee = 0,
    kDominator = 1,
};

/// Result of the lowest-ID maximal-independent-set clustering. For every
/// dominatee, `dominators_of` lists its adjacent dominators (<= 5 by
/// Lemma 1) and `two_hop_dominators_of` the dominators exactly two hops
/// away that it learned about from neighbors' IamDominatee broadcasts.
/// Lists are sorted by node id and stored in copy-on-write pages, so a
/// copy shares them until either side writes to a row.
struct ClusterState {
    std::vector<Role> role;
    graph::CowRows<graph::NodeId> dominators_of;
    graph::CowRows<graph::NodeId> two_hop_dominators_of;

    [[nodiscard]] bool is_dominator(graph::NodeId v) const {
        return role[v] == Role::kDominator;
    }

    /// Read-only views of the per-node dominator lists. Const access to
    /// immutable state — safe for concurrent readers (the engine's
    /// parallel connector stage evaluates candidates across threads).
    [[nodiscard]] std::span<const graph::NodeId> dominators(graph::NodeId v) const {
        return dominators_of[v];
    }
    [[nodiscard]] std::span<const graph::NodeId> two_hop_dominators(
        graph::NodeId v) const {
        return two_hop_dominators_of[v];
    }

    [[nodiscard]] std::size_t dominator_count() const {
        std::size_t c = 0;
        for (const Role r : role) c += (r == Role::kDominator) ? 1 : 0;
        return c;
    }
};

}  // namespace geospanner::protocol
