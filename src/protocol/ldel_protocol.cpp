#include "protocol/ldel_protocol.h"

#include <algorithm>
#include <numbers>
#include <utility>

#include "geom/vec2.h"

namespace geospanner::protocol {

using graph::GeometricGraph;
using proximity::TriangleKey;

namespace {

/// Per-node triangle lists, sorted.
using Rows = std::vector<std::vector<TriangleKey>>;

/// (sender, triangle) pairs one node heard, sorted for lookup.
using Heard = std::vector<std::pair<NodeId, TriangleKey>>;

/// Tolerance on the π/3 proposal threshold: the angle is computed in
/// floating point and an equilateral triangle has all angles exactly
/// π/3; without slack it could end up with no proposer. Extra proposals
/// are harmless (acceptance logic decides membership).
constexpr double kAngleSlack = 1e-9;

/// The two vertices of t other than u.
std::pair<NodeId, NodeId> others(TriangleKey t, NodeId u) {
    if (t.a == u) return {t.b, t.c};
    if (t.b == u) return {t.a, t.c};
    return {t.a, t.b};
}

template <class T>
void sort_unique(std::vector<T>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// True iff both corners of t other than u are heard naming t.
bool both_others_heard(const Heard& heard, TriangleKey t, NodeId u) {
    const auto [v, w] = others(t, u);
    return std::ranges::binary_search(heard, std::pair{v, t}) &&
           std::ranges::binary_search(heard, std::pair{w, t});
}

void announce(Net& net, const GeometricGraph& g) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
        if (g.degree(v) > 0) net.broadcast(v, Hello{g.point(v)});
    }
    net.advance();
}

/// Algorithm 2, steps 3-6, over each node's star `local[u]`: u proposes
/// every star triangle with an angle of at least π/3 at u; a corner
/// answers each proposal it did not make itself, once per triangle,
/// with Accept iff the triangle is in its own star and Reject otherwise;
/// u then holds each star triangle whose other two corners both proposed
/// or accepted it (every corner hears the other two directly). Two
/// rounds. Returns each node's held triangles, sorted.
Rows negotiate(Net& net, const GeometricGraph& g, const Rows& local) {
    const auto n = static_cast<NodeId>(g.node_count());
    const double min_angle = std::numbers::pi / 3.0 - kAngleSlack;
    Rows proposed(n);
    for (NodeId u = 0; u < n; ++u) {
        for (const TriangleKey& t : local[u]) {
            const auto [v, w] = others(t, u);
            if (geom::angle_at(g.point(u), g.point(v), g.point(w)) >= min_angle) {
                proposed[u].push_back(t);
                net.broadcast(u, Proposal{v, w});
            }
        }
    }
    net.advance();

    std::vector<Heard> agreed(n);  // proposals and accepts, by sender
    for (NodeId v = 0; v < n; ++v) {
        std::vector<TriangleKey> pending;
        for (const auto& env : net.inbox(v)) {
            if (const auto* p = std::get_if<Proposal>(&env.payload)) {
                const TriangleKey t = proximity::make_triangle_key(env.from, p->v, p->w);
                if (t.a != v && t.b != v && t.c != v) continue;  // Not my triangle.
                agreed[v].push_back({env.from, t});
                if (!std::ranges::binary_search(proposed[v], t)) pending.push_back(t);
            }
        }
        sort_unique(pending);
        for (const TriangleKey& t : pending) {
            if (std::ranges::binary_search(local[v], t)) {
                net.broadcast(v, Accept{t});
            } else {
                net.broadcast(v, Reject{t});
            }
        }
    }
    net.advance();

    Rows held(n);
    for (NodeId u = 0; u < n; ++u) {
        for (const auto& env : net.inbox(u)) {
            if (const auto* a = std::get_if<Accept>(&env.payload)) {
                agreed[u].push_back({env.from, a->triangle});
            }
        }
        std::ranges::sort(agreed[u]);
        for (const TriangleKey& t : local[u]) {
            if (both_others_heard(agreed[u], t, u)) held[u].push_back(t);
        }
    }
    return held;
}

}  // namespace

LDelState run_ldel(Net& net, const GeometricGraph& g, bool announce_positions) {
    const auto n = static_cast<NodeId>(g.node_count());
    if (announce_positions) announce(net, g);

    // --- Algorithm 2 over 1-hop stars. ---
    Rows local(n);
    proximity::LocalDelaunayScratch scratch;
    for (NodeId u = 0; u < n; ++u) proximity::local_triangles_at(g, u, scratch, local[u]);
    const Rows mine = negotiate(net, g, local);

    // --- Algorithm 3, step 1: announce held triangles. ---
    for (NodeId u = 0; u < n; ++u) {
        if (!mine[u].empty()) net.broadcast(u, TriangleAnnounce{mine[u]}, mine[u].size());
    }
    net.advance();

    // --- Step 2: drop own triangles beaten by an intersecting known one. ---
    Rows kept(n);
    for (NodeId u = 0; u < n; ++u) {
        std::vector<TriangleKey> known = mine[u];
        for (const auto& env : net.inbox(u)) {
            if (const auto* ann = std::get_if<TriangleAnnounce>(&env.payload)) {
                known.insert(known.end(), ann->triangles.begin(), ann->triangles.end());
            }
        }
        sort_unique(known);
        for (const TriangleKey& t : mine[u]) {
            const bool beaten = std::ranges::any_of(known, [&](TriangleKey r) {
                return r != t && proximity::alg3_removed_by(g, t, r);
            });
            if (!beaten) kept[u].push_back(t);
        }
    }

    // --- Steps 3-4: broadcast keeps; survive on unanimity. ---
    for (NodeId u = 0; u < n; ++u) {
        if (!kept[u].empty()) net.broadcast(u, TriangleKeep{kept[u]}, kept[u].size());
    }
    net.advance();

    std::vector<TriangleKey> survivors;
    for (NodeId u = 0; u < n; ++u) {
        Heard keeps;
        for (const auto& env : net.inbox(u)) {
            if (const auto* keep = std::get_if<TriangleKeep>(&env.payload)) {
                for (const TriangleKey& t : keep->triangles) keeps.push_back({env.from, t});
            }
        }
        std::ranges::sort(keeps);
        for (const TriangleKey& t : kept[u]) {
            if (both_others_heard(keeps, t, u)) survivors.push_back(t);
        }
    }
    sort_unique(survivors);
    return {survivors, proximity::ldel_graph(g, survivors)};
}

LDelState run_ldel2(Net& net, const GeometricGraph& g, bool announce_positions) {
    const auto n = static_cast<NodeId>(g.node_count());
    if (announce_positions) announce(net, g);

    // --- Neighbor-list exchange (one aggregate message each). ---
    for (NodeId v = 0; v < n; ++v) {
        if (g.degree(v) == 0) continue;
        NeighborList list;
        list.neighbors.reserve(g.degree(v));
        for (const NodeId u : g.neighbors(v)) list.neighbors.push_back({u, g.point(u)});
        const std::size_t units = list.neighbors.size();
        net.broadcast(v, std::move(list), units);
    }
    net.advance();

    // --- Algorithm 2 over 2-hop stars. u's view is itself, the lists'
    // senders (its neighbors) and every node they list; the kernel drops
    // repeats. The lists carry every position and edge the walk reads:
    // a triangle at u has its far side between two of u's neighbors.
    Rows local(n);
    proximity::LocalDelaunayScratch scratch;
    std::vector<NodeId> view;
    for (NodeId u = 0; u < n; ++u) {
        view.assign(1, u);
        for (const auto& env : net.inbox(u)) {
            if (const auto* list = std::get_if<NeighborList>(&env.payload)) {
                view.push_back(env.from);
                for (const auto& entry : list->neighbors) view.push_back(entry.first);
            }
        }
        proximity::local_triangles_at(g, u, view, scratch, local[u]);
    }
    std::vector<TriangleKey> accepted;
    for (const auto& row : negotiate(net, g, local)) {
        accepted.insert(accepted.end(), row.begin(), row.end());
    }
    sort_unique(accepted);
    return {accepted, proximity::ldel_graph(g, accepted)};
}

}  // namespace geospanner::protocol
