#include "protocol/ldel_protocol.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>

#include "geom/vec2.h"
#include "proximity/classic.h"

namespace geospanner::protocol {

using graph::GeometricGraph;
using proximity::TriangleKey;

namespace {

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

}  // namespace

LDelState run_ldel(Net& net, const GeometricGraph& g, bool announce_positions) {
    const auto n = static_cast<NodeId>(g.node_count());
    const double min_angle = std::numbers::pi / 3.0 - kAngleSlack;

    if (announce_positions) {
        for (NodeId v = 0; v < n; ++v) {
            if (g.degree(v) > 0) net.broadcast(v, Hello{g.point(v)});
        }
        net.advance();
    }

    // --- Algorithm 2, steps 2-4: local Delaunay + proposals. ---
    std::vector<std::set<TriangleKey>> local(n);
    std::vector<std::set<TriangleKey>> proposed(n);  // by this node
    proximity::LocalDelaunayScratch scratch;
    std::vector<TriangleKey> star;
    for (NodeId u = 0; u < n; ++u) {
        proximity::local_triangles_at(g, u, scratch, star);
        for (const TriangleKey& t : star) {
            local[u].insert(t);
            const auto [v, w] = others(t, u);
            if (geom::angle_at(g.point(u), g.point(v), g.point(w)) >= min_angle) {
                proposed[u].insert(t);
                net.broadcast(u, Proposal{v, w});
            }
        }
    }
    net.advance();

    // --- Step 5: accept/reject each distinct triangle heard, once. ---
    std::vector<std::set<TriangleKey>> heard_proposals(n);
    std::vector<std::set<std::pair<NodeId, TriangleKey>>> proposal_heard(n);
    for (NodeId v = 0; v < n; ++v) {
        std::set<TriangleKey> pending;
        for (const auto& env : net.inbox(v)) {
            if (const auto* p = std::get_if<Proposal>(&env.payload)) {
                const TriangleKey t = proximity::make_triangle_key(env.from, p->v, p->w);
                if (t.a != v && t.b != v && t.c != v) continue;  // Not my triangle.
                heard_proposals[v].insert(t);
                proposal_heard[v].insert({env.from, t});
                if (!proposed[v].contains(t)) pending.insert(t);
            }
        }
        for (const TriangleKey& t : pending) {
            if (local[v].contains(t)) {
                net.broadcast(v, Accept{t});
            } else {
                net.broadcast(v, Reject{t});
            }
        }
    }
    net.advance();

    // --- Step 6: a triangle is accepted iff somebody proposed it and
    // every vertex either proposed it itself (implicit acceptance) or
    // answered Accept. Agreement is tracked per sender: every vertex of
    // a triangle hears the other two directly.
    std::vector<std::set<std::pair<NodeId, TriangleKey>>> accept_heard(n);
    for (NodeId u = 0; u < n; ++u) {
        for (const auto& env : net.inbox(u)) {
            if (const auto* a = std::get_if<Accept>(&env.payload)) {
                accept_heard[u].insert({env.from, a->triangle});
            }
        }
    }
    std::vector<std::set<TriangleKey>> mine(n);  // accepted triangles at each vertex
    for (NodeId u = 0; u < n; ++u) {
        std::set<TriangleKey> known = proposed[u];
        known.insert(heard_proposals[u].begin(), heard_proposals[u].end());
        for (const TriangleKey& t : known) {
            if (!local[u].contains(t)) continue;  // u itself must agree.
            const auto [v, w] = others(t, u);
            bool all_ok = true;
            for (const NodeId y : {v, w}) {
                if (!proposal_heard[u].contains({y, t}) &&
                    !accept_heard[u].contains({y, t})) {
                    all_ok = false;
                    break;
                }
            }
            if (all_ok) mine[u].insert(t);
        }
    }

    // --- Algorithm 3, step 1: announce incident triangles. ---
    for (NodeId u = 0; u < n; ++u) {
        if (g.degree(u) == 0) continue;
        std::vector<TriangleKey> tris(mine[u].begin(), mine[u].end());
        if (!tris.empty()) {
            const std::size_t units = tris.size();
            net.broadcast(u, TriangleAnnounce{std::move(tris)}, units);
        }
    }
    net.advance();

    // --- Step 2: drop own triangles beaten by an intersecting known one. ---
    std::vector<std::set<TriangleKey>> kept(n);
    for (NodeId u = 0; u < n; ++u) {
        std::set<TriangleKey> known = mine[u];
        for (const auto& env : net.inbox(u)) {
            if (const auto* ann = std::get_if<TriangleAnnounce>(&env.payload)) {
                known.insert(ann->triangles.begin(), ann->triangles.end());
            }
        }
        for (const TriangleKey& t : mine[u]) {
            bool removed = false;
            for (const TriangleKey& other : known) {
                if (other == t) continue;
                if (!proximity::triangles_intersect(g, t, other)) continue;
                if (proximity::circumcircle_contains_vertex_of(g, t, other)) {
                    removed = true;
                    break;
                }
                // Cocircular tie (neither circumcircle strictly contains
                // the other's vertices): the larger key yields — same
                // deterministic rule as the centralized planarization.
                if (!proximity::circumcircle_contains_vertex_of(g, other, t) &&
                    other < t) {
                    removed = true;
                    break;
                }
            }
            if (!removed) kept[u].insert(t);
        }
    }

    // --- Steps 3-4: broadcast keeps; survive on unanimity. ---
    for (NodeId u = 0; u < n; ++u) {
        if (g.degree(u) == 0) continue;
        std::vector<TriangleKey> tris(kept[u].begin(), kept[u].end());
        if (!tris.empty()) {
            const std::size_t units = tris.size();
            net.broadcast(u, TriangleKeep{std::move(tris)}, units);
        }
    }
    net.advance();

    std::vector<std::set<std::pair<NodeId, TriangleKey>>> keep_heard(n);
    for (NodeId u = 0; u < n; ++u) {
        for (const auto& env : net.inbox(u)) {
            if (const auto* keep = std::get_if<TriangleKeep>(&env.payload)) {
                for (const TriangleKey& t : keep->triangles) {
                    keep_heard[u].insert({env.from, t});
                }
            }
        }
    }

    LDelState result;
    std::set<TriangleKey> final_set;
    for (NodeId u = 0; u < n; ++u) {
        for (const TriangleKey& t : kept[u]) {
            const auto [v, w] = others(t, u);
            if (keep_heard[u].contains({v, t}) && keep_heard[u].contains({w, t})) {
                final_set.insert(t);
            }
        }
    }
    result.triangles.assign(final_set.begin(), final_set.end());

    result.graph = proximity::build_gabriel(g);
    for (const TriangleKey& t : result.triangles) {
        result.graph.add_edge(t.a, t.b);
        result.graph.add_edge(t.b, t.c);
        result.graph.add_edge(t.a, t.c);
    }
    return result;
}

}  // namespace geospanner::protocol
