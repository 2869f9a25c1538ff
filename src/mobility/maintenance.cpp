#include "mobility/maintenance.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "graph/shortest_paths.h"
#include "proximity/udg.h"

namespace geospanner::mobility {

using graph::GeometricGraph;

MaintainedBackbone::MaintainedBackbone(const std::vector<geom::Point>& points,
                                       double radius, core::BuildOptions options)
    : radius_(radius), options_(options) {
    if (options_.engine == core::Engine::kCentralized) {
        // The incremental path maintains the paper's configuration only.
        if (options_.cluster_policy != protocol::ClusterPolicy::kLowestId ||
            options_.planarizer != core::Planarizer::kLdel1) {
            throw std::invalid_argument(
                "MaintainedBackbone: kCentralized maintains only lowest-ID clustering "
                "with LDel(1); use kDistributed for the variants");
        }
        engine_ = std::make_unique<engine::SpannerEngine>();
        dynamic_ = std::make_unique<dynamic::DynamicSpanner>(*engine_, points, radius_);
    } else {
        udg_ = proximity::build_udg(points, radius_);
        backbone_ = core::build_backbone(udg_, options_);
        stats_.initial_broadcasts = build_broadcasts();
    }
}

std::size_t MaintainedBackbone::build_broadcasts() const {
    std::size_t total = 0;
    for (const std::size_t m : backbone_.messages.after_ldel) total += m;
    return total;
}

bool MaintainedBackbone::links_intact(const std::vector<geom::Point>& points) const {
    const double r2 = radius_ * radius_;
    // The links the routing scheme actually uses: the planar backbone
    // plus the dominatee->dominator access links (== LDel(ICDS')).
    for (const auto& [u, v] : backbone().ldel_icds_prime.edges()) {
        if (geom::squared_distance(points[u], points[v]) > r2) return false;
    }
    return true;
}

bool MaintainedBackbone::update(const std::vector<geom::Point>& points) {
    assert(points.size() == udg().node_count());
    ++stats_.epochs;

    if (links_intact(points)) {
        ++stats_.intact_epochs;
        ++current_lifetime_;
        stats_.longest_lifetime = std::max(stats_.longest_lifetime, current_lifetime_);
        return false;
    }

    // A used link broke. Repair from current positions — unless the
    // network itself is partitioned, in which case nothing is valid and
    // we keep the stale backbone until reconnection.
    GeometricGraph fresh = proximity::build_udg(points, radius_);
    if (!graph::is_connected(fresh)) {
        ++stats_.disconnected_epochs;
        current_lifetime_ = 0;
        return false;
    }

    if (dynamic_) {
        // Positions may have drifted across several intact/disconnected
        // epochs since the last repair; the batch carries the whole diff.
        dynamic::UpdateBatch batch;
        const auto& held = dynamic_->positions();
        for (graph::NodeId v = 0; v < held.size(); ++v) {
            if (!(held[v] == points[v])) batch.moves.push_back({v, points[v]});
        }
        const dynamic::PatchStats patch = dynamic_->apply(batch);
        if (patch.fell_back) {
            ++stats_.fallback_rebuilds;
        } else {
            ++stats_.incremental_patches;
        }
    } else {
        udg_ = std::move(fresh);
        backbone_ = core::build_backbone(udg_, options_);
        stats_.total_broadcasts += build_broadcasts();
    }
    ++stats_.rebuilds;
    current_lifetime_ = 0;
    return true;
}

}  // namespace geospanner::mobility
