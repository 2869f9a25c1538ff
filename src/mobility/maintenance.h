// Epoch-driven backbone maintenance under mobility.
//
// The paper's observation (Section I): "our algorithms do not need to
// update the network topology when nodes are moving as long as no link
// used in the final network topology is broken" — the *logical* backbone
// stays valid even though the drawn embedding shifts. This class
// implements that policy: each epoch it checks whether every link the
// current backbone uses (backbone links and dominatee→dominator links)
// is still within transmission range, and repairs only on breakage.
//
// Repair path: with the centralized engine, breakage is served by a
// dynamic::DynamicSpanner patch — only the dirty region around the
// nodes that moved out of range is recomputed (falling back to a full
// rebuild when the region is too large), in the paper's configuration
// only. The distributed engine re-runs
// the full message-passing protocols, accounting the rebuild broadcasts.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/backbone.h"
#include "dynamic/spanner.h"

namespace geospanner::mobility {

struct MaintenanceStats {
    std::size_t epochs = 0;
    std::size_t intact_epochs = 0;  ///< backbone survived unchanged
    /// Maintenance rebuilds only — the initial construction is reported
    /// separately (initial_broadcasts), so broadcasts_per_rebuild and
    /// the mobility ablations measure maintenance cost, not setup cost.
    std::size_t rebuilds = 0;
    std::size_t incremental_patches = 0;  ///< rebuilds served by localized patching
    std::size_t fallback_rebuilds = 0;    ///< patches that took the full-rebuild path
    std::size_t disconnected_epochs = 0;  ///< UDG itself was partitioned
    std::size_t initial_broadcasts = 0;   ///< broadcasts of the initial build
    std::size_t total_broadcasts = 0;     ///< across maintenance rebuilds
    std::size_t longest_lifetime = 0;     ///< epochs, best backbone

    [[nodiscard]] double broadcasts_per_rebuild() const {
        return rebuilds == 0 ? 0.0
                             : static_cast<double>(total_broadcasts) /
                                   static_cast<double>(rebuilds);
    }
};

class MaintainedBackbone {
  public:
    /// Builds the initial backbone from `points` (must form a connected
    /// UDG at `radius`). Throws std::invalid_argument when
    /// `options.engine` is kCentralized with a non-default cluster policy
    /// or planarizer: the incremental path builds only the paper's
    /// configuration, and kDistributed serves the variants.
    MaintainedBackbone(const std::vector<geom::Point>& points, double radius,
                       core::BuildOptions options = {});

    /// One maintenance epoch at the given (moved) positions. Returns
    /// true if the backbone had to be repaired. Epochs where the UDG is
    /// disconnected are counted and skipped (no topology can help; the
    /// stale backbone is kept until reconnection).
    bool update(const std::vector<geom::Point>& points);

    [[nodiscard]] const core::Backbone& backbone() const noexcept {
        return dynamic_ ? dynamic_->backbone() : backbone_;
    }
    [[nodiscard]] const graph::GeometricGraph& udg() const noexcept {
        return dynamic_ ? dynamic_->udg() : udg_;
    }
    [[nodiscard]] const MaintenanceStats& stats() const noexcept { return stats_; }

    /// True iff every link used by the current backbone is within range
    /// at the given positions (the paper's validity condition).
    [[nodiscard]] bool links_intact(const std::vector<geom::Point>& points) const;

  private:
    [[nodiscard]] std::size_t build_broadcasts() const;

    double radius_;
    core::BuildOptions options_;
    graph::GeometricGraph udg_;  ///< UDG at the last rebuild (distributed path)
    core::Backbone backbone_;    ///< backbone of the distributed path
    /// Centralized path: retained incremental state, patched on breakage.
    std::unique_ptr<engine::SpannerEngine> engine_;
    std::unique_ptr<dynamic::DynamicSpanner> dynamic_;
    MaintenanceStats stats_;
    std::size_t current_lifetime_ = 0;
};

}  // namespace geospanner::mobility
