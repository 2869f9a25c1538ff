// Incremental maintenance throughput: updates/sec and dirty-region size
// of DynamicSpanner patches vs node count, batch size, and displacement,
// against the full parallel rebuild as baseline. The headline number is
// the single-node-move speedup at the largest n — the localized patch
// touches O(dirty region) state where the rebuild touches O(n).
//
// A batch with a leave always takes the full-rebuild path; rebuild_ms is
// the median apply time of a few single-leave batches per n, what a
// fallback actually costs next to the engine build (full ms).
//
// With GS_BENCH_JSON set, appends one JSON line per configuration
// (bench "dynamic_updates") carrying patch_ms, full_build_ms,
// rebuild_ms, speedup, dirty nodes, batch- and component-level fallback
// accounting, and the dirty-component region-size histogram. Fallback
// is a per-component decision, so the interesting ratio is
// component_fallback_fraction (over-cap components / decomposed
// components), not the batch count.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "dynamic/spanner.h"
#include "random/rng.h"

using namespace geospanner;

namespace {

double now_ms() {
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int main() {
    // Opt-in JSON: emits only when GS_BENCH_JSON is set.
    const bench::JsonSink sink("dynamic_updates");
    const double radius = 60.0;
    const std::size_t patches = bench::trials_or(30);

    std::cout << "=== Dynamic updates: incremental patch vs full rebuild (R=" << radius
              << ", " << patches << " patches/config) ===\n"
              << "random-walk moves; displacement in units/update\n\n";

    io::Table table({"n", "batch", "step", "patch ms", "dirty nodes", "fallbacks",
                     "comps", "comp fb%", "updates/s", "full ms", "rebuild ms",
                     "speedup"});
    for (const std::size_t n : {2000, 5000, 20000}) {
        // Side chosen for constant density (average UDG degree ~12).
        const double side =
            radius * std::sqrt(static_cast<double>(n) * 3.14159265358979 / 12.0);
        core::WorkloadConfig config;
        config.node_count = n;
        config.side = side;
        config.radius = radius;
        config.seed = 9000 + n;
        const auto points = core::uniform_points(config);

        engine::SpannerEngine engine;
        dynamic::DynamicSpanner dyn(engine, points, radius);
        const auto t1 = now_ms();
        auto full = engine.build(points, radius);
        const double full_ms = now_ms() - t1;
        (void)full;

        rnd::Xoshiro256 leave_rng(77 + n);
        std::vector<double> leave_ms;
        for (int i = 0; i < 5; ++i) {
            dynamic::UpdateBatch batch;
            batch.leaves.push_back(
                static_cast<graph::NodeId>(leave_rng.below(dyn.node_count())));
            const auto start = now_ms();
            (void)dyn.apply(batch);
            leave_ms.push_back(now_ms() - start);
        }
        std::sort(leave_ms.begin(), leave_ms.end());
        const double rebuild_ms = leave_ms[leave_ms.size() / 2];

        for (const std::size_t batch_size : {std::size_t{1}, std::size_t{8},
                                             std::size_t{32}}) {
            for (const double step : {1.0, radius / 4.0, radius}) {
                rnd::Xoshiro256 rng(1234 + batch_size * 7 +
                                    static_cast<std::uint64_t>(step));
                bench::MaxAvg patch_ms, dirty, comps;
                std::size_t fallbacks = 0;
                std::size_t components_total = 0;
                std::size_t component_fallbacks = 0;
                // Dirty-component region sizes: ≤16, ≤64, ≤256, ≤1024, >1024.
                std::size_t region_hist[5] = {0, 0, 0, 0, 0};
                for (std::size_t trial = 0; trial < patches; ++trial) {
                    dynamic::UpdateBatch batch;
                    for (std::size_t i = 0; i < batch_size; ++i) {
                        const auto v =
                            static_cast<graph::NodeId>(rng.below(dyn.node_count()));
                        const geom::Point p = dyn.positions()[v];
                        const double angle = rng.uniform(0.0, 6.28318530717959);
                        batch.moves.push_back({v,
                                               {p.x + step * std::cos(angle),
                                                p.y + step * std::sin(angle)}});
                    }
                    const auto start = now_ms();
                    const auto stats = dyn.apply(batch);
                    patch_ms.add(now_ms() - start);
                    dirty.add(static_cast<double>(stats.dirty_nodes));
                    if (stats.fell_back) ++fallbacks;
                    comps.add(static_cast<double>(stats.components.size()));
                    components_total += stats.components.size();
                    component_fallbacks += stats.component_fallbacks;
                    for (const auto& comp : stats.components) {
                        const std::size_t r = comp.region.size();
                        region_hist[r <= 16 ? 0 : r <= 64 ? 1 : r <= 256 ? 2
                                    : r <= 1024 ? 3 : 4]++;
                    }
                }
                const double comp_fb_fraction =
                    components_total == 0
                        ? 0.0
                        : static_cast<double>(component_fallbacks) /
                              static_cast<double>(components_total);
                const double updates_per_sec =
                    patch_ms.avg() <= 0.0
                        ? 0.0
                        : 1000.0 * static_cast<double>(batch_size) / patch_ms.avg();
                const double speedup =
                    patch_ms.avg() <= 0.0 ? 0.0 : full_ms / patch_ms.avg();
                table.begin_row()
                    .cell(n)
                    .cell(batch_size)
                    .cell(step, 1)
                    .cell(patch_ms.avg(), 3)
                    .cell(dirty.avg(), 1)
                    .cell(fallbacks)
                    .cell(comps.avg(), 2)
                    .cell(100.0 * comp_fb_fraction, 1)
                    .cell(updates_per_sec, 1)
                    .cell(full_ms, 1)
                    .cell(rebuild_ms, 1)
                    .cell(speedup, 1);
                if (sink.enabled()) {
                    auto obj = sink.row();
                    obj.add("n", n)
                        .add("batch", batch_size)
                        .add("step", step)
                        .add("patch_ms_avg", patch_ms.avg())
                        .add("patch_ms_max", patch_ms.max)
                        .add("dirty_nodes_avg", dirty.avg())
                        .add("fallbacks", fallbacks)
                        .add("components_avg", comps.avg())
                        .add("component_fallbacks", component_fallbacks)
                        .add("component_fallback_fraction", comp_fb_fraction)
                        .add("region_hist_le16", region_hist[0])
                        .add("region_hist_le64", region_hist[1])
                        .add("region_hist_le256", region_hist[2])
                        .add("region_hist_le1024", region_hist[3])
                        .add("region_hist_gt1024", region_hist[4])
                        .add("updates_per_sec", updates_per_sec)
                        .add("full_build_ms", full_ms)
                        .add("rebuild_ms", rebuild_ms)
                        .add("speedup", speedup);
                    sink.emit(obj);
                }
            }
        }
    }
    std::cout << table.str()
              << "\nthe patch cost tracks the dirty-region size, not n: at the largest\n"
                 "n a single-node move repairs the backbone orders of magnitude\n"
                 "faster than the from-scratch parallel rebuild. large batches\n"
                 "decompose into far-apart dirty components gated individually\n"
                 "(comp fb% = over-cap components), so batch=32 stays on the\n"
                 "incremental path where a whole-batch gate rebuilt every time.\n"
                 "rebuild ms is a fallback batch: the engine build plus loading\n"
                 "the state later patches update.\n";
    return 0;
}
