// Update-service end-to-end throughput: P producer threads pour
// move batches into the SpannerService ingest queue while a reader
// thread takes versioned snapshots; the measured rate is enqueue →
// fully-applied (drain-bounded), i.e. what a serving deployment
// sustains, not the bare patch kernel. Jitter mobility (each move
// re-scatters a node near its home position) keeps density stable so
// every configuration patches comparable topologies.
//
// With GS_BENCH_JSON set, appends one JSON line per configuration
// (bench "service_throughput") with the ingest rate, per-batch apply
// cost, fallback and component accounting, and snapshot latency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "random/rng.h"
#include "service/service.h"

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
    const bench::JsonSink sink("service_throughput");
    const double radius = 60.0;
    const std::size_t total_batches = bench::trials_or(48);
    const std::size_t batch_size = 32;
    const double step = radius / 4.0;

    std::cout << "=== Update service: ingest throughput (R=" << radius
              << ", batch=" << batch_size << ", " << total_batches
              << " batches/config) ===\n"
              << "P producers enqueue, 1 reader snapshots; rate is drain-bounded\n\n";

    io::Table table({"n", "producers", "updates/s", "apply ms", "fallback%", "comps",
                     "comp fb", "snapshots", "snap ms"});
    for (const std::size_t n : {std::size_t{2000}, std::size_t{20000}}) {
        const double side =
            radius * std::sqrt(static_cast<double>(n) * 3.14159265358979 / 12.0);
        core::WorkloadConfig config;
        config.node_count = n;
        config.side = side;
        config.radius = radius;
        config.seed = 9000 + n;
        const auto points = core::uniform_points(config);

        for (const std::size_t producers : {std::size_t{1}, std::size_t{4}}) {
            engine::EngineOptions eopts;
            engine::SpannerEngine engine(eopts);
            service::SpannerService svc(engine, points, radius);

            std::atomic<bool> done{false};
            bench::MaxAvg snap_ms;
            std::size_t snapshots_taken = 0;
            std::thread reader([&] {
                while (!done.load()) {
                    const double t0 = now_ms();
                    const service::SnapshotHandle snap = svc.snapshot();
                    snap_ms.add(now_ms() - t0);
                    ++snapshots_taken;
                    (void)snap;
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                }
            });

            // Every producer must ship at least one batch, or a smoke run
            // (GS_BENCH_TRIALS=2) with producers=4 measures nothing.
            const std::size_t per_producer =
                std::max<std::size_t>(1, total_batches / producers);
            const double t0 = now_ms();
            std::vector<std::thread> threads;
            for (std::size_t p = 0; p < producers; ++p) {
                threads.emplace_back([&, p] {
                    rnd::Xoshiro256 rng(7100 + p);
                    for (std::size_t b = 0; b < per_producer; ++b) {
                        dynamic::UpdateBatch batch;
                        for (std::size_t i = 0; i < batch_size; ++i) {
                            const auto v =
                                static_cast<graph::NodeId>(rng.below(points.size()));
                            const double angle = rng.uniform(0.0, 6.28318530717959);
                            batch.moves.push_back({v,
                                                   {points[v].x + step * std::cos(angle),
                                                    points[v].y + step * std::sin(angle)}});
                        }
                        svc.enqueue(std::move(batch));
                    }
                });
            }
            for (auto& t : threads) t.join();
            svc.drain();
            const double elapsed_ms = now_ms() - t0;
            done = true;
            reader.join();

            const service::ServiceStats stats = svc.stats();
            const double applied = static_cast<double>(stats.batches_applied);
            const double updates_per_sec =
                elapsed_ms <= 0.0
                    ? 0.0
                    : 1000.0 * static_cast<double>(stats.updates_applied) / elapsed_ms;
            const double apply_ms_avg =
                applied <= 0.0 ? 0.0 : stats.apply_ms_total / applied;
            const double fallback_fraction =
                applied <= 0.0 ? 0.0 : static_cast<double>(stats.fallbacks) / applied;
            const double comps_avg =
                applied <= 0.0 ? 0.0
                               : static_cast<double>(stats.components_patched) / applied;
            table.begin_row()
                .cell(n)
                .cell(producers)
                .cell(updates_per_sec, 1)
                .cell(apply_ms_avg, 3)
                .cell(100.0 * fallback_fraction, 1)
                .cell(comps_avg, 2)
                .cell(stats.component_fallbacks)
                .cell(snapshots_taken)
                .cell(snap_ms.avg(), 3);
            if (sink.enabled()) {
                auto obj = sink.row();
                obj.add("n", n)
                    .add("producers", producers)
                    .add("batches", stats.batches_applied)
                    .add("batch_size", batch_size)
                    .add("elapsed_ms", elapsed_ms)
                    .add("updates_per_sec", updates_per_sec)
                    .add("apply_ms_avg", apply_ms_avg)
                    .add("fallback_fraction", fallback_fraction)
                    .add("components_avg", comps_avg)
                    .add("component_fallbacks", stats.component_fallbacks)
                    .add("snapshots", snapshots_taken)
                    .add("snapshot_ms_avg", snap_ms.avg())
                    .add("snapshot_ms_max", snap_ms.max);
                sink.emit(obj);
            }
        }
    }
    std::cout << table.str()
              << "\nthe drain-bounded rate tracks the per-batch patch cost: dirty\n"
                 "components keep large-n batches on the incremental path, and the\n"
                 "worker publishes each version as a page-sharing snapshot, so a\n"
                 "reader's snapshot() is a pointer copy (snap ms).\n";
    return 0;
}
