// Engine scaling: full-pipeline construction throughput vs thread count
// and vs node count, single-instance and batched.
//
// Smoke mode (GS_BENCH_TRIALS <= 2, as CI sets) shrinks the node-count
// sweep; GS_BENCH_NMAX overrides the sweep's ceiling in either mode
// (rungs above it are dropped, and the ceiling itself becomes the top
// rung — set GS_BENCH_NMAX=1000000 for a million-node soak). Every
// measurement is appended as one JSON object to $GS_BENCH_JSON (default
// BENCH_engine.json) for the perf trajectory; the single-instance
// section also prints the 4-thread speedup on the 50k-node uniform
// workload (the scaling acceptance metric) and the per-stage breakdown
// — wall time plus share of total, with the Morton/grid reorder cost as
// its own "grid" row — at the largest n on one thread, where the stage
// mix actually matters. Each single-instance row also carries the
// exact-predicate fallback share of that build (pred_exact_share),
// tying the float filter's hit rate to the trajectory. A last section
// builds small connected instances with the verify:: stage audits off
// and on ("audit" rows): the invariant-auditing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/workload.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "geom/predicates.h"
#include "io/table.h"

using namespace geospanner;

namespace {

using Clock = std::chrono::steady_clock;

double run_ms(const std::function<void()>& fn) {
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Uniform deployment with expected UDG degree ~12 at unit radius.
std::vector<geom::Point> deployment(std::size_t n, std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = std::sqrt(static_cast<double>(n) * 3.14159265358979 / 12.0);
    config.seed = seed;
    return core::uniform_points(config);
}

}  // namespace

int main() {
    const bool smoke = bench::trials_or(3) <= 2;
    const bench::JsonSink sink("engine_scaling", "BENCH_engine.json");
    const std::size_t hw = std::thread::hardware_concurrency();
    const std::size_t nmax = bench::nmax_or(smoke ? 50'000 : 200'000);
    const std::vector<std::size_t> node_counts =
        smoke ? bench::node_ladder({10'000}, nmax)
              : bench::node_ladder({10'000, 20'000, 50'000, 100'000}, nmax);
    const std::vector<std::size_t> thread_counts{1, 2, 4, 8};

    std::cout << "engine scaling (hardware threads: " << hw << ", nmax: " << nmax
              << (smoke ? ", smoke mode" : "") << ")\n\n";

    // ---- Single-instance construction: one build, all lanes. ----
    io::Table single({"n", "threads", "wall_ms", "speedup", "udg_edges", "backbone"});
    double speedup_50k_4t = 0.0;
    std::string largest_n_stage_table;
    for (const std::size_t n : node_counts) {
        const auto points = deployment(n, 2002 + n);
        double base_ms = 0.0;
        for (const std::size_t threads : thread_counts) {
            engine::EngineOptions options;
            options.threads = threads;
            engine::SpannerEngine eng(options);
            engine::BuildResult result;
            geom::reset_predicate_counters();
            const double ms = run_ms([&] { result = eng.build(points, 1.0); });
            const geom::PredicateCounters preds = geom::predicate_counters();
            const double exact_share =
                preds.total() > 0 ? static_cast<double>(preds.exact_total()) /
                                        static_cast<double>(preds.total())
                                  : 0.0;
            if (threads == 1) base_ms = ms;
            const double speedup = ms > 0.0 ? base_ms / ms : 0.0;
            if (n == 50'000 && threads == 4) speedup_50k_4t = speedup;
            if (n == node_counts.back() && threads == 1) {
                largest_n_stage_table = result.stats.table();
            }

            single.begin_row()
                .cell(n)
                .cell(threads)
                .cell(ms, 1)
                .cell(speedup, 2)
                .cell(result.udg.edge_count())
                .cell(result.backbone.backbone_size());
            auto obj = sink.row();
            obj.add("mode", "single")
                .add("n", n)
                .add("threads", threads)
                .add("wall_ms", ms)
                .add("speedup_vs_1t", speedup)
                .add("udg_edges", result.udg.edge_count())
                .add("backbone_nodes", result.backbone.backbone_size())
                .add("pred_exact_share", exact_share)
                .raw("stages", result.stats.json());
            sink.emit(obj);
        }
    }
    std::cout << single.str() << '\n';
    io::maybe_write_csv("engine_scaling_single", single);
    if (speedup_50k_4t > 0.0) {
        std::cout << "4-thread speedup, 50k-node uniform workload: " << speedup_50k_4t
                  << "x (hardware threads: " << hw << ")\n\n";
    }
    if (!largest_n_stage_table.empty()) {
        std::cout << "per-stage breakdown at n=" << node_counts.back()
                  << ", threads=1:\n"
                  << largest_n_stage_table << '\n';
    }

    // ---- Batch: many instances, lanes claim whole instances. ----
    const std::size_t batch_n = smoke ? 2'000 : 5'000;
    const std::size_t batch_size = smoke ? 4 : 8;
    std::vector<core::WorkloadConfig> configs(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
        configs[i].node_count = batch_n;
        configs[i].side = std::sqrt(static_cast<double>(batch_n) * 3.14159 / 12.0);
        configs[i].radius = 1.0;
        configs[i].seed = 7'000 + i;
    }
    io::Table batch({"instances", "n", "threads", "wall_ms", "inst_per_s"});
    for (const std::size_t threads : thread_counts) {
        engine::EngineOptions options;
        options.threads = threads;
        engine::SpannerEngine eng(options);
        std::vector<engine::BatchResult> results;
        const double ms = run_ms([&] { results = engine::build_batch(eng, configs); });
        std::size_t built = 0;
        for (const auto& r : results) built += r.udg.has_value() ? 1 : 0;
        const double per_s = ms > 0.0 ? 1000.0 * static_cast<double>(built) / ms : 0.0;

        batch.begin_row()
            .cell(built)
            .cell(batch_n)
            .cell(threads)
            .cell(ms, 1)
            .cell(per_s, 2);
        auto obj = sink.row();
        obj.add("mode", "batch")
            .add("instances", built)
            .add("n", batch_n)
            .add("threads", threads)
            .add("wall_ms", ms)
            .add("instances_per_s", per_s);
        sink.emit(obj);
    }
    std::cout << batch.str();
    io::maybe_write_csv("engine_scaling_batch", batch);

    // ---- Audit overhead: the same builds with stage audits off / on. ----
    io::Table audit({"n", "audits_off_ms", "audits_on_ms", "overhead"});
    const std::size_t audit_trials = bench::trials_or(3);
    for (const std::size_t n : {std::size_t{50}, std::size_t{100}, std::size_t{200}}) {
        core::WorkloadConfig config;
        config.node_count = n;
        config.side = 250.0;
        config.radius = 60.0;
        config.seed = 8;
        const auto udg = core::random_connected_udg(config);
        if (!udg) continue;
        double ms[2] = {0.0, 0.0};
        for (const bool on : {false, true}) {
            engine::EngineOptions options;
            options.threads = 2;
            options.audit = on;
            options.audit_options.radius = config.radius;
            engine::SpannerEngine eng(options);
            constexpr int kBuilds = 20;
            const auto builds = [&] {
                for (int i = 0; i < kBuilds; ++i) (void)eng.build(udg->points(), config.radius);
            };
            double best = run_ms(builds);
            for (std::size_t t = 1; t < audit_trials; ++t) best = std::min(best, run_ms(builds));
            ms[on ? 1 : 0] = best / kBuilds;
        }
        const double overhead = ms[0] > 0.0 ? ms[1] / ms[0] : 0.0;
        audit.begin_row().cell(n).cell(ms[0], 3).cell(ms[1], 3).cell(overhead, 2);
        auto obj = sink.row();
        obj.add("mode", "audit")
            .add("n", n)
            .add("threads", std::size_t{2})
            .add("audits_off_ms", ms[0])
            .add("audits_on_ms", ms[1])
            .add("overhead", overhead);
        sink.emit(obj);
    }
    std::cout << "\nper-build cost with stage audits off / on (threads=2):\n" << audit.str();
    std::cout << "\nJSON trajectory appended to " << sink.path() << '\n';
    return 0;
}
