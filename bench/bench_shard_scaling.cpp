// Tile-sharded construction scaling: million-node-world throughput of
// TileShardedEngine vs the monolithic SpannerEngine, swept over
// n × tiles × threads.
//
// GS_BENCH_NMAX sets the largest world built (default 1'000'000 — the
// million-node acceptance instance; CI smoke sets 200'000).
// GS_BENCH_TRIALS <= 2 (as CI sets) shrinks the tile/thread matrix.
// Every measurement is appended as one JSON object to $GS_BENCH_JSON
// (default BENCH_shard.json): monolithic rows carry the per-stage
// breakdown, sharded rows the speedup against the monolithic build at
// the SAME thread count (the honest comparison — both engines get the
// same lanes; sharding wins by also parallelizing the work that stays
// sequential inside the monolithic stages) plus a per-shard wall-time
// summary. Output quality is pinned by asserting the sharded edge/node
// counts against the monolithic build of the same instance.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/workload.h"
#include "engine/engine.h"
#include "io/table.h"
#include "shard/tile_engine.h"

using namespace geospanner;

namespace {

using Clock = std::chrono::steady_clock;

double run_ms(const std::function<void()>& fn) {
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Uniform deployment with expected UDG degree ~12 at unit radius (the
/// same density model bench_engine_scaling uses).
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
    const bench::JsonSink sink("shard_scaling", "BENCH_shard.json");
    const std::size_t hw = std::thread::hardware_concurrency();
    const std::size_t nmax = bench::nmax_or(1'000'000);
    const std::vector<std::size_t> node_counts =
        smoke ? bench::node_ladder({}, nmax) : bench::node_ladder({250'000}, nmax);
    const std::vector<std::size_t> thread_counts =
        smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
    const std::vector<std::size_t> tile_counts =
        smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64};

    std::cout << "shard scaling (hardware threads: " << hw << ", nmax: " << nmax
              << (smoke ? ", smoke mode" : "") << ")\n\n";

    io::Table table({"n", "engine", "tiles", "threads", "wall_ms", "speedup_same_t",
                     "udg_edges", "backbone"});
    for (const std::size_t n : node_counts) {
        const auto points = deployment(n, 4242 + n);

        // Monolithic baselines, one per thread count.
        std::map<std::size_t, double> mono_ms;
        std::size_t mono_edges = 0, mono_backbone = 0;
        for (const std::size_t threads : thread_counts) {
            engine::EngineOptions options;
            options.threads = threads;
            engine::SpannerEngine eng(options);
            engine::BuildResult result;
            const double ms = run_ms([&] { result = eng.build(points, 1.0); });
            mono_ms[threads] = ms;
            mono_edges = result.udg.edge_count();
            mono_backbone = result.backbone.backbone_size();

            table.begin_row()
                .cell(n)
                .cell("mono")
                .cell(std::size_t{0})
                .cell(threads)
                .cell(ms, 1)
                .cell(1.0, 2)
                .cell(mono_edges)
                .cell(mono_backbone);
            auto obj = sink.row();
            obj.add("engine", "monolithic")
                .add("n", n)
                .add("threads", threads)
                .add("wall_ms", ms)
                .add("udg_edges", mono_edges)
                .add("backbone_nodes", mono_backbone)
                .raw("stages", result.stats.json());
            sink.emit(obj);
        }

        // Sharded sweeps against those baselines.
        for (const std::size_t tiles : tile_counts) {
            for (const std::size_t threads : thread_counts) {
                shard::ShardOptions options;
                options.threads = threads;
                options.tiles = tiles;
                shard::TileShardedEngine eng(options);
                shard::ShardBuildResult result;
                const double ms = run_ms([&] { result = eng.build(points, 1.0); });

                // Output pinning: same UDG and backbone as the monolithic
                // build (the full edge-for-edge contract lives in
                // tests/test_shard.cpp; counts catch gross divergence
                // without holding two million-node graphs alive).
                if (result.udg.edge_count() != mono_edges ||
                    result.backbone.backbone_size() != mono_backbone) {
                    std::cerr << "FATAL: sharded output diverged at n=" << n
                              << " tiles=" << tiles << " threads=" << threads << '\n';
                    return 1;
                }

                const double same_t = mono_ms[threads] > 0.0 && ms > 0.0
                                          ? mono_ms[threads] / ms
                                          : 0.0;
                const double vs_1t =
                    mono_ms[thread_counts.front()] > 0.0 && ms > 0.0
                        ? mono_ms[thread_counts.front()] / ms
                        : 0.0;
                bench::MaxAvg shard_wall;
                for (const shard::ShardStats& s : result.shards) {
                    shard_wall.add(s.stats.total_ms());
                }

                table.begin_row()
                    .cell(n)
                    .cell("shard")
                    .cell(tiles)
                    .cell(threads)
                    .cell(ms, 1)
                    .cell(same_t, 2)
                    .cell(result.udg.edge_count())
                    .cell(result.backbone.backbone_size());
                auto obj = sink.row();
                obj.add("engine", "sharded")
                    .add("n", n)
                    .add("tiles", tiles)
                    .add("threads", threads)
                    .add("halo_hops", options.halo_hops)
                    .add("wall_ms", ms)
                    .add("speedup_vs_mono_same_threads", same_t)
                    .add("speedup_vs_mono_1t", vs_1t)
                    .add("udg_edges", result.udg.edge_count())
                    .add("backbone_nodes", result.backbone.backbone_size())
                    .add("shards_built", result.shards.size())
                    .add("shard_wall_ms_max", shard_wall.max)
                    .add("shard_wall_ms_avg", shard_wall.avg())
                    .raw("stages", result.stats.json());
                sink.emit(obj);
            }
        }
    }
    std::cout << table.str();
    io::maybe_write_csv("shard_scaling", table);
    std::cout << "\nJSON trajectory appended to " << sink.path() << '\n';
    return 0;
}
