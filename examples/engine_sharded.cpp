// Sharded-engine demo: build one large world with TileShardedEngine,
// rebuild it monolithically, and show the merge is edge-for-edge
// identical while the work was done per tile.
//
//   $ ./engine_sharded [n] [tiles] [threads]
//
// Prints the sharded pipeline's stage breakdown (partition → udg →
// clustering → shards → merge), the per-tile owned/region sizes and
// wall times, and the equality verdict against the monolithic build.
#include <cstdlib>
#include <iostream>

#include "core/backbone.h"
#include "core/workload.h"
#include "engine/engine.h"
#include "io/table.h"
#include "shard/tile_engine.h"

using namespace geospanner;

int main(int argc, char** argv) {
    const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20'000;
    const std::size_t tiles = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 16;
    const std::size_t threads = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 0;
    if (n == 0) {
        std::cerr << "usage: engine_sharded [n>0] [tiles] [threads]\n";
        return 1;
    }

    // Uniform deployment with expected UDG degree ~12 at unit radius.
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = std::sqrt(static_cast<double>(n) * 3.14159265358979 / 12.0);
    config.seed = 7;
    const auto points = core::uniform_points(config);
    const double radius = 1.0;

    shard::ShardOptions options;
    options.threads = threads;
    options.tiles = tiles;
    shard::TileShardedEngine sharded(options);
    std::cout << "sharded build: n=" << n << ", ~" << tiles << " tiles, "
              << sharded.thread_count() << " threads, halo " << options.halo_hops
              << " hops\n\n";
    const shard::ShardBuildResult result = sharded.build(points, radius);
    std::cout << result.stats.table() << '\n';

    io::Table per_tile({"tile", "owned", "region", "wall_ms"});
    for (const shard::ShardStats& s : result.shards) {
        per_tile.begin_row()
            .cell(s.tile)
            .cell(s.owned)
            .cell(s.region)
            .cell(s.stats.total_ms(), 1);
    }
    std::cout << per_tile.str() << '\n';

    engine::EngineOptions mono_options;
    mono_options.threads = threads;
    engine::SpannerEngine mono(mono_options);
    const engine::BuildResult reference = mono.build(points, radius);
    const bool identical =
        result.udg == reference.udg &&
        result.backbone.ldel_icds_prime == reference.backbone.ldel_icds_prime &&
        result.backbone.cds == reference.backbone.cds;
    std::cout << "udg edges: " << result.udg.edge_count()
              << ", backbone nodes: " << result.backbone.backbone_size()
              << ", LDel(ICDS') edges: " << result.backbone.ldel_icds_prime.edge_count()
              << '\n'
              << "matches monolithic build: " << (identical ? "yes" : "NO") << '\n';
    return identical ? 0 : 1;
}
