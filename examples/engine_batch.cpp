// Engine demo: build a whole batch of backbone instances on a thread
// pool, then rebuild one of them sequentially to show the engine's
// determinism contract in action.
//
//   $ ./engine_batch [instances] [n] [threads]
//
// The batch API generates each workload and runs the full UDG ->
// clustering -> connectors -> ICDS -> LDel pipeline per instance, with
// instances claimed by pool lanes; per-instance results are identical to
// what a standalone sequential build produces, whatever the thread count.
#include <cstdlib>
#include <iostream>

#include "core/backbone.h"
#include "core/workload.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "io/table.h"

using namespace geospanner;

int main(int argc, char** argv) {
    const std::size_t instances = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6;
    const std::size_t n = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 400;
    const std::size_t threads = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 0;
    if (instances == 0 || n == 0) {
        std::cerr << "usage: engine_batch [instances>0] [n>0] [threads]\n";
        return 1;
    }

    engine::EngineOptions options;
    options.threads = threads;
    engine::SpannerEngine eng(options);
    std::cout << "engine batch: " << instances << " instances of n=" << n << " on "
              << eng.thread_count() << " threads\n\n";

    std::vector<core::WorkloadConfig> configs(instances);
    for (std::size_t i = 0; i < instances; ++i) {
        configs[i].node_count = n;
        configs[i].side = 250.0;
        configs[i].radius = 60.0;
        configs[i].seed = 1000 + i;
    }

    const auto results = engine::build_batch(eng, configs);

    io::Table table({"seed", "udg_edges", "backbone", "ldel_edges", "total_ms"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        if (!r.udg) {
            std::cout << "seed " << configs[i].seed << ": no connected instance\n";
            continue;
        }
        table.begin_row()
            .cell(configs[i].seed)
            .cell(r.udg->edge_count())
            .cell(r.backbone.backbone_size())
            .cell(r.backbone.ldel_icds.edge_count())
            .cell(r.stats.total_ms(), 1);
    }
    std::cout << table.str() << '\n';

    // Determinism check: the first instance, rebuilt without the engine.
    if (!results.empty() && results.front().udg) {
        const auto udg = core::random_connected_udg(configs.front());
        const auto sequential = core::build_backbone(*udg, {core::Engine::kCentralized});
        const bool same =
            sequential.ldel_icds == results.front().backbone.ldel_icds &&
            sequential.cds == results.front().backbone.cds;
        std::cout << "parallel batch result == sequential rebuild: "
                  << (same ? "yes" : "NO (bug!)") << "\n\n";
    }

    // Per-stage profile of one instance built directly.
    const auto points = core::uniform_points(configs.front());
    const auto result = eng.build(points, configs.front().radius);
    std::cout << "stage profile (n=" << n << ", threads=" << eng.thread_count()
              << "):\n"
              << result.stats.table();
    return 0;
}
