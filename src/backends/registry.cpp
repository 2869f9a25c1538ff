#include "backends/backend.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "backends/baswana_sen.h"
#include "backends/biniaz.h"
#include "backends/engine_backend.h"
#include "backends/kanj_perkovic.h"
#include "core/input.h"
#include "proximity/udg.h"

namespace geospanner::backends {

BackendResult SpannerBackend::build_points(std::vector<geom::Point> points,
                                           double radius) {
    core::validate_input(points, radius);
    const auto start = std::chrono::steady_clock::now();
    const auto udg = proximity::build_udg(std::move(points), radius);
    const double udg_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    BackendResult result = build(udg, radius);
    core::StageStats udg_stage;
    udg_stage.name = "udg";
    udg_stage.wall_ms = udg_ms;
    udg_stage.items = udg.node_count();
    result.stats.stages.insert(result.stats.stages.begin(), std::move(udg_stage));
    return result;
}

namespace {

struct Registry {
    std::mutex mutex;
    std::map<std::string, BackendFactory> factories;
};

/// The registry is seeded with the built-in backends on first access, so
/// static-library link order can never drop a registration.
Registry& registry() {
    static Registry& instance = []() -> Registry& {
        static Registry r;
        r.factories["engine"] = [](const BackendOptions& o) {
            return std::make_unique<EngineBackend>(o);
        };
        r.factories["biniaz"] = [](const BackendOptions& o) {
            return std::make_unique<BiniazBackend>(o);
        };
        r.factories["kanj_perkovic"] = [](const BackendOptions& o) {
            return std::make_unique<KanjPerkovicBackend>(o);
        };
        r.factories["baswana_sen"] = [](const BackendOptions& o) {
            return std::make_unique<BaswanaSenBackend>(o);
        };
        return r;
    }();
    return instance;
}

}  // namespace

bool register_backend(const std::string& name, BackendFactory factory) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    return r.factories.emplace(name, std::move(factory)).second;
}

std::unique_ptr<SpannerBackend> make_backend(const std::string& name,
                                             const BackendOptions& options) {
    Registry& r = registry();
    BackendFactory factory;
    {
        const std::lock_guard<std::mutex> lock(r.mutex);
        const auto it = r.factories.find(name);
        if (it == r.factories.end()) return nullptr;
        factory = it->second;
    }
    return factory(options);
}

std::vector<std::string> registered_backends() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto& [name, factory] : r.factories) names.push_back(name);
    return names;  // std::map iterates sorted.
}

}  // namespace geospanner::backends
