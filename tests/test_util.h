// Shared helpers for the test suite: deterministic instance generation,
// the (n, radius, seed) sweep parameters, and the property-fuzz harness
// support (generator modes, greedy shrinking, repro artifacts).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "geom/vec2.h"
#include "graph/geometric_graph.h"
#include "io/serialize.h"
#include "io/svg.h"
#include "proximity/udg.h"
#include "random/rng.h"

namespace geospanner::test {

/// n uniform points in [0, side]^2, deterministic in seed.
inline std::vector<geom::Point> random_points(std::size_t n, double side,
                                              std::uint64_t seed) {
    rnd::Xoshiro256 rng(seed);
    std::vector<geom::Point> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    return pts;
}

/// A connected UDG drawn from the standard workload generator. A
/// generation failure is loud: it records a non-fatal test failure
/// naming the exact config, and callers see an empty graph (their
/// ASSERT_GT(node_count, 0) then stops the test). Property sweeps can
/// never vacuously pass on an empty instance.
inline graph::GeometricGraph connected_udg(std::size_t n, double side, double radius,
                                           std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = side;
    config.radius = radius;
    config.seed = seed;
    auto udg = core::random_connected_udg(config);
    if (!udg) {
        ADD_FAILURE() << "connected-UDG generation exhausted its budget: n=" << n
                      << " side=" << side << " radius=" << radius << " seed=" << seed
                      << " max_attempts=" << config.max_attempts;
        return graph::GeometricGraph{};
    }
    return std::move(*udg);
}

/// Parameter tuple for the (n, radius, seed) sweeps used by the
/// property-style suites.
struct SweepParam {
    std::size_t n;
    double radius;
    std::uint64_t seed;
};

inline std::vector<SweepParam> standard_sweep() {
    std::vector<SweepParam> params;
    for (const std::size_t n : {20, 50, 90}) {
        for (const double r : {45.0, 70.0}) {
            for (const std::uint64_t seed : {11ULL, 29ULL, 53ULL}) {
                params.push_back({n, r, seed});
            }
        }
    }
    return params;
}

/// A named point set and its radius.
struct NamedWorld {
    std::string name;
    std::vector<geom::Point> points;
    double radius;
};

/// Worlds full of exact cocircular ties, the inputs where the local
/// Delaunay stars' SoS tie rule decides: the six cocircular-ring
/// instances of Degenerate.CocircularRingsAuditClean (n = 48, side 200,
/// R = 55, seeds 11/29/53, 2 and 4 rings) and the 10x10 zero-jitter
/// lattices with spacing 0.3, 0.5 and 0.7 at R = 1.
inline std::vector<NamedWorld> tie_worlds() {
    std::vector<NamedWorld> worlds;
    core::WorkloadConfig config;
    config.node_count = 48;
    config.side = 200.0;
    config.radius = 55.0;
    for (const std::uint64_t seed : {11ULL, 29ULL, 53ULL}) {
        config.seed = seed;
        for (const std::size_t circles : {2UL, 4UL}) {
            worlds.push_back({"cocircular seed=" + std::to_string(seed) +
                                  " circles=" + std::to_string(circles),
                              core::cocircular_points(config, circles), config.radius});
        }
    }
    for (const double h : {0.3, 0.5, 0.7}) {
        std::vector<geom::Point> pts;
        for (int i = 0; i < 10; ++i) {
            for (int j = 0; j < 10; ++j) pts.push_back({h * i, h * j});
        }
        worlds.push_back({"lattice h=" + std::to_string(h), std::move(pts), 1.0});
    }
    return worlds;
}

// ---- Property-fuzz harness -------------------------------------------

/// The five generator modes the fuzz driver sweeps. The last two are the
/// degenerate-geometry modes (exact collinear rows, exact cocircular
/// rings) that uniform workloads never produce.
enum class FuzzMode {
    kUniform,
    kClustered,
    kGrid,
    kCollinear,
    kCocircular,
};

inline const char* fuzz_mode_name(FuzzMode mode) {
    switch (mode) {
        case FuzzMode::kUniform: return "uniform";
        case FuzzMode::kClustered: return "clustered";
        case FuzzMode::kGrid: return "grid";
        case FuzzMode::kCollinear: return "collinear";
        case FuzzMode::kCocircular: return "cocircular";
    }
    return "unknown";
}

inline std::vector<FuzzMode> all_fuzz_modes() {
    return {FuzzMode::kUniform, FuzzMode::kClustered, FuzzMode::kGrid,
            FuzzMode::kCollinear, FuzzMode::kCocircular};
}

/// Deterministic point set for (mode, config): same inputs, same points.
inline std::vector<geom::Point> fuzz_points(FuzzMode mode,
                                            const core::WorkloadConfig& config) {
    switch (mode) {
        case FuzzMode::kUniform: return core::uniform_points(config);
        case FuzzMode::kClustered: return core::clustered_points(config, 4);
        case FuzzMode::kGrid: return core::grid_points(config, 0.15);
        case FuzzMode::kCollinear: return core::collinear_points(config, 3);
        case FuzzMode::kCocircular: return core::cocircular_points(config, 4);
    }
    return {};
}

/// Greedily shrinks `items` to a minimal list still satisfying
/// `fails(items)` (ddmin-style: drop halves, then smaller chunks, then
/// single items, until nothing more can go). `fails(items)` must hold on
/// entry; the result still fails and removing any single item from it
/// makes the failure disappear. Works on any element type — point sets,
/// update schedules, batch traces.
template <typename T, typename Pred>
std::vector<T> shrink_list(std::vector<T> items, Pred&& fails) {
    std::size_t chunk = std::max<std::size_t>(1, items.size() / 2);
    while (true) {
        bool removed = false;
        for (std::size_t start = 0; start + chunk <= items.size();) {
            std::vector<T> candidate;
            candidate.reserve(items.size() - chunk);
            candidate.insert(candidate.end(), items.begin(),
                             items.begin() + static_cast<std::ptrdiff_t>(start));
            candidate.insert(candidate.end(),
                             items.begin() + static_cast<std::ptrdiff_t>(start + chunk),
                             items.end());
            if (fails(candidate)) {
                items = std::move(candidate);
                removed = true;
            } else {
                start += chunk;
            }
        }
        if (removed) continue;  // Retry the same granularity after progress.
        if (chunk == 1) break;
        chunk = std::max<std::size_t>(1, chunk / 2);
    }
    return items;
}

/// shrink_list specialized to the point sets the generator modes emit.
template <typename Pred>
std::vector<geom::Point> shrink_points(std::vector<geom::Point> pts, Pred&& fails) {
    return shrink_list(std::move(pts), std::forward<Pred>(fails));
}

/// Where repro artifacts land: $GS_FUZZ_ARTIFACT_DIR or ./fuzz_repros.
inline std::filesystem::path fuzz_artifact_dir() {
    const char* env = std::getenv("GS_FUZZ_ARTIFACT_DIR");
    std::filesystem::path dir = env != nullptr ? env : "fuzz_repros";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

/// Writes the JSON (+ SVG rendering of the UDG) repro artifacts for a
/// shrunk failing instance; the seed is in the filename. Returns the
/// JSON path ("" if the write failed).
inline std::string dump_repro(const io::ReproCase& repro) {
    const auto dir = fuzz_artifact_dir();
    const std::string base =
        "repro_" + repro.mode + "_seed" + std::to_string(repro.seed);
    const auto json_path = (dir / (base + ".json")).string();
    if (!io::save_repro(json_path, repro)) return {};
    io::SvgStyle style;
    style.title = base + " (" + repro.failed_check + ")";
    io::write_svg((dir / (base + ".svg")).string(),
                  proximity::build_udg(repro.points, repro.radius), {}, style);
    return json_path;
}

}  // namespace geospanner::test
