// Seeded property-fuzz harness: sweeps the five generator modes
// (uniform, clustered, grid-perturbed, collinear, cocircular) through
// the full engine pipeline under verify:: audit, deterministically per
// seed. On a certificate violation the point set is greedily shrunk to
// a minimal failing instance and dumped as JSON + SVG repro artifacts
// (seed in the filename) that replay to the same failure.
//
// The sweep is bounded by default (fuzz-smoke, a few seconds);
// GS_FUZZ_SEEDS widens the seed set for the CI fuzz-smoke job or longer
// local sessions. The update-schedule fuzz extends the harness to the
// dynamic path: randomized batch splits of one logical move schedule
// must all converge to the same topology, with diverging schedules
// ddmin-shrunk to a minimal move list. The chaos fuzz does the same for
// full fault schedules (crashes, outages, joins, leaves, churn): every
// seeded schedule must replay through fault::SelfHealer to the
// from-scratch topology, and a diverging schedule is ddmin-shrunk over
// its event list (stale-event skipping keeps every subsequence
// applicable) and dumped as a replayable JSON schedule artifact.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/workload.h"
#include "dynamic/spanner.h"
#include "dynamic_test_util.h"
#include "engine/engine.h"
#include "fault/chaos.h"
#include "fault/healer.h"
#include "graph/planarity.h"
#include "io/serialize.h"
#include "proximity/udg.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner {
namespace {

using graph::GeometricGraph;
using graph::NodeId;
using test::FuzzMode;

core::WorkloadConfig fuzz_config(std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = 60;
    config.side = 200.0;
    config.radius = 55.0;
    config.seed = seed;
    return config;
}

/// Seed set of the sweep: 4 by default, GS_FUZZ_SEEDS (count) widens it.
/// Seeds are derived by a splitmix64 chain so the set is deterministic
/// at every length.
std::vector<std::uint64_t> sweep_seeds() {
    std::size_t count = 4;
    if (const char* env = std::getenv("GS_FUZZ_SEEDS")) {
        const auto v = std::strtoul(env, nullptr, 10);
        if (v > 0) count = v;
    }
    std::vector<std::uint64_t> seeds;
    seeds.reserve(count);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < count; ++i) seeds.push_back(rnd::splitmix64(state));
    return seeds;
}

/// Runs the audited engine pipeline over `points`; returns the first
/// failing report, or nullopt when every certificate holds.
std::optional<verify::AuditReport> first_audit_failure(
    const std::vector<geom::Point>& points, double radius) {
    engine::EngineOptions options;
    options.threads = 2;
    options.audit = true;
    options.audit_options.radius = radius;
    engine::SpannerEngine engine(options);
    const engine::BuildResult result = engine.build(points, radius);
    const verify::AuditReport* failure = result.audit.first_failure();
    if (failure == nullptr) return std::nullopt;
    return *failure;
}

/// Shrinks a failing instance (failure = `check` keeps failing) and
/// dumps the JSON+SVG repro pair. Returns the JSON artifact path.
std::string shrink_and_dump(FuzzMode mode, std::uint64_t seed, double radius,
                            std::vector<geom::Point> points,
                            const std::string& check) {
    const auto still_fails = [&](const std::vector<geom::Point>& pts) {
        const auto failure = first_audit_failure(pts, radius);
        return failure.has_value() && failure->check == check;
    };
    io::ReproCase repro;
    repro.seed = seed;
    repro.mode = test::fuzz_mode_name(mode);
    repro.radius = radius;
    repro.failed_check = check;
    repro.points = test::shrink_points(std::move(points), still_fails);
    return test::dump_repro(repro);
}

TEST(FuzzSpanner, SeededSweepAllModesHoldCertificates) {
    for (const FuzzMode mode : test::all_fuzz_modes()) {
        for (const std::uint64_t seed : sweep_seeds()) {
            const auto config = fuzz_config(seed);
            const auto points = test::fuzz_points(mode, config);
            const auto failure = first_audit_failure(points, config.radius);
            if (failure.has_value()) {
                const std::string artifact = shrink_and_dump(
                    mode, seed, config.radius, points, failure->check);
                ADD_FAILURE() << "mode=" << test::fuzz_mode_name(mode)
                              << " seed=" << seed << ": " << failure->summary()
                              << "\n  shrunk repro: " << artifact;
            }
        }
    }
}

TEST(FuzzSpanner, DeterministicPerSeed) {
    // Same (mode, seed) → identical points, UDG, and audit trail; the
    // whole harness is replayable from the seed alone.
    for (const FuzzMode mode : test::all_fuzz_modes()) {
        const auto config = fuzz_config(29);
        const auto a = test::fuzz_points(mode, config);
        const auto b = test::fuzz_points(mode, config);
        ASSERT_EQ(a, b) << test::fuzz_mode_name(mode);

        engine::EngineOptions options;
        options.threads = 2;
        options.audit = true;
        options.audit_options.radius = config.radius;
        engine::SpannerEngine engine(options);
        const auto r1 = engine.build(a, config.radius);
        const auto r2 = engine.build(b, config.radius);
        EXPECT_EQ(r1.udg, r2.udg) << test::fuzz_mode_name(mode);
        EXPECT_EQ(r1.audit.summary(), r2.audit.summary())
            << test::fuzz_mode_name(mode);
    }
}

/// The deliberately-broken-topology predicate: build the backbone, then
/// inject one extra LDel edge between the farthest pair of backbone
/// nodes. On spread-out instances that edge crosses the planarized
/// mesh, so check_planarity_certificate must fail with the crossing as
/// witness. Defined over a raw point set so the shrinker can call it.
struct InjectionResult {
    verify::AuditReport report;
    std::pair<NodeId, NodeId> injected{graph::kInvalidNode, graph::kInvalidNode};
};

std::optional<InjectionResult> inject_and_audit(const std::vector<geom::Point>& points,
                                                double radius) {
    const GeometricGraph udg = proximity::build_udg(points, radius);
    core::Backbone bb = core::build_backbone(udg, {core::Engine::kCentralized});
    NodeId best_u = graph::kInvalidNode;
    NodeId best_v = graph::kInvalidNode;
    double best = -1.0;
    for (NodeId u = 0; u < udg.node_count(); ++u) {
        if (!bb.in_backbone[u]) continue;
        for (NodeId v = u + 1; v < udg.node_count(); ++v) {
            if (!bb.in_backbone[v] || bb.ldel_icds.has_edge(u, v)) continue;
            const double d = geom::distance(udg.point(u), udg.point(v));
            if (d > best) {
                best = d;
                best_u = u;
                best_v = v;
            }
        }
    }
    if (best_u == graph::kInvalidNode) return std::nullopt;
    bb.ldel_icds.add_edge(best_u, best_v);
    InjectionResult result;
    result.injected = {best_u, best_v};
    result.report = verify::check_planarity_certificate(bb.ldel_icds);
    return result;
}

TEST(FuzzSpanner, InjectedCrossingProducesFailingCertificateWithWitness) {
    const auto udg = test::connected_udg(60, 200.0, 55.0, 53);
    ASSERT_GT(udg.node_count(), 0u);
    const auto injected = inject_and_audit(udg.points(), 55.0);
    ASSERT_TRUE(injected.has_value());
    ASSERT_FALSE(injected->report.pass) << injected->report.summary();
    ASSERT_FALSE(injected->report.witnesses.empty());
    // The witness names the injected edge as one side of a concrete
    // crossing pair.
    bool names_injection = false;
    for (const auto& w : injected->report.witnesses) {
        for (const auto& e : w.edges) {
            if (e == injected->injected) names_injection = true;
        }
    }
    EXPECT_TRUE(names_injection) << injected->report.summary();
}

TEST(FuzzSpanner, ShrunkReproReplaysToSameFailure) {
    // End-to-end repro flow on the injected failure: shrink the point
    // set to a minimal instance where the injection still breaks
    // planarity, dump JSON+SVG, reload the JSON, and replay it to the
    // same failing certificate.
    const std::uint64_t seed = 53;
    const double radius = 55.0;
    const auto udg = test::connected_udg(60, 200.0, radius, seed);
    ASSERT_GT(udg.node_count(), 0u);

    const auto fails = [&](const std::vector<geom::Point>& pts) {
        const auto injected = inject_and_audit(pts, radius);
        return injected.has_value() && !injected->report.pass;
    };
    ASSERT_TRUE(fails(udg.points())) << "injection did not break planarity";

    io::ReproCase repro;
    repro.seed = seed;
    repro.mode = "injected-crossing";
    repro.radius = radius;
    repro.failed_check = "planarity_certificate";
    repro.points = test::shrink_points(udg.points(), fails);
    EXPECT_LT(repro.points.size(), udg.node_count());
    // 1-minimal: removing any single remaining point repairs the failure.
    for (std::size_t i = 0; i < repro.points.size(); ++i) {
        auto fewer = repro.points;
        fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_FALSE(fails(fewer)) << "shrink left a removable point " << i;
    }

    const std::string json_path = test::dump_repro(repro);
    ASSERT_FALSE(json_path.empty());

    const auto loaded = io::load_repro(json_path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->points, repro.points);  // Max-precision round-trip.
    EXPECT_EQ(loaded->failed_check, "planarity_certificate");
    const auto replay = inject_and_audit(loaded->points, loaded->radius);
    ASSERT_TRUE(replay.has_value());
    EXPECT_FALSE(replay->report.pass) << "repro did not replay to the failure";
}

// ---- Update-schedule convergence fuzz ---------------------------------

/// One logical mobility step: node (always < the initial node count, so
/// any schedule subset stays valid) and its absolute destination.
/// Absolute destinations make the final position a pure last-write-wins
/// function of the schedule order, independent of how it is batched.
struct ScheduledMove {
    NodeId node;
    geom::Point to;
};

std::vector<ScheduledMove> make_schedule(const std::vector<geom::Point>& initial,
                                         double radius, std::uint64_t seed,
                                         std::size_t count) {
    rnd::Xoshiro256 rng(seed);
    std::vector<ScheduledMove> moves;
    moves.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto v = static_cast<NodeId>(rng.below(initial.size()));
        moves.push_back({v,
                         {initial[v].x + rng.uniform(-radius, radius),
                          initial[v].y + rng.uniform(-radius, radius)}});
    }
    return moves;
}

/// Random interleaving of a schedule that preserves each node's
/// relative move order, so last-write-wins final positions are
/// unchanged — any such reordering must converge to the same topology.
std::vector<ScheduledMove> interleave_schedule(const std::vector<ScheduledMove>& schedule,
                                               std::uint64_t seed) {
    std::vector<std::vector<ScheduledMove>> queues;
    std::vector<std::size_t> heads;
    for (const auto& mv : schedule) {
        std::size_t q = 0;
        while (q < queues.size() && queues[q].front().node != mv.node) ++q;
        if (q == queues.size()) {
            queues.emplace_back();
            heads.push_back(0);
        }
        queues[q].push_back(mv);
    }
    rnd::Xoshiro256 rng(seed);
    std::vector<ScheduledMove> out;
    out.reserve(schedule.size());
    std::vector<std::size_t> live;
    for (std::size_t q = 0; q < queues.size(); ++q) live.push_back(q);
    while (!live.empty()) {
        const std::size_t pick = rng.below(live.size());
        const std::size_t q = live[pick];
        out.push_back(queues[q][heads[q]++]);
        if (heads[q] == queues[q].size()) {
            live[pick] = live.back();
            live.pop_back();
        }
    }
    return out;
}

/// Contiguous batch splits of a `len`-move schedule (batch sizes summing
/// to len): singletons, one monolithic batch, and two random batchings.
/// Deterministic in (len, seed).
std::vector<std::vector<std::size_t>> make_splits(std::size_t len, std::uint64_t seed) {
    std::vector<std::vector<std::size_t>> splits;
    splits.push_back(std::vector<std::size_t>(len, 1));
    if (len > 1) splits.push_back({len});
    rnd::Xoshiro256 rng(seed * 48271 + len);
    for (int k = 0; k < 2; ++k) {
        std::vector<std::size_t> sizes;
        std::size_t placed = 0;
        while (placed < len) {
            const std::size_t s = std::min<std::size_t>(1 + rng.below(5), len - placed);
            sizes.push_back(s);
            placed += s;
        }
        splits.push_back(std::move(sizes));
    }
    return splits;
}

/// Replays `schedule` through the incremental patcher in batches of the
/// given sizes; returns the first structure diverging from a
/// from-scratch build on the final positions ("" = converged).
std::string schedule_divergence(const std::vector<geom::Point>& initial, double radius,
                                const std::vector<ScheduledMove>& schedule,
                                const std::vector<std::size_t>& split) {
    engine::SpannerEngine engine(test::dynamic_engine_options());
    dynamic::DynamicSpanner dyn(engine, initial, radius);
    std::size_t next = 0;
    for (const std::size_t size : split) {
        dynamic::UpdateBatch batch;
        for (std::size_t i = 0; i < size && next < schedule.size(); ++i, ++next) {
            batch.moves.push_back({schedule[next].node, schedule[next].to});
        }
        dyn.apply(batch);
    }
    return test::divergence(dyn);
}

TEST(FuzzSpanner, UpdateScheduleBatchSplitsConverge) {
    // The batching and interleaving of a move schedule are
    // implementation details: every contiguous split, and every
    // reordering preserving per-node move order, must land on the
    // identical topology. A diverging schedule is ddmin-shrunk (over
    // moves, schedule variants regenerated per candidate length) to a
    // minimal repro.
    const double radius = 55.0;
    // Schedule variants replayed for one move list: (reordered
    // schedule, batch sizes). Deterministic in (moves, seed).
    const auto variants = [](const std::vector<ScheduledMove>& moves,
                             std::uint64_t seed) {
        std::vector<std::pair<std::vector<ScheduledMove>, std::vector<std::size_t>>>
            out;
        for (const auto& split : make_splits(moves.size(), seed)) {
            out.emplace_back(moves, split);
        }
        for (const std::uint64_t shuffle : {1ULL, 2ULL}) {
            out.emplace_back(interleave_schedule(moves, seed * 31 + shuffle),
                             std::vector<std::size_t>(moves.size(), 1));
        }
        return out;
    };
    for (const std::uint64_t seed : {3ULL, 17ULL}) {
        const auto udg = test::connected_udg(50, 200.0, radius, seed);
        ASSERT_GT(udg.node_count(), 0u);
        const auto schedule = make_schedule(udg.points(), radius, seed * 101, 20);
        for (const auto& [moves, split] : variants(schedule, seed)) {
            const std::string d = schedule_divergence(udg.points(), radius, moves, split);
            if (d.empty()) continue;
            const auto fails = [&](const std::vector<ScheduledMove>& candidate) {
                for (const auto& [m, s] : variants(candidate, seed)) {
                    if (!schedule_divergence(udg.points(), radius, m, s).empty()) {
                        return true;
                    }
                }
                return false;
            };
            const auto shrunk = test::shrink_list(schedule, fails);
            std::string trace;
            for (const auto& mv : shrunk) {
                trace += "\n  move " + std::to_string(mv.node) + " -> (" +
                         std::to_string(mv.to.x) + ", " + std::to_string(mv.to.y) + ")";
            }
            ADD_FAILURE() << "schedule variants diverged (seed=" << seed << "): " << d
                          << "\nshrunk to " << shrunk.size() << " moves:" << trace;
            break;
        }
    }
}

// ---- Chaos-schedule fuzz ----------------------------------------------

/// Replays a slice of a chaos schedule's events through SelfHealer +
/// DynamicSpanner; "" when the healer mirror, the maintained positions,
/// and the from-scratch build all agree, otherwise the first diverging
/// structure. Works on any subsequence of the schedule's events — the
/// healer skips events staled by the omissions.
std::string chaos_divergence(const fault::ChaosSchedule& schedule,
                             const std::vector<fault::ChaosEvent>& events) {
    engine::SpannerEngine engine(test::dynamic_engine_options());
    dynamic::DynamicSpanner dyn(engine, schedule.initial, schedule.radius);
    fault::SelfHealer healer(schedule);
    for (const auto& translated : healer.translate(events)) {
        dyn.apply(translated.batch);
    }
    if (dyn.positions() != healer.world().points) return "healer-mirror";
    return test::divergence(dyn);
}

TEST(FuzzSpanner, ChaosSchedulesConvergeWithShrinkableRepros) {
    // Every seeded fault schedule — crashes (graveyard moves through
    // the repair path), regional outages, join/leave churn, mobility —
    // must leave the incremental patcher on the exact topology a
    // from-scratch build produces. A divergence is ddmin-shrunk over
    // the event list to a minimal failing schedule and saved as a
    // standalone JSON repro.
    const double radius = 55.0;
    fault::ChaosConfig config;
    config.steps = 15;
    config.move_rate = 2.0;
    config.crash_rate = 0.5;
    config.join_rate = 0.5;
    config.leave_rate = 0.3;
    config.outage_rate = 0.1;
    config.side = 200.0;
    for (const std::uint64_t seed : sweep_seeds()) {
        const auto udg = test::connected_udg(50, 200.0, radius, seed);
        ASSERT_GT(udg.node_count(), 0u);
        const fault::ChaosSchedule schedule =
            fault::generate_chaos(udg.points(), radius, config, seed * 977 + 1);

        const std::string d = chaos_divergence(schedule, schedule.events);
        if (d.empty()) continue;

        const auto fails = [&](const std::vector<fault::ChaosEvent>& events) {
            return !chaos_divergence(schedule, events).empty();
        };
        fault::ChaosSchedule repro = schedule;
        repro.events = test::shrink_list(schedule.events, fails);
        const auto path = (test::fuzz_artifact_dir() /
                           ("chaos_fuzz_seed" + std::to_string(repro.seed) + ".json"))
                              .string();
        fault::save_schedule(path, repro);
        ADD_FAILURE() << "chaos schedule diverged (seed=" << repro.seed << "): " << d
                      << "\n  shrunk to " << repro.events.size() << " of "
                      << schedule.events.size() << " events; repro: " << path;
    }
}

TEST(FuzzSpanner, ChaosShrinkingPreservesTheFailure) {
    // The shrink machinery itself: plant a synthetic "failure" (any
    // subsequence still containing the first crash event) and check
    // ddmin reduces a whole schedule to exactly that event while every
    // intermediate candidate stayed applicable (no translate() throw /
    // mirror desync).
    const double radius = 55.0;
    const auto udg = test::connected_udg(40, 200.0, radius, 7);
    ASSERT_GT(udg.node_count(), 0u);
    fault::ChaosConfig config;
    config.steps = 10;
    config.crash_rate = 0.6;
    config.side = 200.0;
    const fault::ChaosSchedule schedule =
        fault::generate_chaos(udg.points(), radius, config, 91);

    const fault::ChaosEvent* first_crash = nullptr;
    for (const auto& e : schedule.events) {
        if (e.kind == fault::ChaosKind::kCrash) {
            first_crash = &e;
            break;
        }
    }
    ASSERT_NE(first_crash, nullptr);

    const auto fails = [&](const std::vector<fault::ChaosEvent>& events) {
        // Replay for the side effect of exercising translate() on the
        // subsequence; the mirror must stay in lockstep throughout.
        EXPECT_EQ(chaos_divergence(schedule, events), "");
        for (const auto& e : events) {
            if (e == *first_crash) return true;
        }
        return false;
    };
    const auto shrunk = test::shrink_list(schedule.events, fails);
    ASSERT_EQ(shrunk.size(), 1u);
    EXPECT_EQ(shrunk[0], *first_crash);
}

}  // namespace
}  // namespace geospanner
