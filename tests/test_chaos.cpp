// Fault-injection subsystem: seeded chaos schedules, self-healing
// replay, quasi-UDG degradation, degraded-mode guarantee certificates,
// and the hardened service's quarantine/watchdog/rollback paths.
//
// The soak tests honor GS_CHAOS_STEPS (nightly runs crank it up); a
// failing soak dumps its schedule JSON into test::fuzz_artifact_dir()
// so the exact run ships as a standalone repro.
#include "fault/chaos.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dynamic_test_util.h"
#include "fault/healer.h"
#include "fault/quasi_udg.h"
#include "proximity/udg.h"
#include "service/service.h"
#include "test_util.h"
#include "verify/audit.h"
#include "verify/degraded.h"

namespace geospanner::fault {
namespace {

using graph::NodeId;

constexpr double kRadius = 55.0;
constexpr double kSide = 220.0;

std::size_t chaos_steps(std::size_t fallback) {
    const char* env = std::getenv("GS_CHAOS_STEPS");
    if (env == nullptr) return fallback;
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

ChaosConfig soak_config(std::size_t steps) {
    ChaosConfig config;
    config.steps = steps;
    config.move_rate = 2.0;
    config.crash_rate = 0.4;
    config.join_rate = 0.4;
    config.leave_rate = 0.2;
    config.outage_rate = 0.05;
    config.side = kSide;
    return config;
}

/// Saves the schedule as a repro artifact and returns the path.
std::string dump_schedule(const ChaosSchedule& schedule, const std::string& tag) {
    const auto path = (test::fuzz_artifact_dir() /
                       ("chaos_" + tag + "_seed" + std::to_string(schedule.seed) +
                        ".json"))
                          .string();
    save_schedule(path, schedule);
    return path;
}

// ---------------------------------------------------------------------------
// WorldMirror semantics
// ---------------------------------------------------------------------------

TEST(WorldMirror, CrashParksInGraveyardAndKeepsIdsStable) {
    WorldMirror world({{0, 0}, {10, 0}, {20, 0}}, kRadius, kSide);
    ChaosEvent crash;
    crash.kind = ChaosKind::kCrash;
    crash.node = 1;
    ASSERT_TRUE(world.applicable(crash));
    world.apply(crash);
    EXPECT_EQ(world.dead[1], 1);
    EXPECT_EQ(world.points.size(), 3u);  // Id not recycled.
    EXPECT_EQ(world.points[1], world.graveyard_slot(0));
    EXPECT_EQ(world.crashed_total, 1u);
    EXPECT_EQ(world.live_count(), 2u);
    // A crashed node is out of every in-world transmission range, and
    // successive slots are mutually isolated too.
    EXPECT_GT(world.points[1].x, kSide + 9.0 * kRadius);
    EXPECT_GE(geom::distance(world.graveyard_slot(0), world.graveyard_slot(1)),
              3.0 * kRadius);
    // Stale: crashing (or moving) the corpse again is skippable.
    EXPECT_FALSE(world.applicable(crash));
    ChaosEvent move;
    move.kind = ChaosKind::kMove;
    move.node = 1;
    EXPECT_FALSE(world.applicable(move));
}

TEST(WorldMirror, LeaveSwapRemovesAndOutageCrashesTheDisk) {
    WorldMirror world({{0, 0}, {10, 0}, {20, 0}, {30, 0}}, kRadius, kSide);
    ChaosEvent leave;
    leave.kind = ChaosKind::kLeave;
    leave.node = 1;
    world.apply(leave);
    ASSERT_EQ(world.points.size(), 3u);
    EXPECT_EQ(world.points[1], (geom::Point{30, 0}));  // Last node took id 1.

    ChaosEvent outage;
    outage.kind = ChaosKind::kOutage;
    outage.pos = {0, 0};
    outage.range = 25.0;  // Hits ids 0 and 2 ({0,0} and {20,0}).
    const auto victims = world.outage_victims(outage.pos, outage.range);
    EXPECT_EQ(victims, (std::vector<NodeId>{0, 2}));
    world.apply(outage);
    EXPECT_EQ(world.dead[0], 1);
    EXPECT_EQ(world.dead[2], 1);
    EXPECT_EQ(world.points[0], world.graveyard_slot(0));
    EXPECT_EQ(world.points[2], world.graveyard_slot(1));
    EXPECT_EQ(world.live_count(), 1u);
}

// ---------------------------------------------------------------------------
// Schedule generation + JSON artifacts
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, GenerationIsDeterministicAndReplayable) {
    const auto initial = test::connected_udg(50, kSide, kRadius, 11).points();
    const auto config = soak_config(30);
    const ChaosSchedule a = generate_chaos(initial, kRadius, config, 42);
    const ChaosSchedule b = generate_chaos(initial, kRadius, config, 42);
    EXPECT_EQ(a.events, b.events);
    EXPECT_FALSE(a.events.empty());

    const ChaosSchedule c = generate_chaos(initial, kRadius, config, 43);
    EXPECT_NE(a.events, c.events);  // The seed matters.

    // Every event is applicable at its point in the stream, steps are
    // nondecreasing, and the mix contains real faults.
    WorldMirror world(a.initial, a.radius, a.config.side);
    std::size_t crashes = 0;
    std::size_t prev_step = 0;
    for (const ChaosEvent& e : a.events) {
        EXPECT_GE(e.step, prev_step);
        prev_step = e.step;
        ASSERT_TRUE(world.applicable(e));
        if (e.kind == ChaosKind::kCrash || e.kind == ChaosKind::kOutage) ++crashes;
        world.apply(e);
    }
    EXPECT_GT(crashes, 0u);
}

TEST(ChaosSchedule, JsonRoundTripIsExact) {
    const auto initial = test::connected_udg(30, kSide, kRadius, 5).points();
    auto config = soak_config(12);
    config.outage_rate = 0.3;  // Make sure outage events round-trip too.
    const ChaosSchedule schedule = generate_chaos(initial, kRadius, config, 77);

    const auto parsed = schedule_from_json(to_json(schedule));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->seed, schedule.seed);
    EXPECT_EQ(parsed->radius, schedule.radius);
    EXPECT_EQ(parsed->initial, schedule.initial);
    EXPECT_EQ(parsed->events, schedule.events);
    EXPECT_EQ(parsed->config.steps, schedule.config.steps);
    EXPECT_EQ(parsed->config.side, schedule.config.side);

    const auto path =
        (std::filesystem::temp_directory_path() / "gs_chaos_roundtrip.json").string();
    ASSERT_TRUE(save_schedule(path, schedule));
    const auto loaded = load_schedule(path);
    std::filesystem::remove(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->events, schedule.events);
    EXPECT_EQ(loaded->initial, schedule.initial);

    EXPECT_FALSE(schedule_from_json("{not json").has_value());
    EXPECT_FALSE(load_schedule("/nonexistent/nowhere.json").has_value());
}

// ---------------------------------------------------------------------------
// SelfHealer translation
// ---------------------------------------------------------------------------

TEST(SelfHealer, PacksByClassAndKeepsCrashBatchesPure) {
    const std::vector<geom::Point> initial{{0, 0}, {10, 0}, {20, 0}, {30, 0}};
    SelfHealer healer(initial, kRadius, kSide);

    ChaosEvent move0{0, ChaosKind::kMove, 0, {1, 1}, 0.0};
    ChaosEvent join{0, ChaosKind::kJoin, 0, {40, 0}, 0.0};
    ChaosEvent crash1{1, ChaosKind::kCrash, 1, {}, 0.0};
    ChaosEvent stale_move1{1, ChaosKind::kMove, 1, {9, 9}, 0.0};  // Dead target.
    ChaosEvent move2{2, ChaosKind::kMove, 2, {21, 1}, 0.0};
    ChaosEvent leave3{2, ChaosKind::kLeave, 3, {}, 0.0};

    const auto batches =
        healer.translate({move0, join, crash1, stale_move1, move2, leave3});
    ASSERT_EQ(batches.size(), 4u);

    EXPECT_EQ(batches[0].churn_moves, 1u);  // move0 + join pack together.
    EXPECT_EQ(batches[0].joins, 1u);
    EXPECT_FALSE(batches[0].repair());

    EXPECT_TRUE(batches[1].repair());  // The crash rides alone.
    EXPECT_EQ(batches[1].crash_count, 1u);
    EXPECT_EQ(batches[1].batch.moves.size(), 1u);
    EXPECT_EQ(batches[1].batch.moves[0].node, 1u);
    EXPECT_EQ(batches[1].batch.moves[0].to, healer.world().graveyard_slot(0));
    EXPECT_TRUE(batches[1].batch.joins.empty());
    EXPECT_TRUE(batches[1].batch.leaves.empty());

    EXPECT_EQ(batches[2].churn_moves, 1u);
    EXPECT_EQ(batches[3].leaves, 1u);
    EXPECT_EQ(healer.stale_skipped(), 1u);  // The move on the corpse.
    EXPECT_EQ(healer.dead_count(), 1u);
}

TEST(SelfHealer, ReplayConvergesToFromScratchBuildAndCompacts) {
    const auto initial = test::connected_udg(45, kSide, kRadius, 23).points();
    const ChaosSchedule schedule =
        generate_chaos(initial, kRadius, soak_config(chaos_steps(25)), 97);

    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    dynamic::DynamicSpanner dyn(engine, schedule.initial, kRadius);
    SelfHealer healer(schedule);

    for (const auto& translated : healer.translate(schedule.events)) {
        dyn.apply(translated.batch);
    }
    // Healer mirror and maintained spanner agree position-for-position,
    // and the patched state equals a from-scratch build.
    ASSERT_EQ(dyn.positions(), healer.world().points);
    std::string divergence = test::divergence(dyn);
    if (!divergence.empty()) {
        ADD_FAILURE() << "post-chaos divergence: " << divergence << "; repro at "
                      << dump_schedule(schedule, "replay");
    }

    // Compaction retires every corpse; survivors only afterwards.
    const std::size_t live = healer.world().live_count();
    const auto compaction = healer.compaction_batch();
    EXPECT_EQ(compaction.leaves.size(), healer.world().points.size() >= live
                                            ? dyn.node_count() - live
                                            : 0u);
    dyn.apply(compaction);
    EXPECT_EQ(dyn.node_count(), live);
    EXPECT_EQ(dyn.positions(), healer.world().points);
    EXPECT_EQ(healer.dead_count(), 0u);
    EXPECT_EQ(test::divergence(dyn), "");
}

// ---------------------------------------------------------------------------
// Acceptance: seeded replay through the service is bit-identical
// ---------------------------------------------------------------------------

TEST(ChaosReplay, SeededReplayThroughServiceIsBitIdentical) {
    const auto initial = test::connected_udg(45, kSide, kRadius, 31).points();
    const ChaosSchedule schedule =
        generate_chaos(initial, kRadius, soak_config(chaos_steps(20)), 1234);

    struct Run {
        std::vector<geom::Point> points;
        graph::GeometricGraph udg;
        core::Backbone backbone;
        service::ServiceStats stats;
    };
    const auto run_once = [&] {
        engine::SpannerEngine engine(test::dynamic_engine_options(2));
        service::SpannerService svc(engine, schedule.initial, kRadius);
        SelfHealer healer(schedule);
        for (auto& translated : healer.translate(schedule.events)) {
            EXPECT_TRUE(svc.enqueue(std::move(translated.batch)));
        }
        svc.drain();
        const auto snap = svc.snapshot();
        Run run{snap->points, snap->udg, snap->backbone, svc.stats()};
        svc.stop();
        return run;
    };

    const Run a = run_once();
    const Run b = run_once();
    EXPECT_EQ(a.points, b.points);  // Bitwise: same doubles, same order.
    EXPECT_TRUE(a.udg == b.udg);
    EXPECT_EQ(test::backbone_diff(a.backbone, b.backbone), "");
    EXPECT_EQ(a.stats.batches_applied, b.stats.batches_applied);
    EXPECT_EQ(a.stats.updates_applied, b.stats.updates_applied);
    EXPECT_EQ(a.stats.version, b.stats.version);
    EXPECT_EQ(a.stats.batches_quarantined, 0u);
    EXPECT_EQ(b.stats.batches_quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Chaos soak: snapshots stay consistent while faults stream in
// ---------------------------------------------------------------------------

TEST(ChaosSoak, SnapshotsStayConsistentUnderChaosStream) {
    const auto initial = test::connected_udg(40, kSide, kRadius, 47).points();
    const ChaosSchedule schedule =
        generate_chaos(initial, kRadius, soak_config(chaos_steps(25)), 555);

    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    service::SpannerService svc(engine, schedule.initial, kRadius);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> last_version{0};
    std::string reader_failure;
    std::thread reader([&] {
        std::uint64_t prev = 0;
        while (!done.load()) {
            const auto snap = svc.snapshot();
            if (snap->version < prev) {
                reader_failure = "version went backwards";
                return;
            }
            prev = snap->version;
            last_version.store(prev);
            // Structural sanity on every observed snapshot; the full
            // reference check runs on the drained final state below
            // (it is too slow for the hot loop).
            if (snap->points.size() != snap->udg.node_count()) {
                reader_failure = "snapshot points/udg size mismatch";
                return;
            }
            std::this_thread::yield();
        }
    });

    SelfHealer healer(schedule);
    for (auto& translated : healer.translate(schedule.events)) {
        ASSERT_TRUE(svc.enqueue(std::move(translated.batch)));
    }
    svc.drain();
    done = true;
    reader.join();
    EXPECT_EQ(reader_failure, "");

    const auto snap = svc.snapshot();
    const std::string divergence = test::state_divergence(
        snap->points, snap->radius, snap->udg, snap->backbone);
    if (!divergence.empty()) {
        ADD_FAILURE() << "post-soak divergence: " << divergence << "; repro at "
                      << dump_schedule(schedule, "soak");
    }
    const auto stats = svc.stats();
    EXPECT_EQ(stats.batches_quarantined, 0u);
    EXPECT_GT(stats.batches_applied, 0u);
}

// ---------------------------------------------------------------------------
// Hardened service: audit gate, watchdog
// ---------------------------------------------------------------------------

TEST(HardenedService, AuditGateRollsBackFailedBatch) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 13);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));

    // The gate flags exactly one (otherwise healthy) batch as corrupt —
    // a stand-in for an apply that silently broke an invariant.
    std::atomic<int> applies{0};
    service::ServiceOptions options;
    options.post_apply_check = [&](const service::Snapshot&) -> std::string {
        return applies.fetch_add(1) == 1 ? "synthetic invariant breach" : "";
    };
    service::SpannerService svc(engine, udg.points(), kRadius, options);

    rnd::Xoshiro256 rng(71);
    const auto make_move = [&] {
        dynamic::UpdateBatch batch;
        const auto v = static_cast<NodeId>(rng.below(udg.node_count()));
        batch.moves.push_back({v, {rng.uniform(0.0, 180.0), rng.uniform(0.0, 180.0)}});
        return batch;
    };
    ASSERT_TRUE(svc.enqueue(make_move()));  // Sticks; becomes last-good.
    ASSERT_TRUE(svc.enqueue(make_move()));  // Gate fails: rolled back.
    ASSERT_TRUE(svc.enqueue(make_move()));  // Service keeps serving.
    svc.drain();

    const auto stats = svc.stats();
    EXPECT_EQ(stats.batches_applied, 2u);
    EXPECT_EQ(stats.batches_quarantined, 1u);
    const auto reports = svc.quarantine_reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].rolled_back);
    EXPECT_NE(reports[0].reason.find("synthetic"), std::string::npos);

    // The final published state is batches 1 and 3 applied to the
    // initial topology — batch 2 left no trace.
    const auto snap = svc.snapshot();
    EXPECT_EQ(test::state_divergence(snap->points, snap->radius, snap->udg,
                                     snap->backbone),
              "");
    rnd::Xoshiro256 replay(71);
    auto expected = udg.points();
    for (int i = 0; i < 3; ++i) {
        const auto v = static_cast<NodeId>(replay.below(udg.node_count()));
        const geom::Point to{replay.uniform(0.0, 180.0), replay.uniform(0.0, 180.0)};
        if (i != 1) expected[v] = to;
    }
    EXPECT_EQ(snap->points, expected);
}

TEST(HardenedService, WatchdogAbandonsWedgedApplyAndRecovers) {
    const auto udg = test::connected_udg(35, 180.0, kRadius, 17);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));

    std::atomic<int> applies{0};
    std::atomic<bool> release{false};
    service::ServiceOptions options;
    options.watchdog_ms = 50.0;
    options.apply_hook = [&](const dynamic::UpdateBatch&) {
        if (applies.fetch_add(1) == 1) {
            // Wedge the second apply well past the deadline, but let it
            // finish eventually so stop() can reap the orphan.
            while (!release.load()) std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    };
    service::SpannerService svc(engine, udg.points(), kRadius, options);

    dynamic::UpdateBatch healthy;
    healthy.moves.push_back({0, {5.0, 5.0}});
    ASSERT_TRUE(svc.enqueue(healthy));        // Applies fine.
    ASSERT_TRUE(svc.enqueue(healthy));        // Wedges; watchdog fires.
    dynamic::UpdateBatch after;
    after.moves.push_back({1, {7.0, 7.0}});
    ASSERT_TRUE(svc.enqueue(after));          // Runs on the rebuilt spanner.
    svc.drain();
    release = true;  // Unwedge the orphan so stop() can join it.

    const auto stats = svc.stats();
    EXPECT_EQ(stats.watchdog_timeouts, 1u);
    EXPECT_EQ(stats.batches_quarantined, 1u);
    EXPECT_EQ(stats.batches_applied, 2u);
    const auto reports = svc.quarantine_reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].rolled_back);
    EXPECT_NE(reports[0].reason.find("watchdog"), std::string::npos);

    // Recovered state: both healthy batches applied, wedged one rolled
    // back (its move coincides with the first healthy batch's, so the
    // visible effect is moves on nodes 0 and 1 only).
    const auto snap = svc.snapshot();
    EXPECT_EQ(test::state_divergence(snap->points, snap->radius, snap->udg,
                                     snap->backbone),
              "");
    EXPECT_EQ(snap->points[0], (geom::Point{5.0, 5.0}));
    EXPECT_EQ(snap->points[1], (geom::Point{7.0, 7.0}));
    svc.stop();
}

// ---------------------------------------------------------------------------
// Quasi-UDG radio model + degraded-mode certificates
// ---------------------------------------------------------------------------

TEST(QuasiUdg, DeterministicSymmetricSubgraphOfExactUdg) {
    const auto points = test::connected_udg(60, kSide, kRadius, 19).points();
    const auto udg = proximity::build_udg(points, kRadius);

    QuasiUdgModel model;
    model.alpha = 0.7;
    model.seed = 3;
    const auto quasi = build_quasi_udg(points, kRadius, model);
    const auto again = build_quasi_udg(points, kRadius, model);
    EXPECT_TRUE(quasi == again);
    EXPECT_TRUE(quasi == degrade_udg(udg, kRadius, model));

    // Subgraph of the exact UDG; short links always survive; the
    // per-link radius is symmetric and in [alpha r, r].
    std::size_t dropped = 0;
    for (const auto& [u, v] : udg.edges()) {
        const double d = geom::distance(points[u], points[v]);
        const double lr = model.link_radius(u, v, kRadius);
        EXPECT_DOUBLE_EQ(lr, model.link_radius(v, u, kRadius));
        EXPECT_GE(lr, model.alpha * kRadius);
        EXPECT_LE(lr, kRadius);
        if (quasi.has_edge(u, v)) {
            EXPECT_LE(d, lr);
        } else {
            ++dropped;
            EXPECT_GT(d, model.alpha * kRadius);  // Short links never drop.
        }
    }
    for (const auto& [u, v] : quasi.edges()) EXPECT_TRUE(udg.has_edge(u, v));
    EXPECT_GT(dropped, 0u);  // alpha = 0.7 actually degrades something.

    // alpha = 1 is the exact UDG, regardless of seed.
    QuasiUdgModel exact;
    exact.alpha = 1.0;
    exact.seed = 999;
    EXPECT_TRUE(build_quasi_udg(points, kRadius, exact) == udg);

    // Different seeds give different irregularity patterns.
    QuasiUdgModel other = model;
    other.seed = 4;
    EXPECT_FALSE(build_quasi_udg(points, kRadius, other) == quasi);
}

TEST(Degraded, CertificateStatesWhichLemmasSurvive) {
    const auto points = test::connected_udg(60, kSide, kRadius, 29).points();

    QuasiUdgModel model;
    model.alpha = 0.8;
    model.seed = 7;
    const auto quasi = build_quasi_udg(points, kRadius, model);
    const auto backbone = test::reference_backbone(quasi);

    verify::DegradedConditions conditions;
    conditions.alpha = model.alpha;
    const auto audit = verify::check_degraded_guarantees(quasi, backbone, conditions);
    EXPECT_TRUE(audit.pass()) << audit.summary();
    ASSERT_GE(audit.claims.size(), 6u);

    bool planarity_claimed = true;
    bool packing_claimed = false;
    for (const auto& claim : audit.claims) {
        if (claim.lemma.find("7") != std::string::npos) {
            planarity_claimed = claim.claimed;
        }
        if (claim.lemma.find("1") != std::string::npos &&
            claim.lemma.find("2") != std::string::npos) {
            packing_claimed = claim.claimed;
        }
    }
    EXPECT_FALSE(planarity_claimed);  // Advisory below alpha = 1.
    EXPECT_TRUE(packing_claimed);     // Relaxed caps still promised.
    EXPECT_NE(audit.summary().find("ADVISORY"), std::string::npos);

    // At alpha = 1 over the exact UDG every lemma is claimed again.
    const auto udg = proximity::build_udg(points, kRadius);
    const auto full = test::reference_backbone(udg);
    const auto exact =
        verify::check_degraded_guarantees(udg, full, verify::DegradedConditions{});
    EXPECT_TRUE(exact.pass()) << exact.summary();
    for (const auto& claim : exact.claims) EXPECT_TRUE(claim.claimed);
}

TEST(Degraded, CertificateCoversCrashedPopulations) {
    const auto initial = test::connected_udg(45, kSide, kRadius, 53).points();
    ChaosConfig config = soak_config(15);
    config.join_rate = 0.0;
    config.leave_rate = 0.0;  // Pure crash churn: survivors keep their ids.
    const ChaosSchedule schedule = generate_chaos(initial, kRadius, config, 61);

    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    dynamic::DynamicSpanner dyn(engine, schedule.initial, kRadius);
    SelfHealer healer(schedule);
    for (const auto& translated : healer.translate(schedule.events)) {
        dyn.apply(translated.batch);
    }
    ASSERT_EQ(test::divergence(dyn), "");

    verify::DegradedConditions conditions;
    conditions.crashed = healer.dead_count();
    ASSERT_GT(conditions.crashed, 0u);
    const auto audit =
        verify::check_degraded_guarantees(dyn.udg(), dyn.backbone(), conditions);
    EXPECT_TRUE(audit.pass()) << audit.summary();
    // The certificate names the surviving-population caveat.
    EXPECT_NE(audit.summary().find("surviving"), std::string::npos);
}

}  // namespace
}  // namespace geospanner::fault
