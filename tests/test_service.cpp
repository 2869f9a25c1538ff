// Update-service soak: N producer threads pour mobility batches into
// the ingest queue while M reader threads take versioned snapshots.
// Every snapshot must be an internally consistent topology — its UDG
// and backbone exactly match a from-scratch build on its own positions
// (a half-applied batch can never satisfy that) and pass the full
// Lemma 1-8 audit trail; versions are monotone per reader; the drained
// final state equals the reference. The single-threaded tests pin the
// queue, drain, stats, and snapshot-sharing contracts.
#include "service/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic_test_util.h"
#include "proximity/udg.h"
#include "service/update_queue.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner::service {
namespace {

using graph::NodeId;

constexpr double kRadius = 55.0;

/// "" when the snapshot is a topology only whole-batch boundaries could
/// produce: UDG and backbone equal the from-scratch build on the
/// snapshot's own positions.
std::string snapshot_divergence(const Snapshot& snap) {
    return test::state_divergence(snap.points, snap.radius, snap.udg, snap.backbone);
}

/// Deterministic move-only batch over the first `n` node ids (producers
/// never join/leave, so ids stay valid under concurrency).
dynamic::UpdateBatch make_batch(rnd::Xoshiro256& rng, std::size_t n,
                                const std::vector<geom::Point>& initial,
                                std::size_t moves) {
    dynamic::UpdateBatch batch;
    for (std::size_t i = 0; i < moves; ++i) {
        const auto v = static_cast<NodeId>(rng.below(n));
        const geom::Point p = initial[v];
        batch.moves.push_back(
            {v, {p.x + rng.uniform(-20.0, 20.0), p.y + rng.uniform(-20.0, 20.0)}});
    }
    return batch;
}

TEST(UpdateQueue, PushPopOrderAndClose) {
    UpdateQueue<int> queue;
    EXPECT_EQ(queue.depth(), 0u);
    EXPECT_EQ(queue.push(1), PushResult::kQueued);
    EXPECT_EQ(queue.push(2), PushResult::kQueued);
    EXPECT_EQ(queue.push(3), PushResult::kQueued);
    EXPECT_EQ(queue.depth(), 3u);

    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);

    queue.close();
    EXPECT_EQ(queue.push(4), PushResult::kClosed);  // Rejected, not queued.
    // The backlog accepted before close() still drains in order.
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 2);
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 3);
    EXPECT_FALSE(queue.pop(out));  // Shutdown.
    queue.close();                 // Idempotent.
}

TEST(UpdateQueue, BoundedRejectAndCoalescePolicies) {
    UpdateQueue<int> queue;
    queue.set_bound(2, /*reject_when_full=*/true);
    EXPECT_EQ(queue.push(1), PushResult::kQueued);
    EXPECT_EQ(queue.push(2), PushResult::kQueued);
    EXPECT_EQ(queue.push(3), PushResult::kRejected);
    EXPECT_EQ(queue.depth(), 2u);

    // Coalescing merges into the newest queued item; a refused merge
    // falls through to the reject policy.
    queue.set_bound(2, /*reject_when_full=*/true, [](int& newest, int& incoming) {
        if (incoming < 0) return false;
        newest += incoming;
        return true;
    });
    EXPECT_EQ(queue.push(10), PushResult::kCoalesced);
    EXPECT_EQ(queue.push(-1), PushResult::kRejected);
    EXPECT_EQ(queue.depth(), 2u);

    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 12);  // 2 absorbed the coalesced 10.
}

TEST(UpdateQueue, BoundedBlockWakesOnPopAndClose) {
    UpdateQueue<int> queue;
    queue.set_bound(1, /*reject_when_full=*/false);
    EXPECT_EQ(queue.push(1), PushResult::kQueued);

    // A blocked producer completes once the consumer makes room.
    std::thread producer([&] { EXPECT_EQ(queue.push(2), PushResult::kQueued); });
    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);
    producer.join();
    EXPECT_EQ(queue.depth(), 1u);

    // A producer blocked at close() time is rejected, not deadlocked.
    std::thread blocked([&] { EXPECT_EQ(queue.push(3), PushResult::kClosed); });
    queue.close();
    blocked.join();
}

TEST(UpdateQueue, BlockedPopWakesOnClose) {
    UpdateQueue<int> queue;
    std::atomic<bool> woke{false};
    std::thread consumer([&] {
        int out = 0;
        EXPECT_FALSE(queue.pop(out));
        woke = true;
    });
    queue.close();
    consumer.join();
    EXPECT_TRUE(woke);
}

TEST(SpannerService, DrainedStateMatchesReference) {
    const auto udg = test::connected_udg(60, 220.0, kRadius, 17);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(23);
    std::size_t updates = 0;
    for (int i = 0; i < 10; ++i) {
        auto batch = make_batch(rng, udg.node_count(), udg.points(), 4);
        updates += batch.moves.size();
        ASSERT_TRUE(service.enqueue(std::move(batch)));
    }
    service.drain();

    const SnapshotHandle snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, 10u);
    EXPECT_EQ(snapshot_divergence(*snap), "");

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_enqueued, 10u);
    EXPECT_EQ(stats.batches_applied, 10u);
    EXPECT_EQ(stats.updates_applied, updates);
    EXPECT_EQ(stats.version, 10u);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_GE(stats.snapshots_published, 1u);
}

TEST(SpannerService, SnapshotsAreSharedBetweenBatchesAndImmutableAcross) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 5);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    SpannerService service(engine, udg.points(), kRadius);
    service.drain();

    // Back-to-back readers between batches share one snapshot object.
    const SnapshotHandle a = service.snapshot();
    const SnapshotHandle b = service.snapshot();
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->version, 0u);

    rnd::Xoshiro256 rng(7);
    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 3)));
    service.drain();

    // A new version means a new snapshot; the held one is untouched.
    const SnapshotHandle c = service.snapshot();
    EXPECT_NE(c.get(), a.get());
    EXPECT_EQ(c->version, 1u);
    EXPECT_EQ(a->version, 0u);
    EXPECT_EQ(a->points, udg.points());
    EXPECT_EQ(snapshot_divergence(*a), "");
    EXPECT_EQ(snapshot_divergence(*c), "");
}

TEST(SpannerService, StopRejectsFurtherEnqueuesButDrainsBacklog) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 29);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(11);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    }
    service.stop();
    service.stop();  // Idempotent.
    EXPECT_FALSE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    service.drain();  // Trivially satisfied — everything accepted was applied.

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_applied, 5u);   // Backlog drained before the join.
    EXPECT_EQ(stats.batches_enqueued, 5u);  // The rejected batch was uncounted.
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, ConcurrentProducersAndReadersSoak) {
    const std::size_t kProducers = 3;
    const std::size_t kBatchesPerProducer = 6;
    const std::size_t kReaders = 2;

    const auto udg = test::connected_udg(50, 200.0, kRadius, 43);
    ASSERT_GT(udg.node_count(), 0u);
    const std::size_t n = udg.node_count();
    const std::vector<geom::Point> initial = udg.points();

    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    SpannerService service(engine, initial, kRadius);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> accepted{0};

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            rnd::Xoshiro256 rng(1000 + p);
            for (std::size_t i = 0; i < kBatchesPerProducer; ++i) {
                if (service.enqueue(make_batch(rng, n, initial, 3))) ++accepted;
            }
        });
    }

    // Readers audit every snapshot they take: exact equality with a
    // from-scratch build on the snapshot's positions (atomicity), full
    // Lemma 1-8 trail (semantics), monotone versions (ordering).
    std::vector<std::thread> readers;
    std::vector<std::string> reader_errors(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            std::uint64_t last_version = 0;
            while (!done.load()) {
                const SnapshotHandle snap = service.snapshot();
                if (snap->version < last_version) {
                    reader_errors[r] = "version went backwards: " +
                                       std::to_string(snap->version) + " after " +
                                       std::to_string(last_version);
                    return;
                }
                last_version = snap->version;
                const std::string d = snapshot_divergence(*snap);
                if (!d.empty()) {
                    reader_errors[r] =
                        "snapshot v" + std::to_string(snap->version) + " diverged: " + d;
                    return;
                }
                verify::AuditOptions audit;
                audit.radius = snap->radius;
                const auto trail = verify::audit_backbone(snap->udg, snap->backbone, audit);
                if (!trail.pass()) {
                    reader_errors[r] = "snapshot v" + std::to_string(snap->version) +
                                       " failed audit:\n" + trail.summary();
                    return;
                }
                std::this_thread::yield();
            }
        });
    }

    for (auto& t : producers) t.join();
    service.drain();
    done = true;
    for (auto& t : readers) t.join();
    for (std::size_t r = 0; r < kReaders; ++r) {
        EXPECT_EQ(reader_errors[r], "") << "reader " << r;
    }

    EXPECT_EQ(accepted.load(), kProducers * kBatchesPerProducer);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_applied, accepted.load());
    EXPECT_EQ(stats.updates_applied, accepted.load() * 3);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

// Shutdown races, exercised under the TSan job: stop() racing drain()
// and enqueue() from many threads must neither deadlock nor corrupt the
// accounting, and the documented contract holds — every enqueue that
// returned true before/through the race was applied, everything after
// stop() returns false.
TEST(SpannerService, StopRacesDrainAndEnqueue) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 61);
    ASSERT_GT(udg.node_count(), 0u);
    const std::size_t n = udg.node_count();
    const std::vector<geom::Point> initial = udg.points();

    for (int round = 0; round < 3; ++round) {
        engine::SpannerEngine engine(test::dynamic_engine_options(2));
        SpannerService service(engine, initial, kRadius);

        std::atomic<std::size_t> accepted{0};
        std::atomic<std::size_t> rejected{0};
        std::vector<std::thread> threads;
        for (std::size_t p = 0; p < 3; ++p) {
            threads.emplace_back([&, p] {
                rnd::Xoshiro256 rng(7000 + 10 * round + p);
                for (int i = 0; i < 8; ++i) {
                    if (service.enqueue(make_batch(rng, n, initial, 2))) {
                        ++accepted;
                    } else {
                        ++rejected;
                    }
                }
            });
        }
        threads.emplace_back([&] { service.drain(); });
        threads.emplace_back([&] { service.stop(); });
        for (auto& t : threads) t.join();

        // False-after-stop: once stop() returned, enqueue must refuse.
        rnd::Xoshiro256 rng(99);
        EXPECT_FALSE(service.enqueue(make_batch(rng, n, initial, 2)));
        service.drain();  // Trivially satisfied after the join.

        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.batches_applied, accepted.load());
        EXPECT_EQ(stats.batches_enqueued, accepted.load());
        EXPECT_EQ(stats.queue_depth, 0u);
        EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
    }
}

TEST(SpannerService, RejectBackpressureCountsDropsAndKeepsServing) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 33);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    ServiceOptions options;
    options.queue_capacity = 2;
    options.backpressure = BackpressurePolicy::kReject;
    // Park the worker so pushes pile up deterministically.
    std::atomic<bool> hold{true};
    options.apply_hook = [&](const dynamic::UpdateBatch&) {
        while (hold.load()) std::this_thread::yield();
    };
    SpannerService service(engine, udg.points(), kRadius, options);

    rnd::Xoshiro256 rng(3);
    std::size_t accepted = 0;
    std::size_t refused = 0;
    for (int i = 0; i < 8; ++i) {
        if (service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2))) {
            ++accepted;
        } else {
            ++refused;
        }
    }
    EXPECT_GE(refused, 8u - 3u);  // 1 in flight + 2 queued at most.
    hold = false;
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_rejected, refused);
    EXPECT_EQ(stats.batches_applied, accepted);
    EXPECT_EQ(stats.batches_enqueued, accepted);
    EXPECT_EQ(stats.queue_capacity, 2u);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, CoalesceBackpressureMergesMoveOnlyBatches) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 37);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    ServiceOptions options;
    options.queue_capacity = 1;
    options.backpressure = BackpressurePolicy::kCoalesce;
    std::atomic<bool> hold{true};
    options.apply_hook = [&](const dynamic::UpdateBatch&) {
        while (hold.load()) std::this_thread::yield();
    };
    SpannerService service(engine, udg.points(), kRadius, options);

    rnd::Xoshiro256 rng(5);
    // First batch occupies the worker; the next fills the queue; the
    // rest coalesce into it. All count as enqueued and all drain.
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    }
    const ServiceStats mid = service.stats();
    EXPECT_GE(mid.batches_coalesced, 3u);
    hold = false;
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_enqueued, 6u);
    EXPECT_EQ(stats.updates_applied, 12u);  // Every move landed exactly once.
    EXPECT_EQ(stats.batches_applied + stats.batches_coalesced, 6u);
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

TEST(SpannerService, PoisonedBatchIsQuarantinedBeforeApply) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 41);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(9);
    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));

    dynamic::UpdateBatch poisoned;
    poisoned.moves.push_back(
        {0, {std::numeric_limits<double>::quiet_NaN(), 0.0}});
    ASSERT_TRUE(service.enqueue(std::move(poisoned)));  // Accepted, then caught.

    dynamic::UpdateBatch out_of_range;
    out_of_range.leaves.push_back(static_cast<NodeId>(udg.node_count() + 7));
    ASSERT_TRUE(service.enqueue(std::move(out_of_range)));

    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 2)));
    service.drain();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batches_enqueued, 4u);
    EXPECT_EQ(stats.batches_applied, 2u);      // The healthy ones.
    EXPECT_EQ(stats.batches_quarantined, 2u);  // The poisoned ones.
    EXPECT_EQ(stats.version, 2u);  // Pre-apply catches publish nothing.

    const auto reports = service.quarantine_reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_NE(reports[0].reason.find("non-finite"), std::string::npos);
    EXPECT_FALSE(reports[0].rolled_back);
    EXPECT_NE(reports[1].reason.find("nonexistent"), std::string::npos);

    // The service kept serving: the final state is exactly the two
    // healthy batches applied to the initial topology.
    EXPECT_EQ(snapshot_divergence(*service.snapshot()), "");
}

/// FNV-1a over everything a snapshot publishes: positions (bit
/// patterns), every graph's edge list, the cluster lists, the flags and
/// the LDel triangles. Equal digests mean equal snapshots for any test
/// purpose here.
class Digest {
  public:
    void word(std::uint64_t w) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (w >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }
    void points(const std::vector<geom::Point>& pts) {
        word(pts.size());
        for (const geom::Point p : pts) {
            word(std::bit_cast<std::uint64_t>(p.x));
            word(std::bit_cast<std::uint64_t>(p.y));
        }
    }
    void graph(const graph::GeometricGraph& g) {
        points(g.points());
        word(g.edge_count());
        for (const auto& [u, v] : g.edges()) word((std::uint64_t{u} << 32) | v);
    }
    void rows(const graph::CowRows<NodeId>& rows) {
        word(rows.size());
        for (std::size_t v = 0; v < rows.size(); ++v) {
            word(rows[v].size());
            for (const NodeId d : rows[v]) word(d);
        }
    }
    template <class Flags>
    void flags(const Flags& f) {
        word(f.size());
        for (const auto x : f) word(static_cast<std::uint64_t>(x));
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<geom::Point>& points,
                     const graph::GeometricGraph& udg, const core::Backbone& b) {
    Digest d;
    d.points(points);
    d.graph(udg);
    d.flags(b.cluster.role);
    d.rows(b.cluster.dominators_of);
    d.rows(b.cluster.two_hop_dominators_of);
    d.flags(b.is_connector);
    d.flags(b.in_backbone);
    for (const graph::GeometricGraph* g : {&b.cds, &b.cds_prime, &b.icds, &b.icds_prime,
                                           &b.ldel_icds, &b.ldel_icds_prime}) {
        d.graph(*g);
    }
    for (const auto& t : b.ldel_triangles) {
        d.word(t.a);
        d.word(t.b);
        d.word(t.c);
    }
    return d.value();
}

std::uint64_t digest(const Snapshot& snap) {
    return digest(snap.points, snap.udg, snap.backbone);
}

// Structural sharing under concurrency: a reader keeps a snapshot of
// every version alive while later batches clone and rewrite the pages
// those snapshots share. Each held snapshot must stay bit-identical to
// what it was when acquired and equal a from-scratch build on the
// positions of its version (replayed independently of the service).
TEST(SpannerService, HeldSnapshotsOfManyVersionsStayExact) {
    constexpr std::size_t kBatches = 12;
    const auto udg = test::connected_udg(60, 220.0, kRadius, 71);
    ASSERT_GT(udg.node_count(), 0u);
    const std::size_t n = udg.node_count();
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    SpannerService service(engine, udg.points(), kRadius);

    rnd::Xoshiro256 rng(19);
    std::vector<dynamic::UpdateBatch> batches;
    std::vector<std::vector<geom::Point>> positions{udg.points()};  // by version
    for (std::size_t k = 0; k < kBatches; ++k) {
        batches.push_back(make_batch(rng, n, udg.points(), 4));
        positions.push_back(positions.back());
        for (const auto& mv : batches.back().moves) positions.back()[mv.node] = mv.to;
    }

    struct Held {
        SnapshotHandle snap;
        std::uint64_t digest_at_acquire;
    };
    std::vector<Held> held;
    std::atomic<std::size_t> held_count{0};
    std::atomic<bool> done{false};
    std::atomic<bool> reader_failed{false};
    std::string reader_error;
    std::thread reader([&] {
        while (!done.load()) {
            SnapshotHandle snap = service.snapshot();
            if (held.empty() || snap->version != held.back().snap->version) {
                held.push_back({snap, digest(*snap)});
                held_count.store(held.size());
            }
            // Re-read an older version while the worker patches.
            const Held& old = held[held.size() / 2];
            if (digest(*old.snap) != old.digest_at_acquire) {
                reader_error = "snapshot v" + std::to_string(old.snap->version) + " changed";
                reader_failed = true;
                return;
            }
        }
    });
    // Batch k goes in only once the reader holds versions 0..k, so every
    // version is held while later ones land.
    const auto await_held = [&](std::size_t count) {
        while (held_count.load() < count && !reader_failed.load()) std::this_thread::yield();
    };
    bool accepted = true;
    for (std::size_t k = 0; k < kBatches; ++k) {
        await_held(k + 1);
        accepted = accepted && service.enqueue(batches[k]);
    }
    await_held(kBatches + 1);
    done = true;
    reader.join();
    ASSERT_TRUE(accepted);
    ASSERT_EQ(reader_error, "");

    ASSERT_EQ(held.size(), kBatches + 1);
    for (const Held& h : held) {
        const std::uint64_t v = h.snap->version;
        ASSERT_LE(v, kBatches);
        EXPECT_EQ(digest(*h.snap), h.digest_at_acquire) << "v" << v;
        const graph::GeometricGraph fresh = proximity::build_udg(positions[v], kRadius);
        EXPECT_EQ(digest(*h.snap),
                  digest(positions[v], fresh,
                         test::reference_backbone(fresh)))
            << "v" << v;
    }
}

// snapshot() never waits behind an apply: with the worker wedged inside
// one, readers still get the previous version at once.
TEST(SpannerService, SnapshotIsPromptWhileApplyIsWedged) {
    const auto udg = test::connected_udg(40, 180.0, kRadius, 13);
    ASSERT_GT(udg.node_count(), 0u);
    engine::SpannerEngine engine(test::dynamic_engine_options(2));
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    ServiceOptions options;
    options.apply_hook = [&](const dynamic::UpdateBatch&) {
        entered = true;
        while (!release.load()) std::this_thread::yield();
    };
    SpannerService service(engine, udg.points(), kRadius, options);

    rnd::Xoshiro256 rng(2);
    ASSERT_TRUE(service.enqueue(make_batch(rng, udg.node_count(), udg.points(), 3)));
    while (!entered.load()) std::this_thread::yield();

    // Read on another thread, so a regression fails here instead of
    // deadlocking the test against the wedged worker.
    auto pending = std::async(std::launch::async,
                              [&] { return std::pair(service.snapshot(), service.stats()); });
    const bool prompt = pending.wait_for(std::chrono::seconds(1)) == std::future_status::ready;
    release = true;
    EXPECT_TRUE(prompt) << "snapshot()/stats() waited for the wedged apply";
    const auto [during, stats] = pending.get();
    EXPECT_EQ(during->version, 0u);
    EXPECT_EQ(during->points, udg.points());
    EXPECT_EQ(stats.version, 0u);
    EXPECT_EQ(stats.batches_applied, 0u);

    service.drain();
    EXPECT_EQ(service.snapshot()->version, 1u);
    EXPECT_EQ(snapshot_divergence(*during), "");
}

}  // namespace
}  // namespace geospanner::service
