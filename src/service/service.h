// High-throughput update service over DynamicSpanner: the "millions of
// mobile users" serving story. Producers enqueue UpdateBatch mobility
// churn from any thread; one ingest worker applies batches in arrival
// order through the incremental patcher; readers take versioned
// snapshots that stay immutable while patches land.
//
// Consistency contract: after each batch is applied (or rolled back)
// the worker itself publishes the new version — an immutable Snapshot
// of the maintained (positions, UDG, backbone) triple — by swapping one
// pointer under a publish lock. A reader can never observe a
// half-applied batch, and a held snapshot never changes underneath its
// holder. Publishing is cheap because the snapshot shares structure
// with the live state instead of deep-copying it: every adjacency and
// dominator list lives in copy-on-write pages (graph::CowRows) and the
// graphs share one point array, so a snapshot costs one reference per
// 16-node page plus flat copies of the positions, roles, flags and
// triangles, and the next apply clones only the pages its dirty region
// writes. snapshot() takes only the publish lock, so it never waits
// behind an in-flight apply; every reader between two publications gets
// the same handle.
//
// Hardening (ServiceOptions, all off by default):
//   * Bounded ingest queue with explicit backpressure — block the
//     producer, reject the batch, or coalesce move-only batches into
//     the newest queued one.
//   * Poisoned-batch quarantine: structurally invalid batches
//     (dynamic::validate_batch: non-finite or out-of-range
//     coordinates, out-of-range ids) are rejected before apply; an
//     optional post-apply gate (a caller-supplied check run on every
//     batch, e.g. one calling verify::audit_backbone) rolls a batch
//     that corrupted the invariants back to the last good positions
//     via full rebuild. Either way the service keeps serving and
//     records a QuarantineReport.
//   * Watchdog: with watchdog_ms > 0 each apply runs on a disposable
//     applier thread; an apply that wedges past the deadline is
//     abandoned (the orphaned spanner and thread are kept alive until
//     stop()) and the service degrades to a rebuild from the last good
//     positions instead of stalling the ingest worker forever.
//
// Thread-safety: enqueue(), snapshot(), stats(), quarantine_reports()
// and drain() are safe from any thread; none of them waits for an
// apply to finish except drain(). The maintained spanner is touched
// only by the ingest worker (and by an abandoned applier thread, on its
// orphaned copy). The worker drives the engine ThreadPool for the bulk
// kernels; concurrent external drivers (e.g. a reader rebuilding a
// reference on the same engine) are serialized by the pool itself.
// stop() returns only after enqueues are rejected, the backlog is
// drained, and the worker has exited; it also reaps any orphaned
// applier threads, so a wedged apply must terminate eventually for
// stop() to return.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/backbone.h"
#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "geom/vec2.h"
#include "graph/geometric_graph.h"
#include "service/update_queue.h"

namespace geospanner::service {

/// One immutable published topology: the version counter (bumped on
/// every published-state change, including quarantine rollbacks) plus
/// copies of the maintained state that share their copy-on-write pages
/// with it. Shared between all readers of that version.
struct Snapshot {
    std::uint64_t version = 0;
    std::vector<geom::Point> points;
    double radius = 0.0;
    graph::GeometricGraph udg;
    core::Backbone backbone;
};

/// Handle a reader holds while querying; keeps the snapshot alive after
/// newer versions are published.
using SnapshotHandle = std::shared_ptr<const Snapshot>;

/// What enqueue() does when the bounded queue is full.
enum class BackpressurePolicy {
    kBlock,     ///< producer waits for the worker to make room
    kReject,    ///< enqueue returns false; batch dropped, counted
    kCoalesce,  ///< move-only batches merge into the newest queued one;
                ///< non-mergeable batches block
};

/// Record of one batch the service refused or rolled back. The service
/// kept serving throughout — quarantine is containment, not an outage.
struct QuarantineReport {
    std::uint64_t version = 0;  ///< published version when the batch was caught
    std::string reason;         ///< validation error, audit failure, or watchdog
    std::size_t moves = 0;
    std::size_t joins = 0;
    std::size_t leaves = 0;
    /// True when the batch had already mutated state and the service
    /// rebuilt from the last good positions; false when it was rejected
    /// before apply (state untouched).
    bool rolled_back = false;
};

/// Hardening knobs. The defaults reproduce the unhardened service
/// exactly: unbounded queue, apply inline on the worker, no gate.
struct ServiceOptions {
    std::size_t queue_capacity = 0;  ///< 0 = unbounded (no backpressure)
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
    /// > 0 runs each apply on a disposable applier thread with this
    /// deadline; a wedged apply degrades to rebuild-from-last-good.
    double watchdog_ms = 0.0;
    /// Post-apply gate, run on every applied batch: return "" for
    /// healthy, a reason string to quarantine. Called on the ingest
    /// worker with the just-applied topology, before it is published.
    std::function<std::string(const Snapshot&)> post_apply_check;
    /// Test seam: runs in the applying context just before each apply
    /// (e.g. to wedge it for watchdog tests).
    std::function<void(const dynamic::UpdateBatch&)> apply_hook;
};

/// Cumulative service counters (since construction).
struct ServiceStats {
    std::uint64_t batches_enqueued = 0;
    std::uint64_t batches_applied = 0;  ///< batches that stuck (not quarantined)
    std::uint64_t updates_applied = 0;  ///< moves + joins + leaves
    std::uint64_t fallbacks = 0;        ///< batches on the full-rebuild path
    std::uint64_t components_patched = 0;
    std::uint64_t component_fallbacks = 0;  ///< components over the per-component cap
    std::uint64_t snapshots_published = 0;  ///< versions published, initial one included
    std::uint64_t batches_rejected = 0;    ///< backpressure kReject drops
    std::uint64_t batches_coalesced = 0;   ///< merged into a queued batch
    std::uint64_t batches_quarantined = 0; ///< validation/audit/watchdog catches
    std::uint64_t watchdog_timeouts = 0;   ///< applies abandoned past deadline
    std::size_t queue_depth = 0;     ///< batches waiting right now
    std::size_t queue_capacity = 0;  ///< configured bound (0 = unbounded)
    std::uint64_t version = 0;       ///< published-state changes so far
    double updates_per_sec = 0.0;    ///< applied updates over service lifetime
    double apply_ms_total = 0.0;     ///< wall time inside DynamicSpanner::apply
};

/// Owns the maintained spanner and the ingest worker thread. The engine
/// reference must outlive the service (same contract as DynamicSpanner).
class SpannerService {
  public:
    SpannerService(engine::SpannerEngine& engine, std::vector<geom::Point> points,
                   double radius, ServiceOptions options = {});
    ~SpannerService();  ///< stop() + join

    SpannerService(const SpannerService&) = delete;
    SpannerService& operator=(const SpannerService&) = delete;

    /// Queues one batch for the ingest worker (any thread). False after
    /// stop() or when the backpressure policy rejected it. May block
    /// under kBlock (and kCoalesce on a non-mergeable batch) while the
    /// bounded queue is full.
    bool enqueue(dynamic::UpdateBatch batch);

    /// The newest published topology. Takes only the publish lock (held
    /// by the worker for a pointer swap), never waiting for an apply.
    [[nodiscard]] SnapshotHandle snapshot() const;

    /// Blocks until every batch enqueued before this call was processed
    /// (applied, coalesced-and-applied, or quarantined).
    void drain();

    /// Rejects further enqueues, drains the backlog, joins the worker
    /// and any orphaned applier threads. Idempotent; the destructor
    /// calls it.
    void stop();

    [[nodiscard]] ServiceStats stats() const;

    /// Every quarantine so far, oldest first.
    [[nodiscard]] std::vector<QuarantineReport> quarantine_reports() const;

  private:
    /// Queue element: one batch plus how many producer enqueues it
    /// carries (> 1 after coalescing), for drain accounting.
    struct Ingest {
        dynamic::UpdateBatch batch;
        std::size_t merged = 1;
    };

    /// Shared state of one watchdogged apply; owns the batch copy so an
    /// abandoned applier thread never reads freed worker memory.
    struct ApplyShared {
        std::mutex mutex;
        std::condition_variable done_cv;
        bool done = false;
        dynamic::UpdateBatch batch;
        dynamic::PatchStats stats;
    };

    /// A wedged apply we walked away from: the thread still running it
    /// and the spanner it is mutating, kept alive until stop().
    struct Orphan {
        std::thread thread;
        std::unique_ptr<dynamic::DynamicSpanner> spanner;
        std::shared_ptr<ApplyShared> shared;
    };

    void worker_loop();
    /// Validate → apply (inline or watchdogged) → gate → publish.
    void process(Ingest& ingest);
    /// The maintained state as an immutable snapshot labelled `version`
    /// — the one snapshot code path (publication and the custom gate).
    [[nodiscard]] SnapshotHandle capture(std::uint64_t version) const;
    /// Rebuilds from the last good positions, records the quarantine
    /// (plus the discarded apply's time, or a watchdog timeout) and
    /// publishes the rebuilt state as the next version.
    void roll_back(std::string reason, const dynamic::UpdateBatch& batch,
                   double apply_ms, bool timed_out);
    /// Runs apply on a disposable thread; false = deadline passed and
    /// spanner_ was orphaned (caller must rebuild).
    bool apply_with_watchdog(const dynamic::UpdateBatch& batch,
                             dynamic::PatchStats& out);
    /// Appends a report; caller holds publish_mutex_.
    void record_quarantine(std::string reason, const dynamic::UpdateBatch& batch,
                           bool rolled_back);

    engine::SpannerEngine* engine_;
    ServiceOptions options_;
    double radius_ = 0.0;
    bool track_last_good_ = false;
    UpdateQueue<Ingest> queue_;
    std::thread worker_;

    /// Worker-only state (and the constructor's, before the worker
    /// starts): the maintained spanner and the rollback bookkeeping.
    std::unique_ptr<dynamic::DynamicSpanner> spanner_;
    std::vector<geom::Point> last_good_points_;  ///< rollback target

    /// Guards published_, quarantine_reports_ and the counters below.
    /// The worker writes them; it reads version_ without the lock.
    mutable std::mutex publish_mutex_;
    SnapshotHandle published_;  ///< the snapshot of `version_`
    std::uint64_t version_ = 0;
    std::uint64_t batches_applied_ = 0;
    std::uint64_t updates_applied_ = 0;
    std::uint64_t fallbacks_ = 0;
    std::uint64_t components_patched_ = 0;
    std::uint64_t component_fallbacks_ = 0;
    std::uint64_t snapshots_published_ = 0;
    std::uint64_t batches_quarantined_ = 0;
    std::uint64_t watchdog_timeouts_ = 0;
    double apply_ms_total_ = 0.0;
    std::vector<QuarantineReport> quarantine_reports_;

    /// Producer-side counters (outside the publish lock).
    std::atomic<std::uint64_t> batches_rejected_{0};
    std::atomic<std::uint64_t> batches_coalesced_{0};

    /// Drain accounting: enqueued_ is bumped by producers, applied_ by
    /// the worker after the batch fully landed; drain() waits for
    /// applied_ to catch up under drain_mutex_.
    mutable std::mutex drain_mutex_;
    std::condition_variable drained_;
    std::uint64_t enqueued_ = 0;
    std::uint64_t applied_ = 0;

    /// Touched only by the worker while it runs, and by stop() after
    /// the worker joined — never concurrently.
    std::vector<Orphan> orphans_;

    std::mutex stop_mutex_;  ///< serializes stop() callers around the join
    std::chrono::steady_clock::time_point start_;
};

}  // namespace geospanner::service
