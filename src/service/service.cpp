#include "service/service.h"

#include <algorithm>
#include <utility>

namespace geospanner::service {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a)
        .count();
}

}  // namespace

SpannerService::SpannerService(engine::SpannerEngine& engine,
                               std::vector<geom::Point> points, double radius,
                               ServiceOptions options)
    : engine_(&engine), options_(std::move(options)), radius_(radius),
      start_(std::chrono::steady_clock::now()) {
    track_last_good_ =
        static_cast<bool>(options_.post_apply_check) || options_.watchdog_ms > 0.0;
    if (track_last_good_) last_good_points_ = points;
    spanner_ = std::make_unique<dynamic::DynamicSpanner>(engine, std::move(points),
                                                         radius);
    published_ = capture(version_);
    snapshots_published_ = 1;
    if (options_.queue_capacity > 0) {
        UpdateQueue<Ingest>::CoalesceFn coalesce;
        if (options_.backpressure == BackpressurePolicy::kCoalesce) {
            // Only move-only batches merge: concatenated moves apply in
            // order (last write wins), which is exactly the semantics of
            // applying the two batches back to back. Joins and leaves
            // renumber ids, so batches carrying them never coalesce.
            coalesce = [](Ingest& newest, Ingest& incoming) {
                if (!newest.batch.joins.empty() || !newest.batch.leaves.empty() ||
                    !incoming.batch.joins.empty() || !incoming.batch.leaves.empty()) {
                    return false;
                }
                newest.batch.moves.insert(newest.batch.moves.end(),
                                          incoming.batch.moves.begin(),
                                          incoming.batch.moves.end());
                newest.merged += incoming.merged;
                return true;
            };
        }
        queue_.set_bound(options_.queue_capacity,
                         options_.backpressure == BackpressurePolicy::kReject,
                         std::move(coalesce));
    }
    worker_ = std::thread([this] { worker_loop(); });
}

SpannerService::~SpannerService() { stop(); }

bool SpannerService::enqueue(dynamic::UpdateBatch batch) {
    // Count before the push so applied_ can never race past enqueued_;
    // uncount on rejection.
    {
        const std::lock_guard<std::mutex> lock(drain_mutex_);
        ++enqueued_;
    }
    switch (queue_.push(Ingest{std::move(batch), 1})) {
        case PushResult::kQueued:
            return true;
        case PushResult::kCoalesced:
            // The carrier batch's `merged` count now covers this
            // enqueue, so drain accounting balances when it lands.
            batches_coalesced_.fetch_add(1, std::memory_order_relaxed);
            return true;
        case PushResult::kRejected:
            batches_rejected_.fetch_add(1, std::memory_order_relaxed);
            break;
        case PushResult::kClosed:
            break;  // Post-stop rejection: not a backpressure event.
    }
    {
        const std::lock_guard<std::mutex> lock(drain_mutex_);
        --enqueued_;
    }
    drained_.notify_all();
    return false;
}

void SpannerService::worker_loop() {
    Ingest ingest;
    while (queue_.pop(ingest)) {
        process(ingest);
        {
            const std::lock_guard<std::mutex> lock(drain_mutex_);
            applied_ += ingest.merged;
        }
        drained_.notify_all();
    }
}

void SpannerService::process(Ingest& ingest) {
    const dynamic::UpdateBatch& batch = ingest.batch;
    const std::string invalid =
        dynamic::validate_batch(batch, spanner_->node_count(), spanner_->radius());
    if (!invalid.empty()) {
        // Caught before apply: state untouched, nothing to publish.
        const std::lock_guard<std::mutex> lock(publish_mutex_);
        record_quarantine(invalid, batch, /*rolled_back=*/false);
        return;
    }

    const auto t0 = std::chrono::steady_clock::now();
    dynamic::PatchStats pstats;
    if (options_.watchdog_ms > 0.0) {
        if (!apply_with_watchdog(batch, pstats)) {
            roll_back("watchdog: apply exceeded " + std::to_string(options_.watchdog_ms) +
                          " ms",
                      batch, /*apply_ms=*/0.0, /*timed_out=*/true);
            return;
        }
    } else {
        if (options_.apply_hook) options_.apply_hook(batch);
        pstats = spanner_->apply(batch);
    }
    const double apply_ms = ms_between(t0, std::chrono::steady_clock::now());
    SnapshotHandle next = capture(version_ + 1);

    if (options_.post_apply_check) {
        std::string reason = options_.post_apply_check(*next);
        if (!reason.empty()) {
            roll_back(std::move(reason), batch, apply_ms, /*timed_out=*/false);
            return;
        }
    }
    // Every state that reaches here passed the gate, if there is one.
    if (track_last_good_) last_good_points_ = next->points;

    const std::lock_guard<std::mutex> lock(publish_mutex_);
    apply_ms_total_ += apply_ms;
    ++version_;
    ++batches_applied_;
    updates_applied_ += batch.moves.size() + batch.joins.size() + batch.leaves.size();
    if (pstats.fell_back) ++fallbacks_;
    components_patched_ += pstats.components.size();
    component_fallbacks_ += pstats.component_fallbacks;
    published_.swap(next);
    ++snapshots_published_;
}  // `next` now holds the previous version, released after the lock.

bool SpannerService::apply_with_watchdog(const dynamic::UpdateBatch& batch,
                                         dynamic::PatchStats& out) {
    auto shared = std::make_shared<ApplyShared>();
    shared->batch = batch;  // Owned copy: survives abandonment.
    dynamic::DynamicSpanner* target = spanner_.get();
    const auto hook = options_.apply_hook;
    std::thread applier([shared, target, hook] {
        if (hook) hook(shared->batch);
        dynamic::PatchStats stats = target->apply(shared->batch);
        {
            const std::lock_guard<std::mutex> lock(shared->mutex);
            shared->stats = std::move(stats);
            shared->done = true;
        }
        shared->done_cv.notify_all();
    });

    std::unique_lock<std::mutex> lock(shared->mutex);
    const bool finished = shared->done_cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(options_.watchdog_ms),
        [&] { return shared->done; });
    lock.unlock();
    if (finished) {
        applier.join();
        out = std::move(shared->stats);
        return true;
    }
    // Walk away: the thread keeps running against the orphaned spanner
    // until it finishes on its own; stop() reaps both.
    orphans_.push_back(
        Orphan{std::move(applier), std::move(spanner_), std::move(shared)});
    return false;
}

SnapshotHandle SpannerService::capture(std::uint64_t version) const {
    auto snap = std::make_shared<Snapshot>();
    snap->version = version;
    snap->points = spanner_->positions();
    snap->radius = spanner_->radius();
    snap->udg = spanner_->udg();
    snap->backbone = spanner_->backbone();
    return snap;
}

void SpannerService::roll_back(std::string reason, const dynamic::UpdateBatch& batch,
                               double apply_ms, bool timed_out) {
    spanner_ = std::make_unique<dynamic::DynamicSpanner>(
        *engine_, std::vector<geom::Point>(last_good_points_), radius_);
    SnapshotHandle next = capture(version_ + 1);
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    apply_ms_total_ += apply_ms;
    if (timed_out) ++watchdog_timeouts_;
    record_quarantine(std::move(reason), batch, /*rolled_back=*/true);
    ++version_;
    published_.swap(next);
    ++snapshots_published_;
}

void SpannerService::record_quarantine(std::string reason,
                                       const dynamic::UpdateBatch& batch,
                                       bool rolled_back) {
    QuarantineReport report;
    report.version = version_;
    report.reason = std::move(reason);
    report.moves = batch.moves.size();
    report.joins = batch.joins.size();
    report.leaves = batch.leaves.size();
    report.rolled_back = rolled_back;
    quarantine_reports_.push_back(std::move(report));
    ++batches_quarantined_;
}

SnapshotHandle SpannerService::snapshot() const {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    return published_;
}

void SpannerService::drain() {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    const std::uint64_t target = enqueued_;
    // An enqueue racing stop() may have been counted into `target` and
    // then refused (and uncounted); it will never be applied, so the
    // goal shrinks with enqueued_ instead of waiting for it forever.
    drained_.wait(lock, [&] { return applied_ >= std::min(target, enqueued_); });
}

void SpannerService::stop() {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    queue_.close();  // Worker drains the backlog, then pop() returns false.
    if (worker_.joinable()) worker_.join();
    // Reap abandoned appliers: safe now — the worker is gone, so
    // orphans_ has no concurrent writer.
    for (Orphan& orphan : orphans_) {
        if (orphan.thread.joinable()) orphan.thread.join();
    }
    orphans_.clear();
}

ServiceStats SpannerService::stats() const {
    ServiceStats out;
    {
        const std::lock_guard<std::mutex> lock(publish_mutex_);
        out.batches_applied = batches_applied_;
        out.updates_applied = updates_applied_;
        out.fallbacks = fallbacks_;
        out.components_patched = components_patched_;
        out.component_fallbacks = component_fallbacks_;
        out.snapshots_published = snapshots_published_;
        out.batches_quarantined = batches_quarantined_;
        out.watchdog_timeouts = watchdog_timeouts_;
        out.version = version_;
        out.apply_ms_total = apply_ms_total_;
        const double elapsed_ms =
            ms_between(start_, std::chrono::steady_clock::now());
        out.updates_per_sec = elapsed_ms <= 0.0
                                  ? 0.0
                                  : 1000.0 * static_cast<double>(updates_applied_) /
                                        elapsed_ms;
    }
    {
        const std::lock_guard<std::mutex> lock(drain_mutex_);
        out.batches_enqueued = enqueued_;
    }
    out.batches_rejected = batches_rejected_.load(std::memory_order_relaxed);
    out.batches_coalesced = batches_coalesced_.load(std::memory_order_relaxed);
    out.queue_depth = queue_.depth();
    out.queue_capacity = options_.queue_capacity;
    return out;
}

std::vector<QuarantineReport> SpannerService::quarantine_reports() const {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    return quarantine_reports_;
}

}  // namespace geospanner::service
