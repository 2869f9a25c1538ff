// End-to-end benchmark driver: one workload, one seed, four paths.
//
// A run builds its worlds from --seed (set-up, repeated and timed), then
// measures the ROADMAP's four end-to-end paths in turn:
//   churn    update enqueued -> visible in a SpannerService snapshot: an
//            open loop on a fixed schedule with one polling reader, then
//            a back-to-back saturation burst;
//   chaos    chaos event -> repaired topology: a seeded fault schedule
//            replayed through SelfHealer into DynamicSpanner;
//   traffic  packet injected -> delivered: BackboneRouter routes over the
//            healed topology, simulated by netsim;
//   build    points -> certified LDel(ICDS'): 4-lane, 1-lane and
//            tile-sharded builds of the same points.
// The measured part is split into rounds; each round runs a slice of
// every path, and the build fills the rest of the round's time.
// Every output is checked against a from-scratch build. Every timing is
// taken here, around calls into the library's public functions. With
// --trace 1 the driver also records spans around those calls, replays
// the churn stream through a bare DynamicSpanner and runs kernel probes.
//
// Output is a stream of tab-separated records on stdout, which run.py
// turns into metrics, checks and a trace file:
//   meta    <key> <text>
//   sample  <series> <number>
//   count   <path> <attempted> <failed>
//   span    <id> <parent> <thread> <start_us> <end_us> <items> <name>
//   invalid <reason>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/backbone.h"
#include "core/workload.h"
#include "delaunay/delaunay.h"
#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "fault/chaos.h"
#include "fault/healer.h"
#include "geom/predicates.h"
#include "graph/union_find.h"
#include "netsim/simulator.h"
#include "proximity/cell_grid.h"
#include "proximity/udg.h"
#include "random/rng.h"
#include "routing/backbone_routing.h"
#include "service/service.h"
#include "shard/tile_engine.h"
#include "verify/audit.h"

namespace {

using namespace geospanner;
using Clock = std::chrono::steady_clock;
using graph::NodeId;

constexpr double kRadius = 1.0;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kMovesPerBatch = 8;
/// The measured part runs as this many rounds of every path.
constexpr std::size_t kRounds = 4;
/// Saturation burst at the end of each round's open-loop segment.
constexpr std::size_t kBatchesPerBurst = 100;
/// Share of --seconds the churn open loop runs for.
constexpr double kOpenLoopShare = 0.4;
/// An open loop that ends with more batches queued than this was fed
/// faster than the service drains: its latencies are not reported.
constexpr std::size_t kBacklogLimit = 8;
constexpr std::size_t kChaosSteps = 600;
constexpr std::size_t kPackets = 8000;  ///< per packet set, one injected per slot
/// Packet sets per round. A set's simulation lasts until its slowest
/// packet arrives, and a rare face walk of thousands of hops can double
/// it; the median over many sets is what stays put.
constexpr std::size_t kPacketSets = 3;
constexpr double kInteriorMargin = 3.0 * kRadius;
constexpr double kPacketRange = 12.0 * kRadius;
constexpr std::size_t kIncircleCalls = std::size_t{1} << 20;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Workloads --------------------------------------------------------

enum class Deployment { kUniform, kHotspot };

/// One workload: the deployment every path's world is drawn from, the
/// world sizes (the ROADMAP reference sizes), and the open-loop rate —
/// about half the service's measured apply capacity on that world.
struct Workload {
    const char* name;
    Deployment deployment;
    std::size_t build_n;
    std::size_t churn_n;
    std::size_t chaos_n;
    double churn_rate_hz;
};

constexpr Workload kWorkloads[] = {
    {"uniform", Deployment::kUniform, 50000, 20000, 5000, 15.0},
    {"hotspot", Deployment::kHotspot, 50000, 20000, 5000, 14.0},
};

/// Square side giving mean UDG degree ~12 at unit radius.
double side_for(std::size_t n) {
    return std::sqrt(static_cast<double>(n) * std::numbers::pi / 12.0);
}

/// Independent sub-seed per input stream, so changing one world's size
/// never reshuffles another's.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Uniform: the paper's deployment. Hotspot: half the nodes uniform,
/// half in Gaussian blobs of ~100 nodes (sigma 1.5 radii), so density and
/// backbone work vary several-fold across the square. Small, numerous
/// blobs keep one seed's world statistically like another's.
std::vector<geom::Point> deploy(Deployment deployment, std::size_t n, std::uint64_t seed) {
    const double side = side_for(n);
    if (deployment == Deployment::kUniform) {
        core::WorkloadConfig config;
        config.node_count = n;
        config.side = side;
        config.radius = kRadius;
        config.seed = seed;
        return core::uniform_points(config);
    }
    rnd::Xoshiro256 rng(seed);
    const std::size_t blobs = std::max<std::size_t>(1, n / 200);
    std::vector<geom::Point> centers;
    for (std::size_t b = 0; b < blobs; ++b) {
        centers.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    const double sigma = 1.5 * kRadius;
    std::vector<geom::Point> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 0) {
            points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
            continue;
        }
        // Redraw offsets that leave the square: clamping would stack
        // coincident points on its corners.
        const geom::Point c = centers[(i / 2) % blobs];
        geom::Point p{-1.0, -1.0};
        while (!(p.x >= 0.0 && p.y >= 0.0 && p.x <= side && p.y <= side)) {
            const double r = sigma * std::sqrt(-2.0 * std::log(1.0 - rng.uniform01()));
            const double theta = 2.0 * std::numbers::pi * rng.uniform01();
            p = {c.x + r * std::cos(theta), c.y + r * std::sin(theta)};
        }
        points.push_back(p);
    }
    return points;
}

/// Digest of the UDG, every backbone graph and the role/connector flags:
/// two builds agree iff their digests do (up to hash collisions).
std::uint64_t digest(const graph::GeometricGraph& udg, const core::Backbone& b) {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    const auto mix = [&h](std::uint64_t x) {
        h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdULL;
    };
    for (const graph::GeometricGraph* g :
         {&udg, &b.cds, &b.cds_prime, &b.icds, &b.icds_prime, &b.ldel_icds,
          &b.ldel_icds_prime}) {
        mix(g->node_count());
        mix(g->edge_count());
        for (NodeId v = 0; v < g->node_count(); ++v) {
            for (const NodeId u : g->neighbors(v)) {
                if (u > v) mix((static_cast<std::uint64_t>(v) << 32) | u);
            }
        }
    }
    for (std::size_t v = 0; v < b.in_backbone.size(); ++v) {
        mix((b.in_backbone[v] ? 1U : 0U) | (b.is_connector[v] ? 2U : 0U) |
            (static_cast<std::uint64_t>(b.cluster.role[v]) << 2));
    }
    return h;
}

// ---- Record stream ----------------------------------------------------

/// Writes the record stream. Only the main thread writes; other threads
/// hand their measurements back through phase-local vectors.
class Out {
  public:
    void meta(std::string_view key, std::string_view text) {
        std::string clean(text);
        std::replace_if(clean.begin(), clean.end(),
                        [](char c) { return c == '\t' || c == '\n' || c == '\r'; }, ' ');
        std::printf("meta\t%.*s\t%s\n", static_cast<int>(key.size()), key.data(),
                    clean.c_str());
    }
    void sample(std::string_view series, double value) {
        std::printf("sample\t%.*s\t%s\n", static_cast<int>(series.size()), series.data(),
                    number(value).c_str());
    }
    void samples(std::string_view series, const std::vector<double>& values) {
        for (const double v : values) sample(series, v);
    }
    void count(std::string_view path, std::size_t attempted, std::size_t failed) {
        std::printf("count\t%.*s\t%zu\t%zu\n", static_cast<int>(path.size()), path.data(),
                    attempted, failed);
    }
    void invalid(const std::string& reason) { std::printf("invalid\t%s\n", reason.c_str()); }

    /// Shortest text that reads back as the same double.
    static std::string number(double v) {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof buf, v);
        return std::string(buf, res.ptr);
    }
};

// ---- Spans ------------------------------------------------------------

struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    int thread = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t items = 0;
    const char* name = "";
};

/// In-memory span store of a traced run. Spans are recorded by the
/// benchmark around its own calls into the library, never inside it.
class Tracer {
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1); }
    [[nodiscard]] double us(Clock::time_point t) const {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    }
    void add(const SpanRecord& span) {
        const std::lock_guard lock(mutex_);
        spans_.push_back(span);
    }
    /// Call only after every recording thread has stopped.
    [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_id_{1};
    std::mutex mutex_;
    std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

thread_local std::uint64_t t_open_span = 0;

int thread_number() {
    static std::atomic<int> next{0};
    thread_local const int mine = next.fetch_add(1);
    return mine;
}

/// RAII span around one call into a layer; its parent is the span open
/// on the same thread. A no-op while tracing is off.
class Span {
  public:
    Span(Tracer& tracer, const char* name, std::uint64_t items = 0)
        : tracer_(tracer.enabled() ? &tracer : nullptr) {
        if (tracer_ == nullptr) return;
        record_.id = tracer_->next_id();
        record_.parent = t_open_span;
        record_.thread = thread_number();
        record_.items = items;
        record_.name = name;
        t_open_span = record_.id;
        record_.start_us = tracer_->us(Clock::now());
    }
    ~Span() {
        if (tracer_ == nullptr) return;
        record_.end_us = tracer_->us(Clock::now());
        t_open_span = record_.parent;
        tracer_->add(record_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void set_items(std::uint64_t items) { record_.items = items; }

  private:
    Tracer* tracer_;
    SpanRecord record_;
};

// ---- Calibration ------------------------------------------------------

/// Fixed reference kernel that shares no code with the library: sort the
/// same 2^18 pseudo-random doubles. Run between the slices of every
/// round; run.py divides the run's timings by its median over the
/// kernel's nominal time, so a host that drifts faster or slower (the
/// benchmark runs on shared machines) moves numerator and denominator
/// alike, while a change to the library moves only the numerator.
class Calibration {
  public:
    Calibration() : values_(std::size_t{1} << 18) {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (double& v : values_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<double>(x >> 11);
        }
    }

    void measure(Out& out, int times = 2) {
        for (int i = 0; i < times; ++i) {
            scratch_ = values_;
            const auto t0 = Clock::now();
            std::sort(scratch_.begin(), scratch_.end());
            out.sample("calibration_ms", ms_between(t0, Clock::now()));
        }
    }

  private:
    std::vector<double> values_;
    std::vector<double> scratch_;
};

// ---- Set-up -----------------------------------------------------------

/// Filled by the service's apply_hook on its ingest worker: when batch k
/// reached apply. The worker is the only writer; the generator reads the
/// atomic count, everything else is read after drain().
struct HookTimes {
    std::vector<Clock::time_point> at;
    std::atomic<std::size_t> count{0};
};

struct World {
    // build path
    std::vector<geom::Point> build_points;
    graph::GeometricGraph reference_udg;
    core::Backbone reference;
    std::uint64_t reference_digest = 0;
    std::unique_ptr<engine::SpannerEngine> lanes4;
    std::unique_ptr<engine::SpannerEngine> lanes1;
    std::unique_ptr<shard::TileShardedEngine> sharded;

    // churn path (members in destruction-safe order: the service last)
    std::vector<geom::Point> churn_points;
    std::vector<dynamic::UpdateBatch> batches;  ///< open loop, then burst
    std::size_t open_batches = 0;
    HookTimes hooks;
    std::unique_ptr<engine::SpannerEngine> churn_engine;
    std::unique_ptr<service::SpannerService> service;
    std::uint64_t version0 = 0;

    // chaos + traffic path
    fault::ChaosSchedule schedule;
    std::unique_ptr<engine::SpannerEngine> chaos_engine;
    std::unique_ptr<dynamic::DynamicSpanner> dyn;
    std::unique_ptr<fault::SelfHealer> healer;
};

std::unique_ptr<engine::SpannerEngine> make_engine(std::size_t lanes) {
    engine::EngineOptions options;
    options.threads = lanes;
    return std::make_unique<engine::SpannerEngine>(options);
}

/// Jittered mobility: every move re-scatters a node within radius/4 of
/// its home position, so density (and patch cost) stays stationary.
std::vector<dynamic::UpdateBatch> churn_batches(const std::vector<geom::Point>& home,
                                                std::size_t count, std::uint64_t seed) {
    rnd::Xoshiro256 rng(seed);
    std::vector<dynamic::UpdateBatch> out(count);
    for (auto& batch : out) {
        for (std::size_t i = 0; i < kMovesPerBatch; ++i) {
            const auto v = static_cast<NodeId>(rng.below(home.size()));
            const double r = 0.25 * kRadius * std::sqrt(rng.uniform01());
            const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
            batch.moves.push_back({v, {home[v].x + r * std::cos(a), home[v].y + r * std::sin(a)}});
        }
    }
    return out;
}

fault::ChaosConfig chaos_config(std::size_t n) {
    fault::ChaosConfig config;
    config.steps = kChaosSteps;
    config.move_rate = 2.0;
    config.crash_rate = 1.0;
    config.outage_rate = 0.01;
    config.join_rate = 1.25;  // ~ crashes plus outage victims: population holds
    config.leave_rate = 0.03;
    config.side = side_for(n);
    return config;
}

std::unique_ptr<World> set_up(const Workload& w, std::uint64_t seed, double seconds) {
    auto world = std::make_unique<World>();

    world->build_points = deploy(w.deployment, w.build_n, sub_seed(seed, 1));
    world->reference_udg = proximity::build_udg(world->build_points, kRadius);
    world->reference =
        core::build_backbone(world->reference_udg, {core::Engine::kCentralized});
    world->reference_digest = digest(world->reference_udg, world->reference);
    world->lanes4 = make_engine(4);
    world->lanes1 = make_engine(1);
    shard::ShardOptions shard_options;
    shard_options.threads = 4;
    world->sharded = std::make_unique<shard::TileShardedEngine>(shard_options);

    world->churn_points = deploy(w.deployment, w.churn_n, sub_seed(seed, 2));
    world->open_batches =
        kRounds * static_cast<std::size_t>(
                      std::llround(kOpenLoopShare * seconds * w.churn_rate_hz / kRounds));
    world->batches = churn_batches(world->churn_points,
                                   world->open_batches + kRounds * kBatchesPerBurst,
                                   sub_seed(seed, 3));
    world->hooks.at.resize(world->batches.size());
    world->churn_engine = make_engine(2);
    service::ServiceOptions options;
    HookTimes* hooks = &world->hooks;
    options.apply_hook = [hooks](const dynamic::UpdateBatch&) {
        const std::size_t k = hooks->count.load(std::memory_order_relaxed);
        if (k < hooks->at.size()) hooks->at[k] = Clock::now();
        hooks->count.store(k + 1, std::memory_order_release);
    };
    world->service = std::make_unique<service::SpannerService>(
        *world->churn_engine, world->churn_points, kRadius, options);
    world->version0 = world->service->snapshot()->version;

    auto chaos_points = deploy(w.deployment, w.chaos_n, sub_seed(seed, 4));
    world->schedule = fault::generate_chaos(chaos_points, kRadius, chaos_config(w.chaos_n),
                                            sub_seed(seed, 5));
    world->chaos_engine = make_engine(2);
    world->dyn = std::make_unique<dynamic::DynamicSpanner>(*world->chaos_engine,
                                                           std::move(chaos_points), kRadius);
    world->healer = std::make_unique<fault::SelfHealer>(world->schedule);
    return world;
}

/// From-scratch reference for a maintained topology.
bool matches_rebuild(engine::SpannerEngine& engine, const std::vector<geom::Point>& points,
                     const graph::GeometricGraph& udg, const core::Backbone& backbone) {
    const engine::BuildResult fresh = engine.build(points, kRadius);
    return digest(fresh.udg, fresh.backbone) == digest(udg, backbone);
}

void emit_patch(Out& out, const dynamic::PatchStats& stats) {
    if (!stats.fell_back) {
        for (const core::StageStats& s : stats.pipeline.stages) {
            std::string name = s.name;
            std::replace(name.begin(), name.end(), '-', '_');
            out.sample("dynamic." + name + "_ms", s.wall_ms);
        }
    }
    out.sample("dynamic.dirty_nodes", static_cast<double>(stats.dirty_nodes));
    out.sample("dynamic.pairs_recomputed", static_cast<double>(stats.pairs_recomputed));
    out.sample("dynamic.triangles_retested", static_cast<double>(stats.triangles_retested));
    out.sample("dynamic.components", static_cast<double>(stats.components.size()));
    out.sample("dynamic.fell_back", stats.fell_back ? 1.0 : 0.0);
    out.sample("dynamic.component_fell_back", stats.component_fallbacks > 0 ? 1.0 : 0.0);
}

// ---- Path: update enqueued -> visible ---------------------------------

struct Observation {
    std::uint64_t version;
    Clock::time_point at;
};

/// The open loop against the service, run as one segment per round so
/// its samples spread over the whole run. Batch k (global index) becomes
/// version v0 + k + 1.
class ChurnPath {
  public:
    ChurnPath(World& w, double rate_hz, Tracer& tracer)
        : w_(w), tracer_(tracer), before_(w.service->stats()), last_seen_(w.version0),
          due_(w.batches.size()), enqueued_(w.batches.size()),
          open_(w.batches.size(), false),
          period_(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / rate_hz))) {}

    /// `count` batches on a fixed schedule with a reader polling, then one
    /// burst of back-to-back batches drained before the segment ends.
    void segment(std::size_t count) {
        service::SpannerService& svc = *w_.service;
        std::atomic<bool> stop{false};
        std::atomic<bool> open_phase{true};
        std::atomic<std::uint64_t> seen{last_seen_};
        std::thread reader([&] {
            while (!stop.load(std::memory_order_acquire)) {
                const auto t0 = Clock::now();
                service::SnapshotHandle snap;
                {
                    Span span(tracer_, "service.snapshot");
                    snap = svc.snapshot();
                }
                const auto t1 = Clock::now();
                const bool counted = open_phase.load(std::memory_order_relaxed);
                if (counted) snapshot_ms_.push_back(ms_between(t0, t1));
                if (snap->version != last_seen_) {
                    if (counted) copy_ms_.push_back(ms_between(t0, t1));
                    observed_.push_back({snap->version, t1});
                    last_seen_ = snap->version;
                    seen.store(last_seen_, std::memory_order_release);
                }
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
        });
        const auto wait_visible = [&](std::size_t batches) {
            const std::uint64_t version = w_.version0 + batches;
            const auto deadline = Clock::now() + std::chrono::seconds(60);
            while (seen.load(std::memory_order_acquire) < version && Clock::now() < deadline) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            visible_ = visible_ && seen.load(std::memory_order_acquire) >= version;
        };

        // Generator (this thread): batch j of the segment is due at
        // start + j / rate, whether or not earlier batches are done.
        const auto start = Clock::now() + std::chrono::milliseconds(20);
        for (std::size_t j = 0; j < count; ++j, ++next_) {
            const std::size_t k = next_;
            open_[k] = true;
            due_[k] = start + period_ * static_cast<long>(j);
            std::this_thread::sleep_until(due_[k]);
            const auto t0 = Clock::now();
            late_ms_.push_back(ms_between(due_[k], t0));
            depth_.push_back(static_cast<double>(k - std::min(k, w_.hooks.count.load())));
            bool accepted = false;
            {
                Span span(tracer_, "service.enqueue", kMovesPerBatch);
                accepted = svc.enqueue(w_.batches[k]);
            }
            enqueued_[k] = Clock::now();
            refused_ += accepted ? 0 : 1;
            enqueue_us_.push_back(1000.0 * ms_between(t0, enqueued_[k]));
        }
        max_backlog_ = std::max(max_backlog_, next_ - std::min(next_, w_.hooks.count.load()));
        wait_visible(next_);
        open_phase.store(false, std::memory_order_relaxed);

        const auto b0 = Clock::now();
        {
            Span span(tracer_, "service.burst", kBatchesPerBurst);
            for (std::size_t j = 0; j < kBatchesPerBurst; ++j, ++next_) {
                refused_ += svc.enqueue(w_.batches[next_]) ? 0 : 1;
            }
            svc.drain();
        }
        burst_rate_.push_back(static_cast<double>(kBatchesPerBurst * kMovesPerBatch) /
                              (ms_between(b0, Clock::now()) / 1000.0));
        wait_visible(next_);
        stop.store(true, std::memory_order_release);
        reader.join();
    }

    void finish(Out& out, engine::SpannerEngine& reference) {
        service::SpannerService& svc = *w_.service;
        const service::ServiceStats after = svc.stats();
        std::size_t failed = refused_ + (after.batches_rejected - before_.batches_rejected) +
                             (after.batches_coalesced - before_.batches_coalesced) +
                             (after.batches_quarantined - before_.batches_quarantined);
        // Batch k must be exactly version v0 + k + 1: nothing merged or lost.
        if (after.version != w_.version0 + next_ ||
            after.batches_applied - before_.batches_applied != next_ ||
            w_.hooks.count.load() != next_ || !visible_) {
            out.meta("churn_error", "service versions do not map one-to-one onto batches");
            failed += next_;
        }

        std::vector<double> visible_ms, wait_ms, publish_ms;
        std::size_t seen = 0;
        for (std::size_t k = 0; k < next_; ++k) {
            const std::uint64_t target = w_.version0 + k + 1;
            while (seen < observed_.size() && observed_[seen].version < target) ++seen;
            if (seen == observed_.size()) {
                ++failed;  // never visible
                continue;
            }
            if (!open_[k]) continue;
            visible_ms.push_back(ms_between(due_[k], observed_[seen].at));
            wait_ms.push_back(ms_between(enqueued_[k], w_.hooks.at[k]));
            publish_ms.push_back(ms_between(w_.hooks.at[k], observed_[seen].at));
        }

        const service::SnapshotHandle last = svc.snapshot();
        if (!matches_rebuild(reference, last->points, last->udg, last->backbone)) {
            out.meta("churn_error", "final snapshot differs from a from-scratch build");
            ++failed;
        }
        if (max_backlog_ > kBacklogLimit) {
            out.invalid("open loop backlog grew to " + std::to_string(max_backlog_) +
                        " batches");
        }

        out.count("churn", next_, failed);
        out.samples("churn.visible_ms", visible_ms);
        out.samples("churn.snapshot_ms", snapshot_ms_);
        out.samples("churn.burst_updates_per_s", burst_rate_);
        out.samples("service.enqueue_us", enqueue_us_);
        out.samples("service.gen_late_ms", late_ms_);
        out.samples("service.queue_depth", depth_);
        out.sample("service.backlog_end", static_cast<double>(max_backlog_));
        out.samples("service.queue_wait_ms", wait_ms);
        out.samples("service.apply_publish_ms", publish_ms);
        out.samples("service.snapshot_copy_ms", copy_ms_);
        out.sample("service.apply_ms", (after.apply_ms_total - before_.apply_ms_total) /
                                           static_cast<double>(next_));
    }

  private:
    World& w_;
    Tracer& tracer_;
    service::ServiceStats before_;
    std::uint64_t last_seen_;  ///< newest version the reader saw
    std::vector<Clock::time_point> due_, enqueued_;
    std::vector<bool> open_;  ///< batch was sent by the open loop (not a burst)
    Clock::duration period_;
    std::size_t next_ = 0;  ///< next batch to send
    std::size_t refused_ = 0;
    std::size_t max_backlog_ = 0;
    bool visible_ = true;
    std::vector<Observation> observed_;
    std::vector<double> snapshot_ms_, copy_ms_, enqueue_us_, late_ms_, depth_, burst_rate_;
};

/// Traced runs only: the identical batch stream through a bare
/// DynamicSpanner, for the patch-kernel breakdown without the service.
void replay_churn(const World& w, Out& out, Tracer& tracer) {
    const auto engine = make_engine(2);
    dynamic::DynamicSpanner dyn(*engine, w.churn_points, kRadius);
    for (const dynamic::UpdateBatch& batch : w.batches) {
        Span span(tracer, "dynamic.apply", batch.moves.size());
        emit_patch(out, dyn.apply(batch));
    }
}

// ---- Path: chaos event -> repaired topology ---------------------------

/// The Lemma certificates of verify::audit_backbone, with its default
/// caps, that scale to a benchmark world: Lemma 4 (degree caps), 7
/// (planarity), 8 (connectivity), the ICDS definition and, with
/// `packing`, Lemmas 1-2 (dominator packing: 16 s at n=50k, so only on
/// the smaller chaos world). audit_backbone's all-pairs stretch check
/// (Lemmas 5, 6) is quadratic and is left out. Returns the first
/// failure's summary, or "" when every certificate holds.
std::string certify(const graph::GeometricGraph& udg, const core::Backbone& backbone,
                    bool packing) {
    verify::AuditOptions caps;
    caps.radius = kRadius;
    std::vector<verify::AuditReport> reports{
        verify::check_backbone_degree(backbone, caps),
        verify::check_planarity_certificate(backbone.ldel_icds, caps),
        verify::check_connectivity_preserved(udg, backbone, caps)};
    for (verify::AuditReport& r : verify::audit_icds(udg, backbone.in_backbone, backbone.icds, caps).reports) {
        reports.push_back(std::move(r));
    }
    if (packing) reports.push_back(verify::check_dominator_packing(udg, backbone.cluster, caps));
    for (const verify::AuditReport& r : reports) {
        if (!r.pass) return r.summary();
    }
    return "";
}

// ---- Path: chaos event -> repaired topology ---------------------------


class ChaosPath {
  public:
    ChaosPath(World& w, Tracer& tracer) : w_(w), tracer_(tracer) {}

    /// Replays every schedule event of steps [0, step_end).
    void advance(std::size_t step_end, Out& out) {
        const auto& events = w_.schedule.events;
        while (cursor_ < events.size() && events[cursor_].step < step_end) {
            std::size_t last = cursor_;
            while (last < events.size() && events[last].step == events[cursor_].step) ++last;
            const std::vector<fault::ChaosEvent> step(
                events.begin() + static_cast<long>(cursor_),
                events.begin() + static_cast<long>(last));
            cursor_ = last;

            const auto t0 = Clock::now();
            std::vector<fault::SelfHealer::Translated> translated;
            {
                Span span(tracer_, "fault.translate", step.size());
                translated = w_.healer->translate(step);
            }
            const double translate_ms = ms_between(t0, Clock::now());
            translate_us_.push_back(1000.0 * translate_ms);
            for (const auto& t : translated) {
                const auto a0 = Clock::now();
                dynamic::PatchStats stats;
                {
                    Span span(tracer_, "dynamic.apply",
                              t.crash_count + t.churn_moves + t.joins + t.leaves);
                    stats = w_.dyn->apply(t.batch);
                }
                const double apply_ms = ms_between(a0, Clock::now());
                ++batches_;
                crashes_ += t.crash_count;
                // A crash's repair: its step handed to translate, plus the
                // apply of the crash batch.
                if (t.repair()) repair_ms_.push_back(translate_ms + apply_ms);
                if (t.leaves > 0) rebuild_ms_.push_back(apply_ms);
                emit_patch(out, stats);
            }
        }
    }

    void finish(Out& out, engine::SpannerEngine& reference) {
        std::size_t failed = 0;
        const dynamic::DynamicSpanner& dyn = *w_.dyn;
        if (!matches_rebuild(reference, dyn.positions(), dyn.udg(), dyn.backbone())) {
            out.meta("chaos_error", "repaired topology differs from a from-scratch build");
            ++failed;
        }
        const std::string failure = certify(dyn.udg(), dyn.backbone(), true);
        if (!failure.empty()) {
            out.meta("chaos_error", failure);
            ++failed;
        }
        out.count("chaos", batches_ + 1, failed);
        out.samples("chaos.repair_ms", repair_ms_);
        out.samples("chaos.rebuild_ms", rebuild_ms_);
        out.samples("fault.translate_us", translate_us_);
        out.sample("fault.crashes", static_cast<double>(crashes_));
        out.sample("fault.stale_skipped", static_cast<double>(w_.healer->stale_skipped()));
    }

  private:
    World& w_;
    Tracer& tracer_;
    std::size_t cursor_ = 0;  ///< next schedule event
    std::size_t batches_ = 0;
    std::size_t crashes_ = 0;
    std::vector<double> repair_ms_, rebuild_ms_, translate_us_;
};

// ---- Path: packet injected -> delivered -------------------------------

/// Routes survivor packet sets over the current healed topology; run in
/// every round, so the packet sets follow the chaos world's state.
class TrafficPath {
  public:
    TrafficPath(World& w, std::uint64_t seed, Tracer& tracer)
        : w_(w), seed_(seed), tracer_(tracer) {}

    /// Routes packet set `index` (drawn from the seed) over the current
    /// healed world.
    void run(std::size_t index, Out& out) {
        const graph::GeometricGraph& udg = w_.dyn->udg();
        const std::vector<char>& dead = w_.healer->world().dead;
        const std::size_t n = udg.node_count();

        // Survivor packets: both ends alive, UDG-connected (so every
        // packet must be delivered), at least kInteriorMargin from the
        // deployment's edge and at most kPacketRange apart. Routes between
        // nearby interior nodes stay clear of the outer face, whose walk
        // (hundreds of hops) would otherwise make the packet mix depend on
        // each seed's boundary and hole layout.
        if (dead.size() != n) throw std::runtime_error("healer and spanner disagree on n");
        const double side = w_.schedule.config.side;
        const auto interior = [&](NodeId v) {
            const geom::Point p = udg.point(v);
            return p.x >= kInteriorMargin && p.y >= kInteriorMargin &&
                   p.x <= side - kInteriorMargin && p.y <= side - kInteriorMargin;
        };
        graph::UnionFind components(n);
        for (NodeId v = 0; v < n; ++v) {
            for (const NodeId u : udg.neighbors(v)) components.unite(v, u);
        }
        std::vector<netsim::Injection> traffic;
        rnd::Xoshiro256 rng(sub_seed(seed_, 100 + index));
        for (std::size_t tries = 0; traffic.size() < kPackets && tries < 100 * kPackets;
             ++tries) {
            const auto s = static_cast<NodeId>(rng.below(n));
            const auto t = static_cast<NodeId>(rng.below(n));
            if (s == t || dead[s] != 0 || dead[t] != 0 || !interior(s) || !interior(t) ||
                geom::distance(udg.point(s), udg.point(t)) > kPacketRange ||
                components.find(s) != components.find(t)) {
                continue;
            }
            traffic.push_back({traffic.size(), s, t});
        }

        netsim::Config config;
        config.dead = dead;
        // Traced runs route the same packets once more with spans off
        // first: the traffic slice records the most spans per second, so
        // its on/off difference bounds the tracing overhead.
        if (tracer_.enabled()) {
            tracer_.set_enabled(false);
            out.sample("trace.traffic_off_ms", simulate(traffic, config, out, false));
            tracer_.set_enabled(true);
            out.sample("trace.traffic_on_ms", simulate(traffic, config, out, true));
        } else {
            simulate(traffic, config, out, true);
        }
    }

    void finish(Out& out) {
        out.count("traffic", attempted_, failed_);
        out.samples("traffic.slots", slots_);
        out.samples("routing.route_us", route_us_);
    }

  private:
    /// Router construction plus the simulation of `traffic`; with
    /// `record`, also the samples and checks of the path. Returns ms.
    double simulate(const std::vector<netsim::Injection>& traffic, const netsim::Config& config,
                    Out& out, bool record) {
        const graph::GeometricGraph& udg = w_.dyn->udg();
        const core::Backbone& backbone = w_.dyn->backbone();
        const std::size_t n = udg.node_count();
        NodeId longest_src = 0, longest_dst = 0;
        std::size_t longest = 0;
        const auto t0 = Clock::now();
        std::unique_ptr<routing::BackboneRouter> router;
        {
            Span span(tracer_, "routing.router_build", backbone.backbone_size());
            router = std::make_unique<routing::BackboneRouter>(backbone, udg);
        }
        const auto t1 = Clock::now();
        const bool timed = tracer_.enabled();
        const netsim::RouteFn route = [&](NodeId s, NodeId t) {
            const auto r0 = timed ? Clock::now() : Clock::time_point{};
            routing::RouteResult result;
            {
                Span span(tracer_, "routing.route");
                result = router->route(s, t);
            }
            if (timed) route_us_.push_back(1000.0 * ms_between(r0, Clock::now()));
            if (!result.delivered) return std::vector<NodeId>{};
            if (record) slots_.push_back(static_cast<double>(result.hops()));
            if (result.hops() > longest) {
                longest = result.hops();
                longest_src = s;
                longest_dst = t;
            }
            return std::move(result.path);
        };
        netsim::Stats stats;
        {
            Span span(tracer_, "netsim.run_simulation", traffic.size());
            stats = netsim::run_simulation(n, route, traffic, config);
        }
        const double ms = ms_between(t0, Clock::now());
        if (!record) return ms;

        out.sample("traffic.ms", ms);
        out.sample("routing.router_build_ms", ms_between(t0, t1));
        out.sample("netsim.max_queue_depth", static_cast<double>(stats.max_queue_depth));
        out.sample("netsim.max_load_share", stats.max_load_share());
        out.sample("netsim.mean_slots", stats.avg_latency());
        attempted_ += traffic.size();
        failed_ += stats.injected - stats.delivered;

        // On an idle network a packet advances one hop per slot, so its
        // delivery latency in slots is its route's hop count; check that
        // on the longest route before reporting hop counts as slots.
        if (longest > 0) {
            const std::vector<netsim::Injection> alone{{0, longest_src, longest_dst}};
            const netsim::Stats single = netsim::run_simulation(
                n, [&](NodeId s, NodeId t) { return router->route(s, t).path; }, alone, config);
            if (single.delivered != 1 || single.max_latency != longest) {
                out.meta("traffic_error", "idle-network latency differs from the hop count");
                ++failed_;
            }
        }
        return ms;
    }

    World& w_;
    std::uint64_t seed_;
    Tracer& tracer_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<double> slots_, route_us_;
};

// ---- Path: points -> certified LDel(ICDS') ----------------------------

void emit_stages(Out& out, const std::string& prefix, const core::PipelineStats& stats) {
    for (const core::StageStats& s : stats.stages) out.sample(prefix + s.name + "_ms", s.wall_ms);
}

class BuildPath {
  public:
    BuildPath(World& w, Tracer& tracer) : w_(w), tracer_(tracer) {}

    /// The same points built at 4 lanes, at 1 lane and tile-sharded, each
    /// checked against the set-up reference.
    void iteration(Out& out) {
        const std::size_t n = w_.build_points.size();
        const auto t0 = Clock::now();
        geom::reset_predicate_counters();
        engine::BuildResult r4;
        {
            Span span(tracer_, "engine.build", n);
            r4 = w_.lanes4->build(w_.build_points, kRadius);
        }
        const auto t1 = Clock::now();
        const geom::PredicateCounters predicates = geom::predicate_counters();
        engine::BuildResult r1;
        {
            Span span(tracer_, "engine.build_1lane", n);
            r1 = w_.lanes1->build(w_.build_points, kRadius);
        }
        const auto t2 = Clock::now();
        shard::ShardBuildResult rs;
        {
            Span span(tracer_, "shard.build", n);
            rs = w_.sharded->build(w_.build_points, kRadius);
        }
        const auto t3 = Clock::now();

        out.sample("build.lanes4_ms", ms_between(t0, t1));
        out.sample("build.lanes1_ms", ms_between(t1, t2));
        out.sample("build.shard_ms", ms_between(t2, t3));
        emit_stages(out, "engine.", r4.stats);
        emit_stages(out, "engine_1lane.", r1.stats);
        emit_stages(out, "shard.", rs.stats);
        out.sample("engine.stage_gap_ms", ms_between(t0, t1) - r4.stats.total_ms());
        for (const core::StageStats& s : r4.stats.stages) {
            if (s.name == "connectors" || s.name == "ldel" || s.name == "planarize") {
                out.sample("engine." + s.name + "_items", static_cast<double>(s.items));
            }
        }
        double tile_max = 0.0;
        double region_total = 0.0;
        for (const shard::ShardStats& s : rs.shards) {
            tile_max = std::max(tile_max, s.stats.total_ms());
            region_total += static_cast<double>(s.region);
        }
        out.sample("shard.tile_ms_max", tile_max);
        out.sample("shard.halo_overhead", region_total / static_cast<double>(n));
        out.sample("geom.pred_calls", static_cast<double>(predicates.total()));
        out.sample("geom.pred_exact_share", static_cast<double>(predicates.exact_total()) /
                                                static_cast<double>(predicates.total()));

        for (const std::uint64_t d : {digest(r4.udg, r4.backbone), digest(r1.udg, r1.backbone),
                                      digest(rs.udg, rs.backbone)}) {
            ++attempted_;
            failed_ += d == w_.reference_digest ? 0 : 1;
        }
        if (iterations_ == 0) {
            ++attempted_;
            const std::string failure = certify(r4.udg, r4.backbone, false);
            if (!failure.empty()) {
                ++failed_;
                out.meta("build_error", failure);
            }
        }
        ++iterations_;
    }

    void finish(Out& out) { out.count("build", attempted_, failed_); }

  private:
    World& w_;
    Tracer& tracer_;
    std::size_t iterations_ = 0;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

// ---- Kernel probes (traced runs) --------------------------------------

void run_probes(const World& w, Out& out, Tracer& tracer) {
    const std::vector<geom::Point>& points = w.build_points;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        Span span(tracer, "proximity.grid_build", points.size());
        const proximity::CompactCellGrid grid(points, kRadius);
        out.sample("proximity.grid_build_ms", ms_between(t0, Clock::now()));
    }
    const proximity::CompactCellGrid grid(points, kRadius);
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        Span span(tracer, "proximity.grid_scan", points.size());
        std::size_t hits = 0;
        for (NodeId v = 0; v < points.size(); ++v) {
            grid.for_neighbors_above(points[v], v, kRadius * kRadius, [&hits](NodeId) { ++hits; });
        }
        out.sample("proximity.grid_scan_ms", ms_between(t0, Clock::now()));
        if (hits != w.reference_udg.edge_count()) out.meta("probe_error", "grid scan edge count");
    }

    // Every backbone node's 1-hop ICDS set through one Workspace: the
    // LDel stage's per-node kernel.
    const graph::GeometricGraph& icds = w.reference.icds;
    delaunay::Workspace workspace;
    std::vector<geom::Point> local;
    std::vector<delaunay::Triangle> triangles;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        Span span(tracer, "delaunay.triangulate");
        std::size_t calls = 0;
        for (NodeId v = 0; v < icds.node_count(); ++v) {
            if (!w.reference.in_backbone[v]) continue;
            local.assign(1, icds.point(v));
            for (const NodeId u : icds.neighbors(v)) local.push_back(icds.point(u));
            triangles.clear();
            delaunay::triangulate(local, workspace, triangles);
            ++calls;
        }
        span.set_items(calls);
        out.sample("delaunay.triangulate_ms", ms_between(t0, Clock::now()));
    }

    // Filtered in-circle test over the LDel triangles' corners, the query
    // point drawn from the same neighbourhood.
    std::vector<std::array<geom::Point, 4>> quads;
    rnd::Xoshiro256 rng(7);
    const auto& tris = w.reference.ldel_triangles;
    for (std::size_t i = 0; i < 4096 && !tris.empty(); ++i) {
        const auto& t = tris[rng.below(tris.size())];
        std::array<geom::Point, 4> q{points[t.a], points[t.b], points[t.c],
                                     points[tris[rng.below(tris.size())].a]};
        if (geom::orient_sign(q[0], q[1], q[2]) < 0) std::swap(q[1], q[2]);
        if (geom::orient_sign(q[0], q[1], q[2]) > 0) quads.push_back(q);
        const geom::Point c = points[t.a];
        q[3] = {c.x + rng.uniform(-kRadius, kRadius), c.y + rng.uniform(-kRadius, kRadius)};
        if (geom::orient_sign(q[0], q[1], q[2]) > 0) quads.push_back(q);
    }
    if (!quads.empty()) {
        const auto t0 = Clock::now();
        Span span(tracer, "geom.incircle", kIncircleCalls);
        int acc = 0;
        for (std::size_t i = 0; i < kIncircleCalls; ++i) {
            const auto& q = quads[i % quads.size()];
            acc += geom::incircle_ccw(q[0], q[1], q[2], q[3]);
        }
        out.sample("geom.incircle_ns",
                   1e6 * ms_between(t0, Clock::now()) / static_cast<double>(kIncircleCalls));
        out.meta("incircle_checksum", std::to_string(acc));
    }
}

void emit_spans(const Tracer& tracer) {
    for (const SpanRecord& s : tracer.spans()) {
        std::printf("span\t%llu\t%llu\t%d\t%s\t%s\t%llu\t%s\n",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.thread,
                    Out::number(s.start_us).c_str(), Out::number(s.end_us).c_str(),
                    static_cast<unsigned long long>(s.items), s.name);
    }
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            workload_name = value;
        } else if (key == "--seed") {
            seed = std::strtoull(value, &end, 10);
            if (*end != '\0') return usage("--seed must be a whole number");
        } else if (key == "--seconds") {
            seconds = std::strtod(value, &end);
            if (*end != '\0' || !(seconds > 0.0 && seconds <= 600.0)) {
                return usage("--seconds must be in (0, 600]");
            }
        } else if (key == "--trace") {
            if (std::string_view(value) != "0" && std::string_view(value) != "1") {
                return usage("--trace must be 0 or 1");
            }
            trace = value[0] - '0';
        } else {
            return usage("unknown argument");
        }
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads) {
        if (workload_name == w.name) wl = &w;
    }
    if (wl == nullptr || seconds <= 0.0 || trace < 0) return usage("missing or unknown argument");

    try {
        const auto origin = Clock::now();
        Out out;
        Tracer tracer(origin);
        out.meta("workload", wl->name);
        out.meta("seed", std::to_string(seed));
        out.meta("seconds", Out::number(seconds));
        out.meta("trace", std::to_string(trace));
        out.meta("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
        out.meta("lanes", "build=4,1 shard=4 churn=2 chaos=2");
        out.meta("sizes", "build=" + std::to_string(wl->build_n) +
                              " churn=" + std::to_string(wl->churn_n) +
                              " chaos=" + std::to_string(wl->chaos_n));
        out.meta("churn_rate_hz", Out::number(wl->churn_rate_hz));
        out.meta("compiler", PERFBENCH_COMPILER " (" __VERSION__ ")");
        out.meta("build_type", PERFBENCH_BUILD_TYPE);
        out.meta("cxx_flags", PERFBENCH_CXX_FLAGS);

        Calibration calibration;
        std::unique_ptr<World> world;
        for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
            world.reset();
            calibration.measure(out);
            const auto t0 = Clock::now();
            world = set_up(*wl, seed, seconds);
            out.sample("setup_s", ms_between(t0, Clock::now()) / 1000.0);
        }

        // The measured part runs in rounds, each a slice of every path, so
        // a slow spell of the machine lands on all metrics alike instead
        // of on whichever path happened to run then.
        tracer.set_enabled(trace == 1);
        ChurnPath churn(*world, wl->churn_rate_hz, tracer);
        ChaosPath chaos(*world, tracer);
        TrafficPath traffic(*world, seed, tracer);
        BuildPath build(*world, tracer);
        const auto measure0 = Clock::now();
        for (std::size_t r = 0; r < kRounds; ++r) {
            const auto round_end =
                measure0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                               seconds * static_cast<double>(r + 1) / kRounds));
            calibration.measure(out);
            churn.segment(world->open_batches / kRounds);
            calibration.measure(out);
            chaos.advance(kChaosSteps * (r + 1) / kRounds, out);
            calibration.measure(out);
            for (std::size_t set = 0; set < kPacketSets; ++set) traffic.run(r * kPacketSets + set, out);
            calibration.measure(out);
            do {
                build.iteration(out);
            } while (Clock::now() < round_end);
        }
        churn.finish(out, *world->lanes4);
        chaos.finish(out, *world->lanes4);
        traffic.finish(out);
        build.finish(out);

        if (trace == 1) {
            replay_churn(*world, out, tracer);
            run_probes(*world, out, tracer);
        }
        world.reset();  // joins the service and every pool before spans are read

        rusage usage_now{};
        getrusage(RUSAGE_SELF, &usage_now);
        out.sample("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0);
        if (trace == 1) emit_spans(tracer);
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
