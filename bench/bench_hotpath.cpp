// Construction hot-path microbenches: the kernels a build spends
// its time in, measured in isolation so regressions are attributable
// before they blur into full-pipeline wall time.
//
//  * cell grid — CSR build cost and batched 3x3 neighbor enumeration
//    over the gathered coordinate columns (candidate visits/s);
//  * incircle — filtered in-circumcircle throughput on a uniform
//    workload, with the float filter's hit rate from the predicate
//    counters (the exact-fallback share is the robustness tax);
//  * Bowyer–Watson — workspace-reusing Delaunay insertion rate on
//    Morton-ordered inserts (points/s);
//  * local Delaunay — one node's local_triangles_at (the gift-wrap walk
//    of its Delaunay star) over d = 8..128 neighbors, next to a whole
//    Bowyer–Watson triangulation of the same neighborhood. The walk
//    costs O(d·k) predicates for star size k: ns per d·k stays flat if
//    that holds, and BW's ns per d·log2 d is its own yardstick. One
//    more row puts u on an exactly cocircular ring, where k = d and
//    every in-circle test is an exact tie: the O(d²) worst case;
//  * Algorithm 3 filter — Alg3Filter over the deployment's LDel⁽¹⁾
//    triangles, built and scanned as one block (planarize_triangles'
//    shape), with predicate calls per triangle from the counters: the
//    separating-line exit keeps this near the few orientations a
//    disjoint pair costs.
//
// One JSON object per kernel is appended to $GS_BENCH_JSON (default
// BENCH_hotpath.json). GS_BENCH_TRIALS controls repetitions (best-of);
// GS_BENCH_NMAX caps the point-set size.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/workload.h"
#include "delaunay/delaunay.h"
#include "geom/predicates.h"
#include "proximity/cell_grid.h"
#include "proximity/ldel.h"
#include "proximity/udg.h"
#include "random/rng.h"

using namespace geospanner;

namespace {

using Clock = std::chrono::steady_clock;

double run_ms(const std::function<void()>& fn) {
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double best_of(std::size_t trials, const std::function<void()>& fn) {
    double best = run_ms(fn);
    for (std::size_t t = 1; t < trials; ++t) best = std::min(best, run_ms(fn));
    return best;
}

/// Uniform deployment with expected UDG degree ~12 at unit radius.
std::vector<geom::Point> deployment(std::size_t n, std::uint64_t seed) {
    core::WorkloadConfig config;
    config.node_count = n;
    config.side = std::sqrt(static_cast<double>(n) * 3.14159265358979 / 12.0);
    config.seed = seed;
    return core::uniform_points(config);
}

}  // namespace

int main() {
    const std::size_t trials = bench::trials_or(3);
    const std::size_t n = bench::nmax_or(50'000);
    const bench::JsonSink sink("hotpath", "BENCH_hotpath.json");
    const auto points = deployment(n, 4242);
    std::cout << "hot-path kernels (n=" << n << ", trials=" << trials << ")\n\n";

    // ---- Cell grid: CSR build + batched neighbor enumeration. ----
    {
        const double build_ms =
            best_of(trials, [&] { proximity::CompactCellGrid rebuilt(points, 1.0); });
        const proximity::CompactCellGrid grid(points, 1.0);
        std::size_t neighbor_pairs = 0;
        const double scan_ms = best_of(trials, [&] {
            std::size_t found = 0;
            for (graph::NodeId v = 0; v < points.size(); ++v) {
                grid.for_neighbors_above(points[v], v, 1.0,
                                         [&](graph::NodeId) { ++found; });
            }
            neighbor_pairs = found;
        });
        const double scans_per_s =
            scan_ms > 0.0 ? 1000.0 * static_cast<double>(points.size()) / scan_ms : 0.0;
        std::cout << "cell grid      build " << build_ms << " ms, full scan " << scan_ms
                  << " ms (" << scans_per_s << " node scans/s, " << neighbor_pairs
                  << " pairs)\n";
        auto obj = sink.row();
        obj.add("kernel", "cell_grid")
            .add("n", n)
            .add("build_ms", build_ms)
            .add("scan_ms", scan_ms)
            .add("node_scans_per_s", scans_per_s)
            .add("neighbor_pairs", neighbor_pairs);
        sink.emit(obj);
    }

    // ---- Incircle: filtered throughput + filter hit rate. ----
    {
        // Random CCW triples and query points drawn from the deployment:
        // the distribution the Delaunay stage actually evaluates.
        rnd::Xoshiro256 rng(99);
        struct Query {
            geom::Point a, b, c, d;
        };
        std::vector<Query> queries;
        queries.reserve(200'000);
        while (queries.size() < 200'000) {
            Query q{points[rng.below(points.size())], points[rng.below(points.size())],
                    points[rng.below(points.size())], points[rng.below(points.size())]};
            const int o = geom::orient_sign(q.a, q.b, q.c);
            if (o == 0) continue;
            if (o < 0) std::swap(q.b, q.c);
            queries.push_back(q);
        }
        geom::reset_predicate_counters();
        long long acc = 0;
        const double ms = best_of(trials, [&] {
            long long sum = 0;
            for (const Query& q : queries) sum += geom::incircle_ccw(q.a, q.b, q.c, q.d);
            acc = sum;
        });
        const geom::PredicateCounters preds = geom::predicate_counters();
        const std::uint64_t calls = preds.incircle_fast + preds.incircle_exact;
        const double hit_rate =
            calls > 0 ? static_cast<double>(preds.incircle_fast) /
                            static_cast<double>(calls)
                      : 1.0;
        const double per_s =
            ms > 0.0 ? 1000.0 * static_cast<double>(queries.size()) / ms : 0.0;
        std::cout << "incircle       " << per_s << " calls/s, filter hit rate "
                  << hit_rate << " (sign sum " << acc << ")\n";
        auto obj = sink.row();
        obj.add("kernel", "incircle")
            .add("calls", queries.size())
            .add("wall_ms", ms)
            .add("calls_per_s", per_s)
            .add("filter_hit_rate", hit_rate);
        sink.emit(obj);
    }

    // ---- Bowyer–Watson: workspace-reusing insertion rate. ----
    {
        delaunay::Workspace ws;
        std::vector<delaunay::Triangle> tris;
        std::size_t triangles = 0;
        const double ms = best_of(trials, [&] {
            tris.clear();
            delaunay::triangulate(points, ws, tris);
            triangles = tris.size();
        });
        const double inserts_per_s =
            ms > 0.0 ? 1000.0 * static_cast<double>(points.size()) / ms : 0.0;
        std::cout << "bowyer-watson  " << inserts_per_s << " inserts/s (" << triangles
                  << " triangles)\n";
        auto obj = sink.row();
        obj.add("kernel", "bowyer_watson")
            .add("n", n)
            .add("wall_ms", ms)
            .add("inserts_per_s", inserts_per_s)
            .add("triangles", triangles);
        sink.emit(obj);
    }

    // ---- Local Delaunay per node: star walk vs Bowyer–Watson. ----
    // Times both kernels on node u of `pts`, every other point of which
    // is u's neighbor at `radius`, and emits one row.
    const auto local_delaunay_row = [&](const char* shape, const std::vector<geom::Point>& pts,
                                        graph::NodeId u, double radius) {
        const std::size_t d = pts.size() - 1;
        const auto udg = proximity::build_udg(pts, radius);
        // Star size k: u's Delaunay triangles before the far-side edge
        // filter, i.e. in the complete graph on the same points.
        const std::size_t k =
            proximity::local_triangles_at(proximity::build_udg(pts, 2.0 * radius), u).size();
        proximity::LocalDelaunayScratch scratch;
        std::vector<proximity::TriangleKey> tris;
        delaunay::Workspace ws;
        std::vector<delaunay::Triangle> bw_tris;
        const std::size_t calls = std::max<std::size_t>(200'000 / (d + d * k / 8), 50);
        const double ms = best_of(trials, [&] {
            for (std::size_t i = 0; i < calls; ++i) {
                proximity::local_triangles_at(udg, u, scratch, tris);
            }
        });
        const double bw_ms = best_of(trials, [&] {
            for (std::size_t i = 0; i < calls; ++i) {
                bw_tris.clear();
                delaunay::triangulate(pts, ws, bw_tris);
            }
        });
        const double ns = 1e6 * ms / static_cast<double>(calls);
        const double bw_ns = 1e6 * bw_ms / static_cast<double>(calls);
        const double dd = static_cast<double>(d);
        const double per_dk = ns / (dd * static_cast<double>(std::max<std::size_t>(k, 1)));
        const double bw_per_dlogd = bw_ns / (dd * std::log2(dd));
        std::cout << "local delaunay " << shape << " d=" << d << " k=" << k << "  star " << ns
                  << " ns/call (" << per_dk << " ns per d·k), bowyer-watson " << bw_ns
                  << " ns/call (" << bw_per_dlogd << " ns per d·log2 d), " << tris.size()
                  << " triangles\n";
        auto obj = sink.row();
        obj.add("kernel", "local_delaunay")
            .add("shape", shape)
            .add("d", d)
            .add("k", k)
            .add("calls", calls)
            .add("ns_per_call", ns)
            .add("ns_per_dk", per_dk)
            .add("bw_ns_per_call", bw_ns)
            .add("bw_ns_per_dlogd", bw_per_dlogd)
            .add("speedup", ns > 0.0 ? bw_ns / ns : 0.0)
            .add("triangles", tris.size());
        sink.emit(obj);
    };
    for (std::size_t d = 8; d <= 128; d *= 2) {
        // Node 0 at the origin with d neighbors drawn inside the unit disk.
        rnd::Xoshiro256 rng(4);
        std::vector<geom::Point> pts{{0.0, 0.0}};
        while (pts.size() < d + 1) {
            const geom::Point p{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            if (geom::squared_norm(p) <= 1.0) pts.push_back(p);
        }
        local_delaunay_row("disk", pts, 0, 1.0);
    }
    {
        // 129 of the 324 integer points on x² + y² = 32045² (32045 =
        // 5·13·17·29), evenly spaced by angle: exact doubles, exactly
        // cocircular, so every in-circle test ties. u takes the largest
        // id, which the tie rule lifts least: u's star is then the fan to
        // all d = 128 others.
        constexpr long long kR = 32045;
        std::vector<geom::Point> ring;
        for (long long x = -kR; x <= kR; ++x) {
            const long long y2 = kR * kR - x * x;
            const auto y = std::llround(std::sqrt(static_cast<double>(y2)));
            if (y * y != y2) continue;
            ring.push_back({static_cast<double>(x), static_cast<double>(y)});
            if (y != 0) ring.push_back({static_cast<double>(x), static_cast<double>(-y)});
        }
        std::ranges::sort(ring, [](geom::Point a, geom::Point b) {
            return std::atan2(a.y, a.x) < std::atan2(b.y, b.x);
        });
        std::vector<geom::Point> pts;
        for (std::size_t i = 0; i < 129; ++i) pts.push_back(ring[i * ring.size() / 129]);
        local_delaunay_row("cocircular_ring", pts, 128, 2.0 * kR);
    }

    // ---- Algorithm 3 filter: one-block scan over LDel⁽¹⁾. ----
    {
        const auto udg = proximity::build_udg(points, 1.0);
        const auto triangles = proximity::ldel1_triangles(udg);
        std::size_t removed = 0;
        const auto scan = [&] {
            const proximity::Alg3Filter filter(udg, triangles);
            std::vector<std::uint32_t> list;
            filter.removal_scan(0, filter.cell_count(), list);
            removed = triangles.size() - filter.survivors({&list, 1}).size();
        };
        geom::reset_predicate_counters();
        scan();
        const std::uint64_t pred_calls = geom::predicate_counters().total();
        const double ms = best_of(trials, scan);
        const double per_triangle =
            triangles.empty() ? 0.0
                              : static_cast<double>(pred_calls) /
                                    static_cast<double>(triangles.size());
        std::cout << "alg3 filter    " << ms << " ms over " << triangles.size()
                  << " triangles, " << per_triangle << " predicate calls per triangle ("
                  << removed << " removed)\n";
        auto obj = sink.row();
        obj.add("kernel", "alg3_filter")
            .add("n", n)
            .add("wall_ms", ms)
            .add("triangles", triangles.size())
            .add("pred_calls_per_triangle", per_triangle)
            .add("removed", removed);
        sink.emit(obj);
    }

    std::cout << "\nJSON appended to " << sink.path() << '\n';
    return 0;
}
