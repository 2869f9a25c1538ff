// Robust predicate correctness, including adversarial near-degeneracies
// that defeat plain double arithmetic.
#include "geom/predicates.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "geom/vec2.h"
#include "random/rng.h"

namespace geospanner::geom {
namespace {

TEST(Orient, BasicTurns) {
    EXPECT_EQ(orient_sign({0, 0}, {1, 0}, {0, 1}), 1);   // Left turn.
    EXPECT_EQ(orient_sign({0, 0}, {1, 0}, {0, -1}), -1); // Right turn.
    EXPECT_EQ(orient_sign({0, 0}, {1, 0}, {2, 0}), 0);   // Collinear.
    EXPECT_EQ(orient_sign({0, 0}, {0, 0}, {1, 1}), 0);   // Degenerate.
}

TEST(Orient, ExactOnTinyPerturbations) {
    // c sits on the line through a and b up to one ulp; the filtered
    // double determinant is ~1e-16 * coordinates and must still get the
    // exact sign right.
    const Point a{0.0, 0.0};
    const Point b{1e10, 1e10};
    const Point on{5e9, 5e9};
    EXPECT_EQ(orient_sign(a, b, on), 0);
    const Point above{5e9, std::nextafter(5e9, 1e300)};
    EXPECT_EQ(orient_sign(a, b, above), 1);
    const Point below{5e9, std::nextafter(5e9, -1e300)};
    EXPECT_EQ(orient_sign(a, b, below), -1);
}

TEST(Orient, AntisymmetryAndRotation) {
    rnd::Xoshiro256 rng(3);
    for (int it = 0; it < 500; ++it) {
        const Point a{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
        const Point b{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
        const Point c{rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
        const int s = orient_sign(a, b, c);
        EXPECT_EQ(s, orient_sign(b, c, a));
        EXPECT_EQ(s, orient_sign(c, a, b));
        EXPECT_EQ(-s, orient_sign(b, a, c));
    }
}

TEST(InCircle, UnitCircleBasics) {
    // CCW unit circle through these three points, centered at origin.
    const Point a{1, 0};
    const Point b{0, 1};
    const Point c{-1, 0};
    EXPECT_EQ(incircle_ccw(a, b, c, {0, 0}), 1);
    EXPECT_EQ(incircle_ccw(a, b, c, {0, -1}), 0);  // On the circle.
    EXPECT_EQ(incircle_ccw(a, b, c, {2, 2}), -1);
}

TEST(InCircle, OrientationNormalizedWrapper) {
    const Point a{1, 0};
    const Point b{0, 1};
    const Point c{-1, 0};
    EXPECT_EQ(in_circumcircle(a, b, c, {0, 0}), 1);
    EXPECT_EQ(in_circumcircle(a, c, b, {0, 0}), 1);  // CW input, same answer.
    EXPECT_EQ(in_circumcircle(a, c, b, {3, 3}), -1);
    // Collinear "circle" contains nothing.
    EXPECT_EQ(in_circumcircle({0, 0}, {1, 0}, {2, 0}, {1, 1}), -1);
}

TEST(InCircle, ExactOnNearCocircular) {
    // Four points nearly on the unit circle; the fourth displaced by one
    // ulp radially. Filtered arithmetic alone cannot decide this.
    const Point a{1, 0};
    const Point b{0, 1};
    const Point c{-1, 0};
    const double y = -1.0;
    EXPECT_EQ(incircle_ccw(a, b, c, {0.0, y}), 0);
    EXPECT_EQ(incircle_ccw(a, b, c, {0.0, std::nextafter(y, 0.0)}), 1);
    EXPECT_EQ(incircle_ccw(a, b, c, {0.0, std::nextafter(y, -2.0)}), -1);
}

TEST(InCircle, SymmetryUnderCcwRotation) {
    rnd::Xoshiro256 rng(17);
    for (int it = 0; it < 300; ++it) {
        Point a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
        Point b{rng.uniform(0, 1000), rng.uniform(0, 1000)};
        Point c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
        const Point d{rng.uniform(0, 1000), rng.uniform(0, 1000)};
        if (orient_sign(a, b, c) == 0) continue;
        if (orient_sign(a, b, c) < 0) std::swap(b, c);
        const int s = incircle_ccw(a, b, c, d);
        EXPECT_EQ(s, incircle_ccw(b, c, a, d));
        EXPECT_EQ(s, incircle_ccw(c, a, b, d));
    }
}

TEST(DiametralCircle, Basics) {
    const Point u{0, 0};
    const Point v{2, 0};
    EXPECT_EQ(in_diametral_circle(u, v, {1.0, 0.5}), 1);
    EXPECT_EQ(in_diametral_circle(u, v, {1.0, 1.0}), 0);   // On the circle.
    EXPECT_EQ(in_diametral_circle(u, v, {1.0, 1.5}), -1);
    EXPECT_EQ(in_diametral_circle(u, v, {0.0, 0.0}), 0);   // Endpoint is on it.
}

TEST(DiametralCircle, ExactAtBoundary) {
    const Point u{0, 0};
    const Point v{1e8, 0};
    const Point on{5e7, 5e7};  // Exactly on the circle.
    EXPECT_EQ(in_diametral_circle(u, v, on), 0);
    EXPECT_EQ(in_diametral_circle(u, v, {5e7, std::nextafter(5e7, 0.0)}), 1);
    EXPECT_EQ(in_diametral_circle(u, v, {5e7, std::nextafter(5e7, 1e300)}), -1);
}

TEST(DiametralCircle, MatchesAngleCharacterization) {
    rnd::Xoshiro256 rng(23);
    for (int it = 0; it < 500; ++it) {
        const Point u{rng.uniform(0, 100), rng.uniform(0, 100)};
        const Point v{rng.uniform(0, 100), rng.uniform(0, 100)};
        const Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
        const double d = dot(u - p, v - p);
        if (std::fabs(d) < 1e-6) continue;  // Too close to call in double.
        EXPECT_EQ(in_diametral_circle(u, v, p), d < 0 ? 1 : -1);
    }
}

TEST(Segments, ProperCrossing) {
    EXPECT_TRUE(segments_properly_cross({0, 0}, {2, 2}, {0, 2}, {2, 0}));
    EXPECT_FALSE(segments_properly_cross({0, 0}, {1, 1}, {1, 1}, {2, 0}));  // Shared end.
    EXPECT_FALSE(segments_properly_cross({0, 0}, {1, 0}, {2, 0}, {3, 0}));  // Collinear.
    EXPECT_FALSE(segments_properly_cross({0, 0}, {2, 0}, {1, 0}, {1, 2}));  // T-junction.
    EXPECT_FALSE(segments_properly_cross({0, 0}, {1, 0}, {0, 1}, {1, 1}));  // Parallel.
}

TEST(Segments, ProperCrossingMatchesFourSignDefinition) {
    // Endpoints on a 4x4 integer lattice: shared endpoints, T-junctions,
    // collinear overlaps and zero-length segments all occur. The early
    // return after the first straddle must not change any answer.
    rnd::Xoshiro256 rng(337);
    const auto lattice_point = [&] {
        return Point{static_cast<double>(rng.below(4)), static_cast<double>(rng.below(4))};
    };
    std::size_t crossings = 0;
    for (int trial = 0; trial < 200'000; ++trial) {
        const Point p1 = lattice_point();
        const Point p2 = lattice_point();
        // A quarter of the pairs reuse an endpoint of the first segment.
        const Point q1 = rng.below(4) == 0 ? (rng.below(2) == 0 ? p1 : p2) : lattice_point();
        const Point q2 = lattice_point();
        const bool four_signs = orient_sign(p1, p2, q1) * orient_sign(p1, p2, q2) < 0 &&
                                orient_sign(q1, q2, p1) * orient_sign(q1, q2, p2) < 0;
        ASSERT_EQ(segments_properly_cross(p1, p2, q1, q2), four_signs)
            << "(" << p1.x << "," << p1.y << ")-(" << p2.x << "," << p2.y << ") vs (" << q1.x
            << "," << q1.y << ")-(" << q2.x << "," << q2.y << ")";
        crossings += four_signs ? 1 : 0;
    }
    EXPECT_GT(crossings, 0u);
}

TEST(Segments, IntersectIncludesTouching) {
    EXPECT_TRUE(segments_intersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
    EXPECT_TRUE(segments_intersect({0, 0}, {2, 0}, {1, 0}, {1, 2}));
    EXPECT_TRUE(segments_intersect({0, 0}, {3, 0}, {1, 0}, {2, 0}));  // Overlap.
    EXPECT_FALSE(segments_intersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
}

TEST(Segments, OnSegment) {
    EXPECT_TRUE(on_segment({0, 0}, {2, 2}, {1, 1}));
    EXPECT_TRUE(on_segment({0, 0}, {2, 2}, {2, 2}));  // Endpoint.
    EXPECT_FALSE(on_segment({0, 0}, {2, 2}, {3, 3}));  // Beyond.
    EXPECT_FALSE(on_segment({0, 0}, {2, 2}, {1, 1.0000001}));
}

TEST(SegmentOrdering, CrossingsAlongBasics) {
    // Vertical segments crossing the x-axis at x = 1 and x = 2.
    const Point p{0, 0};
    const Point q{10, 0};
    EXPECT_EQ(compare_crossings_along(p, q, {1, -1}, {1, 1}, {2, -1}, {2, 1}), -1);
    EXPECT_EQ(compare_crossings_along(p, q, {2, -1}, {2, 1}, {1, -1}, {1, 1}), 1);
    // Same crossing point through differently-sloped segments.
    EXPECT_EQ(compare_crossings_along(p, q, {1, -1}, {1, 1}, {0, -2}, {2, 2}), 0);
    // Orientation of the crossing segments must not matter.
    EXPECT_EQ(compare_crossings_along(p, q, {1, 1}, {1, -1}, {2, -1}, {2, 1}), -1);
}

TEST(SegmentOrdering, CrossingVsPointAndPoints) {
    const Point p{0, 0};
    const Point q{10, 0};
    EXPECT_EQ(compare_crossing_vs_point_along(p, q, {3, -1}, {3, 1}, {5, 0}), -1);
    EXPECT_EQ(compare_crossing_vs_point_along(p, q, {7, -1}, {7, 1}, {5, 0}), 1);
    EXPECT_EQ(compare_crossing_vs_point_along(p, q, {5, -1}, {5, 1}, {5, 0}), 0);
    EXPECT_EQ(compare_points_along(p, q, {2, 0}, {4, 0}), -1);
    EXPECT_EQ(compare_points_along(p, q, {4, 0}, {2, 0}), 1);
    EXPECT_EQ(compare_points_along(p, q, {4, 0}, {4, 0}), 0);
}

TEST(SegmentOrdering, SubUlpSeparationIsOrderedExactly) {
    // Two crossings separated by far less than double precision around a
    // huge coordinate: rounded crossing points coincide, the exact
    // comparator still orders them. Segment along y = x from (0,0).
    const Point p{0, 0};
    const Point q{1e8, 1e8};
    const double x = 5e7;
    // A vertical segment at x crosses at (x, x); a second vertical
    // segment one ulp to the right crosses one ulp later.
    const double x2 = std::nextafter(x, 1e300);
    EXPECT_EQ(compare_crossings_along(p, q, {x, 0}, {x, 1e8}, {x2, 0}, {x2, 1e8}), -1);
    EXPECT_EQ(compare_crossings_along(p, q, {x2, 0}, {x2, 1e8}, {x, 0}, {x, 1e8}), 1);
    // Crossing at exactly an on-segment node vs the node itself.
    EXPECT_EQ(compare_crossing_vs_point_along(p, q, {x, 0}, {x, 1e8}, {x, x}), 0);
    EXPECT_EQ(compare_crossing_vs_point_along(p, q, {x2, 0}, {x2, 1e8}, {x, x}), 1);
}

TEST(Segments, NearParallelExactness) {
    // Two almost-parallel segments whose crossing decision depends on
    // bits beyond double rounding of the naive cross products.
    const Point p1{0.0, 0.0};
    const Point p2{1e9, 1e9};
    const Point q1{0.0, std::nextafter(0.0, 1.0)};
    const Point q2{1e9, std::nextafter(1e9, 0.0)};
    EXPECT_TRUE(segments_properly_cross(p1, p2, q1, q2));
}

// Each thread counts into its own block with a plain load and store.
// The aggregate must still see every call, keep the counts of threads
// that have exited, and read zero after a reset, then count only the
// calls made after it.
TEST(PredicateCounters, CountEveryThreadAcrossExitAndReset) {
    constexpr std::uint64_t kCalls = 20000;
    constexpr std::uint64_t kThreads = 4;
    const auto run_threads = [&] {
        std::vector<std::uint64_t> left_turns(kThreads, 0);
        std::vector<std::thread> threads;
        for (std::uint64_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&left_turns, t] {
                // Far from collinear, so the float filter decides each call.
                for (std::uint64_t i = 0; i < kCalls; ++i) {
                    left_turns[t] += orient_sign({0, 0}, {1, 0}, {0, 1}) == 1 ? 1 : 0;
                }
            });
        }
        for (std::thread& thread : threads) thread.join();
        for (const std::uint64_t count : left_turns) EXPECT_EQ(count, kCalls);
    };

    const PredicateCounters before = predicate_counters();
    run_threads();
    const PredicateCounters after = predicate_counters();
    EXPECT_EQ(after.orient_fast - before.orient_fast, kThreads * kCalls);
    EXPECT_EQ(after.total() - before.total(), kThreads * kCalls);

    reset_predicate_counters();
    EXPECT_EQ(predicate_counters().total(), 0u);
    EXPECT_EQ(orient_sign({0, 0}, {1, 0}, {0, 1}), 1);
    EXPECT_EQ(predicate_counters().total(), 1u);
    run_threads();
    const PredicateCounters since_reset = predicate_counters();
    EXPECT_EQ(since_reset.orient_fast, kThreads * kCalls + 1);
    EXPECT_EQ(since_reset.total(), kThreads * kCalls + 1);
}

}  // namespace
}  // namespace geospanner::geom
