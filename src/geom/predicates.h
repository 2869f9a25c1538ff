// Robust geometric predicates.
//
// Every topology in this library is defined by emptiness tests on circles
// (Delaunay circumcircles, Gabriel diametral circles, RNG lunes) and by
// orientation tests (planarity, face routing, segment intersection). These
// determinant signs must be *exact*: an incorrectly classified in-circle
// test can make two nodes disagree on whether a localized Delaunay
// triangle exists, which would desynchronize the distributed protocol.
//
// Each predicate first evaluates the determinant in double precision with
// a forward error bound (Shewchuk's static filter); only if the result is
// smaller than the bound does it fall back to exact expansion arithmetic.
#pragma once

#include <cstdint>

#include "geom/vec2.h"

namespace geospanner::geom {

/// Tallies of the two-tier predicate path: how many orientation /
/// in-circle / diametral tests the float filter decided outright
/// (`*_fast`) versus how many fell through to expansion arithmetic
/// (`*_exact`). On well-spread inputs the exact share is well under a
/// percent; a rising share flags near-degenerate geometry (cocircular
/// clusters, duplicated points) where construction slows down for
/// correctness, not for lack of tuning.
struct PredicateCounters {
    std::uint64_t orient_fast = 0;
    std::uint64_t orient_exact = 0;
    std::uint64_t incircle_fast = 0;
    std::uint64_t incircle_exact = 0;
    std::uint64_t diametral_fast = 0;
    std::uint64_t diametral_exact = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
        return orient_fast + orient_exact + incircle_fast + incircle_exact +
               diametral_fast + diametral_exact;
    }
    [[nodiscard]] std::uint64_t exact_total() const noexcept {
        return orient_exact + incircle_exact + diametral_exact;
    }
};

/// Counters aggregated over every thread that has evaluated predicates
/// since the last reset (exited threads' tallies are retained). Each
/// thread counts into its own cache line with a plain relaxed load and
/// store, so the hot path stays contention-free; this call walks the
/// thread registry under a lock.
[[nodiscard]] PredicateCounters predicate_counters();

/// Zeroes the aggregate view by recording the current aggregate as the
/// baseline predicate_counters() subtracts; no thread's counters are
/// written. Counts a concurrently running thread adds during the reset
/// may land on either side of it; callers measuring a workload should
/// quiesce worker threads first (the engine's stages all join before
/// returning).
void reset_predicate_counters();

/// The expansion-arithmetic tier on its own, exported so the degenerate
/// suite and the hot-path bench can check the filtered predicates against
/// it directly. orient_sign / incircle_ccw call these exact paths when
/// the filter cannot certify a sign; incircle_sign_exact shares
/// incircle_ccw's counter-clockwise precondition.
[[nodiscard]] int orient_sign_exact(Point a, Point b, Point c);
[[nodiscard]] int incircle_sign_exact(Point a, Point b, Point c, Point d);

enum class Orientation : int {
    kClockwise = -1,
    kCollinear = 0,
    kCounterClockwise = 1,
};

/// Sign of the signed area of triangle (a, b, c): positive iff the points
/// make a left (counter-clockwise) turn. Exact.
[[nodiscard]] Orientation orient(Point a, Point b, Point c);

/// Signed-area sign as an int in {-1, 0, +1}. Exact.
[[nodiscard]] int orient_sign(Point a, Point b, Point c);

/// Position of d relative to the circle through (a, b, c), which must be
/// in counter-clockwise order: +1 inside, 0 on the circle, -1 outside.
/// Exact. Precondition: orient(a,b,c) == kCounterClockwise.
[[nodiscard]] int incircle_ccw(Point a, Point b, Point c, Point d);

/// Orientation-independent version: +1 iff d is strictly inside the circle
/// through a, b, c (any orientation). Returns -1 for collinear a, b, c
/// (the "circle" is a line; nothing is inside). Exact.
[[nodiscard]] int in_circumcircle(Point a, Point b, Point c, Point d);

/// incircle_ccw with exact ties broken by symbolic perturbation: each
/// point's lifted coordinate x² + y² is raised by an infinitesimal that is
/// larger the smaller the point's key, so on a tie the least key of the
/// four decides. The sign is then that point's cofactor in the lifted 4x4
/// determinant: ± orient_sign of the other three, and -1 (d moves
/// outside) when d holds the least key. It is the sign of one perturbed
/// determinant, so every caller that tests the same cocircular quadruple,
/// in whatever role, resolves it the same way. Never 0 for pairwise
/// distinct points with distinct keys. Exact. Precondition:
/// orient(a,b,c) == kCounterClockwise.
[[nodiscard]] int incircle_ccw_sos(Point a, Point b, Point c, Point d, std::uint64_t ka,
                                   std::uint64_t kb, std::uint64_t kc, std::uint64_t kd);

/// +1 iff p is strictly inside the circle with diameter (u, v), 0 on it,
/// -1 outside; i.e. the sign of -dot(u-p, v-p). Exact. This is the Gabriel
/// graph emptiness test.
[[nodiscard]] int in_diametral_circle(Point u, Point v, Point p);

/// True iff closed segments [p1,p2] and [q1,q2] *properly* cross: they
/// intersect in exactly one point interior to both. Shared endpoints and
/// collinear overlap do not count as proper crossings (two backbone edges
/// sharing a node are not a planarity violation). Exact; a pair whose
/// q-endpoints do not straddle line p1p2 costs two orientations, not four.
[[nodiscard]] bool segments_properly_cross(Point p1, Point p2, Point q1, Point q2);

/// True iff segments [p1,p2] and [q1,q2] intersect at all (including
/// endpoint touching and collinear overlap). Exact.
[[nodiscard]] bool segments_intersect(Point p1, Point p2, Point q1, Point q2);

/// True iff c lies on the closed segment [a, b]. Exact.
[[nodiscard]] bool on_segment(Point a, Point b, Point c);

// --- Exact ordering of events along a directed segment (p, q). ---
//
// Face routing advances along the source-destination segment through a
// sequence of edge crossings and on-segment nodes. When two such events
// are separated by less than floating-point precision (e.g. the segment
// passes within one ulp of a vertex), rounded distances cannot order
// them and the traversal stalls; these comparators order the events'
// parameters along (p, q) exactly.

/// Orders the crossing points of segments (a1, b1) and (a2, b2) with the
/// directed line (p, q). Both segments must properly cross (p, q).
/// Returns -1/0/+1 as the first crossing is before/at/after the second
/// along p -> q. Exact.
[[nodiscard]] int compare_crossings_along(Point p, Point q, Point a1, Point b1, Point a2,
                                          Point b2);

/// Orders the crossing point of segment (a, b) — which properly crosses
/// (p, q) — against point w, which lies on the line through (p, q).
/// Returns -1/0/+1 as the crossing is before/at/after w along p -> q.
/// Exact.
[[nodiscard]] int compare_crossing_vs_point_along(Point p, Point q, Point a, Point b,
                                                  Point w);

/// Orders two points on the line through (p, q) along p -> q. Exact.
[[nodiscard]] int compare_points_along(Point p, Point q, Point w1, Point w2);

}  // namespace geospanner::geom
