#include "geom/predicates.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "geom/expansion.h"

namespace geospanner::geom {

namespace {

using exact::Expansion;

// ---- Filter-tier counters --------------------------------------------
//
// One block per thread, registered globally so predicate_counters() can
// sum the fleet. Only the owning thread writes its block: an increment
// is a relaxed load and store, no locked read-modify-write, while
// readers on other threads load the slots atomically. A thread's
// tallies are folded into `retired` when it exits, and a reset records
// the aggregate as `baseline` rather than writing other threads' slots.

enum CounterSlot : int {
    kOrientFast = 0,
    kOrientExact,
    kIncircleFast,
    kIncircleExact,
    kDiametralFast,
    kDiametralExact,
    kSlotCount,
};

constexpr std::uint64_t PredicateCounters::*kFields[kSlotCount] = {
    &PredicateCounters::orient_fast,    &PredicateCounters::orient_exact,
    &PredicateCounters::incircle_fast,  &PredicateCounters::incircle_exact,
    &PredicateCounters::diametral_fast, &PredicateCounters::diametral_exact,
};

void add(PredicateCounters& to, const PredicateCounters& c) noexcept {
    for (const auto field : kFields) to.*field += c.*field;
}

struct TlsCounters;

struct CounterRegistry {
    std::mutex mutex;
    std::vector<TlsCounters*> threads;
    PredicateCounters retired;
    PredicateCounters baseline;
};

CounterRegistry& registry() {
    static CounterRegistry r;  // leaked-never: function-local survives TLS dtors
    return r;
}

struct alignas(64) TlsCounters {
    std::atomic<std::uint64_t> slots[kSlotCount] = {};

    TlsCounters() {
        CounterRegistry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        r.threads.push_back(this);
    }

    [[nodiscard]] PredicateCounters snapshot() const noexcept {
        PredicateCounters c;
        for (int i = 0; i < kSlotCount; ++i) {
            c.*kFields[i] = slots[i].load(std::memory_order_relaxed);
        }
        return c;
    }

    ~TlsCounters() {
        CounterRegistry& r = registry();
        const std::lock_guard<std::mutex> lock(r.mutex);
        add(r.retired, snapshot());
        std::erase(r.threads, this);
    }
};

/// Every count since start-up; monotone. Caller holds `r.mutex`.
PredicateCounters aggregate(const CounterRegistry& r) noexcept {
    PredicateCounters out = r.retired;
    for (const TlsCounters* t : r.threads) add(out, t->snapshot());
    return out;
}

inline void bump(CounterSlot slot) noexcept {
    thread_local TlsCounters counters;
    std::atomic<std::uint64_t>& count = counters.slots[slot];
    count.store(count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Filter constants from Shewchuk's "Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates", Table 1, for IEEE
// double (eps = 2^-53).
constexpr double kEps = 0x1.0p-53;
constexpr double kCcwErrBound = (3.0 + 16.0 * kEps) * kEps;
constexpr double kIccErrBound = (10.0 + 96.0 * kEps) * kEps;

/// Exact 2-expansion of the difference a - b.
Expansion diff_expansion(double a, double b) {
    double hi = 0.0;
    double lo = 0.0;
    exact::two_diff(a, b, hi, lo);
    return exact::expansion_from(hi, lo);
}

}  // namespace

int orient_sign_exact(Point a, Point b, Point c) {
    // det = (ax - cx)(by - cy) - (ay - cy)(bx - cx), with the differences
    // taken exactly so translation does not introduce rounding.
    const Expansion acx = diff_expansion(a.x, c.x);
    const Expansion acy = diff_expansion(a.y, c.y);
    const Expansion bcx = diff_expansion(b.x, c.x);
    const Expansion bcy = diff_expansion(b.y, c.y);
    const Expansion det = exact::subtract(exact::multiply(acx, bcy),
                                          exact::multiply(acy, bcx));
    return exact::sign(det);
}

int incircle_sign_exact(Point a, Point b, Point c, Point d) {
    // 3x3 determinant on exactly translated coordinates:
    //   | adx ady adx^2+ady^2 |
    //   | bdx bdy bdx^2+bdy^2 |
    //   | cdx cdy cdx^2+cdy^2 |
    const Expansion adx = diff_expansion(a.x, d.x);
    const Expansion ady = diff_expansion(a.y, d.y);
    const Expansion bdx = diff_expansion(b.x, d.x);
    const Expansion bdy = diff_expansion(b.y, d.y);
    const Expansion cdx = diff_expansion(c.x, d.x);
    const Expansion cdy = diff_expansion(c.y, d.y);

    const Expansion alift = exact::add(exact::multiply(adx, adx), exact::multiply(ady, ady));
    const Expansion blift = exact::add(exact::multiply(bdx, bdx), exact::multiply(bdy, bdy));
    const Expansion clift = exact::add(exact::multiply(cdx, cdx), exact::multiply(cdy, cdy));

    const Expansion bxcy = exact::subtract(exact::multiply(bdx, cdy), exact::multiply(cdx, bdy));
    const Expansion axcy = exact::subtract(exact::multiply(adx, cdy), exact::multiply(cdx, ady));
    const Expansion axby = exact::subtract(exact::multiply(adx, bdy), exact::multiply(bdx, ady));

    Expansion det = exact::multiply(alift, bxcy);
    det = exact::subtract(det, exact::multiply(blift, axcy));
    det = exact::add(det, exact::multiply(clift, axby));
    return exact::sign(det);
}

int orient_sign(Point a, Point b, Point c) {
    const double detleft = (a.x - c.x) * (b.y - c.y);
    const double detright = (a.y - c.y) * (b.x - c.x);
    const double det = detleft - detright;

    double detsum = 0.0;
    if (detleft > 0.0) {
        if (detright <= 0.0) {
            // Opposite-signed (or zero) terms: the subtraction is exact
            // enough that the double sign is already certain.
            bump(kOrientFast);
            return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
        }
        detsum = detleft + detright;
    } else if (detleft < 0.0) {
        if (detright >= 0.0) {
            bump(kOrientFast);
            return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
        }
        detsum = -detleft - detright;
    } else {
        bump(kOrientFast);
        return det > 0.0 ? 1 : (det < 0.0 ? -1 : 0);
    }

    const double errbound = kCcwErrBound * detsum;
    if (det > errbound || -det > errbound) {
        bump(kOrientFast);
        return det > 0.0 ? 1 : -1;
    }
    bump(kOrientExact);
    return orient_sign_exact(a, b, c);
}

Orientation orient(Point a, Point b, Point c) {
    return static_cast<Orientation>(orient_sign(a, b, c));
}

int incircle_ccw(Point a, Point b, Point c, Point d) {
    const double adx = a.x - d.x;
    const double ady = a.y - d.y;
    const double bdx = b.x - d.x;
    const double bdy = b.y - d.y;
    const double cdx = c.x - d.x;
    const double cdy = c.y - d.y;

    const double bdxcdy = bdx * cdy;
    const double cdxbdy = cdx * bdy;
    const double alift = adx * adx + ady * ady;

    const double cdxady = cdx * ady;
    const double adxcdy = adx * cdy;
    const double blift = bdx * bdx + bdy * bdy;

    const double adxbdy = adx * bdy;
    const double bdxady = bdx * ady;
    const double clift = cdx * cdx + cdy * cdy;

    const double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
                       clift * (adxbdy - bdxady);

    const double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
                             (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
                             (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
    const double errbound = kIccErrBound * permanent;
    if (det > errbound || -det > errbound) {
        bump(kIncircleFast);
        return det > 0.0 ? 1 : -1;
    }
    bump(kIncircleExact);
    return incircle_sign_exact(a, b, c, d);
}

int incircle_ccw_sos(Point a, Point b, Point c, Point d, std::uint64_t ka, std::uint64_t kb,
                     std::uint64_t kc, std::uint64_t kd) {
    const int sign = incircle_ccw(a, b, c, d);
    if (sign != 0) return sign;
    // On a circle, any three of four distinct points are non-collinear,
    // so the deciding cofactor is never 0.
    const std::uint64_t least = std::min({ka, kb, kc, kd});
    if (least == ka) return orient_sign(b, c, d);
    if (least == kb) return -orient_sign(a, c, d);
    if (least == kc) return orient_sign(a, b, d);
    return -1;
}

int in_circumcircle(Point a, Point b, Point c, Point d) {
    const int o = orient_sign(a, b, c);
    if (o == 0) return -1;  // Degenerate "circle" (a line) contains nothing.
    return o * incircle_ccw(a, b, c, d);
}

int in_diametral_circle(Point u, Point v, Point p) {
    // p is inside the circle with diameter uv iff angle(u, p, v) > pi/2,
    // i.e. dot(u - p, v - p) < 0. Filtered, then exact.
    const double ax = u.x - p.x;
    const double ay = u.y - p.y;
    const double bx = v.x - p.x;
    const double by = v.y - p.y;
    const double t1 = ax * bx;
    const double t2 = ay * by;
    const double d = t1 + t2;
    const double magnitude = std::fabs(t1) + std::fabs(t2);
    // Each product carries relative error <= eps plus the error of the two
    // exact-by-Sterbenz-free subtractions; 8 eps is a safely generous bound.
    const double errbound = 8.0 * kEps * magnitude;
    if (d > errbound) {
        bump(kDiametralFast);
        return -1;
    }
    if (d < -errbound) {
        bump(kDiametralFast);
        return 1;
    }
    bump(kDiametralExact);

    const Expansion eax = diff_expansion(u.x, p.x);
    const Expansion eay = diff_expansion(u.y, p.y);
    const Expansion ebx = diff_expansion(v.x, p.x);
    const Expansion eby = diff_expansion(v.y, p.y);
    const Expansion dotv = exact::add(exact::multiply(eax, ebx), exact::multiply(eay, eby));
    return -exact::sign(dotv);
}

bool on_segment(Point a, Point b, Point c) {
    if (orient_sign(a, b, c) != 0) return false;
    return std::min(a.x, b.x) <= c.x && c.x <= std::max(a.x, b.x) &&
           std::min(a.y, b.y) <= c.y && c.y <= std::max(a.y, b.y);
}

namespace {

/// Exact expansion of cross(b - a, d - c) on translated coordinates.
Expansion cross_of_differences(Point a, Point b, Point c, Point d) {
    const Expansion bax = diff_expansion(b.x, a.x);
    const Expansion bay = diff_expansion(b.y, a.y);
    const Expansion dcx = diff_expansion(d.x, c.x);
    const Expansion dcy = diff_expansion(d.y, c.y);
    return exact::subtract(exact::multiply(bax, dcy), exact::multiply(bay, dcx));
}

/// Exact expansion of dot(b - a, d - c).
Expansion dot_of_differences(Point a, Point b, Point c, Point d) {
    const Expansion bax = diff_expansion(b.x, a.x);
    const Expansion bay = diff_expansion(b.y, a.y);
    const Expansion dcx = diff_expansion(d.x, c.x);
    const Expansion dcy = diff_expansion(d.y, c.y);
    return exact::add(exact::multiply(bax, dcx), exact::multiply(bay, dcy));
}

}  // namespace

int compare_crossings_along(Point p, Point q, Point a1, Point b1, Point a2, Point b2) {
    // Crossing parameter of segment (a, b): t = cross(a-p, b-a) /
    // cross(q-p, b-a); proper crossing guarantees a nonzero denominator.
    // Compare N1/D1 vs N2/D2 via the exact sign of N1·D2 - N2·D1,
    // corrected by the denominators' signs.
    const Expansion n1 = cross_of_differences(p, a1, a1, b1);
    const Expansion d1 = cross_of_differences(p, q, a1, b1);
    const Expansion n2 = cross_of_differences(p, a2, a2, b2);
    const Expansion d2 = cross_of_differences(p, q, a2, b2);
    const Expansion s =
        exact::subtract(exact::multiply(n1, d2), exact::multiply(n2, d1));
    return exact::sign(s) * exact::sign(d1) * exact::sign(d2);
}

int compare_crossing_vs_point_along(Point p, Point q, Point a, Point b, Point w) {
    // t_cross = N/D as above; t_w = dot(w-p, q-p) / dot(q-p, q-p) with a
    // positive denominator L. Sign of t_cross - t_w = sign(N·L - M·D)
    // corrected by sign(D).
    const Expansion n = cross_of_differences(p, a, a, b);
    const Expansion d = cross_of_differences(p, q, a, b);
    const Expansion m = dot_of_differences(p, w, p, q);
    const Expansion l = dot_of_differences(p, q, p, q);
    const Expansion s = exact::subtract(exact::multiply(n, l), exact::multiply(m, d));
    return exact::sign(s) * exact::sign(d);
}

int compare_points_along(Point p, Point q, Point w1, Point w2) {
    const Expansion m1 = dot_of_differences(p, w1, p, q);
    const Expansion m2 = dot_of_differences(p, w2, p, q);
    return exact::sign(exact::subtract(m1, m2));
}

bool segments_properly_cross(Point p1, Point p2, Point q1, Point q2) {
    // Proper crossing: each segment's endpoints strictly straddle the
    // other's supporting line. Most pairs fail the first straddle, so
    // the second pair of orientations runs only when it holds.
    if (orient_sign(p1, p2, q1) * orient_sign(p1, p2, q2) >= 0) return false;
    return orient_sign(q1, q2, p1) * orient_sign(q1, q2, p2) < 0;
}

bool segments_intersect(Point p1, Point p2, Point q1, Point q2) {
    if (segments_properly_cross(p1, p2, q1, q2)) return true;
    return on_segment(p1, p2, q1) || on_segment(p1, p2, q2) ||
           on_segment(q1, q2, p1) || on_segment(q1, q2, p2);
}

PredicateCounters predicate_counters() {
    CounterRegistry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    PredicateCounters out = aggregate(r);
    for (const auto field : kFields) out.*field -= r.baseline.*field;
    return out;
}

void reset_predicate_counters() {
    CounterRegistry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.baseline = aggregate(r);
}

}  // namespace geospanner::geom
