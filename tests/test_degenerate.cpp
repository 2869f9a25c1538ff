// Degenerate-geometry suite: exactly collinear rows, exactly cocircular
// 4+-sets, and duplicate / near-duplicate coordinates pushed through the
// full UDG → clustering → connectors → ICDS → LDel pipeline, with the
// verify:: audit trail as the oracle. Uniform workloads never produce
// these inputs; the exact predicates and tie-breaks only get exercised
// here and in the fuzz driver's degenerate modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "backends/backend.h"
#include "core/backbone.h"
#include "core/workload.h"
#include "dynamic/spanner.h"
#include "engine/engine.h"
#include "geom/predicates.h"
#include "geom/vec2.h"
#include "proximity/ldel_k.h"
#include "proximity/udg.h"
#include "shard/tile_engine.h"
#include "test_util.h"
#include "verify/audit.h"

namespace geospanner {
namespace {

/// Builds the backbone (centralized) and asserts every stage certificate.
void expect_clean_audit(const std::vector<geom::Point>& points, double radius) {
    const auto udg = proximity::build_udg(points, radius);
    ASSERT_GT(udg.node_count(), 0u);
    const core::Backbone backbone =
        core::build_backbone(udg, {core::Engine::kCentralized});
    verify::AuditOptions options;
    options.radius = radius;
    const verify::AuditTrail trail = verify::audit_backbone(udg, backbone, options);
    EXPECT_TRUE(trail.pass()) << trail.summary();
}

TEST(Degenerate, CollinearRowsAuditClean) {
    core::WorkloadConfig config;
    config.node_count = 48;
    config.side = 180.0;
    config.radius = 50.0;
    for (const std::uint64_t seed : {11ULL, 29ULL, 53ULL}) {
        config.seed = seed;
        for (const std::size_t rows : {1UL, 3UL}) {
            SCOPED_TRACE(::testing::Message() << "seed=" << seed << " rows=" << rows);
            expect_clean_audit(core::collinear_points(config, rows), config.radius);
        }
    }
}

TEST(Degenerate, CocircularRingsAuditClean) {
    core::WorkloadConfig config;
    config.node_count = 48;
    config.side = 200.0;
    config.radius = 55.0;
    for (const std::uint64_t seed : {11ULL, 29ULL, 53ULL}) {
        config.seed = seed;
        for (const std::size_t circles : {2UL, 4UL}) {
            SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                              << " circles=" << circles);
            expect_clean_audit(core::cocircular_points(config, circles),
                               config.radius);
        }
    }
}

TEST(Degenerate, SingleCocircularOctetAuditClean) {
    // The minimal interesting instance: one ring of 8 exactly cocircular
    // points (all 4+-subsets cocircular) — every LDel in-circle test on
    // this instance is a tie.
    std::vector<geom::Point> pts;
    for (const auto& [dx, dy] : {std::pair{30.0, 40.0}, {30.0, -40.0},
                                 {-30.0, 40.0}, {-30.0, -40.0},
                                 {40.0, 30.0}, {40.0, -30.0},
                                 {-40.0, 30.0}, {-40.0, -30.0}}) {
        pts.push_back({100.0 + dx, 100.0 + dy});
    }
    expect_clean_audit(pts, 110.0);
}

TEST(Degenerate, ZeroJitterGridsAuditClean) {
    // An unjittered 10x10 lattice: every square is an exactly cocircular
    // quadruple, the tie the local Delaunay stars break by node id.
    for (const double h : {0.3, 0.5, 0.7}) {
        SCOPED_TRACE(::testing::Message() << "h=" << h);
        std::vector<geom::Point> pts;
        for (int i = 0; i < 10; ++i) {
            for (int j = 0; j < 10; ++j) pts.push_back({h * i, h * j});
        }
        expect_clean_audit(pts, 1.0);
    }
}

TEST(Degenerate, DuplicateCoordinatesAuditClean) {
    // Exact duplicates: a uniform instance with every fourth point
    // repeated verbatim. Coincident nodes are distinct protocol
    // participants at distance zero.
    auto pts = test::random_points(36, 150.0, 29);
    const std::size_t base = pts.size();
    for (std::size_t i = 0; i < base; i += 4) pts.push_back(pts[i]);
    expect_clean_audit(pts, 50.0);
}

TEST(Degenerate, NearDuplicateCoordinatesAuditClean) {
    // Near-duplicates one ulp-scale nudge apart: exercises the exact
    // predicates on almost-identical coordinates, where naive epsilon
    // comparisons misclassify.
    auto pts = test::random_points(36, 150.0, 53);
    const std::size_t base = pts.size();
    for (std::size_t i = 0; i < base; i += 4) {
        geom::Point p = pts[i];
        p.x += 1e-9;
        pts.push_back(p);
    }
    expect_clean_audit(pts, 50.0);
}

TEST(Degenerate, EngineMatchesCentralizedOnDegenerateInput) {
    // The staged engine's determinism contract must also hold on the
    // degenerate workloads, with audits enabled.
    core::WorkloadConfig config;
    config.node_count = 48;
    config.side = 180.0;
    config.radius = 50.0;
    config.seed = 29;
    for (const test::FuzzMode mode :
         {test::FuzzMode::kCollinear, test::FuzzMode::kCocircular}) {
        SCOPED_TRACE(test::fuzz_mode_name(mode));
        const auto points = test::fuzz_points(mode, config);
        const auto udg = proximity::build_udg(points, config.radius);
        const core::Backbone reference =
            core::build_backbone(udg, {core::Engine::kCentralized});

        engine::EngineOptions options;
        options.threads = 4;
        options.audit = true;
        options.audit_options.radius = config.radius;
        engine::SpannerEngine engine(options);
        const engine::BuildResult result = engine.build(points, config.radius);

        EXPECT_TRUE(result.audit.pass()) << result.audit.summary();
        EXPECT_EQ(result.udg, udg);
        EXPECT_EQ(result.backbone.cds, reference.cds);
        EXPECT_EQ(result.backbone.ldel_icds, reference.ldel_icds);
        EXPECT_EQ(result.backbone.ldel_icds_prime, reference.ldel_icds_prime);
    }
}

TEST(Degenerate, Alg3GadgetRemovesTheSliverOnEveryPath) {
    // The one world known to reach Algorithm 3's removal branch through a
    // real backbone (R = 1). u = 0, v = 2, w = 3 form a sliver whose
    // circumcircle is huge; x = 1 and y = 4 are out of range of u, v and
    // w, so no corner sees them, and z = 5 sits just outside the arc
    // below uw. Both uvw and xyz are 1-localized Delaunay, and edge xz
    // crosses uw (|uw| is exactly 1). The pendants 6, 7, 8 become
    // dominators, which makes every node a backbone node. Algorithm 3
    // must remove uvw on every path; without it uw crosses xz.
    const std::vector<geom::Point> points{
        {0.0, 0.0}, {0.5, 0.94}, {0.1, -0.01},            // u, x, v
        {1.0, 0.0}, {0.55, 0.9425}, {0.5, -0.05},         // w, y, z
        {0.1495, -0.9987}, {1.99, 0.0}, {1.54, 0.9425}};  // pendants
    const double radius = 1.0;
    const auto udg = proximity::build_udg(points, radius);
    using proximity::TriangleKey;
    const std::vector<TriangleKey> ldel1{{0, 2, 3}, {1, 4, 5}};
    const std::vector<TriangleKey> kept{{1, 4, 5}};
    verify::AuditOptions audit_options;
    audit_options.radius = radius;
    for (const core::Engine engine : {core::Engine::kCentralized, core::Engine::kDistributed}) {
        for (const core::Planarizer planarizer :
             {core::Planarizer::kLdel1, core::Planarizer::kLdel2}) {
            SCOPED_TRACE(::testing::Message()
                         << (engine == core::Engine::kCentralized ? "centralized" : "distributed")
                         << (planarizer == core::Planarizer::kLdel1 ? " LDel1" : " LDel2"));
            core::BuildOptions options;
            options.engine = engine;
            options.planarizer = planarizer;
            const core::Backbone backbone = core::build_backbone(udg, options);
            ASSERT_EQ(backbone.backbone_size(), points.size());
            EXPECT_EQ(proximity::ldel1_triangles(backbone.icds), ldel1);
            EXPECT_EQ(proximity::ldel_k_triangles(backbone.icds, 2), kept);
            EXPECT_EQ(backbone.ldel_triangles, kept);
            EXPECT_TRUE(verify::check_planarity_certificate(backbone.ldel_icds).pass);
            const verify::AuditTrail trail =
                verify::audit_backbone(udg, backbone, audit_options);
            EXPECT_TRUE(trail.pass()) << trail.summary();
        }
    }
    for (const std::size_t lanes : {1UL, 2UL, 8UL}) {
        SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
        engine::EngineOptions options;
        options.threads = lanes;
        options.audit = true;
        options.audit_options = audit_options;
        engine::SpannerEngine engine(options);
        const engine::BuildResult result = engine.build(points, radius);
        EXPECT_EQ(result.backbone.ldel_triangles, kept);
        EXPECT_TRUE(result.audit.pass()) << result.audit.summary();
    }
}

/// The 4x4 lattice (0.9i + 0.01j, 0.9j) scaled by s: at radius s its
/// UDG has 24 edges.
std::vector<geom::Point> scaled_lattice(double s) {
    std::vector<geom::Point> points;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) points.push_back({(0.9 * i + 0.01 * j) * s, 0.9 * j * s});
    }
    return points;
}

TEST(Degenerate, EveryBuildEntryPointRejectsNonFiniteInput) {
    // NaN or inf must never reach the cell-grid index conversion: each
    // public entry point taking raw positions throws before any work.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<geom::Point> good{{0.0, 0.0}, {1.0, 0.5}, {2.0, 0.0}};
    struct Case {
        const char* name;
        std::vector<geom::Point> points;
        double radius;
    };
    // A finite coordinate 2^62 radii or more from the origin would
    // overflow the grid's 64-bit cell index, so it is rejected too. So
    // are magnitudes past 2^±200, where squared distances overflow or
    // underflow: the scaled lattices would get 64 UDG edges, not 24.
    ASSERT_EQ(engine::SpannerEngine().build(scaled_lattice(1.0), 1.0).udg.edge_count(), 24u);
    const std::vector<Case> cases{{"nan point", {{0.0, 0.0}, {nan, 0.5}}, 1.5},
                                  {"inf point", {{0.0, 0.0}, {1.0, -inf}}, 1.5},
                                  {"nan radius", good, nan},
                                  {"negative radius", good, -1.0},
                                  {"huge point", {{0.0, 0.0}, {1e300, 0.5}}, 1.5},
                                  {"tiny radius", good, 1e-300},
                                  {"lattice scaled by 1e160", scaled_lattice(1e160), 1e160},
                                  {"lattice scaled by 1e-170", scaled_lattice(1e-170), 1e-170}};
    engine::EngineOptions engine_options;
    engine_options.threads = 2;
    engine::SpannerEngine engine(engine_options);
    shard::ShardOptions shard_options;
    shard_options.threads = 2;
    shard::TileShardedEngine sharded(shard_options);
    const auto backend = backends::make_backend("biniaz");
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_THROW((void)engine.build(c.points, c.radius), std::invalid_argument);
        EXPECT_THROW((void)sharded.build(c.points, c.radius), std::invalid_argument);
        EXPECT_THROW((void)backend->build_points(c.points, c.radius),
                     std::invalid_argument);
        EXPECT_THROW(dynamic::DynamicSpanner(engine, c.points, c.radius),
                     std::invalid_argument);
        // Update batches are held to the same rule: the points as joins,
        // and as moves of existing nodes.
        dynamic::UpdateBatch joins;
        joins.joins = c.points;
        EXPECT_NE(dynamic::validate_batch(joins, 0, c.radius), "");
        dynamic::UpdateBatch moves;
        for (std::size_t v = 0; v < c.points.size(); ++v) {
            moves.moves.push_back({static_cast<graph::NodeId>(v), c.points[v]});
        }
        EXPECT_NE(dynamic::validate_batch(moves, c.points.size(), c.radius), "");
    }
    // Radius 0 stays a valid "no edges" build for the one-shot builders.
    EXPECT_EQ(engine.build(good, 0.0).udg.edge_count(), 0u);
    EXPECT_THROW(dynamic::DynamicSpanner(engine, good, 0.0), std::invalid_argument);
}

TEST(Degenerate, GraphEntryPointsRejectHugeCoordinates) {
    // A graph whose point moved to 1e300 after its edges were built: the
    // backbone builders over a given graph validate its points too,
    // instead of overflowing inside the local Delaunay triangulations.
    graph::GeometricGraph udg = proximity::build_udg(scaled_lattice(1.0), 1.0);
    engine::EngineOptions options;
    options.threads = 2;
    engine::SpannerEngine engine(options);
    EXPECT_NO_THROW((void)engine.build_backbone(udg));
    udg.set_point(5, {1e300, 1e300});
    EXPECT_THROW((void)engine.build_backbone(udg), std::invalid_argument);
    EXPECT_THROW((void)engine::build_backbone_staged(engine.pool(), udg, options),
                 std::invalid_argument);
    EXPECT_THROW((void)core::build_backbone(udg, {core::Engine::kCentralized}),
                 std::invalid_argument);
    EXPECT_THROW((void)core::build_backbone(udg, {core::Engine::kDistributed}),
                 std::invalid_argument);
    EXPECT_THROW((void)backends::make_backend("engine")->build(udg, 1.0),
                 std::invalid_argument);
}

// ---- Float-filter boundary ------------------------------------------
//
// The two-tier predicates decide most signs in double precision and fall
// back to expansion arithmetic only when the static error bound cannot
// certify the sign. These tests drive inputs straight at that boundary
// and pin three properties: the filtered entry points agree with the
// exported exact tier on every input, exact ties come back as exactly
// zero, and the fallback actually fires (visible in the counters).

TEST(PredicateFilter, CocircularIntegerQuadruplesAreExactTies) {
    // Integer points on x² + y² = 25: every incircle determinant is a
    // small-integer computation whose true value is 0 — below any
    // nonzero error bound, so only the exact tier can answer.
    const geom::Point a{3.0, 4.0}, b{0.0, -5.0}, c{5.0, 0.0};
    ASSERT_EQ(geom::orient_sign(a, b, c), 1);
    geom::reset_predicate_counters();
    for (const geom::Point d : {geom::Point{-3.0, 4.0}, {-3.0, -4.0}, {4.0, 3.0},
                                {-4.0, 3.0}, {0.0, 5.0}, {-5.0, 0.0}}) {
        EXPECT_EQ(geom::incircle_ccw(a, b, c, d), 0)
            << "d=(" << d.x << "," << d.y << ")";
        EXPECT_EQ(geom::incircle_sign_exact(a, b, c, d), 0);
    }
    const geom::PredicateCounters counters = geom::predicate_counters();
    EXPECT_EQ(counters.incircle_exact, 6u);  // every tie fell through
}

TEST(PredicateFilter, NearCocircularPerturbationsAgreeWithExactTier) {
    // d slides off the circle by 2^-k along x. Moving x = -3 toward 0
    // shrinks x² + y², so +2^-k is strictly inside (+1) and -2^-k
    // strictly outside (-1) for every k — the analytic truth the two
    // tiers must both reproduce even when the offset is far below the
    // filter's certificate.
    const geom::Point a{3.0, 4.0}, b{0.0, -5.0}, c{5.0, 0.0};
    geom::reset_predicate_counters();
    for (int k = 4; k <= 48; k += 4) {
        const double eps = std::ldexp(1.0, -k);
        const geom::Point inside{-3.0 + eps, 4.0};
        const geom::Point outside{-3.0 - eps, 4.0};
        EXPECT_EQ(geom::incircle_ccw(a, b, c, inside), 1) << "k=" << k;
        EXPECT_EQ(geom::incircle_sign_exact(a, b, c, inside), 1) << "k=" << k;
        EXPECT_EQ(geom::incircle_ccw(a, b, c, outside), -1) << "k=" << k;
        EXPECT_EQ(geom::incircle_sign_exact(a, b, c, outside), -1) << "k=" << k;
    }
    // Large k sit inside the error bound: the filter alone cannot have
    // decided them all.
    const geom::PredicateCounters counters = geom::predicate_counters();
    EXPECT_GT(counters.incircle_exact, 0u);
    EXPECT_GT(counters.incircle_fast, 0u);  // ...but small k stay fast
}

TEST(PredicateFilter, NearCollinearPerturbationsAgreeWithExactTier) {
    // Third point off the line y = x by 2^-k: true orientation is +1
    // (left turn) for any positive offset, 0 at exactly zero. k stops at
    // 48 — beyond ulp(7.0) = 2^-50 the offset rounds away in the input
    // itself and the point really is collinear.
    geom::reset_predicate_counters();
    for (int k = 20; k <= 48; k += 4) {
        const geom::Point a{0.0, 0.0}, b{3.0, 3.0};
        const geom::Point c{7.0, 7.0 + std::ldexp(1.0, -k)};
        EXPECT_EQ(geom::orient_sign(a, b, c), 1) << "k=" << k;
        EXPECT_EQ(geom::orient_sign_exact(a, b, c), 1) << "k=" << k;
    }
    EXPECT_EQ(geom::orient_sign(geom::Point{0.0, 0.0}, {3.0, 3.0}, {7.0, 7.0}), 0);
    const geom::PredicateCounters counters = geom::predicate_counters();
    EXPECT_GT(counters.orient_exact, 0u);
}

TEST(PredicateFilter, SosTieBreakIsTheLiftPerturbationsSign) {
    // The twelve integer points on x² + y² = 25: every quadruple is an
    // exact tie. Raising the lift x² + y² of the point whose key ranks r
    // among the four by 2^-(10(r+1)) makes each tie a nonzero 4x4
    // determinant whose sign
    // the least-ranked point's term decides (cofactors are nonzero
    // integers up to 100, so the later terms sum to under 2^-13). That
    // sign must be incircle_ccw_sos's, whichever point is the query.
    const std::vector<geom::Point> ring{{3, 4},  {4, 3},  {5, 0},   {4, -3},
                                        {3, -4}, {0, -5}, {-3, -4}, {-4, -3},
                                        {-5, 0}, {-4, 3}, {-3, 4},  {0, 5}};
    const auto key = [](std::size_t i) { return static_cast<std::uint64_t>((7 * i + 5) % 12); };
    const auto lifted_det = [&](std::array<std::size_t, 4> q) {
        // Rows (x, y, x² + y² + δ, 1), expanded along the constant column.
        std::array<std::array<long double, 3>, 4> m{};
        for (std::size_t r = 0; r < 4; ++r) {
            const geom::Point p = ring[q[r]];
            const auto rank = std::ranges::count_if(
                q, [&](std::size_t other) { return key(other) < key(q[r]); });
            const long double delta = std::ldexp(1.0L, -10 * static_cast<int>(rank + 1));
            m[r] = {p.x, p.y, p.x * p.x + p.y * p.y + delta};
        }
        const auto det3 = [&](std::size_t i, std::size_t j, std::size_t k) {
            return m[i][0] * (m[j][1] * m[k][2] - m[j][2] * m[k][1]) -
                   m[i][1] * (m[j][0] * m[k][2] - m[j][2] * m[k][0]) +
                   m[i][2] * (m[j][0] * m[k][1] - m[j][1] * m[k][0]);
        };
        return -det3(1, 2, 3) + det3(0, 2, 3) - det3(0, 1, 3) + det3(0, 1, 2);
    };
    std::size_t checked = 0;
    for (std::size_t a = 0; a < ring.size(); ++a) {
        for (std::size_t b = a + 1; b < ring.size(); ++b) {
            for (std::size_t c = b + 1; c < ring.size(); ++c) {
                for (std::size_t d = 0; d < ring.size(); ++d) {
                    if (d == a || d == b || d == c) continue;
                    // Ring order is clockwise, so (a, c, b) is ccw.
                    ASSERT_EQ(geom::orient_sign(ring[a], ring[c], ring[b]), 1);
                    const long double det = lifted_det({a, c, b, d});
                    ASSERT_NE(det, 0.0L);
                    EXPECT_EQ(geom::incircle_ccw_sos(ring[a], ring[c], ring[b], ring[d],
                                                     key(a), key(c), key(b), key(d)),
                              det > 0 ? 1 : -1)
                        << a << ' ' << c << ' ' << b << " query " << d;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, 220u * 9u);
}

TEST(PredicateFilter, HugeMagnitudeTiesForceExpansionFallback) {
    // The cocircular quadruple scaled by 2^150: coordinates are still
    // exact doubles (powers of two preserve integers), the determinant
    // is still exactly 0, and the intermediate products reach ~1e+271 —
    // magnitudes where only expansion arithmetic keeps the tie. Also an
    // exactly collinear triple at the same scale for the orientation
    // filter.
    const double s = std::ldexp(1.0, 150);
    const geom::Point a{3.0 * s, 4.0 * s}, b{0.0, -5.0 * s}, c{5.0 * s, 0.0};
    geom::reset_predicate_counters();
    EXPECT_EQ(geom::incircle_ccw(a, b, c, {-3.0 * s, 4.0 * s}), 0);
    EXPECT_EQ(geom::incircle_ccw(a, b, c, {-3.0 * s + s, 4.0 * s}), 1);
    EXPECT_EQ(geom::orient_sign(geom::Point{0.0, 0.0}, {s, s}, {2.0 * s, 2.0 * s}), 0);
    const geom::PredicateCounters counters = geom::predicate_counters();
    EXPECT_GE(counters.incircle_exact, 1u);
    EXPECT_GE(counters.orient_exact, 1u);
}

}  // namespace
}  // namespace geospanner
