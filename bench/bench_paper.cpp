// Table I and Figures 8–12 of the paper, one spec each.
//
// `bench_paper [spec...]` runs the named specs (table1, fig8, fig9,
// fig10, fig11, fig12), or every spec when none is named. Each prints
// the tables EXPERIMENTS.md compares with the paper, writes them as CSV
// under GS_BENCH_CSV_DIR, and appends one JsonSink row per sweep point
// to GS_BENCH_JSON, which tools/check_paper_claims.py checks against the
// paper's claims.
//
// Paper setup: n nodes uniform in a square, instances regenerated until
// the UDG is connected, stretch over pairs more than one transmission
// radius apart. A figure sweeps n at R = 60 or R at n = 500. At each
// sweep point every series of the figure, a (topology, metric) pair,
// keeps one MaxAvg: its max tables read the largest per-instance
// maximum, its mean tables the mean of the per-instance means.
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/report.h"
#include "engine/thread_pool.h"
#include "graph/metrics.h"
#include "proximity/classic.h"
#include "proximity/ldel.h"

using namespace geospanner;

namespace {

/// A backbone structure a figure reads: its JSON key, its graph, and
/// the cumulative per-node broadcasts after the stage that builds it
/// (null for the primed graphs, which no protocol stage builds alone).
struct Topology {
    const char* key;
    graph::GeometricGraph core::Backbone::*graph;
    std::vector<std::size_t> core::MessageStats::*messages;
};

const Topology kCds{"cds", &core::Backbone::cds, &core::MessageStats::after_cds};
const Topology kCdsPrime{"cds_prime", &core::Backbone::cds_prime, nullptr};
const Topology kIcds{"icds", &core::Backbone::icds, &core::MessageStats::after_icds};
const Topology kIcdsPrime{"icds_prime", &core::Backbone::icds_prime, nullptr};
const Topology kLdelIcds{"ldel_icds", &core::Backbone::ldel_icds,
                         &core::MessageStats::after_ldel};
const Topology kLdelIcdsPrime{"ldel_icds_prime", &core::Backbone::ldel_icds_prime, nullptr};

/// Per-instance statistics with a maximum and a mean over nodes (degree,
/// broadcasts) or node pairs (stretch).
enum class Metric { kDegree, kLength, kHops, kMessages };

struct Series {
    Topology topology;
    Metric metric;

    [[nodiscard]] std::string key() const {
        static constexpr const char* kNames[] = {"degree", "len", "hop", "msg"};
        return std::string(topology.key) + '.' + kNames[static_cast<int>(metric)];
    }
    /// Counts print without decimals in the max tables.
    [[nodiscard]] bool integral() const {
        return metric == Metric::kDegree || metric == Metric::kMessages;
    }
};

enum class Stat { kMax, kAvg };

/// One printed table: after the sweep column, for each series in
/// [first, last), one column per stat.
struct TableSpec {
    std::string csv;
    std::string caption;
    std::vector<std::string> header;
    std::size_t first = 0;
    std::size_t last = 0;
    std::vector<Stat> stats;
};

struct FigureSpec {
    std::string name;
    std::string title;
    std::string note{};  ///< extra banner line, may be empty
    bool sweeps_radius = false;  ///< else the sweep is over n
    std::vector<double> points;
    std::size_t n = 500;   ///< when sweeping R
    double radius = 60.0;  ///< when sweeping n
    double side = 250.0;
    std::uint64_t seed_base = 0;
    std::size_t trials = 20;  ///< default; GS_BENCH_TRIALS overrides
    core::Engine engine = core::Engine::kCentralized;
    std::vector<Series> series;
    std::vector<TableSpec> tables;
    std::string expected;
};

std::vector<FigureSpec> paper_figures() {
    const std::vector<double> density{20, 30, 40, 50, 60, 70, 80, 90, 100};
    const std::vector<double> radii{20, 30, 40, 50, 60};
    const char* const stretch_note = "stretch over pairs more than one radius apart";
    std::vector<Series> stretch;
    for (const Topology& t : {kCdsPrime, kIcdsPrime, kLdelIcdsPrime}) {
        stretch.push_back({t, Metric::kLength});
        stretch.push_back({t, Metric::kHops});
    }
    const auto stretch_tables = [](const std::string& csv, const std::string& axis) {
        const std::vector<std::string> header{axis,          "CDS' len",     "CDS' hop",
                                              "ICDS' len",   "ICDS' hop",    "LDelICDS' len",
                                              "LDelICDS' hop"};
        return std::vector<TableSpec>{
            {csv + "_max", "maximum spanning ratios (max over instances)", header, 0, 6,
             {Stat::kMax}},
            {csv + "_avg", "average spanning ratios (mean over instances)", header, 0, 6,
             {Stat::kAvg}}};
    };
    const std::vector<std::string> degree_header{"n",    "CDS",      "CDS'",     "ICDS",
                                                 "ICDS'", "LDelICDS", "LDelICDS'"};
    const std::vector<std::string> per_stage{"R",        "CDS max",      "CDS avg",
                                             "ICDS max", "ICDS avg",     "LDelICDS max",
                                             "LDelICDS avg"};
    return {
        {.name = "fig8",
         .title = "Figure 8: node degree vs node density",
         .points = density,
         .seed_base = 8000,
         .series = {{kCds, Metric::kDegree},
                    {kCdsPrime, Metric::kDegree},
                    {kIcds, Metric::kDegree},
                    {kIcdsPrime, Metric::kDegree},
                    {kLdelIcds, Metric::kDegree},
                    {kLdelIcdsPrime, Metric::kDegree}},
         .tables = {{"fig8_degree_max", "max degree (max over instances)", degree_header, 0,
                     6, {Stat::kMax}},
                    {"fig8_degree_avg", "average degree (mean over instances)",
                     degree_header, 0, 6, {Stat::kAvg}}},
         .expected = "expected shape (paper Fig. 8): CDS/ICDS/LDel(ICDS) max degree flat\n"
                     "in n; CDS'/ICDS'/LDel(ICDS') max degree grows with density.\n"},
        {.name = "fig9",
         .title = "Figure 9: spanning ratios vs node density",
         .note = stretch_note,
         .points = density,
         .seed_base = 9000,
         .series = stretch,
         .tables = stretch_tables("fig9_stretch", "n"),
         .expected = "expected shape (paper Fig. 9): both ratios flat in n; averages\n"
                     "~1.2-1.5, maxima a small constant (paper ~2.5-4).\n"},
        {.name = "fig10",
         .title = "Figure 10: communication cost vs node density",
         .note = "cost = broadcasts per node, cumulative per construction stage",
         .points = density,
         .seed_base = 10000,
         .engine = core::Engine::kDistributed,
         .series = {{kCds, Metric::kMessages},
                    {kIcds, Metric::kMessages},
                    {kLdelIcds, Metric::kMessages}},
         .tables = {{"fig10_comm_max", "maximum communication cost (max over instances)",
                     {"n", "CDS max", "ICDS max", "LDelICDS max"}, 0, 3, {Stat::kMax}},
                    {"fig10_comm_avg", "average communication cost (mean over instances)",
                     {"n", "CDS avg", "ICDS avg", "LDelICDS avg"}, 0, 3, {Stat::kAvg}}},
         .expected = "expected shape (paper Fig. 10): max cost ~20-60 and roughly flat in\n"
                     "n; LDel(ICDS) minus CDS roughly constant.\n"},
        {.name = "fig11",
         .title = "Figure 11: spanning ratios vs transmission radius",
         .note = stretch_note,
         .sweeps_radius = true,
         .points = radii,
         .seed_base = 11000,
         .trials = 3,
         .series = stretch,
         .tables = stretch_tables("fig11_stretch", "R"),
         .expected = "expected shape (paper Fig. 11): ratios stay in a small constant\n"
                     "band (averages ~1.1-1.5, maxima ~2.5-4.2) across the radius sweep.\n"},
        {.name = "fig12",
         .title = "Figure 12: communication cost and node degree vs radius",
         .sweeps_radius = true,
         .points = radii,
         .seed_base = 12000,
         .trials = 3,
         .engine = core::Engine::kDistributed,
         .series = {{kCds, Metric::kMessages},
                    {kIcds, Metric::kMessages},
                    {kLdelIcds, Metric::kMessages},
                    {kCds, Metric::kDegree},
                    {kIcds, Metric::kDegree},
                    {kLdelIcds, Metric::kDegree}},
         .tables = {{"fig12_comm", "communication cost per node (broadcasts)", per_stage, 0,
                     3, {Stat::kMax, Stat::kAvg}},
                    {"fig12_degree", "node degree of the backbone structures", per_stage, 3,
                     6, {Stat::kMax, Stat::kAvg}}},
         .expected = "expected shape (paper Fig. 12): max comm ~15-65 growing mildly with\n"
                     "R; backbone degrees flat and small across the sweep.\n"},
    };
}

/// The series' (maximum, mean) on one instance.
std::pair<double, double> measure(const bench::Instance& instance, const Series& series,
                                  double radius, engine::ThreadPool& pool) {
    const graph::GeometricGraph& topo = instance.backbone.*(series.topology.graph);
    switch (series.metric) {
        case Metric::kDegree: {
            const auto d = graph::degree_stats(topo);
            return {static_cast<double>(d.max), d.avg};
        }
        case Metric::kLength: {
            const auto s = graph::length_stretch(instance.udg, topo, radius, &pool);
            return {s.max, s.avg};
        }
        case Metric::kHops: {
            const auto s = graph::hop_stretch(instance.udg, topo, radius, &pool);
            return {s.max, s.avg};
        }
        case Metric::kMessages: {
            const auto& counts = instance.backbone.messages.*(series.topology.messages);
            return {static_cast<double>(core::MessageStats::max_of(counts)),
                    core::MessageStats::avg_of(counts)};
        }
    }
    return {};
}

void run_figure(const FigureSpec& spec, engine::ThreadPool& pool,
                const bench::JsonSink& sink) {
    const std::size_t trials = bench::trials_or(spec.trials);
    std::cout << "=== " << spec.title << " ("
              << (spec.sweeps_radius ? "N=" + std::to_string(spec.n)
                                     : "R=" + std::to_string(static_cast<int>(spec.radius)))
              << ", region " << spec.side << "x" << spec.side << ", " << trials
              << " instances/point) ===\n";
    if (!spec.note.empty()) std::cout << spec.note << '\n';
    std::cout << '\n';

    std::vector<io::Table> tables;
    for (const TableSpec& t : spec.tables) tables.emplace_back(t.header);
    for (const double point : spec.points) {
        const std::size_t n = spec.sweeps_radius ? spec.n : static_cast<std::size_t>(point);
        const double radius = spec.sweeps_radius ? point : spec.radius;
        std::vector<bench::MaxAvg> acc(spec.series.size());
        std::size_t used = 0;
        for (std::size_t trial = 0; trial < trials; ++trial) {
            const auto instance =
                bench::make_instance(n, spec.side, radius, spec.seed_base + trial, spec.engine);
            if (!instance) continue;
            ++used;
            for (std::size_t s = 0; s < spec.series.size(); ++s) {
                const auto [max, mean] = measure(*instance, spec.series[s], radius, pool);
                acc[s].add(max, mean);
            }
        }

        for (std::size_t k = 0; k < tables.size(); ++k) {
            const TableSpec& t = spec.tables[k];
            io::Table& table = tables[k].begin_row();
            if (spec.sweeps_radius) {
                table.cell(radius, 0);
            } else {
                table.cell(n);
            }
            for (std::size_t s = t.first; s < t.last; ++s) {
                for (const Stat stat : t.stats) {
                    if (stat == Stat::kMax) {
                        table.cell(acc[s].max, spec.series[s].integral() ? 0 : 2);
                    } else {
                        table.cell(acc[s].avg());
                    }
                }
            }
        }
        bench::JsonObject row = sink.row();
        row.add("spec", spec.name).add("n", n).add("R", radius).add("instances", used);
        for (std::size_t s = 0; s < spec.series.size(); ++s) {
            const std::string key = spec.series[s].key();
            row.add(key + ".max", acc[s].max).add(key + ".avg", acc[s].avg());
        }
        sink.emit(row);
    }

    for (std::size_t k = 0; k < tables.size(); ++k) {
        io::maybe_write_csv(spec.tables[k].csv, tables[k]);
        std::cout << spec.tables[k].caption << ":\n" << tables[k].str() << '\n';
    }
    std::cout << spec.expected << '\n';
}

/// Table I: every topology of one dense deployment, each instance
/// measured by core::measure_topology and aggregated by
/// core::aggregate_reports. False when an instance cannot be generated.
bool run_table1(engine::ThreadPool& pool, const bench::JsonSink& sink) {
    const std::size_t n = 100;
    // Side chosen so the UDG density matches the paper's Table I row
    // (avg degree 21.4 at n=100): n·π·R²/side² ≈ 21 -> side ≈ 210.
    const double side = 210.0;
    const double radius = 60.0;
    const std::size_t trials = bench::trials_or(20);

    std::cout << "=== Table I: topology quality measurements ===\n"
              << "n=" << n << " nodes, " << side << "x" << side << " region, radius=" << radius
              << ", " << trials << " connected instances\n"
              << "(paper: n=100, avg UDG degree 21.4; stretch over pairs > 1 radius apart)\n\n";

    // Label, JSON key, and whether the graph spans every node: the
    // backbone-only graphs leave dominatees isolated and get no stretch.
    struct Entry {
        std::string label;
        std::string key;
        bool spanning;
    };
    const std::vector<Entry> topologies{{"UDG", "udg", true},
                                 {"RNG", "rng", true},
                                 {"GG", "gg", true},
                                 {"LDel", "ldel", true},
                                 {"CDS", "cds", false},
                                 {"CDS'", "cds_prime", true},
                                 {"ICDS", "icds", false},
                                 {"ICDS'", "icds_prime", true},
                                 {"LDel(ICDS)", "ldel_icds", false},
                                 {"LDel(ICDS')", "ldel_icds_prime", true}};
    std::vector<std::vector<core::TopologyReport>> reports(topologies.size());

    for (std::size_t trial = 0; trial < trials; ++trial) {
        const auto instance = bench::make_instance(n, side, radius, 1000 + trial,
                                                   core::Engine::kCentralized);
        if (!instance) {
            std::cerr << "instance generation failed\n";
            return false;
        }
        const auto& udg = instance->udg;
        const auto& bb = instance->backbone;
        const auto rng = proximity::build_rng(udg);
        const auto gg = proximity::build_gabriel(udg);
        const auto ldel = proximity::build_pldel(udg);
        const graph::GeometricGraph* topos[] = {&udg,     &rng,          &gg,
                                                &ldel,    &bb.cds,       &bb.cds_prime,
                                                &bb.icds, &bb.icds_prime, &bb.ldel_icds,
                                                &bb.ldel_icds_prime};
        for (std::size_t k = 0; k < topologies.size(); ++k) {
            reports[k].push_back(core::measure_topology(topologies[k].label, udg, *topos[k],
                                                        topologies[k].spanning, radius, &pool));
        }
    }

    io::Table table({"topology", "deg avg", "deg max", "len avg", "len max", "hop avg",
                     "hop max", "edges"});
    bench::JsonObject json = sink.row();
    json.add("spec", "table1").add("n", n).add("R", radius).add("instances", trials);
    for (std::size_t k = 0; k < topologies.size(); ++k) {
        const auto agg = core::aggregate_reports(reports[k]);
        const std::string& key = topologies[k].key;
        table.begin_row().cell(topologies[k].label).cell(agg.degree.avg).cell(agg.degree.max);
        json.add(key + ".degree.max", agg.degree.max).add(key + ".degree.avg", agg.degree.avg);
        if (agg.has_stretch) {
            table.cell(agg.length.avg).cell(agg.length.max).cell(agg.hops.avg).cell(
                agg.hops.max);
            json.add(key + ".len.max", agg.length.max)
                .add(key + ".len.avg", agg.length.avg)
                .add(key + ".hop.max", agg.hops.max)
                .add(key + ".hop.avg", agg.hops.avg);
        } else {
            table.dash().dash().dash().dash();
        }
        table.cell(agg.edges);
        json.add(key + ".edges", agg.edges);
    }
    sink.emit(json);
    io::maybe_write_csv("table1", table);
    std::cout << table.str()
              << "\npaper (Table I): UDG 21.4/42/-/-/1069e; RNG 2.37/4/1.32/4.49; "
                 "GG 3.56/9/1.12/2.08;\n  LDel 5.56/12/1.05/1.44; CDS 1.09/16; "
                 "CDS' 3.34/41/1.27/5.04; ICDS 1.72/16;\n  ICDS' 4.03/41/1.23/4.17; "
                 "LDel(ICDS) 1.20/9; LDel(ICDS') 3.51/38/1.23/4.20\n\n";
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<FigureSpec> figures = paper_figures();
    std::vector<std::string> known{"table1"};
    for (const FigureSpec& f : figures) known.push_back(f.name);
    const std::vector<std::string> named(argv + 1, argv + argc);
    for (const std::string& name : named) {
        if (std::ranges::find(known, name) == known.end()) {
            std::cerr << "unknown spec '" << name << "'; specs:";
            for (const std::string& k : known) std::cerr << ' ' << k;
            std::cerr << '\n';
            return 2;
        }
    }
    const auto wanted = [&](const std::string& name) {
        return named.empty() || std::ranges::find(named, name) != named.end();
    };

    engine::ThreadPool pool;
    const bench::JsonSink sink("bench_paper");
    if (wanted("table1") && !run_table1(pool, sink)) return 1;
    for (const FigureSpec& spec : figures) {
        if (wanted(spec.name)) run_figure(spec, pool, sink);
    }
    return 0;
}
