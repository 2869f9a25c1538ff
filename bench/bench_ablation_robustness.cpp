// Ablation: backbone redundancy vs fault tolerance.
//
// Algorithm 1 keeps multiple connectors per dominator pair; this bench
// measures what that buys. For the elected backbone and its greedily
// pruned (inclusion-minimal) counterpart, we knock out every single
// backbone node in turn and count how often the surviving backbone
// still spans the surviving dominators.
#include <array>
#include <iostream>

#include "bench_util.h"
#include "graph/shortest_paths.h"
#include "graph/articulation.h"
#include "protocol/pruning.h"

using namespace geospanner;

namespace {

/// Fraction of single-node knockouts (over backbone nodes) that leave
/// the remaining dominators connected through the remaining backbone.
double single_failure_survival(const graph::GeometricGraph& udg,
                               const protocol::ClusterState& cluster,
                               const protocol::ConnectorState& conn) {
    const auto n = static_cast<graph::NodeId>(udg.node_count());
    std::size_t backbone_nodes = 0;
    std::size_t survived = 0;
    for (graph::NodeId dead = 0; dead < n; ++dead) {
        const bool is_backbone = cluster.is_dominator(dead) || conn.is_connector[dead];
        if (!is_backbone) continue;
        ++backbone_nodes;
        graph::GeometricGraph g(udg.points());
        for (const auto& [u, v] : conn.cds_edges) {
            if (u != dead && v != dead) g.add_edge(u, v);
        }
        std::vector<bool> members(n, false);
        for (graph::NodeId v = 0; v < n; ++v) {
            members[v] = v != dead && (cluster.is_dominator(v) || conn.is_connector[v]);
        }
        if (graph::is_connected_on(g, members)) ++survived;
    }
    return backbone_nodes == 0
               ? 1.0
               : static_cast<double>(survived) / static_cast<double>(backbone_nodes);
}

}  // namespace

int main() {
    const std::size_t n = 100;
    const double side = 250.0;
    const double radius = 60.0;
    const std::size_t trials = bench::trials_or(10);

    std::cout << "=== Ablation: connector redundancy vs fault tolerance (n=" << n
              << ", R=" << radius << ", " << trials << " instances) ===\n\n";

    // Opt-in JSON: emits only when GS_BENCH_JSON is set.
    const bench::JsonSink sink("ablation_robustness");

    io::Table table({"backbone", "size avg", "edges avg", "1-failure survival %",
                     "cut vertices avg"});
    struct SchemeStats {
        const char* name = "";
        bench::MaxAvg size, edges, survival, cuts;
    };
    std::array<SchemeStats, 3> schemes;
    schemes[0].name = "elected (Algorithm 1)";
    schemes[1].name = "Alzoubi single-path";
    schemes[2].name = "pruned minimal";

    for (std::size_t trial = 0; trial < trials; ++trial) {
        const auto instance = bench::make_instance(n, side, radius, 3000 + trial,
                                                   core::Engine::kCentralized);
        if (!instance) continue;
        const auto& udg = instance->udg;
        const protocol::ClusterState cluster = protocol::cluster_reference(udg);
        const protocol::ConnectorState full = protocol::find_connectors(udg, cluster);
        const protocol::ConnectorState alzoubi =
            protocol::find_connectors_alzoubi(udg, cluster);
        const protocol::ConnectorState pruned =
            protocol::prune_connectors(udg, cluster, full);

        const auto size_of = [&](const protocol::ConnectorState& c) {
            std::size_t s = cluster.dominator_count();
            for (const bool b : c.is_connector) s += b ? 1 : 0;
            return static_cast<double>(s);
        };
        const auto cuts_of = [&](const protocol::ConnectorState& c) {
            graph::GeometricGraph cds(udg.points());
            for (const auto& [u, v] : c.cds_edges) cds.add_edge(u, v);
            std::vector<bool> members(udg.node_count());
            for (graph::NodeId v = 0; v < udg.node_count(); ++v) {
                members[v] = cluster.is_dominator(v) || c.is_connector[v];
            }
            return static_cast<double>(graph::articulation_count_within(cds, members));
        };
        const std::array<const protocol::ConnectorState*, 3> states{&full, &alzoubi,
                                                                     &pruned};
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            schemes[i].size.add(size_of(*states[i]));
            schemes[i].edges.add(static_cast<double>(states[i]->cds_edges.size()));
            schemes[i].survival.add(
                100.0 * single_failure_survival(udg, cluster, *states[i]));
            schemes[i].cuts.add(cuts_of(*states[i]));
        }
    }

    for (const SchemeStats& s : schemes) {
        table.begin_row()
            .cell(std::string(s.name))
            .cell(s.size.avg())
            .cell(s.edges.avg())
            .cell(s.survival.avg(), 1)
            .cell(s.cuts.avg(), 1);
        auto obj = sink.row();
        obj.add("backbone", s.name)
            .add("nodes", n)
            .add("radius", radius)
            .add("trials", trials)
            .add("size_avg", s.size.avg())
            .add("edges_avg", s.edges.avg())
            .add("survival_pct_avg", s.survival.avg())
            .add("cut_vertices_avg", s.cuts.avg())
            .add("cut_vertices_max", s.cuts.max);
        sink.emit(obj);
    }
    std::cout << table.str()
              << "\nboth connector schemes cover every nearby dominator pair and so\n"
                 "retain path diversity (one path per ordered pair still overlaps\n"
                 "heavily across pairs), absorbing nearly all single-node failures;\n"
                 "only the inclusion-minimal pruning destroys that redundancy, and\n"
                 "with it the fault tolerance.\n";
    return 0;
}
