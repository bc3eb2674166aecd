// Experiment E3 — Claim 3.1 (the light spanning tree).
//
// Claim reproduced: on every connected graph there is a spanning tree T0
// with sum_{e in T0} #2(w(e)) <= 4n, constructed by the phased
// Boruvka/Kruskal hybrid.
//
// Expected shape: "contribution/n" <= 4 in every row (usually far below);
// per-phase contributions C_k stay below k * |T_small(k)| and the phase
// count stays below ceil(log2 n) + 1. The comparison columns show that
// naive trees (BFS from the source) can exceed the 4n budget on dense
// port-rich graphs while the light tree never does.
//
// Exits 1 if any row breaks sum #2 <= 4n or any K*_2048 phase has
// C_k > k * |T_small(k)|, so a ctest run checks Claim 3.1.
#include <iostream>

#include "bench_common.h"
#include "graph/light_tree.h"
#include "util/table.h"

using namespace oraclesize;

int main(int argc, char** argv) {
  // Bounds/game-only experiment: no engine trials, so the JSON file
  // carries just the envelope (bench id, jobs, total_wall_ns).
  bench::Harness harness("e3_light_tree", argc, argv);
  (void)harness;
  bool holds = true;
  {
    Table t({"family", "n", "light contrib", "contrib/n", "<=4n?", "phases",
             "bfs contrib", "dfs contrib", "kruskal contrib"});
    for (const bench::Workload& w : bench::standard_workloads()) {
      const LightTreeResult light = light_tree(w.graph, 0);
      const std::uint64_t bfs =
          tree_contribution(w.graph, bfs_tree(w.graph, 0));
      const std::uint64_t dfs =
          tree_contribution(w.graph, dfs_tree(w.graph, 0));
      const std::uint64_t kruskal =
          tree_contribution(w.graph, kruskal_mst(w.graph, 0));
      const bool within = light.contribution <= 4 * w.n;
      holds = holds && within;
      t.row()
          .cell(w.family)
          .cell(w.n)
          .cell(light.contribution)
          .cell(static_cast<double>(light.contribution) /
                    static_cast<double>(w.n),
                3)
          .cell(within ? "yes" : "NO")
          .cell(light.phases.size())
          .cell(bfs)
          .cell(dfs)
          .cell(kruskal);
    }
    t.print(std::cout,
            "E3 / Claim 3.1: light-tree contribution <= 4n on every family");
  }

  {
    // The telescoping argument, phase by phase, on the densest workload.
    const PortGraph g = make_complete_star(2048);
    const LightTreeResult r = light_tree(g, 0);
    Table t({"phase k", "trees before", "small trees", "edges added",
             "edges erased", "C_k", "proof cap k*|small|"});
    for (const LightTreePhase& p : r.phases) {
      const std::uint64_t cap =
          static_cast<std::uint64_t>(p.phase) * p.small_trees;
      holds = holds && p.contribution <= cap;
      t.row()
          .cell(p.phase)
          .cell(p.trees_before)
          .cell(p.small_trees)
          .cell(p.edges_added)
          .cell(p.edges_erased)
          .cell(p.contribution)
          .cell(cap);
    }
    t.print(std::cout,
            "E3b: per-phase accounting on K*_2048 (C_k <= k * |T_small(k)|)");
  }
  if (!holds) {
    std::cerr << "E3: Claim 3.1 violated (see the NO rows / C_k above)\n";
    return 1;
  }
  return 0;
}
