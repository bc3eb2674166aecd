// Experiment E9 — ablations over our own design choices (DESIGN.md).
//
//  (a) Integer code choice for the broadcast oracle's weight lists: the
//      paper's doubled-bit code versus Elias gamma/delta versus naive
//      fixed-width ceil(log2 n) fields. Expected shape: doubled-bit and the
//      Elias codes all keep the oracle linear in n (weights are small by
//      Claim 3.1); fixed-width grows like n log n, wasting the light tree's
//      entire point.
//  (b) Spanning-tree choice under the same advice layout: the light tree's
//      oracle stays <= 10n bits, while BFS/DFS trees on K*_n grow
//      superlinearly. All choices still broadcast correctly with <= 3(n-1)
//      messages (correctness never depended on the tree, only the size
//      bound does).
//  (c) Wakeup-oracle tree choice: message count is n-1 regardless; only the
//      advice size moves (slightly), confirming Theorem 2.1 needs no
//      special tree.
#include <iostream>

#include "bench_common.h"
#include "bitio/codecs.h"
#include "core/broadcast_b.h"
#include "core/wakeup.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "util/mathx.h"
#include "util/table.h"

using namespace oraclesize;

int main(int argc, char** argv) {
  bench::Harness harness("e9_ablations", argc, argv);
  {
    Table t({"n (K*_n)", "doubled bits", "gamma bits", "delta bits",
             "fixed-width bits", "fixed/doubled"});
    for (std::size_t n : {128u, 512u, 2048u}) {
      const PortGraph g = make_complete_star(n);
      const auto advice = LightBroadcastOracle(TreeKind::kLight).advise(g, 0);
      std::uint64_t doubled = 0, gamma = 0, delta = 0, fixed = 0;
      const int width = ceil_log2(static_cast<std::uint64_t>(n));
      for (const BitString& bits : advice) {
        for (std::uint64_t w : decode_weight_list(bits)) {
          doubled += static_cast<std::uint64_t>(doubled_length(w));
          gamma += static_cast<std::uint64_t>(elias_gamma_length(w + 1));
          delta += static_cast<std::uint64_t>(elias_delta_length(w + 1));
          fixed += static_cast<std::uint64_t>(width);
        }
      }
      t.row()
          .cell(n)
          .cell(doubled)
          .cell(gamma)
          .cell(delta)
          .cell(fixed)
          .cell(static_cast<double>(fixed) / static_cast<double>(doubled),
                2);
    }
    t.print(std::cout,
            "E9a: weight-list encoding ablation (self-delimiting codes stay "
            "linear; fixed-width pays log n per edge)");
  }

  {
    Table t({"n (K*_n)", "tree", "bcast oracle bits", "bits/n", "bcast msgs",
             "ok"});
    const std::size_t sizes[] = {128, 512, 2048};
    const TreeKind kinds[] = {TreeKind::kLight, TreeKind::kKruskal,
                              TreeKind::kBfs, TreeKind::kDfs};
    const BroadcastBAlgorithm broadcast;
    std::vector<PortGraph> graphs;
    for (std::size_t n : sizes) graphs.push_back(make_complete_star(n));
    std::vector<LightBroadcastOracle> oracles;
    for (TreeKind kind : kinds) oracles.emplace_back(kind);
    std::vector<TrialSpec> specs;
    for (const PortGraph& g : graphs) {
      for (const LightBroadcastOracle& o : oracles) {
        specs.push_back({&g, 0, &o, &broadcast, RunOptions{}});
      }
    }
    const std::vector<TaskReport> reports = harness.run(specs);
    std::size_t i = 0;
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const std::size_t n = sizes[gi];
      for (TreeKind kind : kinds) {
        const TaskReport& r = reports[i++];
        harness.record(bench::make_record(
            std::string("bcast/") + to_string(kind), n,
            SchedulerKind::kSynchronous, r));
        t.row()
            .cell(n)
            .cell(to_string(kind))
            .cell(r.oracle_bits)
            .cell(static_cast<double>(r.oracle_bits) /
                      static_cast<double>(n),
                  2)
            .cell(r.run.metrics.messages_total)
            .cell(r.ok() ? "yes" : "NO");
      }
    }
    t.print(std::cout,
            "E9b: spanning-tree ablation for the broadcast oracle (only the "
            "light tree keeps bits/n constant)");
  }

  {
    Table t({"graph", "n", "tree", "wakeup oracle bits", "wakeup msgs",
             "ok"});
    Rng rng(77);
    const PortGraph g = make_random_connected(1024, 8.0 / 1024.0, rng);
    const PortGraph k = make_complete_star(512);
    struct Row {
      const char* name;
      const PortGraph* graph;
    };
    const TreeKind kinds[] = {TreeKind::kBfs, TreeKind::kDfs,
                              TreeKind::kKruskal, TreeKind::kLight};
    const WakeupTreeAlgorithm wakeup;
    std::vector<TreeWakeupOracle> oracles;
    for (TreeKind kind : kinds) oracles.emplace_back(kind);
    const Row rows[] = {Row{"random", &g}, Row{"complete", &k}};
    std::vector<TrialSpec> specs;
    for (const Row& row : rows) {
      for (const TreeWakeupOracle& o : oracles) {
        specs.push_back({row.graph, 0, &o, &wakeup, RunOptions{}});
      }
    }
    const std::vector<TaskReport> reports = harness.run(specs);
    std::size_t i = 0;
    for (const Row& row : rows) {
      for (TreeKind kind : kinds) {
        const TaskReport& r = reports[i++];
        harness.record(bench::make_record(
            std::string("wakeup/") + row.name + "/" + to_string(kind),
            row.graph->num_nodes(), SchedulerKind::kSynchronous, r));
        t.row()
            .cell(row.name)
            .cell(row.graph->num_nodes())
            .cell(to_string(kind))
            .cell(r.oracle_bits)
            .cell(r.run.metrics.messages_total)
            .cell(r.ok() ? "yes" : "NO");
      }
    }
    t.print(std::cout,
            "E9c: spanning-tree ablation for the wakeup oracle (messages "
            "pinned at n-1 regardless)");
  }
  return 0;
}
