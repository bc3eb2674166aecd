// E16: degradation of advice-driven schemes under the deterministic
// Byzantine layer (sim/adversary_plan.h), and what extra oracle bits buy
// back.
//
// Sweeps {scheme} x {byzantine fraction} x {lie strategy} over two graph
// loads, several adversary seeds per cell. The scheme axis deliberately
// spans the advice-bits spectrum for one task (wakeup): flooding (0 bits,
// content-trusting), hybrid-wakeup over PartialTreeOracle at fractions
// 0.25/0.5/1.0, and the full Theorem 2.1 tree-cast — advised nodes use the
// advice-certified relay (core/hybrid_wakeup.h), so each extra advised node
// is one less relay the adversary can silence by forging content. The
// broadcast-B scheme rides along as the detected-vs-silent showcase: its
// control protocol trips violations on forged traffic instead of failing
// quietly.
//
// Like E13 this emits one aggregate record per cell with its own JSON
// writer. Extra sections beyond the E13 shape:
//
//   "neutrality"        wall-time of the reliable matrix run with untouched
//                       RunOptions vs with an explicitly zeroed-but-seeded
//                       AdversaryPlanParams — the disabled plan must be free
//                       (tools/perf_gate.py gates the ratio)
//   "scheduler_records" each scheme under the online Lemma-2.1 adversarial
//                       scheduler (kAsyncAdversarial) vs kAsyncRandom at the
//                       same max_delay: completion must hold, latency pays
//   "buyback"           rows where a larger-advice oracle strictly restores
//                       completion against the SAME adversary cells
//
// Flags match E13: --jobs N, --json FILE, --no-json, --seeds-per-cell K
// (default 6, smoke 3), --smoke; numeric flags parse strictly (a malformed
// value exits 2).
//
// Invariants asserted by CI: every byz_fraction-0 record has
// completion_rate 1.0 AND identical=true (field-for-field equal to the
// untouched-options reliable run — the disabled adversary is invisible).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/flooding.h"
#include "core/hybrid_wakeup.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/port_graph.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "util/rng.h"
#include "util/table.h"

namespace oraclesize {
namespace {

struct Load {
  std::string family;
  std::size_t n;
  PortGraph graph;
};

struct Scheme {
  std::string name;
  const Oracle* oracle;
  const Algorithm* algorithm;
  /// Solves the wakeup task via source-message relay — the family whose
  /// members differ only in advice bits, so buyback comparisons are
  /// apples-to-apples.
  bool wakeup_family = false;
};

/// One (load, scheme, strategy, fraction) cell, aggregated over `trials`
/// adversary seeds. strategy == kNoStrategy marks the byz-0 cell.
struct Cell {
  std::size_t load = 0;
  std::size_t scheme = 0;
  std::size_t strategy = 0;
  double fraction = 0.0;
  std::uint32_t byz_nodes = 0;
  std::size_t first = 0;
  std::size_t trials = 0;
};

struct CellResult {
  std::size_t completed = 0;
  std::size_t completed_retry = 0;
  std::size_t retries = 0;
  std::size_t detected = 0;      ///< kByzantineDetected, bare pass
  std::size_t silent = 0;        ///< kTaskFailed (fooled quietly), bare pass
  double messages_mean = 0.0;
  double lying_mean = 0.0;
  double forged_mean = 0.0;
  double equivocated_mean = 0.0;
  double replayed_mean = 0.0;
  double structured_mean = 0.0;
  double advice_lies_mean = 0.0;
  bool identical = false;  ///< byz-0 cells: equal to the untouched-opts run
  std::map<std::string, std::size_t> statuses;
};

struct BuybackRow {
  std::size_t load = 0;
  std::size_t strategy = 0;
  double fraction = 0.0;
  std::size_t rich = 0;  ///< scheme index with more bits, higher completion
  std::size_t poor = 0;  ///< scheme index it restores completion over
  double rich_rate = 0.0;
  double poor_rate = 0.0;
};

constexpr std::size_t kNoStrategy = static_cast<std::size_t>(-1);

const ByzantineStrategy kStrategies[] = {
    ByzantineStrategy::kRandomBits,
    ByzantineStrategy::kReplay,
    ByzantineStrategy::kStructuredLie,
};
constexpr std::size_t kNumStrategies =
    sizeof(kStrategies) / sizeof(kStrategies[0]);

std::vector<Load> make_loads(bool smoke) {
  std::vector<Load> out;
  Rng rng(0xe16b0017ULL);
  if (smoke) {
    out.push_back({"grid", 36, make_grid(6, 6)});
    out.push_back({"random-tree", 64, make_random_tree(64, rng)});
  } else {
    out.push_back({"grid", 64, make_grid(8, 8)});
    out.push_back({"random-tree", 128, make_random_tree(128, rng)});
  }
  return out;
}

std::string fmt_rate(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", r);
  return buf;
}

/// Whole-RunResult equality of two clean runs — the bench-scale version of
/// the ZeroAdversaryPlanIsInvisible golden — with the adversary idle in
/// both.
bool same_run(const TaskReport& a, const TaskReport& b) {
  return a.error.empty() && b.error.empty() && a.run == b.run &&
         a.run.adversary == AdversaryCounters{};
}

}  // namespace
}  // namespace oraclesize

int main(int argc, char** argv) {
  using namespace oraclesize;
  using Clock = std::chrono::steady_clock;

  std::size_t jobs = 0;
  std::string json_path = "BENCH_e16_byzantine.json";
  bool json_enabled = true;
  bool smoke = false;
  std::size_t seeds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--jobs") {
      jobs = bench::flag_number<std::size_t>(next(), a);
    } else if (a == "--json") {
      json_path = next();
    } else if (a == "--no-json") {
      json_enabled = false;
    } else if (a == "--seeds" || a == "--seeds-per-cell") {
      seeds = bench::flag_number<std::size_t>(next(), a);
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "error: unknown option '" << a
                << "' (supported: --jobs N, --json FILE, --no-json, "
                   "--seeds-per-cell K, --smoke)\n";
      return 2;
    }
  }
  if (seeds == 0) seeds = smoke ? 3 : 6;
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.1, 0.3}
            : std::vector<double>{0.05, 0.1, 0.2, 0.3};

  const std::vector<Load> loads = make_loads(smoke);
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup_algorithm;
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast_algorithm;
  const NullOracle null_oracle;
  const FloodingAlgorithm flooding_algorithm;
  const HybridWakeupAlgorithm hybrid_algorithm;
  const PartialTreeOracle partial_q25(0.25, 0xe16ad71cULL);
  const PartialTreeOracle partial_q50(0.50, 0xe16ad71cULL);
  const PartialTreeOracle partial_q100(1.0, 0xe16ad71cULL);
  const std::vector<Scheme> schemes = {
      {"flooding", &null_oracle, &flooding_algorithm, true},
      {"hybrid-q25", &partial_q25, &hybrid_algorithm, true},
      {"hybrid-q50", &partial_q50, &hybrid_algorithm, true},
      {"hybrid-q100", &partial_q100, &hybrid_algorithm, true},
      {"wakeup", &wakeup_oracle, &wakeup_algorithm, true},
      {"broadcast", &broadcast_oracle, &broadcast_algorithm, false},
  };

  // The paper's oracle size per (load, scheme) — the x-axis of every
  // buyback comparison.
  std::vector<std::vector<std::uint64_t>> bits(
      loads.size(), std::vector<std::uint64_t>(schemes.size(), 0));
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      bits[li][si] =
          oracle_size_bits(schemes[si].oracle->advise(loads[li].graph, 0));
    }
  }

  // Build every cell's specs up front (shared advice cache, deterministic
  // order under any --jobs). The byz-0 cell carries an explicitly zeroed
  // AdversaryPlanParams with a NONZERO adversary seed: a disabled plan must
  // be invisible no matter what junk rides in the unused fields.
  std::vector<Cell> cells;
  std::vector<TrialSpec> specs;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      {
        Cell cell;
        cell.load = li;
        cell.scheme = si;
        cell.strategy = kNoStrategy;
        cell.first = specs.size();
        cell.trials = 1;  // disabled adversary: deterministic
        RunOptions opts;
        opts.max_events = 4'000'000;
        opts.adversary.seed = 0xe16b00c5ULL + cells.size();
        specs.emplace_back(&loads[li].graph, 0, schemes[si].oracle,
                           schemes[si].algorithm, opts);
        cells.push_back(cell);
      }
      for (double fraction : fractions) {
        const auto byz = static_cast<std::uint32_t>(
            std::llround(fraction * static_cast<double>(loads[li].n)));
        if (byz == 0) continue;
        for (std::size_t sti = 0; sti < kNumStrategies; ++sti) {
          Cell cell;
          cell.load = li;
          cell.scheme = si;
          cell.strategy = sti;
          cell.fraction = fraction;
          cell.byz_nodes = byz;
          cell.first = specs.size();
          cell.trials = seeds;
          for (std::size_t t = 0; t < cell.trials; ++t) {
            RunOptions opts;
            opts.max_events = 4'000'000;
            opts.adversary.seed = cells.size() * 1'000'003ULL + t + 1;
            opts.adversary.byz_nodes = byz;
            opts.adversary.strategy = kStrategies[sti];
            specs.emplace_back(&loads[li].graph, 0, schemes[si].oracle,
                               schemes[si].algorithm, opts);
          }
          cells.push_back(cell);
        }
      }
    }
  }

  // Reliable audit pass: one untouched-RunOptions spec per (load, scheme).
  // The byz-0 cells must match these field for field.
  std::vector<TrialSpec> reliable_specs;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      RunOptions opts;
      opts.max_events = 4'000'000;
      reliable_specs.emplace_back(&loads[li].graph, 0, schemes[si].oracle,
                                  schemes[si].algorithm, opts);
    }
  }
  // Same matrix with the zeroed-but-seeded adversary params, for the
  // neutrality timing below.
  std::vector<TrialSpec> zeroed_specs = reliable_specs;
  for (std::size_t i = 0; i < zeroed_specs.size(); ++i) {
    zeroed_specs[i].options.adversary.seed = 0xe16b00c5ULL + i;
  }

  const BatchRunner bare(jobs, /*advice_cache=*/true, RetryPolicy{0});
  const RetryPolicy retry_policy{2, /*retry_task_failures=*/true};
  const BatchRunner retrying(jobs, /*advice_cache=*/true, retry_policy);
  BatchStats bare_stats;
  const std::vector<TaskReport> bare_reports = bare.run(specs, &bare_stats);
  const std::vector<TaskReport> retry_reports = retrying.run(specs);
  const std::vector<TaskReport> reliable_reports = bare.run(reliable_specs);

  // Perf neutrality of the disabled branch: time the reliable matrix with
  // untouched options vs with the zeroed-but-seeded params, single
  // threaded, best of a few repetitions (first warm-up pass fills the
  // advice cache for both arms).
  const BatchRunner timing_runner(1, /*advice_cache=*/true, RetryPolicy{0});
  auto time_pass = [&](const std::vector<TrialSpec>& s) -> std::uint64_t {
    (void)timing_runner.run(s);  // warm up
    std::uint64_t best = ~0ULL;
    const int reps = smoke ? 3 : 5;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      (void)timing_runner.run(s);
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      if (ns < best) best = ns;
    }
    return best;
  };
  const std::uint64_t reliable_ns = time_pass(reliable_specs);
  const std::uint64_t zeroed_ns = time_pass(zeroed_specs);
  const double neutrality_ratio =
      reliable_ns > 0 ? static_cast<double>(zeroed_ns) /
                            static_cast<double>(reliable_ns)
                      : 0.0;

  // The online Lemma-2.1 adversarial scheduler vs a random scheduler at the
  // same max_delay: completion must survive (it only reorders and delays),
  // latency pays for every first-use probe the adversary answers "special".
  std::vector<TrialSpec> sched_adv;
  std::vector<TrialSpec> sched_rand;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      RunOptions opts;
      opts.max_events = 4'000'000;
      opts.seed = 1;
      opts.scheduler = SchedulerKind::kAsyncAdversarial;
      sched_adv.emplace_back(&loads[li].graph, 0, schemes[si].oracle,
                             schemes[si].algorithm, opts);
      opts.scheduler = SchedulerKind::kAsyncRandom;
      sched_rand.emplace_back(&loads[li].graph, 0, schemes[si].oracle,
                              schemes[si].algorithm, opts);
    }
  }
  const std::vector<TaskReport> sched_adv_reports = bare.run(sched_adv);
  const std::vector<TaskReport> sched_rand_reports = bare.run(sched_rand);

  // Aggregate the main matrix.
  std::vector<CellResult> results(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    CellResult& r = results[c];
    std::uint64_t messages = 0, lying = 0, forged = 0, equivocated = 0,
                  replayed = 0, structured = 0, advice_lies = 0;
    for (std::size_t t = 0; t < cell.trials; ++t) {
      const TaskReport& b = bare_reports[cell.first + t];
      const TaskReport& w = retry_reports[cell.first + t];
      if (b.ok()) ++r.completed;
      if (w.ok()) ++r.completed_retry;
      r.retries += w.attempts - 1;
      if (!b.failed()) {
        if (b.run.status == RunStatus::kByzantineDetected) ++r.detected;
        if (b.run.status == RunStatus::kTaskFailed) ++r.silent;
        messages += b.run.metrics.messages_total;
        lying += b.run.adversary.lying_nodes;
        forged += b.run.adversary.forged;
        equivocated += b.run.adversary.equivocated;
        replayed += b.run.adversary.replayed;
        structured += b.run.adversary.structured_lies;
        advice_lies += b.run.adversary.advice_lies;
      }
      ++r.statuses[b.failed() ? "crashed" : to_string(b.run.status)];
    }
    const auto trials = static_cast<double>(cell.trials);
    r.messages_mean = static_cast<double>(messages) / trials;
    r.lying_mean = static_cast<double>(lying) / trials;
    r.forged_mean = static_cast<double>(forged) / trials;
    r.equivocated_mean = static_cast<double>(equivocated) / trials;
    r.replayed_mean = static_cast<double>(replayed) / trials;
    r.structured_mean = static_cast<double>(structured) / trials;
    r.advice_lies_mean = static_cast<double>(advice_lies) / trials;
    if (cell.strategy == kNoStrategy) {
      r.identical =
          same_run(bare_reports[cell.first],
                   reliable_reports[cell.load * schemes.size() + cell.scheme]);
    }
  }

  // Buyback rows: within the wakeup family, for each (load, strategy,
  // fraction) keep the pair where the bits-richer oracle restores the most
  // completion over a bits-poorer one against the same adversary cells.
  auto rate_of = [&](std::size_t c) {
    return static_cast<double>(results[c].completed) /
           static_cast<double>(cells[c].trials);
  };
  std::vector<BuybackRow> buyback;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    for (std::size_t sti = 0; sti < kNumStrategies; ++sti) {
      for (double fraction : fractions) {
        std::vector<std::size_t> group;  // cell index per wakeup-family scheme
        for (std::size_t c = 0; c < cells.size(); ++c) {
          if (cells[c].load == li && cells[c].strategy == sti &&
              cells[c].fraction == fraction &&
              schemes[cells[c].scheme].wakeup_family) {
            group.push_back(c);
          }
        }
        BuybackRow best;
        double best_gain = 0.0;
        for (std::size_t a : group) {
          for (std::size_t b : group) {
            if (bits[li][cells[a].scheme] <= bits[li][cells[b].scheme]) {
              continue;
            }
            const double gain = rate_of(a) - rate_of(b);
            if (gain > best_gain) {
              best_gain = gain;
              best = {li,          sti,        fraction,
                      cells[a].scheme, cells[b].scheme,
                      rate_of(a),  rate_of(b)};
            }
          }
        }
        if (best_gain > 0.0) buyback.push_back(best);
      }
    }
  }

  Table table({"family", "n", "scheme", "bits", "strategy", "byz-frac",
               "byz-nodes", "completion", "detected", "silent", "with-retry",
               "msgs-mean"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const CellResult& r = results[c];
    table.row()
        .cell(loads[cell.load].family)
        .cell(loads[cell.load].n)
        .cell(schemes[cell.scheme].name)
        .cell(bits[cell.load][cell.scheme])
        .cell(cell.strategy == kNoStrategy
                  ? std::string("none")
                  : std::string(to_string(kStrategies[cell.strategy])))
        .cell(fmt_rate(cell.fraction))
        .cell(cell.byz_nodes)
        .cell(rate_of(c), 3)
        .cell(r.detected)
        .cell(r.silent)
        .cell(static_cast<double>(r.completed_retry) /
                  static_cast<double>(cell.trials),
              3)
        .cell(r.messages_mean, 1);
  }
  table.print(std::cout,
              "E16: completion under the Byzantine layer (" +
                  std::to_string(seeds) + " adversary seeds/cell)");
  std::cout << "advice cache: " << bare_stats.unique_advice
            << " unique vectors served " << specs.size() << " trials\n";
  std::cout << "neutrality: zeroed-params reliable matrix at "
            << fmt_rate(neutrality_ratio) << "x untouched-options time\n";
  std::cout << "buyback rows (bits-richer oracle restores completion): "
            << buyback.size() << "\n";
  for (const BuybackRow& row : buyback) {
    std::cout << "  " << loads[row.load].family << " byz="
              << fmt_rate(row.fraction) << " "
              << to_string(kStrategies[row.strategy]) << ": "
              << schemes[row.rich].name << " ("
              << bits[row.load][row.rich] << "b, "
              << fmt_rate(row.rich_rate) << ") over " << schemes[row.poor].name
              << " (" << bits[row.load][row.poor] << "b, "
              << fmt_rate(row.poor_rate) << ")\n";
  }

  if (json_enabled) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: cannot write " << json_path << "\n";
      return 2;
    }
    out << "{\n  \"bench\": \"e16_byzantine\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"seeds_per_cell\": " << seeds << ",\n"
        << "  \"neutrality\": {\"reliable_ns\": " << reliable_ns
        << ", \"zeroed_ns\": " << zeroed_ns
        << ", \"ratio\": " << neutrality_ratio << "},\n"
        << "  \"scheduler_records\": [";
    for (std::size_t i = 0; i < sched_adv.size(); ++i) {
      const Load& load = loads[i / schemes.size()];
      const Scheme& scheme = schemes[i % schemes.size()];
      const TaskReport& adv = sched_adv_reports[i];
      const TaskReport& rnd = sched_rand_reports[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"family\": \"" << load.family
          << "\", \"n\": " << load.n << ", \"scheme\": \"" << scheme.name
          << "\", \"adversarial_ok\": " << (adv.ok() ? "true" : "false")
          << ", \"random_ok\": " << (rnd.ok() ? "true" : "false")
          << ", \"adversarial_completion_key\": "
          << adv.run.metrics.completion_key
          << ", \"random_completion_key\": " << rnd.run.metrics.completion_key
          << "}";
    }
    out << (sched_adv.empty() ? "],\n" : "\n  ],\n") << "  \"buyback\": [";
    for (std::size_t i = 0; i < buyback.size(); ++i) {
      const BuybackRow& row = buyback[i];
      out << (i == 0 ? "\n" : ",\n") << "    {\"family\": \""
          << loads[row.load].family << "\", \"strategy\": \""
          << to_string(kStrategies[row.strategy])
          << "\", \"byz_fraction\": " << fmt_rate(row.fraction)
          << ", \"rich_scheme\": \"" << schemes[row.rich].name
          << "\", \"rich_bits\": " << bits[row.load][row.rich]
          << ", \"rich_completion\": " << row.rich_rate
          << ", \"poor_scheme\": \"" << schemes[row.poor].name
          << "\", \"poor_bits\": " << bits[row.load][row.poor]
          << ", \"poor_completion\": " << row.poor_rate << "}";
    }
    out << (buyback.empty() ? "],\n" : "\n  ],\n") << "  \"records\": [";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      const CellResult& r = results[c];
      out << (c == 0 ? "\n" : ",\n") << "    {\"family\": \""
          << loads[cell.load].family << "\", \"n\": " << loads[cell.load].n
          << ", \"scheme\": \"" << schemes[cell.scheme].name
          << "\", \"oracle\": \"" << schemes[cell.scheme].oracle->name()
          << "\", \"oracle_bits\": " << bits[cell.load][cell.scheme]
          << ", \"strategy\": \""
          << (cell.strategy == kNoStrategy
                  ? "none"
                  : to_string(kStrategies[cell.strategy]))
          << "\", \"byz_fraction\": " << fmt_rate(cell.fraction)
          << ", \"byz_nodes\": " << cell.byz_nodes
          << ", \"trials\": " << cell.trials
          << ", \"completed\": " << r.completed
          << ", \"completion_rate\": " << rate_of(c)
          << ", \"detected\": " << r.detected
          << ", \"silent_failures\": " << r.silent
          << ", \"completed_retry\": " << r.completed_retry
          << ", \"completion_rate_retry\": "
          << (static_cast<double>(r.completed_retry) /
              static_cast<double>(cell.trials))
          << ", \"retries\": " << r.retries
          << ", \"messages_mean\": " << r.messages_mean
          << ", \"lying_nodes_mean\": " << r.lying_mean
          << ", \"forged_mean\": " << r.forged_mean
          << ", \"equivocated_mean\": " << r.equivocated_mean
          << ", \"replayed_mean\": " << r.replayed_mean
          << ", \"structured_lies_mean\": " << r.structured_mean
          << ", \"advice_lies_mean\": " << r.advice_lies_mean;
      if (cell.strategy == kNoStrategy) {
        out << ", \"identical\": " << (r.identical ? "true" : "false");
      }
      out << ", \"statuses\": {";
      bool first_status = true;
      for (const auto& [status, count] : r.statuses) {
        out << (first_status ? "" : ", ") << "\"" << status
            << "\": " << count;
        first_status = false;
      }
      out << "}}";
    }
    out << (cells.empty() ? "]\n" : "\n  ]\n") << "}\n";
    std::cerr << "[bench] wrote " << cells.size() << " records to "
              << json_path << " (jobs=" << bare.jobs() << ")\n";
  }
  return 0;
}
