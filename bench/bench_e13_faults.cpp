// E13: robustness of advice-driven schemes under deterministic fault
// injection (sim/fault_plan.h).
//
// Sweeps one fault family at a time (message drop, duplication, extra
// delay, crash-stop nodes, advice bit-flips) over the paper's scheme x
// graph matrix, at several fault rates and several fault seeds per cell,
// under both the synchronous and the counter-keyed async-random schedule.
// Every cell is executed twice: once bare (retries = 0, measuring raw
// completion rate) and once under the BatchRunner's re-seeded retry
// policy (measuring how much bounded retry recovers).
//
// Unlike E1..E12 this binary emits an aggregate record per cell, not a
// record per trial, so it carries its own JSON writer instead of the
// shared bench_common.h harness. Flags:
//
//   --jobs N           worker threads (default: hardware)
//   --json FILE        output path (default BENCH_e13_faults.json)
//   --no-json          skip the JSON file
//   --seeds-per-cell K fault seeds per (family, scheme, mode, rate) cell
//                      (default 8, smoke 3; --seeds is the legacy spelling)
//   --shards N         shard each run across N workers (0 = hardware);
//                      with --shard-min-nodes M, only graphs of at least M
//                      nodes (default 2)
//   --smoke            tiny graphs, one rate, 3 seeds — the CI configuration
//
// Numeric flags parse strictly (bench_common.h flag_number): a malformed
// value exits 2. Each cell's seeds form one seed family, which BatchRunner
// runs on the lockstep executor (core/batch_runner.h).
//
// Invariants asserted here and by CI: every rate-0 record has
// completion_rate 1.0 (the fault layer is invisible on the reliable
// network), and — unless --shards — the async-random families report
// lockstep_shared > 0 (the counter-keyed scheduler batches; a zero would
// mean every async lane silently fell back to scalar). With --shards the
// ShardPolicy claims trials before seed batching (core/batch_runner.h),
// so no family forms and the check is skipped.
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
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/port_graph.h"
#include "oracle/light_broadcast_oracle.h"
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
};

struct FaultMode {
  std::string name;
  void (*apply)(FaultPlanParams&, double rate);
};

struct Sched {
  std::string name;
  SchedulerKind kind;
};

/// One (scheduler, family, scheme, mode, rate) cell of the sweep,
/// aggregated over `trials` fault seeds.
struct Cell {
  std::size_t sched = 0;
  std::size_t load = 0;
  std::size_t scheme = 0;
  std::size_t mode = 0;
  double rate = 0.0;
  std::size_t first = 0;   ///< index into the scheduler's spec vector
  std::size_t trials = 0;  ///< consecutive specs belonging to the cell
};

struct CellResult {
  std::size_t completed = 0;        ///< kCompleted, bare pass
  std::size_t completed_retry = 0;  ///< kCompleted, retry pass
  std::size_t retries = 0;          ///< extra attempts consumed (retry pass)
  double messages_mean = 0.0;       ///< bare pass, all trials
  std::uint64_t wall_ns = 0;        ///< bare pass, summed engine wall time
  std::map<std::string, std::size_t> statuses;  ///< bare pass breakdown
};

const FaultMode kModes[] = {
    {"none", [](FaultPlanParams&, double) {}},
    {"drop", [](FaultPlanParams& f, double r) { f.drop = r; }},
    {"duplicate", [](FaultPlanParams& f, double r) { f.duplicate = r; }},
    {"delay",
     [](FaultPlanParams& f, double r) {
       f.delay = r;
       f.max_extra_delay = 8;
     }},
    {"crash",
     [](FaultPlanParams& f, double r) {
       f.crash = r;
       f.max_crash_key = 4;
     }},
    {"advice-flip", [](FaultPlanParams& f, double r) { f.advice_flip = r; }},
};

std::vector<Load> make_loads(bool smoke) {
  std::vector<Load> out;
  Rng rng(0xe13f0017ULL);
  if (smoke) {
    out.push_back({"complete", 64, make_complete_star(64)});
    out.push_back({"grid", 64, make_grid(8, 8)});
    out.push_back({"random-tree", 128, make_random_tree(128, rng)});
  } else {
    out.push_back({"complete", 256, make_complete_star(256)});
    out.push_back({"random(p=8/n)", 512,
                   make_random_connected(512, 8.0 / 512.0, rng)});
    out.push_back({"grid", 576, make_grid(24, 24)});
    out.push_back({"random-tree", 512, make_random_tree(512, rng)});
  }
  return out;
}

std::string fmt_rate(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", r);
  return buf;
}

}  // namespace
}  // namespace oraclesize

int main(int argc, char** argv) {
  using namespace oraclesize;

  std::size_t jobs = 0;
  std::string json_path = "BENCH_e13_faults.json";
  bool json_enabled = true;
  bool smoke = false;
  std::size_t seeds = 0;  // 0 = default for the chosen size
  // Optional intra-run sharding: routes qualifying runs through the
  // sharded engine under the full fault matrix — the TSan CI configuration
  // (identical results either way; see core/batch_runner.h ShardPolicy).
  ShardPolicy shard;
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
    } else if (a == "--shards") {
      shard.shards = bench::flag_number<std::uint32_t>(next(), a);
      if (shard.min_nodes == 0) shard.min_nodes = 2;
    } else if (a == "--shard-min-nodes") {
      shard.min_nodes = bench::flag_number<std::size_t>(next(), a);
    } else {
      std::cerr << "error: unknown option '" << a
                << "' (supported: --jobs N, --json FILE, --no-json, "
                   "--seeds-per-cell K, --smoke, --shards N, "
                   "--shard-min-nodes N)\n";
      return 2;
    }
  }
  if (seeds == 0) seeds = smoke ? 3 : 8;
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.02}
            : std::vector<double>{0.001, 0.01, 0.05};

  const std::vector<Load> loads = make_loads(smoke);
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup_algorithm;
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast_algorithm;
  const NullOracle null_oracle;
  const FloodingAlgorithm flooding_algorithm;
  const std::vector<Scheme> schemes = {
      {"wakeup", &wakeup_oracle, &wakeup_algorithm},
      {"broadcast", &broadcast_oracle, &broadcast_algorithm},
      {"flooding", &null_oracle, &flooding_algorithm},
  };
  const std::vector<Sched> scheds = {
      {"sync", SchedulerKind::kSynchronous},
      {"async-random", SchedulerKind::kAsyncRandom},
  };
  const std::size_t num_modes = sizeof(kModes) / sizeof(kModes[0]);

  // Build every cell's specs up front, one spec vector per scheduler: a
  // single batch per (scheduler, pass) keeps the advice cache shared
  // across the whole sweep (3 unique advice vectors per graph) and the
  // ordering deterministic under any --jobs, while per-scheduler
  // BatchStats expose whether each schedule's families actually rode the
  // lockstep executor.
  std::vector<Cell> cells;
  std::vector<std::vector<TrialSpec>> specs(scheds.size());
  for (std::size_t sc = 0; sc < scheds.size(); ++sc) {
    for (std::size_t li = 0; li < loads.size(); ++li) {
      for (std::size_t si = 0; si < schemes.size(); ++si) {
        for (std::size_t mi = 0; mi < num_modes; ++mi) {
          const std::vector<double>& cell_rates =
              mi == 0 ? std::vector<double>{0.0} : rates;
          for (double rate : cell_rates) {
            Cell cell;
            cell.sched = sc;
            cell.load = li;
            cell.scheme = si;
            cell.mode = mi;
            cell.rate = rate;
            cell.first = specs[sc].size();
            cell.trials = mi == 0 ? 1 : seeds;  // mode "none": deterministic
            for (std::size_t t = 0; t < cell.trials; ++t) {
              RunOptions opts;
              opts.scheduler = scheds[sc].kind;
              opts.seed = 9;  // one scheduler stream; fault.seed is the axis
              opts.max_events = 4'000'000;  // structural runaway guard
              opts.fault.seed = cells.size() * 1'000'003ULL + t + 1;
              kModes[mi].apply(opts.fault, rate);
              specs[sc].emplace_back(&loads[li].graph, 0, schemes[si].oracle,
                                     schemes[si].algorithm, opts);
            }
            cells.push_back(cell);
          }
        }
      }
    }
  }

  const BatchRunner bare(jobs, /*advice_cache=*/true, RetryPolicy{0}, shard);
  const RetryPolicy retry_policy{2, /*retry_task_failures=*/true};
  const BatchRunner retrying(jobs, /*advice_cache=*/true, retry_policy,
                             shard);
  std::vector<BatchStats> bare_stats(scheds.size());
  std::vector<std::vector<TaskReport>> bare_reports(scheds.size());
  std::vector<std::vector<TaskReport>> retry_reports(scheds.size());
  for (std::size_t sc = 0; sc < scheds.size(); ++sc) {
    bare_reports[sc] = bare.run(specs[sc], &bare_stats[sc]);
    retry_reports[sc] = retrying.run(specs[sc]);
  }

  // Aggregate. Baseline message count per (sched, load, scheme) comes from
  // the mode-"none" cell, giving each faulty cell its overhead ratio.
  std::vector<CellResult> results(cells.size());
  std::vector<std::vector<std::vector<double>>> baseline(
      scheds.size(), std::vector<std::vector<double>>(
                         loads.size(),
                         std::vector<double>(schemes.size(), 0.0)));
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    CellResult& r = results[c];
    std::uint64_t messages = 0;
    for (std::size_t t = 0; t < cell.trials; ++t) {
      const TaskReport& b = bare_reports[cell.sched][cell.first + t];
      const TaskReport& w = retry_reports[cell.sched][cell.first + t];
      if (b.ok()) ++r.completed;
      if (w.ok()) ++r.completed_retry;
      r.retries += w.attempts - 1;
      messages += b.run.metrics.messages_total;
      r.wall_ns += b.wall_ns;
      ++r.statuses[b.failed() ? "crashed" : to_string(b.run.status)];
    }
    r.messages_mean =
        static_cast<double>(messages) / static_cast<double>(cell.trials);
    if (cell.mode == 0) {
      baseline[cell.sched][cell.load][cell.scheme] = r.messages_mean;
    }
  }

  Table table({"sched", "family", "n", "scheme", "mode", "rate",
               "completion", "with-retry", "retries", "msgs-mean",
               "overhead"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const CellResult& r = results[c];
    const double base = baseline[cell.sched][cell.load][cell.scheme];
    table.row()
        .cell(scheds[cell.sched].name)
        .cell(loads[cell.load].family)
        .cell(loads[cell.load].n)
        .cell(schemes[cell.scheme].name)
        .cell(kModes[cell.mode].name)
        .cell(fmt_rate(cell.rate))
        .cell(static_cast<double>(r.completed) /
                  static_cast<double>(cell.trials),
              3)
        .cell(static_cast<double>(r.completed_retry) /
                  static_cast<double>(cell.trials),
              3)
        .cell(r.retries)
        .cell(r.messages_mean, 1)
        .cell(base > 0 ? r.messages_mean / base : 0.0, 3);
  }
  table.print(std::cout,
              "E13: completion rate and message overhead under seeded "
              "faults (" +
                  std::to_string(seeds) + " seeds/cell)");
  bool lockstep_ok = true;
  for (std::size_t sc = 0; sc < scheds.size(); ++sc) {
    const BatchStats& s = bare_stats[sc];
    std::cout << "advice cache [" << scheds[sc].name
              << "]: " << s.unique_advice << " unique vectors served "
              << specs[sc].size() << " trials\n";
    std::cout << "seed batching [" << scheds[sc].name
              << "]: " << s.seed_families << " families covered "
              << s.batched_lanes << " trials (" << s.lockstep_shared
              << " served by shared lockstep passes)\n";
    // The counter-keyed async-random schedule must actually batch: its
    // fault-seed families are lockstep-eligible, and across the sweep at
    // least some lanes stay on the shared pass. Zero means the executor
    // silently routed every async lane scalar — fail loudly. Sharded
    // sweeps form no families: the ShardPolicy takes their trials first.
    if (scheds[sc].kind == SchedulerKind::kSynchronous) continue;
    if (shard.enabled()) {
      std::cout << "lockstep check [" << scheds[sc].name
                << "]: skipped (--shards claims trials before seed "
                   "batching)\n";
    } else {
      const bool shared = s.lockstep_shared > 0;
      std::cout << "lockstep check [" << scheds[sc].name
                << "]: lockstep_shared = " << s.lockstep_shared << " ("
                << (shared ? "ok" : "FAIL: expected > 0") << ")\n";
      lockstep_ok = lockstep_ok && shared;
    }
  }

  if (json_enabled) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: cannot write " << json_path << "\n";
      return 2;
    }
    out << "{\n  \"bench\": \"e13_faults\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"seeds_per_cell\": " << seeds << ",\n"
        << "  \"records\": [";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      const CellResult& r = results[c];
      const double base = baseline[cell.sched][cell.load][cell.scheme];
      out << (c == 0 ? "\n" : ",\n") << "    {\"scheduler\": \""
          << scheds[cell.sched].name << "\", \"family\": \""
          << loads[cell.load].family << "\", \"n\": " << loads[cell.load].n
          << ", \"scheme\": \"" << schemes[cell.scheme].name
          << "\", \"mode\": \"" << kModes[cell.mode].name
          << "\", \"rate\": " << fmt_rate(cell.rate)
          << ", \"trials\": " << cell.trials
          << ", \"wall_ns\": " << r.wall_ns
          << ", \"completed\": " << r.completed << ", \"completion_rate\": "
          << (static_cast<double>(r.completed) /
              static_cast<double>(cell.trials))
          << ", \"completed_retry\": " << r.completed_retry
          << ", \"completion_rate_retry\": "
          << (static_cast<double>(r.completed_retry) /
              static_cast<double>(cell.trials))
          << ", \"retries\": " << r.retries
          << ", \"messages_mean\": " << r.messages_mean
          << ", \"overhead\": " << (base > 0 ? r.messages_mean / base : 0.0)
          << ", \"statuses\": {";
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
  return lockstep_ok ? 0 : 1;
}
