// Wall-clock harness for BatchRunner's batched paths: the advice-cache
// sweep, and the lockstep executor's seed families, whose identity bits and
// dedup floors tools/perf_gate.py gates. These are throughput measurements,
// not paper results: the paper's quantities are message counts and bit
// counts (bench_e1..e16). The end-to-end and per-layer timings of the
// engines, the sharded engine and the advice service are perfbench's
// (perfbench/README.md), which also checks sharded == serial and service ==
// direct on every run.
//
// Modes (a bare call prints usage and exits 2):
//   bench_perf --sweep [--repeat N] [bench harness options: --jobs N,
//              --json F, --no-advice-cache, ...]
//                                              batched E1-style sweep via
//                                              BatchRunner, wall-clock timed
//   bench_perf --seed-batch [--lanes R] [--smoke] [--repeat N]
//              [--json F | --no-json]          seed-batched lockstep executor
//                                              vs R scalar runs on one
//                                              engine, on R-seed families, per
//                                              (workload, scheme, fault mode)
//                                              row, with a result-identity
//                                              check per lane
//                                              -> BENCH_perf_seedbatch.json
//   bench_perf --sched-batch [--lanes R] [--smoke] [--repeat N]
//              [--json F | --no-json]          counter-keyed seeded
//                                              schedulers (async-random,
//                                              async-link-fifo) through the
//                                              lockstep executor: rows vary
//                                              either the fault seed (one key
//                                              class) or the scheduler seed
//                                              (one key class per lane), with
//                                              a result-identity check per
//                                              lane
//                                              -> BENCH_perf_schedbatch.json
//
// With --repeat N >= 2 the sweep duplicates every (graph, oracle, source)
// trial N times — the shape the advice cache is built for — runs the batch
// once with the cache and once without, and writes the before/after wall
// numbers per workload row into BENCH_perf_cache.json (see EXPERIMENTS.md
// for the field definitions).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/wakeup.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"
#include "util/table.h"

namespace {

using namespace oraclesize;

std::uint64_t since_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Per-(workload, task) aggregate across repeats of one batch pass.
struct RowAgg {
  std::uint64_t wall_ns = 0;    ///< sum of advise+run over the row's trials
  std::uint64_t advise_ns = 0;  ///< sum of advise time actually paid
  std::uint64_t run_ns = 0;     ///< sum of engine time (the steady state)
};

/// Aggregates reports laid out rep-major: trial index = rep * 2L + 2*load
/// + task, for 2L rows.
std::vector<RowAgg> aggregate_rows(const std::vector<TaskReport>& reports,
                                   std::size_t num_rows) {
  std::vector<RowAgg> rows(num_rows);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    RowAgg& row = rows[i % num_rows];
    row.wall_ns += reports[i].wall_ns;
    row.advise_ns += reports[i].advise_ns;
    row.run_ns += reports[i].run_ns;
  }
  return rows;
}

// The batch sweep: every standard workload under wakeup and broadcast,
// executed through BatchRunner so --jobs parallelism (and its determinism)
// can be measured end to end. Prints per-row wall times and total
// wall-clock; records go to BENCH_perf.json by default. With --repeat >= 2
// an extra pass with the opposite advice-cache setting produces the
// before/after comparison in BENCH_perf_cache.json.
int run_sweep(int argc, char** argv) {
  // Peel --repeat; the harness handles the shared flags (including
  // --no-advice-cache).
  std::size_t repeat = 1;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--repeat") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "error: missing value after --repeat\n";
        return 2;
      }
      repeat = bench::flag_number<std::size_t>(argv[++i], "--repeat");
      if (repeat == 0) repeat = 1;
    } else {
      rest.push_back(argv[i]);
    }
  }
  bench::Harness harness("perf", static_cast<int>(rest.size()), rest.data());
  const std::vector<bench::Workload> loads = bench::standard_workloads();
  const TreeWakeupOracle tree_oracle;
  const WakeupTreeAlgorithm wakeup;
  const LightBroadcastOracle light_oracle;
  const BroadcastBAlgorithm broadcast;

  // Rep-major layout: the first repetition owns the advise cost, later
  // repetitions are the cache's dedup targets.
  std::vector<TrialSpec> specs;
  specs.reserve(repeat * 2 * loads.size());
  for (std::size_t rep = 0; rep < repeat; ++rep) {
    for (const bench::Workload& w : loads) {
      RunOptions wake_opts;
      wake_opts.enforce_wakeup = true;
      specs.push_back({&w.graph, 0, &tree_oracle, &wakeup, wake_opts});
      RunOptions bcast_opts;
      bcast_opts.scheduler = SchedulerKind::kAsyncRandom;
      bcast_opts.seed = 9;
      specs.push_back({&w.graph, 0, &light_oracle, &broadcast, bcast_opts});
    }
  }
  const std::size_t num_rows = 2 * loads.size();

  BatchStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<TaskReport> reports = harness.run(specs, &stats);
  const std::uint64_t batch_ns = since_ns(t0);

  Table t({"family", "n", "task", "messages", "advise_ms", "run_ms",
           "wall_ms", "ok"});
  std::uint64_t cpu_ns = 0;
  const std::vector<RowAgg> rows = aggregate_rows(reports, num_rows);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const bench::Workload& w = loads[(i % num_rows) / 2];
    const bool is_wakeup = (i % 2) == 0;
    harness.record(bench::make_record(
        w.family + (is_wakeup ? "/wakeup" : "/broadcast"), w.n,
        is_wakeup ? SchedulerKind::kSynchronous
                  : SchedulerKind::kAsyncRandom,
        reports[i], w.build_ns, bench::bytes_per_edge(w.graph)));
    cpu_ns += reports[i].wall_ns;
  }
  for (std::size_t row = 0; row < num_rows; ++row) {
    const bench::Workload& w = loads[row / 2];
    const bool is_wakeup = (row % 2) == 0;
    const TaskReport& first = reports[row];  // rep 0 of this row
    t.row()
        .cell(w.family)
        .cell(w.n)
        .cell(is_wakeup ? "wakeup" : "broadcast")
        .cell(first.run.metrics.messages_total)
        .cell(static_cast<double>(rows[row].advise_ns) / 1e6, 3)
        .cell(static_cast<double>(rows[row].run_ns) / 1e6, 3)
        .cell(static_cast<double>(rows[row].wall_ns) / 1e6, 3)
        .cell(first.ok() ? "yes" : "NO");
  }
  t.print(std::cout, "perf sweep: standard workloads through BatchRunner" +
                         (repeat > 1 ? " (x" + std::to_string(repeat) +
                                           " repeats, aggregated)"
                                     : std::string{}));
  std::cout << "jobs=" << harness.jobs() << "  trials=" << reports.size()
            << "  advice cache " << (harness.advice_cache() ? "on" : "off")
            << " (unique=" << stats.unique_advice
            << ", hits=" << stats.cache_hits << ")  batch wall = "
            << static_cast<double>(batch_ns) / 1e6
            << " ms  (sum of per-trial cpu = "
            << static_cast<double>(cpu_ns) / 1e6 << " ms)\n";

  if (repeat < 2) return 0;

  // Comparison pass with the opposite cache setting; orient before/after so
  // "off" is always the baseline no matter which mode the main pass ran.
  BatchStats other_stats;
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<TaskReport> other_reports =
      BatchRunner(harness.jobs(), !harness.advice_cache())
          .run(specs, &other_stats);
  const std::uint64_t other_batch_ns = since_ns(t1);

  const bool main_is_on = harness.advice_cache();
  const std::vector<RowAgg> other_rows = aggregate_rows(other_reports,
                                                        num_rows);
  const std::vector<RowAgg>& on_rows = main_is_on ? rows : other_rows;
  const std::vector<RowAgg>& off_rows = main_is_on ? other_rows : rows;
  const BatchStats& on_stats = main_is_on ? stats : other_stats;
  const BatchStats& off_stats = main_is_on ? other_stats : stats;
  const std::uint64_t on_batch_ns = main_is_on ? batch_ns : other_batch_ns;
  const std::uint64_t off_batch_ns = main_is_on ? other_batch_ns : batch_ns;

  const double total_speedup =
      off_batch_ns > 0 && on_batch_ns > 0
          ? static_cast<double>(off_batch_ns) /
                static_cast<double>(on_batch_ns)
          : 0.0;
  std::cout << "advice-cache comparison: off = "
            << static_cast<double>(off_batch_ns) / 1e6 << " ms, on = "
            << static_cast<double>(on_batch_ns) / 1e6 << " ms ("
            << total_speedup << "x batch)\n";

  if (!harness.json_enabled()) return 0;
  std::ofstream out("BENCH_perf_cache.json");
  if (!out) {
    std::cerr << "warning: cannot write BENCH_perf_cache.json\n";
    return 0;
  }
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  out << "{\n  \"bench\": \"perf_cache\",\n"
      << "  \"jobs\": " << harness.jobs() << ",\n"
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"cache_on\": {\"batch_wall_ns\": " << on_batch_ns
      << ", \"unique_advice\": " << on_stats.unique_advice
      << ", \"cache_hits\": " << on_stats.cache_hits
      << ", \"advise_ns\": " << on_stats.advise_ns << "},\n"
      << "  \"cache_off\": {\"batch_wall_ns\": " << off_batch_ns
      << ", \"unique_advice\": " << off_stats.unique_advice
      << ", \"cache_hits\": " << off_stats.cache_hits
      << ", \"advise_ns\": " << off_stats.advise_ns << "},\n"
      << "  \"rows\": [";
  for (std::size_t row = 0; row < num_rows; ++row) {
    const bench::Workload& w = loads[row / 2];
    const bool is_wakeup = (row % 2) == 0;
    // wall_off_ns pays advise every repeat; wall_on_ns pays it once.
    // run_on_ns is the steady-state marginal cost per batch of repeats —
    // speedup_steady = wall_off / run_on is the amortized-regime ratio the
    // cache targets (advise_once_ns keeps the one-time cost visible).
    out << (row == 0 ? "\n" : ",\n") << "    {\"family\": \"" << w.family
        << "\", \"task\": \"" << (is_wakeup ? "wakeup" : "broadcast")
        << "\", \"n\": " << w.n << ", \"repeat\": " << repeat
        << ", \"wall_off_ns\": " << off_rows[row].wall_ns
        << ", \"wall_on_ns\": " << on_rows[row].wall_ns
        << ", \"advise_once_ns\": " << on_rows[row].advise_ns
        << ", \"run_on_ns\": " << on_rows[row].run_ns
        << ", \"speedup_total\": "
        << ratio(off_rows[row].wall_ns, on_rows[row].wall_ns)
        << ", \"speedup_steady\": "
        << ratio(off_rows[row].wall_ns, on_rows[row].run_ns) << "}";
  }
  out << "\n  ]\n}\n";
  std::cerr << "[bench] wrote cache comparison (" << num_rows
            << " rows) to BENCH_perf_cache.json\n";
  return 0;
}

/// One row's measurement of a seed family (specs identical up to their two
/// seeds, each carrying its advice and final options, wakeup enforcement
/// included). Both arms are bare engine calls, timed min-of-`repeat`, and
/// each builds its engine once per timed call, as a BatchRunner worker does
/// per run(): the scalar arm plays the R lanes one after another on one
/// ExecutionContext, the batched arm is one SeedBatchExecutionContext::run
/// (one lockstep pass plus scalar replays for diverged lanes). An untimed
/// BatchRunner pass first warms the row's allocations and supplies the
/// shared/replayed split; it and the batched arm must both reproduce every
/// lane's scalar RunResult for the row to count as identical.
struct FamilyTiming {
  std::uint64_t scalar_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t batched_ns = std::numeric_limits<std::uint64_t>::max();
  double speedup = 0.0;
  bool identical = true;
  std::size_t shared = 0;
  std::size_t replayed = 0;
};

FamilyTiming time_family(const std::vector<TrialSpec>& specs,
                         std::size_t repeat) {
  const TrialSpec& proto = specs.front();
  std::vector<SeedBatchExecutionContext::Lane> lanes;
  lanes.reserve(specs.size());
  for (const TrialSpec& s : specs) {
    lanes.push_back({s.options.seed, s.options.fault.seed});
  }
  BatchStats stats;
  const std::vector<TaskReport> reports = BatchRunner(1).run(specs, &stats);

  FamilyTiming t;
  std::vector<RunResult> scalar_runs(specs.size());
  std::vector<RunResult> batched_runs;
  for (std::size_t r = 0; r < repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    ExecutionContext scalar;
    for (std::size_t l = 0; l < specs.size(); ++l) {
      const TrialSpec& s = specs[l];
      scalar_runs[l] = scalar.run(*s.graph, s.source, *s.advice,
                                  *s.algorithm, s.options);
    }
    t.scalar_ns = std::min(t.scalar_ns, since_ns(t0));
    const auto t1 = std::chrono::steady_clock::now();
    SeedBatchExecutionContext batched;
    batched_runs = batched.run(*proto.graph, proto.source, *proto.advice,
                               *proto.algorithm, proto.options, lanes);
    t.batched_ns = std::min(t.batched_ns, since_ns(t1));
  }
  t.shared = stats.lockstep_shared;
  t.replayed = stats.batched_lanes - t.shared;
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const TaskReport& report = reports[l];
    t.identical = t.identical && batched_runs[l] == scalar_runs[l] &&
                  report.error.empty() && report.attempts == 1 &&
                  report.run == scalar_runs[l];
  }
  t.speedup = t.batched_ns > 0 ? static_cast<double>(t.scalar_ns) /
                                     static_cast<double>(t.batched_ns)
                               : 0.0;
  return t;
}

// ---------------------------------------------------------------------------
// --seed-batch: the seed-batched lockstep executor's measurement.
//
// Every row is one seed FAMILY: R trials identical up to their fault seed,
// over one (workload, scheme, fault mode) cell, timed by time_family: the
// scalar pass runs the R lanes one after another on one ExecutionContext
// (R independent engine runs); the batched pass is one
// SeedBatchExecutionContext::run (one lockstep pass + scalar replays for
// diverged lanes), the engine call a BatchRunner family unit makes. Advice
// is precomputed per (workload, scheme) and attached via TrialSpec::advice,
// outside the timed region — the E13 regime the executor targets, where
// the advice artifact is computed once per cell and reused across every
// seed — so the timed quantity is run-execution throughput, not advise.
// Both passes are bare engine calls on one thread, so the measured ratio
// is pure deduplication, not parallelism — machine-independent, which is
// what lets tools/perf_gate.py hold the committed baseline to an absolute
// >= 10x floor on the fault-free rows. Every lane's RunResult is compared
// across the passes and against an untimed BatchRunner pass; "identical"
// is false on any mismatch and the binary exits 1.
//
// The fault modes ladder the divergence probability: "none" shares every
// lane (the headline row), the drop/delay/crash/advice-flip rows document
// how the speedup decays as lanes retire to scalar replay.
// ---------------------------------------------------------------------------

int run_seed_batch(int argc, char** argv) {
  // 64 lanes by default: the batched pass costs one lockstep run plus a few
  // microseconds of fan-out, so on a busy host the measurement needs a large
  // scalar side to keep scheduler noise out of the ratio. (The ISSUE target
  // is "R >= 32"; 64 satisfies it and is what CI and the committed baseline
  // use.)
  std::size_t lanes = 64;
  std::size_t repeat = 3;
  bool smoke = false;
  std::string json_path = "BENCH_perf_seedbatch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      lanes = std::max<std::size_t>(
          2, bench::flag_number<std::size_t>(argv[++i], "--lanes"));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max<std::size_t>(
          1, bench::flag_number<std::size_t>(argv[++i], "--repeat"));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      json_path.clear();
    } else {
      std::cerr << "error: unknown option '" << argv[i]
                << "' (seed-batch supports: --lanes R, --smoke, --repeat N, "
                   "--json FILE, --no-json)\n";
      return 2;
    }
  }

  Rng rng(0xbeefcafeULL);
  std::vector<bench::Workload> loads;
  if (smoke) {
    loads.push_back(bench::timed_workload("complete", 64,
                                          [] { return make_complete_star(64); }));
    loads.push_back(bench::timed_workload("grid", 64,
                                          [] { return make_grid(8, 8); }));
    loads.push_back(bench::timed_workload(
        "random-tree", 128, [&] { return make_random_tree(128, rng); }));
  } else {
    loads.push_back(bench::timed_workload(
        "complete", 256, [] { return make_complete_star(256); }));
    loads.push_back(bench::timed_workload("random(p=8/n)", 512, [&] {
      return make_random_connected(512, 8.0 / 512.0, rng);
    }));
    loads.push_back(bench::timed_workload("grid", 576,
                                          [] { return make_grid(24, 24); }));
    loads.push_back(bench::timed_workload(
        "random-tree", 512, [&] { return make_random_tree(512, rng); }));
  }

  const TreeWakeupOracle tree_oracle;
  const LightBroadcastOracle light_oracle;
  const NullOracle null_oracle;
  const WakeupTreeAlgorithm wakeup;
  const BroadcastBAlgorithm broadcast;
  const FloodingAlgorithm flooding;
  struct Scheme {
    const char* name;
    const Oracle* oracle;
    const Algorithm* algorithm;
    SchedulerKind scheduler;
  };
  // Only lockstep-eligible schedulers: the bench measures the executor, not
  // its fallback (the fallback's identity is covered by the fuzz tests).
  const Scheme schemes[] = {
      {"wakeup", &tree_oracle, &wakeup, SchedulerKind::kSynchronous},
      {"broadcast", &light_oracle, &broadcast, SchedulerKind::kAsyncFifo},
      {"flooding", &null_oracle, &flooding, SchedulerKind::kAsyncLifo},
  };
  enum class FaultKind { kNone, kDrop, kDelay, kCrash, kAdviceFlip };
  struct Mode {
    const char* name;
    double rate;
    FaultKind kind;
  };
  const Mode modes[] = {
      {"none", 0.0, FaultKind::kNone},
      {"drop", 1e-4, FaultKind::kDrop},
      {"drop", 1e-3, FaultKind::kDrop},
      {"drop", 1e-2, FaultKind::kDrop},
      {"delay", 1e-3, FaultKind::kDelay},
      {"crash", 1e-3, FaultKind::kCrash},
      {"advice-flip", 1e-3, FaultKind::kAdviceFlip},
  };

  struct Row {
    std::string family;
    std::size_t n = 0;
    std::string scheme;
    std::string mode;
    double rate = 0.0;
    FamilyTiming t;
  };

  std::vector<Row> rows;
  bool all_identical = true;
  for (const bench::Workload& w : loads) {
    for (const Scheme& s : schemes) {
      const AdvicePtr advice = std::make_shared<const std::vector<BitString>>(
          s.oracle->advise(w.graph, 0));
      for (const Mode& m : modes) {
        RunOptions base;
        base.scheduler = s.scheduler;
        base.enforce_wakeup = s.algorithm->is_wakeup();
        switch (m.kind) {
          case FaultKind::kNone:
            break;
          case FaultKind::kDrop:
            base.fault.drop = m.rate;
            break;
          case FaultKind::kDelay:
            base.fault.delay = m.rate;
            break;
          case FaultKind::kCrash:
            base.fault.crash = m.rate;
            break;
          case FaultKind::kAdviceFlip:
            base.fault.advice_flip = m.rate;
            break;
        }
        std::vector<TrialSpec> specs;
        specs.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
          RunOptions options = base;
          options.fault.seed = 100 + 7 * l;
          specs.emplace_back(&w.graph, 0, s.oracle, s.algorithm, options,
                             advice);
        }

        const Row row{w.family, w.graph.num_nodes(), s.name, m.name,
                      m.rate, time_family(specs, repeat)};
        all_identical = all_identical && row.t.identical;
        rows.push_back(row);
      }
    }
  }

  Table t({"family", "n", "scheme", "mode", "rate", "scalar_ms", "batched_ms",
           "speedup", "shared", "replayed", "identical"});
  for (const Row& r : rows) {
    t.row()
        .cell(r.family)
        .cell(r.n)
        .cell(r.scheme)
        .cell(r.mode)
        .cell(r.rate, 4)
        .cell(static_cast<double>(r.t.scalar_ns) / 1e6, 3)
        .cell(static_cast<double>(r.t.batched_ns) / 1e6, 3)
        .cell(r.t.speedup, 2)
        .cell(r.t.shared)
        .cell(r.t.replayed)
        .cell(r.t.identical ? "yes" : "NO");
  }
  t.print(std::cout, "seed-batched lockstep vs scalar engine (" +
                         std::to_string(lanes) + " lanes, min of " +
                         std::to_string(repeat) + ")");
  std::cout << "report identity batched vs scalar: "
            << (all_identical ? "all rows identical" : "MISMATCH") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: cannot write " << json_path << "\n";
    } else {
      out << "{\n  \"bench\": \"perf_seedbatch\",\n"
          << "  \"lanes\": " << lanes << ",\n  \"repeat\": " << repeat
          << ",\n  \"rows\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << (i == 0 ? "\n" : ",\n") << "    {\"family\": \"" << r.family
            << "\", \"n\": " << r.n << ", \"scheme\": \"" << r.scheme
            << "\", \"mode\": \"" << r.mode << "\", \"rate\": " << r.rate
            << ", \"lanes\": " << lanes
            << ", \"scalar_ns\": " << r.t.scalar_ns
            << ", \"batched_ns\": " << r.t.batched_ns
            << ", \"speedup\": " << r.t.speedup
            << ", \"shared\": " << r.t.shared
            << ", \"replayed\": " << r.t.replayed << ", \"identical\": "
            << (r.t.identical ? "true" : "false") << "}";
      }
      out << "\n  ]\n}\n";
      std::cerr << "[bench] wrote " << rows.size()
                << " seed-batch rows to " << json_path << "\n";
    }
  }
  return all_identical ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --sched-batch: counter-keyed seeded schedulers through the lockstep
// executor.
//
// The counter keying makes a seeded scheduler's delivery key a pure
// function of (seed, seq, link), which turns BOTH seeds into lane axes.
// Each row is one seed family on one of the two axes:
//
//  * axis "fault-seed": lanes share options.seed and vary fault.seed — one
//    key class, the E13 matrix regime. The mode-"none" rows are the
//    headline: every lane shares the single pass, so the gate holds them
//    to an absolute >= 8x floor ("floor": true). The faulted rows document
//    the decay as lanes retire.
//  * axis "sched-seed": lanes vary options.seed — one key class per lane.
//    On the path workloads the tree-cast keeps exactly one message in
//    flight, every class agrees on the delivery order, and all lanes share
//    one pass (shared == lanes, a machine-independent structural fact the
//    gate checks). The ~R/(1+D) dedup ratio does NOT transfer to this
//    axis, though: every pop pays one heap operation per live class, so
//    the measured win is ~4x, honest and gated as full_share-without-
//    floor. The branching row is the honest counterpoint: classes split
//    on the first fan-out and retire to scalar replay, so it is
//    identity-gated only.
//
// Methodology matches --seed-batch (time_family): bare engine calls on one
// thread (ratio is pure deduplication), advice precomputed outside the
// timed region, min-of-repeat, per-lane RunResult identity between the
// scalar pass, the batched pass and an untimed BatchRunner pass, exit 1 on
// any mismatch.
// ---------------------------------------------------------------------------

int run_sched_batch(int argc, char** argv) {
  std::size_t lanes = 64;
  std::size_t repeat = 3;
  bool smoke = false;
  std::string json_path = "BENCH_perf_schedbatch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      lanes = std::max<std::size_t>(
          2, bench::flag_number<std::size_t>(argv[++i], "--lanes"));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max<std::size_t>(
          1, bench::flag_number<std::size_t>(argv[++i], "--repeat"));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      json_path.clear();
    } else {
      std::cerr << "error: unknown option '" << argv[i]
                << "' (sched-batch supports: --lanes R, --smoke, --repeat N, "
                   "--json FILE, --no-json)\n";
      return 2;
    }
  }

  Rng rng(0xbeefcafeULL);
  const std::size_t path_n = smoke ? 64 : 512;
  const std::size_t rand_n = smoke ? 128 : 512;
  const bench::Workload path = bench::timed_workload(
      "path", path_n, [&] { return make_path(path_n); });
  const bench::Workload branching = bench::timed_workload(
      "random(p=8/n)", rand_n, [&] {
        return make_random_connected(rand_n, 8.0 / static_cast<double>(rand_n),
                                     rng);
      });

  const TreeWakeupOracle tree_oracle;
  const LightBroadcastOracle light_oracle;
  const WakeupTreeAlgorithm wakeup;
  const BroadcastBAlgorithm broadcast;
  const CensusAlgorithm census;

  enum class FaultKind { kNone, kDrop, kCrash, kAdviceFlip };
  struct Cell {
    const bench::Workload* load;
    const char* scheme;
    const Oracle* oracle;
    const Algorithm* algorithm;
    SchedulerKind scheduler;
    const char* axis;  // "fault-seed" or "sched-seed"
    const char* mode;
    double rate;
    FaultKind kind;
    bool floor;       // gate holds speedup to >= 8x
    bool full_share;  // gate demands shared == lanes
  };
  std::vector<Cell> cells;
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncRandom, SchedulerKind::kAsyncLinkFifo}) {
    // fault.seed axis on a branching workload: the E13 regime.
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", "none", 0.0, FaultKind::kNone, true,
                     true});
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", "drop", 1e-3, FaultKind::kDrop,
                     false, false});
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", "crash", 1e-3, FaultKind::kCrash,
                     false, false});
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", "advice-flip", 1e-3,
                     FaultKind::kAdviceFlip, false, false});
    // options.seed axis on sequential workloads: full multi-class sharing.
    // Not floored: the per-pop cost scales with live classes, so the win
    // here is ~4x, not ~R.
    cells.push_back({&path, "wakeup", &tree_oracle, &wakeup, sched,
                     "sched-seed", "none", 0.0, FaultKind::kNone, false,
                     true});
    cells.push_back({&path, "census", &tree_oracle, &census, sched,
                     "sched-seed", "none", 0.0, FaultKind::kNone, false,
                     true});
    // options.seed axis on a branching workload: honest decay, identity
    // gate only.
    cells.push_back({&branching, "wakeup", &tree_oracle, &wakeup, sched,
                     "sched-seed", "none", 0.0, FaultKind::kNone, false,
                     false});
  }

  struct Row {
    const Cell* cell;
    std::size_t n = 0;
    FamilyTiming t;
  };

  std::map<std::pair<const void*, const void*>, AdvicePtr> advice_cache;
  std::vector<Row> rows;
  bool all_identical = true;
  for (const Cell& c : cells) {
    AdvicePtr& advice = advice_cache[{c.load, c.oracle}];
    if (!advice) {
      advice = std::make_shared<const std::vector<BitString>>(
          c.oracle->advise(c.load->graph, 0));
    }
    RunOptions base;
    base.scheduler = c.scheduler;
    base.enforce_wakeup = c.algorithm->is_wakeup();
    switch (c.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kDrop:
        base.fault.drop = c.rate;
        break;
      case FaultKind::kCrash:
        base.fault.crash = c.rate;
        break;
      case FaultKind::kAdviceFlip:
        base.fault.advice_flip = c.rate;
        break;
    }
    const bool seed_axis = std::strcmp(c.axis, "sched-seed") == 0;
    std::vector<TrialSpec> specs;
    specs.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      RunOptions options = base;
      if (seed_axis) {
        options.seed = 1 + 13 * l;
      } else {
        options.seed = 9;
        options.fault.seed = 100 + 7 * l;
      }
      specs.emplace_back(&c.load->graph, 0, c.oracle, c.algorithm, options,
                         advice);
    }

    Row row{&c, c.load->graph.num_nodes(), time_family(specs, repeat)};
    if (c.full_share && row.t.shared != lanes) row.t.identical = false;
    all_identical = all_identical && row.t.identical;
    rows.push_back(row);
  }

  Table t({"family", "n", "scheme", "scheduler", "axis", "mode", "scalar_ms",
           "batched_ms", "speedup", "shared", "replayed", "identical"});
  for (const Row& r : rows) {
    t.row()
        .cell(r.cell->load->family)
        .cell(r.n)
        .cell(r.cell->scheme)
        .cell(to_string(r.cell->scheduler))
        .cell(r.cell->axis)
        .cell(r.cell->mode)
        .cell(static_cast<double>(r.t.scalar_ns) / 1e6, 3)
        .cell(static_cast<double>(r.t.batched_ns) / 1e6, 3)
        .cell(r.t.speedup, 2)
        .cell(r.t.shared)
        .cell(r.t.replayed)
        .cell(r.t.identical ? "yes" : "NO");
  }
  t.print(std::cout,
          "counter-keyed schedulers through the lockstep executor (" +
              std::to_string(lanes) + " lanes, min of " +
              std::to_string(repeat) + ")");
  std::cout << "report identity batched vs scalar: "
            << (all_identical ? "all rows identical" : "MISMATCH") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "warning: cannot write " << json_path << "\n";
    } else {
      out << "{\n  \"bench\": \"perf_schedbatch\",\n"
          << "  \"lanes\": " << lanes << ",\n  \"repeat\": " << repeat
          << ",\n  \"rows\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        const Cell& c = *r.cell;
        out << (i == 0 ? "\n" : ",\n") << "    {\"family\": \""
            << c.load->family << "\", \"n\": " << r.n << ", \"scheme\": \""
            << c.scheme << "\", \"scheduler\": \"" << to_string(c.scheduler)
            << "\", \"axis\": \"" << c.axis << "\", \"mode\": \"" << c.mode
            << "\", \"rate\": " << c.rate << ", \"lanes\": " << lanes
            << ", \"scalar_ns\": " << r.t.scalar_ns
            << ", \"batched_ns\": " << r.t.batched_ns
            << ", \"speedup\": " << r.t.speedup
            << ", \"shared\": " << r.t.shared
            << ", \"replayed\": " << r.t.replayed
            << ", \"floor\": " << (c.floor ? "true" : "false")
            << ", \"full_share\": " << (c.full_share ? "true" : "false")
            << ", \"identical\": " << (r.t.identical ? "true" : "false")
            << "}";
      }
      out << "\n  ]\n}\n";
      std::cerr << "[bench] wrote " << rows.size()
                << " sched-batch rows to " << json_path << "\n";
    }
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the mode flag; everything else goes to that mode's parser.
  std::vector<char*> rest;
  bool sweep = false;
  bool seed_batch = false;
  bool sched_batch = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (i > 0 && std::strcmp(argv[i], "--seed-batch") == 0) {
      seed_batch = true;
    } else if (i > 0 && std::strcmp(argv[i], "--sched-batch") == 0) {
      sched_batch = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const int rest_argc = static_cast<int>(rest.size());
  if (sched_batch) return run_sched_batch(rest_argc, rest.data());
  if (seed_batch) return run_seed_batch(rest_argc, rest.data());
  if (sweep) return run_sweep(rest_argc, rest.data());
  std::cerr << "usage:\n"
               "  bench_perf --sweep [--repeat N] [bench harness options]\n"
               "  bench_perf --seed-batch [--lanes R] [--smoke] [--repeat N]\n"
               "             [--json FILE | --no-json]\n"
               "  bench_perf --sched-batch [--lanes R] [--smoke] [--repeat N]\n"
               "             [--json FILE | --no-json]\n";
  return 2;
}
