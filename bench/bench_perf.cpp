// Wall-clock harness for the lockstep executor's seed families, whose
// identity bits and dedup floors tools/perf_gate.py gates. These are
// throughput measurements, not paper results: the paper's quantities are
// message counts and bit counts (bench_e1..e16). The end-to-end and
// per-layer timings of the engines, the sharded engine and the advice
// service are perfbench's (perfbench/README.md), which also checks sharded
// == serial and service == direct on every run.
//
// Modes (a bare call prints usage and exits 2):
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
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
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

/// The flags both modes take.
struct BatchFlags {
  // 64 lanes by default: the batched pass costs one lockstep run plus a few
  // microseconds of fan-out, so on a busy host the measurement needs a large
  // scalar side to keep scheduler noise out of the ratio. CI and the
  // committed baselines use 64.
  std::size_t lanes = 64;
  std::size_t repeat = 3;
  bool smoke = false;
  std::string json_path;
};

/// Parses `mode`'s flags, writing to `json_path` unless --json or --no-json
/// says otherwise. An unknown flag prints the mode's supported flags and
/// exits 2.
BatchFlags parse_batch_flags(int argc, char** argv, const char* mode,
                             std::string json_path) {
  BatchFlags flags;
  flags.json_path = std::move(json_path);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      flags.lanes = std::max<std::size_t>(
          2, bench::flag_number<std::size_t>(argv[++i], "--lanes"));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      flags.repeat = std::max<std::size_t>(
          1, bench::flag_number<std::size_t>(argv[++i], "--repeat"));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      flags.json_path.clear();
    } else {
      std::cerr << "error: unknown option '" << argv[i] << "' (" << mode
                << " supports: --lanes R, --smoke, --repeat N, "
                   "--json FILE, --no-json)\n";
      std::exit(2);
    }
  }
  return flags;
}

/// A row's fault mode: its name and how it sets a plan at the row's rate.
struct FaultMode {
  const char* name;
  void (*apply)(FaultPlanParams&, double rate);
};

const FaultMode kNoFault{"none", [](FaultPlanParams&, double) {}};
const FaultMode kDrop{"drop", [](FaultPlanParams& f, double r) { f.drop = r; }};
const FaultMode kDelay{"delay",
                       [](FaultPlanParams& f, double r) { f.delay = r; }};
const FaultMode kCrash{"crash",
                       [](FaultPlanParams& f, double r) { f.crash = r; }};
const FaultMode kAdviceFlip{
    "advice-flip", [](FaultPlanParams& f, double r) { f.advice_flip = r; }};

/// One row's measurement of a seed family (specs identical up to their two
/// seeds, each carrying its advice and final options, wakeup enforcement
/// included). Both arms are bare engine calls, and each builds its engine
/// once per timed call, as a BatchRunner worker does per run(): the scalar
/// arm plays the R lanes one after another on one ExecutionContext, the
/// batched arm is one SeedBatchExecutionContext::run (one lockstep pass
/// plus scalar replays for diverged lanes). Each of the `repeat` rounds
/// times the two arms back to back; `speedup` is the median of the rounds'
/// scalar/batched ratios, so a host that slows down or speeds up between
/// rounds moves the arms' times, not the row's ratio. `scalar_ns` and
/// `batched_ns` are each arm's minimum, for reading. An untimed
/// BatchRunner pass supplies the shared/replayed split, and kWarmRounds
/// untimed rounds of both arms come first: the first calls of a process
/// pay for fresh heap pages (a 0.13 ms batched arm read 3.9 ms, then
/// 0.40 ms). The BatchRunner pass and the batched arm must both reproduce
/// every lane's scalar RunResult for the row to count as identical.
struct FamilyTiming {
  std::uint64_t scalar_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t batched_ns = std::numeric_limits<std::uint64_t>::max();
  double speedup = 0.0;  ///< median of the paired per-round ratios
  bool identical = true;
  std::size_t shared = 0;
  std::size_t replayed = 0;
};

constexpr std::size_t kWarmRounds = 2;

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
  std::vector<double> ratios;
  for (std::size_t r = 0; r < kWarmRounds + repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    ExecutionContext scalar;
    for (std::size_t l = 0; l < specs.size(); ++l) {
      const TrialSpec& s = specs[l];
      scalar_runs[l] = scalar.run(*s.graph, s.source, *s.advice,
                                  *s.algorithm, s.options);
    }
    const std::uint64_t scalar_ns = since_ns(t0);
    const auto t1 = std::chrono::steady_clock::now();
    SeedBatchExecutionContext batched;
    batched_runs = batched.run(*proto.graph, proto.source, *proto.advice,
                               *proto.algorithm, proto.options, lanes);
    const std::uint64_t batched_ns = std::max<std::uint64_t>(since_ns(t1), 1);
    if (r < kWarmRounds) continue;
    t.scalar_ns = std::min(t.scalar_ns, scalar_ns);
    t.batched_ns = std::min(t.batched_ns, batched_ns);
    ratios.push_back(static_cast<double>(scalar_ns) /
                     static_cast<double>(batched_ns));
  }
  t.shared = stats.lockstep_shared;
  t.replayed = stats.batched_lanes - t.shared;
  for (std::size_t l = 0; l < specs.size(); ++l) {
    const TaskReport& report = reports[l];
    t.identical = t.identical && batched_runs[l] == scalar_runs[l] &&
                  report.error.empty() && report.attempts == 1 &&
                  report.run == scalar_runs[l];
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  t.speedup = ratios.size() % 2 == 1 ? ratios[mid]
                                     : (ratios[mid - 1] + ratios[mid]) / 2;
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
  const auto [lanes, repeat, smoke, json_path] =
      parse_batch_flags(argc, argv, "seed-batch", "BENCH_perf_seedbatch.json");

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
  struct Mode {
    const FaultMode* fault;
    double rate;
  };
  const Mode modes[] = {
      {&kNoFault, 0.0},
      {&kDrop, 1e-4},
      {&kDrop, 1e-3},
      {&kDrop, 1e-2},
      {&kDelay, 1e-3},
      {&kCrash, 1e-3},
      {&kAdviceFlip, 1e-3},
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
        m.fault->apply(base.fault, m.rate);
        std::vector<TrialSpec> specs;
        specs.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
          RunOptions options = base;
          options.fault.seed = 100 + 7 * l;
          specs.emplace_back(&w.graph, 0, s.oracle, s.algorithm, options,
                             advice);
        }

        const Row row{w.family, w.graph.num_nodes(), s.name, m.fault->name,
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
                         std::to_string(lanes) + " lanes, median ratio of " +
                         std::to_string(repeat) + " paired rounds)");
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
// timed region, the median of the paired per-round ratios, per-lane
// RunResult identity between the scalar pass, the batched pass and an
// untimed BatchRunner pass, exit 1 on any mismatch.
// ---------------------------------------------------------------------------

int run_sched_batch(int argc, char** argv) {
  const auto [lanes, repeat, smoke, json_path] =
      parse_batch_flags(argc, argv, "sched-batch",
                        "BENCH_perf_schedbatch.json");

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

  struct Cell {
    const bench::Workload* load;
    const char* scheme;
    const Oracle* oracle;
    const Algorithm* algorithm;
    SchedulerKind scheduler;
    const char* axis;  // "fault-seed" or "sched-seed"
    const FaultMode* mode;
    double rate;
    bool floor;       // gate holds speedup to >= 8x
    bool full_share;  // gate demands shared == lanes
  };
  std::vector<Cell> cells;
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncRandom, SchedulerKind::kAsyncLinkFifo}) {
    // fault.seed axis on a branching workload: the E13 regime.
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", &kNoFault, 0.0, true, true});
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", &kDrop, 1e-3, false, false});
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", &kCrash, 1e-3, false, false});
    cells.push_back({&branching, "broadcast", &light_oracle, &broadcast,
                     sched, "fault-seed", &kAdviceFlip, 1e-3, false, false});
    // options.seed axis on sequential workloads: full multi-class sharing.
    // Not floored: the per-pop cost scales with live classes, so the win
    // here is ~4x, not ~R.
    cells.push_back({&path, "wakeup", &tree_oracle, &wakeup, sched,
                     "sched-seed", &kNoFault, 0.0, false, true});
    cells.push_back({&path, "census", &tree_oracle, &census, sched,
                     "sched-seed", &kNoFault, 0.0, false, true});
    // options.seed axis on a branching workload: honest decay, identity
    // gate only.
    cells.push_back({&branching, "wakeup", &tree_oracle, &wakeup, sched,
                     "sched-seed", &kNoFault, 0.0, false, false});
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
    c.mode->apply(base.fault, c.rate);
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
        .cell(r.cell->mode->name)
        .cell(static_cast<double>(r.t.scalar_ns) / 1e6, 3)
        .cell(static_cast<double>(r.t.batched_ns) / 1e6, 3)
        .cell(r.t.speedup, 2)
        .cell(r.t.shared)
        .cell(r.t.replayed)
        .cell(r.t.identical ? "yes" : "NO");
  }
  t.print(std::cout,
          "counter-keyed schedulers through the lockstep executor (" +
              std::to_string(lanes) + " lanes, median ratio of " +
              std::to_string(repeat) + " paired rounds)");
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
            << "\", \"axis\": \"" << c.axis << "\", \"mode\": \""
            << c.mode->name << "\", \"rate\": " << c.rate
            << ", \"lanes\": " << lanes
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
  bool seed_batch = false;
  bool sched_batch = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--seed-batch") == 0) {
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
  std::cerr << "usage:\n"
               "  bench_perf --seed-batch [--lanes R] [--smoke] [--repeat N]\n"
               "             [--json FILE | --no-json]\n"
               "  bench_perf --sched-batch [--lanes R] [--smoke] [--repeat N]\n"
               "             [--json FILE | --no-json]\n";
  return 2;
}
