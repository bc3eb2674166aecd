// oraclesize_cli — command-line front end to the library.
//
// Subcommands:
//   gen <family> <args...> [--seed S]
//       Emit a network in the graph/io.h text format on stdout. Families:
//         path N | cycle N | star N | grid R C | hypercube D | complete N |
//         tree N | random N P | lollipop N | torus R C | bipartite A B |
//         wheel N | caterpillar S L | regular N D | gns N T | gnsc N K
//   run <task> [--source S]
//       [--scheduler sync|random|fifo|lifo|linkfifo|adversarial]
//       [--tree bfs|dfs|kruskal|light] [--seed S] [--anonymous]
//       [--advice-file F] [--all-sources] [--jobs N] [--shards N] [--json]
//       [--fault-rate P] [--fault-seed S] [--deadline-ms T] [--retries K]
//       [--seed-sweep K] [--no-seed-batch]
//       [--byz-rate P] [--byz-nodes K] [--byz-seed S] [--byz-strategy X]
//       Read a network from stdin and run a task:
//         wakeup | broadcast | flooding | census | gossip | hybrid
//       Prints the task report (oracle bits, messages, violations).
//       With --advice-file the oracle step is skipped and per-node strings
//       are loaded from F (see `advise`).
//       --all-sources runs the task once per source node through the batch
//       runner; --jobs N sets its worker-thread count (0 = hardware);
//       --shards N partitions each run itself across N workers (0 =
//       hardware) via the sharded engine — results are bit-identical to
//       the single-threaded path; --json prints per-trial records as JSON
//       instead of text.
//       --fault-rate P drops each message with probability P (seeded by
//       --fault-seed); --deadline-ms caps each trial's wall clock;
//       --retries K re-runs transient failures up to K times with
//       deterministically re-seeded schedules.
//       --seed-sweep K runs the task K times with fault seeds
//       --fault-seed .. --fault-seed+K-1. The K specs differ only in that
//       seed, so the batch runner collapses them into one seed family and
//       serves the benign lanes from a single lockstep pass
//       (sim/seed_batch_engine.h); --no-seed-batch forces the scalar path
//       (results are bit-identical either way).
//       --byz-rate P / --byz-nodes K seed a Byzantine colluding set whose
//       outgoing messages are forged by --byz-strategy
//       (random-bits | replay | structured-lie), keyed by --byz-seed
//       (sim/adversary_plan.h). `--scheduler adversarial` plays the
//       Lemma 2.1 edge-discovery game online to starve the links the
//       adversary deems load-bearing. A fooled or detected run exits 1.
//       Exit code: 0 = every trial solved its task; 1 = some trial failed
//       the task (a reportable result, e.g. under faults); 2 = an
//       infrastructure error (bad input, exception, crashed trial).
//   trace record <task> --trace-file F [run options]
//       Like `run` with a single source, recording the full event stream
//       (sends, deliveries, fault decisions, informed transitions) into F
//       as a self-contained `oracletrace 1` artifact.
//   trace replay <F>
//       Re-execute the recorded run from the artifact's embedded inputs
//       and demand a bit-identical event stream, status, and metrics.
//       Exit 0 on match, 1 with the localized divergence otherwise.
//   trace diff <A> <B>
//       Structural comparison of two artifacts (first divergent event).
//   trace export <F>
//       Chrome trace_event JSON on stdout (chrome://tracing, Perfetto).
//   advise <tree|light|partial|null> [--source S] [--tree K]
//       [--fraction Q] [--seed S]
//       Read a network from stdin; print the oracle's advice assignment in
//       the oracle/advice_io.h text format.
//   tree <bfs|dfs|kruskal|light> [--root R]
//       Read a network from stdin; print spanning-tree statistics.
//   stats
//       Read a network from stdin; print size/degree/diameter statistics.
//   bounds wakeup <n> <c> <oracle_bits>
//   bounds broadcast <n> <k> <oracle_bits>
//       Evaluate the exact Theorem 2.2 / 3.2 pigeonhole bounds.
//   game <N> <m>
//       Play the Lemma 2.1 edge-discovery game and report probes vs bound.
//
// Examples:
//   oraclesize_cli gen complete 64 | oraclesize_cli run broadcast
//   oraclesize_cli gen random 500 0.02 --seed 7 | oraclesize_cli run census
//   oraclesize_cli bounds wakeup 1024 1 4096
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include <fstream>

#include "core/batch_runner.h"
#include "core/replay.h"
#include "core/runner.h"
#include "sim/trace_recorder.h"
#include "oracle/advice_io.h"
#include "oracle/partial_tree_oracle.h"
#include "graph/builders.h"
#include "graph/clique_replace.h"
#include "graph/complete_star.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/light_tree.h"
#include "graph/subdivision.h"
#include "lowerbound/bounds.h"
#include "lowerbound/counting_adversary.h"
#include "lowerbound/strategies.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"

namespace {

using namespace oraclesize;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  oraclesize_cli gen <family> <args...> [--seed S]\n"
      "  oraclesize_cli run <wakeup|broadcast|flooding|census|gossip|hybrid>\n"
      "      [--source S] [--scheduler "
      "sync|random|fifo|lifo|linkfifo|adversarial]\n"
      "      [--tree bfs|dfs|kruskal|light] [--seed S] [--anonymous]\n"
      "      [--advice-file F] [--all-sources] [--jobs N] [--shards N] "
      "[--json]\n"
      "      [--fault-rate P] [--fault-seed S] [--deadline-ms T] "
      "[--retries K]\n"
      "      [--seed-sweep K] [--no-seed-batch]\n"
      "      [--byz-rate P] [--byz-nodes K] [--byz-seed S]\n"
      "      [--byz-strategy random-bits|replay|structured-lie]\n"
      "      [--trace-file F] [--trace-level messages|full]\n"
      "  oraclesize_cli trace record <task> --trace-file F [run options]\n"
      "  oraclesize_cli trace replay <F>\n"
      "  oraclesize_cli trace diff <A> <B>\n"
      "  oraclesize_cli trace export <F>   (Chrome trace_event JSON on "
      "stdout)\n"
      "  oraclesize_cli advise <tree|light|partial|null> [--source S]\n"
      "      [--tree K] [--fraction Q] [--seed S]\n"
      "  oraclesize_cli tree <bfs|dfs|kruskal|light> [--root R]\n"
      "  oraclesize_cli stats\n"
      "  oraclesize_cli bounds wakeup <n> <c> <oracle_bits>\n"
      "  oraclesize_cli bounds broadcast <n> <k> <oracle_bits>\n"
      "  oraclesize_cli game <N> <m>\n";
  std::exit(message.empty() ? 0 : 2);
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    usage("bad " + what + ": '" + s + "'");
  }
}

double parse_double(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    usage("bad " + what + ": '" + s + "'");
  }
}

/// Pulls "--flag value" / "--flag" options out of args, returning the rest.
struct Options {
  std::uint64_t seed = 1;
  NodeId source = 0;
  NodeId root = 0;
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  TreeKind tree = TreeKind::kBfs;
  bool tree_set = false;
  bool anonymous = false;
  double fraction = 0.5;
  std::string advice_file;
  std::size_t jobs = 1;
  std::uint32_t shards = 0;  ///< 0 = single-threaded runs (no sharding)
  bool json = false;
  bool all_sources = false;
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0;
  std::uint64_t deadline_ms = 0;
  std::uint32_t retries = 0;
  std::uint64_t seed_sweep = 0;  ///< 0 = no sweep (one fault seed)
  bool no_seed_batch = false;
  double byz_rate = 0.0;
  std::uint32_t byz_nodes = 0;
  std::uint64_t byz_seed = 0;
  ByzantineStrategy byz_strategy = ByzantineStrategy::kRandomBits;
  std::string trace_file;
  TraceLevel trace_level = TraceLevel::kFull;
};

std::vector<std::string> extract_options(std::vector<std::string> args,
                                         Options& opts) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + a);
      return args[++i];
    };
    if (a == "--seed") {
      opts.seed = parse_u64(next(), "--seed");
    } else if (a == "--source") {
      opts.source = static_cast<NodeId>(parse_u64(next(), "--source"));
    } else if (a == "--root") {
      opts.root = static_cast<NodeId>(parse_u64(next(), "--root"));
    } else if (a == "--anonymous") {
      opts.anonymous = true;
    } else if (a == "--fraction") {
      opts.fraction = parse_double(next(), "--fraction");
    } else if (a == "--advice-file") {
      opts.advice_file = next();
    } else if (a == "--jobs") {
      opts.jobs = static_cast<std::size_t>(parse_u64(next(), "--jobs"));
    } else if (a == "--shards") {
      opts.shards = static_cast<std::uint32_t>(parse_u64(next(), "--shards"));
    } else if (a == "--json") {
      opts.json = true;
    } else if (a == "--all-sources") {
      opts.all_sources = true;
    } else if (a == "--fault-rate") {
      opts.fault_rate = parse_double(next(), "--fault-rate");
      if (opts.fault_rate < 0.0 || opts.fault_rate > 1.0) {
        usage("--fault-rate must be in [0, 1]");
      }
    } else if (a == "--fault-seed") {
      opts.fault_seed = parse_u64(next(), "--fault-seed");
    } else if (a == "--deadline-ms") {
      opts.deadline_ms = parse_u64(next(), "--deadline-ms");
    } else if (a == "--retries") {
      opts.retries = static_cast<std::uint32_t>(parse_u64(next(), "--retries"));
    } else if (a == "--seed-sweep") {
      opts.seed_sweep = parse_u64(next(), "--seed-sweep");
    } else if (a == "--no-seed-batch") {
      opts.no_seed_batch = true;
    } else if (a == "--byz-rate") {
      opts.byz_rate = parse_double(next(), "--byz-rate");
      if (opts.byz_rate < 0.0 || opts.byz_rate > 1.0) {
        usage("--byz-rate must be in [0, 1]");
      }
    } else if (a == "--byz-nodes") {
      opts.byz_nodes =
          static_cast<std::uint32_t>(parse_u64(next(), "--byz-nodes"));
    } else if (a == "--byz-seed") {
      opts.byz_seed = parse_u64(next(), "--byz-seed");
    } else if (a == "--byz-strategy") {
      const std::string v = next();
      if (v == "random-bits") {
        opts.byz_strategy = ByzantineStrategy::kRandomBits;
      } else if (v == "replay") {
        opts.byz_strategy = ByzantineStrategy::kReplay;
      } else if (v == "structured-lie") {
        opts.byz_strategy = ByzantineStrategy::kStructuredLie;
      } else {
        usage("unknown byzantine strategy '" + v + "'");
      }
    } else if (a == "--trace-file") {
      opts.trace_file = next();
    } else if (a == "--trace-level") {
      const std::string v = next();
      if (v == "messages") {
        opts.trace_level = TraceLevel::kMessages;
      } else if (v == "full") {
        opts.trace_level = TraceLevel::kFull;
      } else {
        usage("unknown trace level '" + v + "'");
      }
    } else if (a == "--scheduler") {
      const std::string v = next();
      if (v == "sync") {
        opts.scheduler = SchedulerKind::kSynchronous;
      } else if (v == "random") {
        opts.scheduler = SchedulerKind::kAsyncRandom;
      } else if (v == "fifo") {
        opts.scheduler = SchedulerKind::kAsyncFifo;
      } else if (v == "lifo") {
        opts.scheduler = SchedulerKind::kAsyncLifo;
      } else if (v == "linkfifo") {
        opts.scheduler = SchedulerKind::kAsyncLinkFifo;
      } else if (v == "adversarial") {
        opts.scheduler = SchedulerKind::kAsyncAdversarial;
      } else {
        usage("unknown scheduler '" + v + "'");
      }
    } else if (a == "--tree") {
      const std::string v = next();
      opts.tree_set = true;
      if (v == "bfs") {
        opts.tree = TreeKind::kBfs;
      } else if (v == "dfs") {
        opts.tree = TreeKind::kDfs;
      } else if (v == "kruskal") {
        opts.tree = TreeKind::kKruskal;
      } else if (v == "light") {
        opts.tree = TreeKind::kLight;
      } else {
        usage("unknown tree '" + v + "'");
      }
    } else if (a.rfind("--", 0) == 0) {
      usage("unknown option '" + a + "'");
    } else {
      rest.push_back(a);
    }
  }
  return rest;
}

int cmd_gen(const std::vector<std::string>& args, const Options& opts) {
  if (args.empty()) usage("gen: missing family");
  Rng rng(opts.seed);
  const std::string& family = args[0];
  auto need = [&](std::size_t k) {
    if (args.size() != k + 1) usage("gen " + family + ": wrong arity");
  };
  PortGraph g;
  if (family == "path") {
    need(1);
    g = make_path(parse_u64(args[1], "n"));
  } else if (family == "cycle") {
    need(1);
    g = make_cycle(parse_u64(args[1], "n"));
  } else if (family == "star") {
    need(1);
    g = make_star(parse_u64(args[1], "n"));
  } else if (family == "grid") {
    need(2);
    g = make_grid(parse_u64(args[1], "rows"), parse_u64(args[2], "cols"));
  } else if (family == "hypercube") {
    need(1);
    g = make_hypercube(static_cast<int>(parse_u64(args[1], "d")));
  } else if (family == "complete") {
    need(1);
    g = make_complete_star(parse_u64(args[1], "n"));
  } else if (family == "tree") {
    need(1);
    g = make_random_tree(parse_u64(args[1], "n"), rng);
  } else if (family == "random") {
    need(2);
    g = make_random_connected(parse_u64(args[1], "n"),
                              parse_double(args[2], "p"), rng);
  } else if (family == "lollipop") {
    need(1);
    g = make_lollipop(parse_u64(args[1], "n"));
  } else if (family == "torus") {
    need(2);
    g = make_torus(parse_u64(args[1], "rows"), parse_u64(args[2], "cols"));
  } else if (family == "bipartite") {
    need(2);
    g = make_complete_bipartite(parse_u64(args[1], "a"),
                                parse_u64(args[2], "b"));
  } else if (family == "wheel") {
    need(1);
    g = make_wheel(parse_u64(args[1], "n"));
  } else if (family == "caterpillar") {
    need(2);
    g = make_caterpillar(parse_u64(args[1], "spine"),
                         parse_u64(args[2], "legs"));
  } else if (family == "regular") {
    need(2);
    g = make_random_regular(parse_u64(args[1], "n"),
                            parse_u64(args[2], "d"), rng);
  } else if (family == "gns") {
    need(2);
    g = make_gns(parse_u64(args[1], "n"), parse_u64(args[2], "t"), rng)
            .graph;
  } else if (family == "gnsc") {
    need(2);
    g = make_random_gnsc(parse_u64(args[1], "n"), parse_u64(args[2], "k"),
                         rng)
            .graph;
  } else {
    usage("unknown family '" + family + "'");
  }
  write_port_graph(std::cout, g);
  return 0;
}

/// The (algorithm, oracle) pair a task name denotes. Algorithms come from
/// the shared core/replay.h registry — the same one `trace replay` resolves
/// recorded names against.
struct TaskSelection {
  const Algorithm* algorithm = nullptr;
  std::unique_ptr<Oracle> oracle;
};

TaskSelection select_task(const std::string& task, const Options& opts) {
  TaskSelection sel;
  std::string algorithm_name;
  if (task == "wakeup") {
    algorithm_name = "wakeup-tree";
    sel.oracle = std::make_unique<TreeWakeupOracle>(opts.tree);
  } else if (task == "census") {
    algorithm_name = "census-echo";
    sel.oracle = std::make_unique<TreeWakeupOracle>(opts.tree);
  } else if (task == "gossip") {
    algorithm_name = "gossip-tree";
    sel.oracle = std::make_unique<TreeWakeupOracle>(opts.tree);
  } else if (task == "broadcast") {
    algorithm_name = "broadcast-B";
    sel.oracle = std::make_unique<LightBroadcastOracle>(
        opts.tree_set ? opts.tree : TreeKind::kLight);
  } else if (task == "flooding") {
    algorithm_name = "flooding";
    sel.oracle = std::make_unique<NullOracle>();
  } else if (task == "hybrid") {
    algorithm_name = "hybrid-wakeup";
    sel.oracle = std::make_unique<PartialTreeOracle>(opts.fraction, opts.seed,
                                                     opts.tree);
  } else {
    usage("unknown task '" + task + "'");
  }
  sel.algorithm = algorithm_by_name(algorithm_name);
  return sel;
}

int cmd_run(const std::vector<std::string>& args, const Options& opts) {
  if (args.size() != 1) usage("run: expected exactly one task");
  const PortGraph g = read_port_graph(std::cin);
  if (opts.source >= g.num_nodes()) usage("run: --source out of range");

  RunOptions run_opts;
  run_opts.scheduler = opts.scheduler;
  run_opts.seed = opts.seed;
  run_opts.anonymous = opts.anonymous;
  run_opts.fault.drop = opts.fault_rate;
  run_opts.fault.seed = opts.fault_seed;
  run_opts.adversary.byz_rate = opts.byz_rate;
  run_opts.adversary.byz_nodes = opts.byz_nodes;
  run_opts.adversary.seed = opts.byz_seed;
  run_opts.adversary.strategy = opts.byz_strategy;
  run_opts.deadline_ns = opts.deadline_ms * 1'000'000;

  const std::string& task = args[0];
  const TaskSelection sel = select_task(task, opts);
  const Algorithm* algorithm = sel.algorithm;
  const Oracle* oracle = sel.oracle.get();

  TraceRecorder recorder(opts.trace_level);
  if (!opts.trace_file.empty()) {
    if (opts.all_sources) {
      usage("run: --trace-file cannot be combined with --all-sources");
    }
    run_opts.trace_sink = &recorder;
  }

  std::vector<NodeId> sources;
  if (opts.all_sources) {
    if (!opts.advice_file.empty()) {
      usage("run: --all-sources cannot be combined with --advice-file");
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) sources.push_back(v);
  } else {
    sources.push_back(opts.source);
  }

  // --seed-sweep K fans the single-source trial out into K fault seeds.
  // The specs differ only in fault.seed, so they form one seed family and
  // the batch runner serves the benign lanes from a single lockstep pass.
  std::vector<std::uint64_t> sweep_seeds;
  if (opts.seed_sweep > 0) {
    if (opts.all_sources) {
      usage("run: --seed-sweep cannot be combined with --all-sources");
    }
    if (!opts.trace_file.empty()) {
      usage("run: --seed-sweep cannot be combined with --trace-file");
    }
    for (std::uint64_t k = 0; k < opts.seed_sweep; ++k) {
      sweep_seeds.push_back(opts.fault_seed + k);
    }
  }

  // Under faults, a task failure is often transient in the fault seed —
  // retrying with a re-seeded schedule is meaningful. Without faults the
  // run is deterministic, so only infrastructure outcomes are retried.
  const RetryPolicy retry{opts.retries, 0x9e3779b97f4a7c15ULL,
                          /*retry_task_failures=*/opts.fault_rate > 0};
  // --shards N runs every trial's execution through the sharded intra-run
  // engine (bit-identical results; sim/sharded_engine.h).
  ShardPolicy shard;
  if (opts.shards != 0) {
    shard.shards = opts.shards;
    shard.min_nodes = 2;
  }
  SeedBatchPolicy seed_batch;
  seed_batch.enabled = !opts.no_seed_batch;
  const BatchRunner runner(opts.jobs, /*advice_cache=*/true, retry, shard,
                           seed_batch);

  // One spec per (source, sweep seed); without --seed-sweep this is the
  // single-seed spec list the CLI always built.
  auto fan_out = [&](TrialSpec spec) {
    std::vector<TrialSpec> specs;
    if (sweep_seeds.empty()) {
      specs.push_back(spec);
    } else {
      for (std::uint64_t s : sweep_seeds) {
        spec.options.fault.seed = s;
        specs.push_back(spec);
      }
    }
    return specs;
  };

  BatchStats batch_stats;
  std::vector<TaskReport> reports;
  if (opts.advice_file.empty()) {
    std::vector<TrialSpec> specs;
    for (NodeId v : sources) {
      for (TrialSpec& spec :
           fan_out(TrialSpec{&g, v, oracle, algorithm, run_opts})) {
        specs.push_back(std::move(spec));
      }
    }
    reports = runner.run(specs, &batch_stats);
  } else {
    std::ifstream in(opts.advice_file);
    if (!in) usage("cannot open advice file '" + opts.advice_file + "'");
    std::vector<BitString> advice = read_advice(in);
    if (advice.size() != g.num_nodes()) {
      usage("advice file node count does not match the network");
    }
    // Precomputed advice rides in the spec; the oracle is never asked.
    TrialSpec spec{&g, opts.source, oracle, algorithm, run_opts};
    spec.advice = std::make_shared<const std::vector<BitString>>(
        std::move(advice));
    reports = runner.run(fan_out(spec), &batch_stats);
    for (TaskReport& r : reports) {
      r.oracle_name = "file:" + opts.advice_file;
    }
  }

  bool all_ok = true;
  bool any_failed = false;
  for (const TaskReport& r : reports) {
    all_ok = all_ok && r.ok();
    any_failed = any_failed || r.failed();
  }

  if (!opts.trace_file.empty()) {
    if (!recorder.complete()) {
      std::cerr << "trace: the run never reached the engine (nothing to "
                   "record)\n";
      return 2;
    }
    RecordedTrace t = recorder.take();
    t.header.oracle = reports.front().oracle_name;
    std::ofstream out(opts.trace_file);
    if (!out) usage("cannot write trace file '" + opts.trace_file + "'");
    save_trace(out, t);
    std::cerr << "[trace] wrote " << t.events.size() << " events to "
              << opts.trace_file << " (digest " << std::hex << t.digest()
              << std::dec << ")\n";
  }
  if (opts.json) {
    std::cout << "{\n  \"task\": \"" << task << "\", \"scheduler\": \""
              << to_string(opts.scheduler) << "\", \"nodes\": "
              << g.num_nodes() << ", \"jobs\": "
              << BatchRunner(opts.jobs).jobs() << ",\n  \"trials\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const TaskReport& r = reports[i];
      const NodeId src = sweep_seeds.empty() ? sources[i] : opts.source;
      std::cout << (i == 0 ? "\n" : ",\n")
                << "    {\"source\": " << src;
      if (!sweep_seeds.empty()) {
        std::cout << ", \"fault_seed\": " << sweep_seeds[i];
      }
      std::cout
                << ", \"oracle_bits\": " << r.oracle_bits
                << ", \"messages_total\": " << r.run.metrics.messages_total
                << ", \"bits_sent\": " << r.run.metrics.bits_sent
                << ", \"completion_key\": " << r.run.metrics.completion_key
                << ", \"wall_ns\": " << r.wall_ns
                << ", \"advise_ns\": " << r.advise_ns
                << ", \"run_ns\": " << r.run_ns << ", \"advice_cached\": "
                << (r.advice_cached ? "true" : "false") << ", \"status\": \""
                << to_string(r.run.status) << "\", \"attempts\": "
                << r.attempts << ", \"ok\": " << (r.ok() ? "true" : "false");
      if (opts.byz_rate > 0 || opts.byz_nodes > 0) {
        const AdversaryCounters& a = r.run.adversary;
        std::cout << ", \"byz_lying_nodes\": " << a.lying_nodes
                  << ", \"byz_forged\": " << a.forged
                  << ", \"byz_equivocated\": " << a.equivocated
                  << ", \"byz_replayed\": " << a.replayed
                  << ", \"byz_structured_lies\": " << a.structured_lies
                  << ", \"byz_advice_lies\": " << a.advice_lies;
      }
      std::cout << "}";
    }
    std::cout << (reports.empty() ? "]\n" : "\n  ]\n") << "}\n";
  } else {
    std::cout << g.summary() << ", scheduler " << to_string(opts.scheduler)
              << "\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const TaskReport& report = reports[i];
      const NodeId src = sweep_seeds.empty() ? sources[i] : opts.source;
      std::cout << "source " << src;
      if (!sweep_seeds.empty()) {
        std::cout << " fault-seed " << sweep_seeds[i];
      }
      std::cout << ": " << report.summary() << "\n";
      if ((task == "census" || task == "gossip") && report.ok()) {
        std::cout << task << " output at source: " << report.run.outputs[src]
                  << "\n";
      }
    }
    if (!sweep_seeds.empty()) {
      std::cout << "seed batching: " << batch_stats.seed_families
                << " family, " << batch_stats.batched_lanes << " lanes, "
                << batch_stats.lockstep_shared
                << " served by shared lockstep passes\n";
    }
  }
  // 0 = task solved everywhere; 1 = some task failed (reportable result);
  // 2 = some trial crashed (infrastructure).
  if (any_failed) return 2;
  return all_ok ? 0 : 1;
}

RecordedTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot open trace file '" + path + "'");
  return load_trace(in);
}

int cmd_trace(const std::vector<std::string>& args, const Options& opts) {
  if (args.empty()) usage("trace: expected record|replay|diff|export");
  const std::string& sub = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());

  if (sub == "record") {
    // A traced single-source run; the network arrives on stdin as in `run`.
    if (rest.size() != 1) usage("trace record: expected exactly one task");
    if (opts.trace_file.empty()) {
      usage("trace record: --trace-file is required");
    }
    Options run_opts = opts;
    run_opts.all_sources = false;
    return cmd_run(rest, run_opts);
  }

  if (sub == "replay") {
    if (rest.size() != 1) usage("trace replay: expected one trace file");
    const RecordedTrace trace = load_trace_file(rest[0]);
    const ReplayReport report = replay_trace(trace);
    if (report.match) {
      std::cout << "replay OK: " << trace.events.size()
                << " events, status " << to_string(trace.status)
                << ", digest " << std::hex << trace.digest() << std::dec
                << "\n";
      return 0;
    }
    std::cerr << "replay DIVERGED (" << report.mismatches.size()
              << " difference(s)):\n";
    for (const std::string& m : report.mismatches) {
      std::cerr << "  " << m << "\n";
    }
    return 1;
  }

  if (sub == "diff") {
    if (rest.size() != 2) usage("trace diff: expected two trace files");
    const RecordedTrace a = load_trace_file(rest[0]);
    const RecordedTrace b = load_trace_file(rest[1]);
    const TraceDiff diff = diff_traces(a, b);
    if (diff.equal) {
      std::cout << "traces identical: " << a.events.size()
                << " events, digest " << std::hex << a.digest() << std::dec
                << "\n";
      return 0;
    }
    std::cout << diff.differences.size() << " difference(s):\n";
    for (const std::string& d : diff.differences) {
      std::cout << "  " << d << "\n";
    }
    return 1;
  }

  if (sub == "export") {
    if (rest.size() != 1) usage("trace export: expected one trace file");
    const RecordedTrace trace = load_trace_file(rest[0]);
    write_chrome_trace(std::cout, trace);
    return 0;
  }

  usage("trace: unknown subcommand '" + sub + "'");
}

int cmd_advise(const std::vector<std::string>& args, const Options& opts) {
  if (args.size() != 1) usage("advise: expected exactly one oracle");
  const PortGraph g = read_port_graph(std::cin);
  if (opts.source >= g.num_nodes()) usage("advise: --source out of range");
  std::unique_ptr<Oracle> oracle;
  if (args[0] == "tree") {
    oracle = std::make_unique<TreeWakeupOracle>(opts.tree);
  } else if (args[0] == "light") {
    oracle = std::make_unique<LightBroadcastOracle>(
        opts.tree_set ? opts.tree : TreeKind::kLight);
  } else if (args[0] == "partial") {
    oracle = std::make_unique<PartialTreeOracle>(opts.fraction, opts.seed,
                                                 opts.tree);
  } else if (args[0] == "null") {
    oracle = std::make_unique<NullOracle>();
  } else {
    usage("unknown oracle '" + args[0] + "'");
  }
  const auto advice = oracle->advise(g, opts.source);
  std::cout << "# " << oracle->name() << " on " << g.summary() << ", source "
            << opts.source << ": " << oracle_size_bits(advice)
            << " bits total\n";
  write_advice(std::cout, advice);
  return 0;
}

int cmd_tree(const std::vector<std::string>& args, const Options& opts) {
  if (args.size() != 1) usage("tree: expected exactly one kind");
  TreeKind kind;
  if (args[0] == "bfs") {
    kind = TreeKind::kBfs;
  } else if (args[0] == "dfs") {
    kind = TreeKind::kDfs;
  } else if (args[0] == "kruskal") {
    kind = TreeKind::kKruskal;
  } else if (args[0] == "light") {
    kind = TreeKind::kLight;
  } else {
    usage("unknown tree kind '" + args[0] + "'");
  }
  const PortGraph g = read_port_graph(std::cin);
  if (opts.root >= g.num_nodes()) usage("tree: --root out of range");
  const SpanningTree t = build_tree(g, opts.root, kind);
  std::cout << g.summary() << "\n"
            << "tree: " << args[0] << ", root " << opts.root << ", height "
            << t.height() << ", contribution sum #2(w) = "
            << tree_contribution(g, t) << " (4n = " << 4 * g.num_nodes()
            << ")\n";
  return 0;
}

int cmd_stats() {
  const PortGraph g = read_port_graph(std::cin);
  const GraphStats s = compute_stats(g);
  std::cout << g.summary() << "\n"
            << "degree: min " << s.min_degree << ", max " << s.max_degree
            << ", avg " << s.avg_degree << "\n"
            << "diameter " << s.diameter << ", eccentricity of node 0: "
            << s.source_eccentricity << "\n";
  return 0;
}

int cmd_bounds(const std::vector<std::string>& args) {
  if (args.size() != 4) usage("bounds: wrong arity");
  const std::uint64_t bits = parse_u64(args[3], "oracle_bits");
  if (args[0] == "wakeup") {
    const std::size_t n = parse_u64(args[1], "n");
    const std::size_t c = parse_u64(args[2], "c");
    std::cout << "G_{n,S} family: n = " << n << ", " << c
              << "n subdivided edges, network size " << (1 + c) * n << "\n"
              << "log2 |family|     = " << log2_wakeup_family(n, c) << "\n"
              << "log2 |Q(" << bits
              << " bits)| = " << log2_oracle_outputs(bits, (1 + c) * n)
              << "\n"
              << "guaranteed wakeup messages >= "
              << wakeup_message_lower_bound(n, c, bits) << "\n";
  } else if (args[0] == "broadcast") {
    const std::size_t n = parse_u64(args[1], "n");
    const std::size_t k = parse_u64(args[2], "k");
    std::cout << "G_{n,k} family: n = " << n << ", k = " << k
              << ", network size " << 2 * n << "\n"
              << "log2 |family|     = " << log2_broadcast_family(n, k)
              << "\n"
              << "log2 |Q(" << bits
              << " bits)| = " << log2_oracle_outputs(bits, 2 * n) << "\n"
              << "guaranteed broadcast messages >= "
              << broadcast_message_lower_bound(n, k, bits) << "\n";
  } else {
    usage("bounds: expected 'wakeup' or 'broadcast'");
  }
  return 0;
}

int cmd_game(const std::vector<std::string>& args) {
  if (args.size() != 2) usage("game: wrong arity");
  const EdgeDiscoveryProblem p{parse_u64(args[0], "N"),
                               parse_u64(args[1], "m")};
  if (p.num_special > p.num_candidates) usage("game: m > N");
  SequentialStrategy strategy;
  CountingAdversary adversary(p);
  const GameResult r = play_edge_discovery(p, strategy, adversary);
  std::cout << "edge discovery: N = " << p.num_candidates
            << ", m = " << p.num_special << "\n"
            << "measured probes   = " << r.probes << "\n"
            << "Lemma 2.1 bound   = " << r.probe_lower_bound << "\n"
            << "specials revealed = " << r.specials_found << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") usage();
  const std::string command = args[0];
  args.erase(args.begin());
  Options opts;
  args = extract_options(std::move(args), opts);
  try {
    if (command == "gen") return cmd_gen(args, opts);
    if (command == "run") return cmd_run(args, opts);
    if (command == "trace") return cmd_trace(args, opts);
    if (command == "advise") return cmd_advise(args, opts);
    if (command == "tree") return cmd_tree(args, opts);
    if (command == "stats") return cmd_stats();
    if (command == "bounds") return cmd_bounds(args);
    if (command == "game") return cmd_game(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;  // infrastructure error, distinct from a failed-task result
  }
  usage("unknown command '" + command + "'");
}
