// The sharded engine's whole contract is a single sentence — bit-identical
// to the single-threaded engine at any shard count — so every test here is
// some variant of "run both, compare everything". RunResult's defaulted
// operator== covers metrics, faults, statuses, traces, and per-node
// vectors in one expression; the sink tests extend the comparison to the
// structured event stream via trace digests.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "sim/sharded_engine.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

std::vector<BitString> advice_for(const PortGraph& g, NodeId source,
                                  const Oracle& oracle) {
  return oracle.advise(g, source);
}

RunOptions faulty_options(SchedulerKind sched, double duplicate) {
  RunOptions opts;
  opts.scheduler = sched;
  opts.seed = 1234;
  opts.fault.seed = 88;
  opts.fault.drop = 0.05;
  opts.fault.duplicate = duplicate;
  opts.fault.delay = 0.08;
  opts.fault.crash = 0.04;
  opts.fault.advice_flip = 0.02;
  return opts;
}

// Floods like FloodingAlgorithm, but every node also transmits a control
// message at start — an uninformed transmission that trips wakeup
// enforcement (the engine's violation path).
class SpontaneousFlood final : public Algorithm {
 public:
  class Behavior final : public NodeBehavior {
   public:
    void on_start(const NodeInput& input, std::vector<Send>& out) override {
      for (Port p = 0; p < input.degree; ++p) {
        out.push_back(Send{input.is_source ? Message::source()
                                           : Message::control(1),
                           p});
      }
    }
    void on_receive(const NodeInput& input, const Message& msg, Port from,
                    std::vector<Send>& out) override {
      if (msg.kind != MsgKind::kSource || relayed_) return;
      relayed_ = true;
      for (Port p = 0; p < input.degree; ++p) {
        if (p != from) out.push_back(Send{Message::source(), p});
      }
    }

   private:
    bool relayed_ = false;
  };
  std::unique_ptr<NodeBehavior> make_behavior(
      const NodeInput&) const override {
    return std::make_unique<Behavior>();
  }
  std::string name() const override { return "spontaneous-flood"; }
};

/// Runs the same execution on the legacy engine and on `sharded`, and
/// demands field-by-field identical results.
RunResult expect_identical(const PortGraph& g, NodeId source,
                           const std::vector<BitString>& advice,
                           const Algorithm& algorithm,
                           const RunOptions& options,
                           ShardedExecutionContext& sharded,
                           const std::string& context_msg) {
  ExecutionContext legacy;
  const RunResult want = legacy.run(g, source, advice, algorithm, options);
  const RunResult got = sharded.run(g, source, advice, algorithm, options);
  EXPECT_EQ(got, want) << context_msg;
  return want;
}

TEST(ShardedEngine, MatchesLegacyAcrossSchedulersAndShardCounts) {
  Rng rng(20260808);
  std::vector<PortGraph> graphs;
  graphs.push_back(make_grid(6, 7));
  graphs.push_back(make_random_connected(60, 0.12, rng));
  graphs.push_back(make_star(40));
  graphs.push_back(make_random_connected_sparse(90, 60, rng));
  graphs.push_back(make_hypercube(6));
  const NullOracle null_oracle;
  const FloodingAlgorithm flooding;
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup;

  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    ShardedExecutionContext engine(shards);
    EXPECT_EQ(engine.configured_shards(), shards);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const PortGraph& g = graphs[gi];
      const std::vector<BitString> flood_advice =
          advice_for(g, 1, null_oracle);
      const std::vector<BitString> wake_advice =
          advice_for(g, 1, wakeup_oracle);
      for (const SchedulerKind sched :
           {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
            SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
            SchedulerKind::kAsyncLinkFifo}) {
        RunOptions opts;
        opts.scheduler = sched;
        opts.seed = 99 + gi;
        const std::string msg = "graph " + std::to_string(gi) + " sched " +
                                to_string(sched) + " shards " +
                                std::to_string(shards);
        expect_identical(g, 1, flood_advice, flooding, opts, engine, msg);
        RunOptions wopts = opts;
        wopts.enforce_wakeup = true;
        expect_identical(g, 1, wake_advice, wakeup, wopts, engine,
                         msg + " wakeup");
      }
    }
  }
}

TEST(ShardedEngine, StatsReportShardsEpochsAndCrossTraffic) {
  // A reliable synchronous flood on a connected graph must cross shard
  // boundaries (the partition is contiguous, the graph is not), and every
  // delivered event lives in some epoch.
  Rng rng(5);
  const PortGraph g = make_random_connected(64, 0.15, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  RunOptions opts;
  const RunResult got =
      engine.run(g, 0, advice, FloodingAlgorithm(), opts);
  EXPECT_EQ(got.status, RunStatus::kCompleted);
  const ShardedRunStats& st = engine.last_stats();
  EXPECT_FALSE(st.fell_back);
  EXPECT_EQ(st.shards, 4u);
  EXPECT_GT(st.epochs, 0u);
  EXPECT_GT(st.cross_shard_messages, 0u);
  EXPECT_LE(st.cross_shard_messages, got.metrics.messages_total);
}

TEST(ShardedEngine, FaultMatrixMatchesOnBothFinalizePaths) {
  // duplicate = 0 keeps the pure schedulers on the fast (parallel)
  // finalizer; duplicate > 0 forces the serial one. Every combination must
  // agree with the legacy engine bit for bit. The shards keep heaps, the
  // legacy engine the discipline of Scheduler::delivery_order: a ring for
  // sync and async-random under extra delay, and a FIFO and a stack for
  // async-fifo and async-lifo, whose rows therefore draw no extra delay.
  Rng rng(21);
  const PortGraph g = make_random_connected(48, 0.12, rng);
  const NullOracle oracle;
  const FloodingAlgorithm flooding;
  const std::vector<BitString> advice = advice_for(g, 3, oracle);
  ShardedExecutionContext engine(3);
  for (const SchedulerKind sched :
       {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
        SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo}) {
    for (const double duplicate : {0.0, 0.05}) {
      RunOptions opts = faulty_options(sched, duplicate);
      if (sched == SchedulerKind::kAsyncFifo ||
          sched == SchedulerKind::kAsyncLifo) {
        opts.fault.delay = 0.0;
      }
      expect_identical(g, 3, advice, flooding, opts, engine,
                       std::string(to_string(sched)) + " dup=" +
                           std::to_string(duplicate));
    }
  }
  // Extra delay alone, wide enough to fill the 64-key ring: sync keys span
  // max_extra_delay + 2 values, async-random max_delay + max_extra_delay + 1.
  for (const auto& [sched, extra] :
       {std::pair{SchedulerKind::kSynchronous, 62u},
        std::pair{SchedulerKind::kAsyncRandom, 47u}}) {
    RunOptions opts;
    opts.scheduler = sched;
    opts.seed = 1234;
    opts.fault.seed = 88;
    opts.fault.delay = 0.3;
    opts.fault.max_extra_delay = extra;
    ASSERT_EQ(Scheduler::delivery_order(sched, opts.max_delay, opts.fault),
              DeliveryOrder::kRing);
    expect_identical(g, 3, advice, flooding, opts, engine,
                     std::string(to_string(sched)) + " delay only");
  }
}

TEST(ShardedEngine, LegacyTraceVectorMatches) {
  // The transmission stream at TraceLevel::kMessages — every send and
  // delivery — must match event for event; a sink routes the run through
  // the serial finalizer.
  Rng rng(77);
  const PortGraph g = make_random_connected(50, 0.1, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  ExecutionContext legacy;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncFifo;
  auto record = [&](auto& context) {
    TraceRecorder recorder(TraceLevel::kMessages);
    RunOptions with_sink = opts;
    with_sink.trace_sink = &recorder;
    const RunResult r =
        context.run(g, 0, advice, FloodingAlgorithm(), with_sink);
    return std::make_pair(r, recorder.take().events);
  };
  const auto want = record(legacy);
  const auto got = record(engine);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.second, want.second);
  EXPECT_FALSE(want.second.empty());  // the comparison actually saw a trace
  EXPECT_FALSE(engine.last_stats().fell_back);
}

TEST(ShardedEngine, SinkStreamDigestsMatch) {
  // The structured event stream — deliveries, fault decisions, informed
  // transitions, with their keys and seqs — must hash identically, both on
  // a clean run and under an armed fault plan.
  Rng rng(31);
  const PortGraph g = make_random_connected(40, 0.15, rng);
  const TreeWakeupOracle oracle;
  const CensusAlgorithm census;
  const std::vector<BitString> advice = advice_for(g, 2, oracle);
  for (const bool faulty : {false, true}) {
    RunOptions opts = faulty ? faulty_options(SchedulerKind::kAsyncRandom, 0.05)
                             : RunOptions{};
    auto digest_of = [&](auto& engine) {
      TraceRecorder recorder;
      RunOptions with_sink = opts;
      with_sink.trace_sink = &recorder;
      engine.run(g, 2, advice, census, with_sink);
      return recorder.take().digest();
    };
    ExecutionContext legacy;
    ShardedExecutionContext sharded(3);
    EXPECT_EQ(digest_of(sharded), digest_of(legacy))
        << (faulty ? "faulty" : "reliable");
  }
}

TEST(ShardedEngine, BudgetViolationFallsBackToIdenticalResult) {
  Rng rng(13);
  const PortGraph g = make_random_connected(40, 0.2, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  RunOptions opts;
  opts.max_messages = 25;  // mid-run budget crossing → violation
  const RunResult want =
      expect_identical(g, 0, advice, FloodingAlgorithm(), opts, engine,
                       "message budget");
  EXPECT_EQ(want.status, RunStatus::kBudgetExhausted);
  EXPECT_TRUE(engine.last_stats().fell_back);
  EXPECT_EQ(engine.last_stats().epochs, 0u);
}

TEST(ShardedEngine, MaxEventsSweepMatchesAtEveryCutoff) {
  // max_events can land exactly on an epoch boundary (handled in place) or
  // inside one (fallback). Sweeping every cutoff exercises both, and the
  // result must match the legacy engine at each.
  const PortGraph g = make_grid(4, 5);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(3);
  ExecutionContext legacy;
  RunOptions probe;
  const std::uint64_t total_events =
      legacy.run(g, 0, advice, FloodingAlgorithm(), probe).metrics.deliveries;
  ASSERT_GT(total_events, 10u);
  for (std::uint64_t cap = 1; cap <= total_events + 1; ++cap) {
    RunOptions opts;
    opts.max_events = cap;
    expect_identical(g, 0, advice, FloodingAlgorithm(), opts, engine,
                     "max_events=" + std::to_string(cap));
  }
}

TEST(ShardedEngine, WakeupViolationFallsBackToIdenticalResult) {
  // SpontaneousFlood transmits before being informed, so enforcing wakeup
  // trips a violation in the very first barrier: the sharded attempt aborts
  // and the replay must reproduce the violating run exactly (including the
  // violation string).
  Rng rng(9);
  const PortGraph g = make_random_connected(36, 0.15, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  RunOptions opts;
  opts.enforce_wakeup = true;
  const RunResult want =
      expect_identical(g, 0, advice, SpontaneousFlood(), opts, engine,
                       "wakeup violation");
  EXPECT_EQ(want.status, RunStatus::kTaskFailed);
  EXPECT_FALSE(want.violation.empty());
  EXPECT_TRUE(engine.last_stats().fell_back);
}

TEST(ShardedEngine, PreconditionExceptionsMatchLegacy) {
  const PortGraph g = make_path(10);
  const std::vector<BitString> advice(9);  // wrong size
  ShardedExecutionContext engine(2);
  EXPECT_THROW(engine.run(g, 0, advice, FloodingAlgorithm(), RunOptions{}),
               std::invalid_argument);
  const std::vector<BitString> ok(10);
  EXPECT_THROW(engine.run(g, 99, ok, FloodingAlgorithm(), RunOptions{}),
               std::invalid_argument);
}

TEST(ShardedEngine, UnfrozenGraphThrows) {
  PortGraph g(64);
  for (NodeId v = 0; v + 1 < 64; ++v) g.add_edge_auto(v, v + 1);
  const std::vector<BitString> advice(64);
  ShardedExecutionContext engine(4);
  EXPECT_THROW(engine.run(g, 0, advice, FloodingAlgorithm(), RunOptions{}),
               std::invalid_argument);
  g.freeze();
  EXPECT_TRUE(
      engine.run(g, 0, advice, FloodingAlgorithm(), RunOptions{}).all_informed);
}

TEST(ShardedEngine, ContextReusesAcrossHeterogeneousRuns) {
  // One engine, many graphs/algorithms/schedulers in sequence — behavior
  // pools, heaps, and partitions must all reset correctly between runs.
  Rng rng(55);
  ShardedExecutionContext engine(3);
  const std::vector<PortGraph> graphs = {make_grid(5, 8),
                                         make_random_connected(45, 0.1, rng),
                                         make_path(30)};
  for (int round = 0; round < 2; ++round) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const PortGraph& g = graphs[gi];
      RunOptions opts;
      opts.scheduler = (gi % 2 == 0) ? SchedulerKind::kSynchronous
                                     : SchedulerKind::kAsyncRandom;
      opts.seed = 7 * (round + 1);
      expect_identical(g, 0, advice_for(g, 0, NullOracle()),
                       FloodingAlgorithm(), opts, engine,
                       "reuse round " + std::to_string(round) + " graph " +
                           std::to_string(gi));
    }
  }
}

TEST(ShardedEngine, ManyEpochHandoffsStayIdentical) {
  // A long path floods one hop per epoch: thousands of worker-pool handoffs
  // in a single run. This is the regression surface for pool-generation
  // bugs — a worker that oversleeps one barrier must neither call a
  // destroyed task closure nor disturb the next cycle's claim counters
  // (originally found by ASan only at bench scale).
  const PortGraph g = make_path(1500);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  expect_identical(g, 0, advice, FloodingAlgorithm(), RunOptions{}, engine,
                   "long path");
  EXPECT_FALSE(engine.last_stats().fell_back);
  EXPECT_GT(engine.last_stats().epochs, 1000u);
}

TEST(ShardedEngine, TinyGraphRunsOnLegacyPath) {
  // A graph too small to shard (partition collapses to 1) must still run —
  // through the embedded single-threaded engine — and report shards = 1.
  const PortGraph g = make_path(1);
  const std::vector<BitString> advice(1);
  ShardedExecutionContext engine(8);
  const RunResult got =
      engine.run(g, 0, advice, FloodingAlgorithm(), RunOptions{});
  EXPECT_EQ(got.status, RunStatus::kCompleted);
  EXPECT_EQ(engine.last_stats().shards, 1u);
  EXPECT_FALSE(engine.last_stats().fell_back);
}

TEST(ShardedEngine, BatchRunnerRoutesBigTrialsThroughShardPolicy) {
  Rng rng(66);
  const PortGraph big = make_random_connected(80, 0.1, rng);
  const PortGraph small = make_grid(3, 4);
  const NullOracle oracle;
  const FloodingAlgorithm flooding;
  std::vector<TrialSpec> specs;
  for (NodeId src : {0u, 5u, 11u}) specs.push_back({&big, src, &oracle,
                                                    &flooding});
  for (NodeId src : {0u, 3u}) specs.push_back({&small, src, &oracle,
                                               &flooding});

  ShardPolicy policy;
  policy.shards = 3;
  policy.min_nodes = 50;
  BatchStats plain_stats, sharded_stats;
  const std::vector<TaskReport> plain =
      BatchRunner(2).run(specs, &plain_stats);
  const std::vector<TaskReport> sharded =
      BatchRunner(2, true, RetryPolicy{}, policy).run(specs, &sharded_stats);
  ASSERT_EQ(plain.size(), sharded.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(sharded[i].run, plain[i].run) << "spec " << i;
    EXPECT_EQ(plain[i].shards, 1u);
    if (specs[i].graph == &big) {
      EXPECT_EQ(sharded[i].shards, 3u) << "spec " << i;
      EXPECT_GT(sharded[i].epochs, 0u);
    } else {
      EXPECT_EQ(sharded[i].shards, 1u) << "spec " << i;
      EXPECT_EQ(sharded[i].epochs, 0u);
    }
  }
  // The new aggregate counters surface in the metrics snapshot (new keys
  // only — plain batches carry zeros).
  EXPECT_EQ(sharded_stats.metrics.counters.at("sharded_trials"), 3u);
  EXPECT_EQ(plain_stats.metrics.counters.at("sharded_trials"), 0u);
  EXPECT_GT(sharded_stats.metrics.counters.at("sharded_epochs"), 0u);
  EXPECT_GT(sharded_stats.metrics.counters.at("cross_shard_messages"), 0u);
}

TEST(ShardedEngine, ShardPolicyDisabledByDefault) {
  const ShardPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_EQ(BatchRunner().shard().min_nodes, 0u);
}

}  // namespace
}  // namespace oraclesize
