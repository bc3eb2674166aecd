// The sharded engine's whole contract is a single sentence — bit-identical
// to the single-threaded engine at any shard count — so every test here is
// some variant of "run both, compare everything". RunResult's defaulted
// operator== covers metrics, faults, statuses, traces, and per-node
// vectors in one expression; the sink tests extend the comparison to the
// structured event stream via trace digests.
#include <gtest/gtest.h>
#include <sched.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "sim/sharded_engine.h"
#include "sim/trace_recorder.h"
#include "util/cpus.h"

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

/// expect_identical with a TraceRecorder on each side: the sink streams
/// must match event for event too.
void expect_identical_traced(const PortGraph& g, NodeId source,
                             const std::vector<BitString>& advice,
                             const Algorithm& algorithm, RunOptions options,
                             ShardedExecutionContext& sharded,
                             const std::string& context_msg) {
  TraceRecorder want_trace, got_trace;
  options.trace_sink = &want_trace;
  ExecutionContext legacy;
  const RunResult want = legacy.run(g, source, advice, algorithm, options);
  options.trace_sink = &got_trace;
  EXPECT_EQ(sharded.run(g, source, advice, algorithm, options), want)
      << context_msg;
  const std::vector<TraceEvent> want_events = want_trace.take().events;
  EXPECT_FALSE(want_events.empty()) << context_msg;
  EXPECT_EQ(got_trace.take().events, want_events) << context_msg;
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

TEST(ShardedEngine, FaultMatrixMatchesOnTheOneFinalizer) {
  // The full fault matrix under every scheduler, with and without
  // duplication, each cell plain, traced and under a max_events cap past
  // the run's end, at four shard counts. sync, async-random and
  // async-link-fifo stay sharded; duplication goes to the embedded scalar
  // engine up front (a send's fault decides whether it uses one sequence
  // number or two), and so do async-fifo and async-lifo, whose keys under
  // extra delay collide and fall below the epoch key. Every cell must
  // equal the scalar run, sink stream included.
  Rng rng(21);
  const PortGraph g = make_random_connected(48, 0.12, rng);
  const NullOracle oracle;
  const FloodingAlgorithm flooding;
  const std::vector<BitString> advice = advice_for(g, 3, oracle);
  for (const std::uint32_t shards : {2u, 3u, 4u, 8u}) {
    ShardedExecutionContext engine(shards);
    for (const SchedulerKind sched :
         {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
          SchedulerKind::kAsyncLinkFifo, SchedulerKind::kAsyncFifo,
          SchedulerKind::kAsyncLifo}) {
      const bool serial_by_nature = sched == SchedulerKind::kAsyncFifo ||
                                    sched == SchedulerKind::kAsyncLifo;
      for (const double duplicate : {0.0, 0.05}) {
        FallbackReason want = FallbackReason::kNone;
        if (serial_by_nature) {
          want = FallbackReason::kScheduler;
        } else if (duplicate > 0) {
          want = FallbackReason::kDuplicate;
        }
        for (const std::string_view run : {"plain", "traced", "capped"}) {
          const std::string cell =
              std::string(to_string(sched)) + " dup=" +
              std::to_string(duplicate) + " " + std::string(run) +
              " shards " + std::to_string(shards);
          RunOptions opts = faulty_options(sched, duplicate);
          if (run == "capped") opts.max_events = 1'000'000;
          if (run == "traced") {
            expect_identical_traced(g, 3, advice, flooding, opts, engine,
                                    cell);
          } else {
            expect_identical(g, 3, advice, flooding, opts, engine, cell);
          }
          EXPECT_EQ(engine.last_stats().fell_back,
                    want != FallbackReason::kNone)
              << cell;
          EXPECT_EQ(engine.last_stats().fallback, want) << cell;
          if (want == FallbackReason::kNone) {
            EXPECT_EQ(engine.last_stats().shards, shards) << cell;
          }
        }
      }
    }
  }
  ShardedExecutionContext engine(3);
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
    EXPECT_FALSE(engine.last_stats().fell_back);
  }
}

TEST(ShardedEngine, FifoAndLifoUnderExtraDelayMatchWithAndWithoutSink) {
  // Extra delay lets async-fifo and async-lifo keys collide and fall below
  // the current epoch key, which no epoch barrier can reproduce: these
  // flooding runs diverged from the legacy engine when they were sharded.
  Rng rng(64);
  const PortGraph g = make_random_connected(64, 0.15, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(2);
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      RunOptions opts;
      opts.scheduler = sched;
      opts.fault.seed = seed;
      opts.fault.delay = 0.05 * static_cast<double>(seed);
      opts.fault.max_extra_delay = 1 + static_cast<std::uint32_t>(seed % 6);
      for (const bool traced : {false, true}) {
        TraceRecorder recorder;
        RunOptions run_opts = opts;
        if (traced) run_opts.trace_sink = &recorder;
        const std::string cell = std::string(to_string(sched)) + " seed " +
                                 std::to_string(seed) +
                                 (traced ? " traced" : "");
        expect_identical(g, 0, advice, FloodingAlgorithm(), run_opts, engine,
                         cell);
        EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kScheduler)
            << cell;
      }
    }
  }
}

TEST(ShardedEngine, RingFloorFollowsTheEpochKey) {
  // async-random keys stay within max_delay + 1 of the key being processed,
  // so each shard's queue is a 64-key bucket ring. A shard that popped
  // nothing for many epochs must still read its mail against the current
  // epoch key: against its own last pop it would alias keys into the wrong
  // buckets and pop them out of order.
  Rng rng(2718);
  const PortGraph grid = make_grid(6, 60);
  const PortGraph sparse = make_random_connected_sparse(380, 95, rng);
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast;
  const FloodingAlgorithm flooding;
  for (const PortGraph* g : {&grid, &sparse}) {
    for (const std::uint32_t shards : {4u, 7u}) {
      ShardedExecutionContext engine(shards);
      for (const std::uint32_t max_delay : {26u, 43u}) {
        RunOptions opts;
        opts.scheduler = SchedulerKind::kAsyncRandom;
        opts.seed = max_delay;
        opts.max_delay = max_delay;
        ASSERT_EQ(Scheduler::delivery_order(opts.scheduler, max_delay,
                                            opts.fault),
                  DeliveryOrder::kRing);
        const std::string cell = "n " + std::to_string(g->num_nodes()) +
                                 " shards " + std::to_string(shards) +
                                 " max_delay " + std::to_string(max_delay);
        expect_identical(*g, 0, advice_for(*g, 0, NullOracle()), flooding,
                         opts, engine, cell + " flooding");
        expect_identical(*g, 0, advice_for(*g, 0, broadcast_oracle),
                         broadcast, opts, engine, cell + " broadcast-B");
        EXPECT_FALSE(engine.last_stats().fell_back) << cell;
      }
    }
  }
}

TEST(ShardedEngine, LegacyTraceVectorMatches) {
  // The transmission stream at TraceLevel::kMessages — every send and
  // delivery — must match event for event: phase A buffers the delivery
  // side and phase B the send side, spliced in rank order.
  Rng rng(77);
  const PortGraph g = make_random_connected(50, 0.1, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  ExecutionContext legacy;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
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
  EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kBudget);
  EXPECT_EQ(engine.last_stats().epochs, 0u);
  // The same crossing with a sink attached: nothing of the discarded
  // attempt reaches it.
  TraceRecorder recorder;
  opts.trace_sink = &recorder;
  expect_identical(g, 0, advice, FloodingAlgorithm(), opts, engine,
                   "message budget, traced");
  EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kBudget);
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
  std::size_t inside = 0;
  for (std::uint64_t cap = 1; cap <= total_events + 1; ++cap) {
    RunOptions opts;
    opts.max_events = cap;
    expect_identical(g, 0, advice, FloodingAlgorithm(), opts, engine,
                     "max_events=" + std::to_string(cap));
    const ShardedRunStats& st = engine.last_stats();
    EXPECT_EQ(st.fallback, st.fell_back ? FallbackReason::kMaxEvents
                                        : FallbackReason::kNone)
        << "max_events=" << cap;
    inside += st.fell_back ? 1 : 0;
  }
  // Some cutoffs land inside an epoch, some on its edge.
  EXPECT_GT(inside, 0u);
  EXPECT_LT(inside, total_events + 1);
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
  EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kViolation);
}

TEST(ShardedEngine, UpFrontRoutesReportTheirReason) {
  // Byzantine plans and the adversarial scheduler follow global delivery
  // order, and duplication chains the sequence numbers; they never start a
  // sharded attempt.
  Rng rng(17);
  const PortGraph g = make_random_connected(48, 0.12, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  ShardedExecutionContext engine(4);
  RunOptions byzantine;
  byzantine.adversary.seed = 5;
  byzantine.adversary.byz_rate = 0.25;
  expect_identical(g, 0, advice, FloodingAlgorithm(), byzantine, engine,
                   "byzantine");
  EXPECT_TRUE(engine.last_stats().fell_back);
  EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kAdversary);
  RunOptions adversarial;
  adversarial.scheduler = SchedulerKind::kAsyncAdversarial;
  expect_identical(g, 0, advice, FloodingAlgorithm(), adversarial, engine,
                   "adversarial scheduler");
  EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kScheduler);
  // A duplicated send uses two sequence numbers, so each event's first
  // number depends on every earlier send's fault: a serial chain.
  RunOptions duplication;
  duplication.fault.seed = 9;
  duplication.fault.duplicate = 0.1;
  expect_identical(g, 0, advice, FloodingAlgorithm(), duplication, engine,
                   "duplication");
  EXPECT_TRUE(engine.last_stats().fell_back);
  EXPECT_EQ(engine.last_stats().fallback, FallbackReason::kDuplicate);
  EXPECT_EQ(engine.last_stats().epochs, 0u);
}

TEST(ShardedEngine, BehaviorExceptionFallsBackWithItsReason) {
  // Flipped advice bits make the wakeup decoder throw on some nodes; the
  // faulty scalar engine turns that into a structured failure, and the
  // sharded attempt hands the run to it.
  Rng rng(23);
  const PortGraph g = make_random_connected(60, 0.1, rng);
  const std::vector<BitString> advice = advice_for(g, 0, TreeWakeupOracle());
  ShardedExecutionContext engine(3);
  std::size_t thrown = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunOptions opts;
    opts.enforce_wakeup = true;
    opts.fault.seed = seed;
    opts.fault.advice_flip = 0.2;
    const RunResult want =
        expect_identical(g, 0, advice, WakeupTreeAlgorithm(), opts, engine,
                         "advice flip seed " + std::to_string(seed));
    if (want.violation.rfind("behavior exception", 0) == 0) {
      ++thrown;
      EXPECT_EQ(engine.last_stats().fallback,
                FallbackReason::kBehaviorException);
    }
  }
  EXPECT_GT(thrown, 0u);
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

TEST(ShardedEngine, BarrierSurvivesParkingAndTeardown) {
  // Helpers spin for a bounded time after every pass and then park on
  // std::atomic::wait. Many short runs separated by pauses around and far
  // past that bound make them park and wake again, mid-run and between
  // runs; contexts are destroyed both right after a run, while their
  // helpers still spin, and after a pause, while they sleep. Every third
  // run alternates a traced run and a link-fifo run, whose phase B records
  // send-side events or advances link clocks on every shard. Every run
  // must match the legacy engine, trace stream included.
  Rng rng(41);
  const PortGraph g = make_random_connected_sparse(90, 40, rng);
  const std::vector<BitString> advice = advice_for(g, 0, NullOracle());
  RunOptions plain;
  plain.scheduler = SchedulerKind::kAsyncRandom;
  plain.seed = 3;
  RunOptions link_fifo = plain;
  link_fifo.scheduler = SchedulerKind::kAsyncLinkFifo;
  ExecutionContext legacy;
  TraceRecorder recorder;
  RunOptions traced = plain;
  traced.trace_sink = &recorder;
  const RunResult want_plain =
      legacy.run(g, 0, advice, FloodingAlgorithm(), plain);
  const RunResult want_fifo =
      legacy.run(g, 0, advice, FloodingAlgorithm(), link_fifo);
  (void)legacy.run(g, 0, advice, FloodingAlgorithm(), traced);
  const std::uint64_t want_digest = recorder.take().digest();
  // One of the three runs, checked against the legacy engine's answer.
  enum Run { kPlain, kTraced, kLinkFifo };
  auto check = [&](ShardedExecutionContext& engine, Run run) {
    switch (run) {
      case kTraced:
        return engine.run(g, 0, advice, FloodingAlgorithm(), traced) ==
                   want_plain &&
               recorder.take().digest() == want_digest;
      case kLinkFifo:
        return engine.run(g, 0, advice, FloodingAlgorithm(), link_fifo) ==
               want_fifo;
      default:
        return engine.run(g, 0, advice, FloodingAlgorithm(), plain) ==
               want_plain;
    }
  };
  const std::chrono::microseconds pauses[] = {
      std::chrono::microseconds(0), std::chrono::microseconds(40),
      std::chrono::microseconds(70), std::chrono::microseconds(300),
      std::chrono::microseconds(2000)};
  ShardedExecutionContext engine(4);
  for (int round = 0; round < 60; ++round) {
    std::this_thread::sleep_for(pauses[round % 5]);
    const Run run = round % 3 != 0       ? kPlain
                    : (round / 3) % 2 != 0 ? kLinkFifo
                                           : kTraced;
    ASSERT_TRUE(check(engine, run)) << "round " << round;
    ASSERT_FALSE(engine.last_stats().fell_back) << "round " << round;
    {
      ShardedExecutionContext spinning(3);
      ASSERT_TRUE(check(spinning, kPlain)) << "round " << round;
    }  // destroyed while its helpers spin
    if (round % 10 == 0) {
      ShardedExecutionContext sleeping(2);
      ASSERT_TRUE(check(sleeping, round % 20 != 0 ? kLinkFifo : kTraced))
          << "round " << round;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }  // destroyed while its helpers sleep
  }
  ShardedExecutionContext never_ran(4);  // no pool was ever started
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
  // Two big trials the sharded engine hands to its scalar engine, for two
  // reasons: duplication up front, a budget crossing inside an epoch.
  RunOptions duplication;
  duplication.fault.seed = 4;
  duplication.fault.duplicate = 0.1;
  specs.push_back({&big, 7, &oracle, &flooding, duplication});
  RunOptions budget;
  budget.max_messages = 25;
  specs.push_back({&big, 9, &oracle, &flooding, budget});

  ShardPolicy policy;
  policy.shards = 3;
  policy.min_nodes = 50;
  BatchStats plain_stats, sharded_stats, sharded_stats_4;
  const std::vector<TaskReport> plain =
      BatchRunner(2).run(specs, &plain_stats);
  const std::vector<TaskReport> sharded =
      BatchRunner(1, true, RetryPolicy{}, policy).run(specs, &sharded_stats);
  const std::vector<TaskReport> sharded_4 =
      BatchRunner(4, true, RetryPolicy{}, policy).run(specs, &sharded_stats_4);
  ASSERT_EQ(plain.size(), sharded.size());
  ASSERT_EQ(sharded_4.size(), sharded.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(sharded[i].run, plain[i].run) << "spec " << i;
    EXPECT_EQ(sharded_4[i].run, plain[i].run) << "spec " << i;
    EXPECT_EQ(sharded_4[i].fallback, sharded[i].fallback) << "spec " << i;
    EXPECT_EQ(plain[i].shards, 1u);
    EXPECT_EQ(plain[i].fallback, FallbackReason::kNone);
    if (i < 3) {  // the clean big trials
      EXPECT_EQ(sharded[i].shards, 3u) << "spec " << i;
      EXPECT_GT(sharded[i].epochs, 0u);
      EXPECT_EQ(sharded[i].fallback, FallbackReason::kNone);
    } else {
      EXPECT_EQ(sharded[i].shards, 1u) << "spec " << i;
      EXPECT_EQ(sharded[i].epochs, 0u);
    }
  }
  EXPECT_EQ(sharded[3].fallback, FallbackReason::kNone);  // small: unclaimed
  EXPECT_EQ(sharded[5].fallback, FallbackReason::kDuplicate);
  EXPECT_EQ(sharded[6].fallback, FallbackReason::kBudget);
  // The aggregate counters surface in the metrics snapshot, one fallback
  // counter per reason, and read the same at any jobs().
  const auto& counters = sharded_stats.metrics.counters;
  EXPECT_EQ(counters.at("sharded_trials"), 3u);
  EXPECT_EQ(plain_stats.metrics.counters.at("sharded_trials"), 0u);
  EXPECT_GT(counters.at("sharded_epochs"), 0u);
  EXPECT_GT(counters.at("cross_shard_messages"), 0u);
  for (std::size_t r = 1; r < kFallbackReasons; ++r) {
    const auto reason = static_cast<FallbackReason>(r);
    const std::string name =
        std::string("sharded_fallback_") + to_string(reason);
    const bool hit = reason == FallbackReason::kDuplicate ||
                     reason == FallbackReason::kBudget;
    EXPECT_EQ(counters.at(name), hit ? 1u : 0u) << name;
    EXPECT_EQ(plain_stats.metrics.counters.at(name), 0u) << name;
  }
  EXPECT_EQ(sharded_stats_4.metrics, sharded_stats.metrics);
}

TEST(ShardedEngine, AutomaticCountsFollowTheAffinityMask) {
  // "0 = automatic" means one worker per CPU this thread may run on: a
  // thread pinned to one CPU gets one job, one shard and one partition.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  EXPECT_EQ(usable_cpus(), 1u);
  EXPECT_EQ(BatchRunner(0).jobs(), 1u);
  EXPECT_EQ(ShardedExecutionContext(0).configured_shards(), 1u);
  EXPECT_EQ(make_partition(make_grid(8, 8), PartitionOptions{}).num_shards(),
            1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(usable_cpus(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}

TEST(ShardedEngine, ShardPolicyDisabledByDefault) {
  const ShardPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_EQ(BatchRunner().shard().min_nodes, 0u);
}

}  // namespace
}  // namespace oraclesize
