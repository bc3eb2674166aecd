// The seed-batched lockstep executor's contract, made exhaustive.
//
// Three layers, mirroring how the engine is used:
//
//  * SeedBatchEngine.*      — the engine itself: a 40-seed fuzz sweep over
//    every algorithm x {sync, async-random, async-lifo, async-link-fifo} x
//    fault rates {0, 0.01} demanding bit-identity with the scalar
//    ExecutionContext per lane (the seeded schedulers run counter-keyed,
//    with options.seed varying per lane — the key-class machinery), plus
//    the lane-retirement edge cases (first lane dies, last lane dies,
//    all-but-one die, all die), key-class order-split retirement,
//    eligibility fallbacks, budget statuses, and the behavior-exception
//    split.
//  * SeedFamily.*           — seed_family_key: blind to the two seeds,
//    sensitive to every other RunOptions field, each changed in turn.
//  * SeedBatchRunner.*      — BatchRunner's family collapsing: families
//    reproduce one-spec batches report for report (including retried
//    attempts), stats account for lanes, a batch mixing every unit kind is
//    jobs-invariant, and the cache-off/sharded paths stay scalar.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/batch_runner.h"
#include "core/replay.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

using Lane = SeedBatchExecutionContext::Lane;
using Disposition = SeedBatchExecutionContext::LaneDisposition;

PortGraph fuzz_graph() {
  Rng rng(515151);
  return make_random_connected(48, 0.12, rng);
}

/// The oracle each algorithm is designed to pair with (the replay matrix's
/// pairing).
std::unique_ptr<Oracle> oracle_for(const std::string& algorithm) {
  if (algorithm == "broadcast-B") {
    return std::make_unique<LightBroadcastOracle>();
  }
  if (algorithm == "flooding") return std::make_unique<NullOracle>();
  if (algorithm == "hybrid-wakeup") {
    return std::make_unique<PartialTreeOracle>(0.5, 7);
  }
  return std::make_unique<TreeWakeupOracle>();
}

/// Whether a scalar run consumed any fault at all — exactly the engine's
/// shared/replay split: a lane stays on the clean stream iff nothing
/// materialized in its own stream.
bool fault_free(const RunResult& r) {
  const FaultCounters& f = r.faults;
  return f.dropped == 0 && f.duplicated == 0 && f.delayed == 0 &&
         f.crashed_nodes == 0 && f.advice_bits_flipped == 0;
}

TEST(SeedBatchEngine, FuzzFortySeedsBitIdenticalAcrossMatrix) {
  const PortGraph g = fuzz_graph();
  constexpr NodeId kSource = 3;
  constexpr std::size_t kLanes = 40;
  SeedBatchExecutionContext batched;
  ExecutionContext scalar;
  int cells = 0;
  for (const std::string& name : known_algorithms()) {
    const Algorithm* algorithm = algorithm_by_name(name);
    ASSERT_NE(algorithm, nullptr) << name;
    const std::unique_ptr<Oracle> oracle = oracle_for(name);
    const std::vector<BitString> advice = oracle->advise(g, kSource);
    for (const SchedulerKind sched :
         {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
          SchedulerKind::kAsyncLifo, SchedulerKind::kAsyncLinkFifo}) {
      for (const double rate : {0.0, 0.01}) {
        RunOptions base;
        base.scheduler = sched;
        base.enforce_wakeup = algorithm->is_wakeup();
        base.fault.drop = rate;
        base.fault.duplicate = rate;
        base.fault.delay = rate;
        base.fault.crash = rate;
        base.fault.advice_flip = rate / 2;
        std::vector<Lane> lanes;
        for (std::size_t l = 0; l < kLanes; ++l) {
          lanes.push_back({1000 + 7 * l, 90000 + 13 * l});
        }
        const std::vector<RunResult> got =
            batched.run(g, kSource, advice, *algorithm, base, lanes);
        ASSERT_EQ(got.size(), kLanes);
        const SeedBatchStats stats = batched.last_stats();
        EXPECT_EQ(stats.lanes, kLanes);
        EXPECT_EQ(stats.shared + stats.replayed, kLanes);
        if (sched == SchedulerKind::kAsyncRandom ||
            sched == SchedulerKind::kAsyncLinkFifo) {
          // Counter-keyed seeded scheduler: the pass runs with one key
          // class per scheduler seed. On this branching graph most
          // classes split from the driver's order and retire, but the
          // driver class itself always survives a fault-free pass.
          EXPECT_TRUE(stats.lockstep_ran);
          if (rate == 0.0) {
            EXPECT_GE(stats.shared, 1u);
          }
        } else if (rate == 0.0) {
          // Fault-free family on a pure scheduler: one pass serves all.
          EXPECT_TRUE(stats.lockstep_ran);
          EXPECT_EQ(stats.shared, kLanes);
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          RunOptions options = base;
          options.seed = lanes[l].seed;
          options.fault.seed = lanes[l].fault_seed;
          const RunResult want =
              scalar.run(g, kSource, advice, *algorithm, options);
          EXPECT_EQ(got[l], want)
              << name << " " << to_string(sched) << " rate=" << rate
              << " lane=" << l;
        }
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 48);  // 6 algorithms x 4 schedulers x 2 rates
}

TEST(SeedBatchEngine, CounterKeyedSeedAxisSharesOnSequentialWorkloads) {
  // A tree-cast down a path keeps exactly one message in flight, so every
  // scheduler-seed key class agrees on the delivery ORDER even though each
  // assigns different delivery KEYS — the whole 40-wide seed axis rides a
  // single pass. This is the workload shape behind the perf_schedbatch
  // floor rows.
  const PortGraph g = make_path(64);
  const TreeWakeupOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ASSERT_NE(wakeup, nullptr);
  ExecutionContext scalar;
  for (const SchedulerKind sched :
       {SchedulerKind::kAsyncRandom, SchedulerKind::kAsyncLinkFifo}) {
    RunOptions base;
    base.scheduler = sched;
    base.enforce_wakeup = true;
    std::vector<Lane> lanes;
    for (std::size_t l = 0; l < 40; ++l) lanes.push_back({1 + 13 * l, 0});
    SeedBatchExecutionContext batched;
    const std::vector<RunResult> got =
        batched.run(g, 0, advice, *wakeup, base, lanes);
    const SeedBatchStats stats = batched.last_stats();
    EXPECT_TRUE(stats.lockstep_ran) << to_string(sched);
    EXPECT_EQ(stats.shared, 40u) << to_string(sched);
    std::map<std::int64_t, int> completion_keys;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base;
      options.seed = lanes[l].seed;
      const RunResult want = scalar.run(g, 0, advice, *wakeup, options);
      EXPECT_EQ(got[l], want) << to_string(sched) << " lane " << l;
      ++completion_keys[got[l].metrics.completion_key];
    }
    // The per-class patching is real: different scheduler seeds yield
    // genuinely different completion keys out of the one shared pass.
    EXPECT_GT(completion_keys.size(), 1u) << to_string(sched);
  }
}

TEST(SeedBatchEngine, KeyClassOrderSplitRetiresToScalarReplay) {
  // A star's source fans out to every leaf at once, so the pending set is
  // wide and scheduler-seed classes disagree on pop order almost surely.
  // Disagreeing classes must retire to bit-exact scalar replays while the
  // driver class keeps the pass.
  const PortGraph g = make_star(9);
  const TreeWakeupOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ASSERT_NE(wakeup, nullptr);
  RunOptions base;
  base.scheduler = SchedulerKind::kAsyncRandom;
  base.max_delay = 64;
  base.enforce_wakeup = true;
  std::vector<Lane> lanes;
  for (std::size_t l = 0; l < 40; ++l) lanes.push_back({7 + 31 * l, 0});
  SeedBatchExecutionContext batched;
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, *wakeup, base, lanes);
  const SeedBatchStats stats = batched.last_stats();
  EXPECT_TRUE(stats.lockstep_ran);
  EXPECT_GE(stats.shared, 1u);
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(stats.shared + stats.replayed, 40u);
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base;
    options.seed = lanes[l].seed;
    EXPECT_EQ(got[l], scalar.run(g, 0, advice, *wakeup, options))
        << "lane " << l;
  }
}

/// Scans fault seeds on a small drop-only regime and splits them into
/// lanes that stay clean vs lanes that diverge, then exercises every
/// retirement shape. Deterministic: the classification is a pure function
/// of the seeds.
class SeedBatchRetirementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    graph_ = make_random_tree(12, rng);
    oracle_ = std::make_unique<TreeWakeupOracle>();
    algorithm_ = algorithm_by_name("wakeup-tree");
    ASSERT_NE(algorithm_, nullptr);
    advice_ = oracle_->advise(graph_, 0);
    base_.enforce_wakeup = true;
    base_.fault.drop = 0.02;
    ExecutionContext scalar;
    for (std::uint64_t s = 1; s <= 400; ++s) {
      RunOptions options = base_;
      options.fault.seed = s;
      const RunResult r =
          scalar.run(graph_, 0, advice_, *algorithm_, options);
      (fault_free(r) ? clean_ : diverging_).push_back(s);
      if (clean_.size() >= 4 && diverging_.size() >= 4) break;
    }
    ASSERT_GE(clean_.size(), 4u) << "seed scan found too few clean lanes";
    ASSERT_GE(diverging_.size(), 4u)
        << "seed scan found too few diverging lanes";
  }

  void check(const std::vector<std::uint64_t>& fault_seeds,
             const std::vector<Disposition>& want_disp) {
    std::vector<Lane> lanes;
    for (const std::uint64_t s : fault_seeds) lanes.push_back({1, s});
    std::vector<Disposition> disp;
    SeedBatchExecutionContext batched;
    batched.run_lockstep(graph_, 0, advice_, *algorithm_, base_, lanes,
                         disp);
    EXPECT_EQ(disp, want_disp);
    // And the full per-lane results still match scalar bit for bit.
    const std::vector<RunResult> got =
        batched.run(graph_, 0, advice_, *algorithm_, base_, lanes);
    ExecutionContext scalar;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base_;
      options.fault.seed = lanes[l].fault_seed;
      EXPECT_EQ(got[l], scalar.run(graph_, 0, advice_, *algorithm_, options))
          << "lane " << l;
    }
  }

  PortGraph graph_;
  std::unique_ptr<Oracle> oracle_;
  const Algorithm* algorithm_ = nullptr;
  std::vector<BitString> advice_;
  RunOptions base_;
  std::vector<std::uint64_t> clean_;
  std::vector<std::uint64_t> diverging_;
};

TEST_F(SeedBatchRetirementTest, FirstLaneDies) {
  check({diverging_[0], clean_[0], clean_[1], clean_[2]},
        {Disposition::kReplay, Disposition::kShared, Disposition::kShared,
         Disposition::kShared});
}

TEST_F(SeedBatchRetirementTest, LastLaneDies) {
  check({clean_[0], clean_[1], clean_[2], diverging_[1]},
        {Disposition::kShared, Disposition::kShared, Disposition::kShared,
         Disposition::kReplay});
}

TEST_F(SeedBatchRetirementTest, AllButOneDie) {
  check({diverging_[0], diverging_[1], diverging_[2], clean_[3]},
        {Disposition::kReplay, Disposition::kReplay, Disposition::kReplay,
         Disposition::kShared});
}

TEST_F(SeedBatchRetirementTest, AllLanesDieAndThePassAborts) {
  std::vector<Lane> lanes;
  for (int k = 0; k < 3; ++k) lanes.push_back({1, diverging_[k]});
  std::vector<Disposition> disp;
  SeedBatchExecutionContext batched;
  batched.run_lockstep(graph_, 0, advice_, *algorithm_, base_, lanes, disp);
  EXPECT_EQ(batched.last_stats().shared, 0u);
  EXPECT_EQ(batched.last_stats().replayed, 3u);
  for (const Disposition d : disp) EXPECT_EQ(d, Disposition::kReplay);
  // The convenience path still produces every lane correctly via replays.
  const std::vector<RunResult> got =
      batched.run(graph_, 0, advice_, *algorithm_, base_, lanes);
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base_;
    options.fault.seed = lanes[l].fault_seed;
    EXPECT_EQ(got[l], scalar.run(graph_, 0, advice_, *algorithm_, options));
  }
}

TEST(SeedBatchEngine, EligibilityGates) {
  RunOptions base;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncFifo;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncLifo;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  // Counter-keyed seeded schedulers batch as key classes.
  base.scheduler = SchedulerKind::kAsyncRandom;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncLinkFifo;
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
  base.scheduler = SchedulerKind::kAsyncAdversarial;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  base = RunOptions{};
  base.deadline_ns = 1;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  // Byzantine runs always execute scalar: forged content depends on the
  // delivery order of observed traffic, which lockstep cannot share.
  base = RunOptions{};
  base.adversary.byz_rate = 0.1;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  base = RunOptions{};
  base.adversary.byz_nodes = 2;
  EXPECT_FALSE(SeedBatchExecutionContext::lockstep_eligible(base));
  base = RunOptions{};
  base.adversary.seed = 99;  // seeded but empty: still the honest network
  EXPECT_TRUE(SeedBatchExecutionContext::lockstep_eligible(base));
}

TEST(SeedBatchEngine, ByzantineFamilyReplaysEveryLaneIdenticallyToScalar) {
  const PortGraph g = fuzz_graph();
  const LightBroadcastOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* broadcast = algorithm_by_name("broadcast-B");
  ASSERT_NE(broadcast, nullptr);
  RunOptions base;
  base.adversary.seed = 42;
  base.adversary.byz_rate = 0.2;
  std::vector<Lane> lanes = {{1, 0}, {2, 0}, {3, 0}};
  SeedBatchExecutionContext batched;
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, *broadcast, base, lanes);
  EXPECT_FALSE(batched.last_stats().lockstep_ran);
  EXPECT_EQ(batched.last_stats().replayed, 3u);
  ExecutionContext scalar;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    RunOptions options = base;
    options.seed = lanes[l].seed;
    const RunResult want = scalar.run(g, 0, advice, *broadcast, options);
    EXPECT_EQ(got[l], want) << "lane " << l;
    EXPECT_GT(want.adversary.lying_nodes, 0u) << "lane " << l;
  }
}

TEST(SeedBatchEngine, IneligibleFamilyReplaysEveryLane) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* flooding = algorithm_by_name("flooding");
  TraceRecorder recorder(TraceLevel::kMessages);
  RunOptions base;
  base.trace_sink = &recorder;  // an observed run: an unsupported feature
  std::vector<Lane> lanes = {{1, 0}, {2, 0}, {3, 0}};
  std::vector<Disposition> disp;
  SeedBatchExecutionContext batched;
  batched.run_lockstep(g, 0, advice, *flooding, base, lanes, disp);
  EXPECT_FALSE(batched.last_stats().lockstep_ran);
  EXPECT_EQ(batched.last_stats().replayed, 3u);
  // Replays honor the unsupported feature: the recorded traces match. The
  // recorder keeps the last run it saw — the final lane's replay.
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, *flooding, base, lanes);
  const std::vector<TraceEvent> got_events = recorder.take().events;
  ExecutionContext scalar;
  RunOptions options = base;
  options.seed = lanes.back().seed;
  const RunResult want = scalar.run(g, 0, advice, *flooding, options);
  EXPECT_FALSE(got_events.empty());
  EXPECT_EQ(got_events, recorder.trace().events);
  EXPECT_EQ(got.back(), want);
}

TEST(SeedBatchEngine, UnfrozenGraphThrows) {
  PortGraph g(4);
  for (NodeId v = 0; v + 1 < 4; ++v) g.add_edge_auto(v, v + 1);
  const std::vector<BitString> advice(4);
  const Algorithm* flooding = algorithm_by_name("flooding");
  std::vector<Disposition> disp;
  SeedBatchExecutionContext batched;
  EXPECT_THROW(batched.run_lockstep(g, 0, advice, *flooding, RunOptions{},
                                    {{1, 0}, {2, 0}}, disp),
               std::invalid_argument);
  g.freeze();
  batched.run_lockstep(g, 0, advice, *flooding, RunOptions{},
                       {{1, 0}, {2, 0}}, disp);
  EXPECT_EQ(batched.last_stats().shared, 2u);
}

TEST(SeedBatchEngine, EmptyLanesAndPreconditionErrors) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* flooding = algorithm_by_name("flooding");
  SeedBatchExecutionContext batched;
  std::vector<Disposition> disp;
  batched.run_lockstep(g, 0, advice, *flooding, RunOptions{}, {}, disp);
  EXPECT_TRUE(disp.empty());
  EXPECT_EQ(batched.last_stats().lanes, 0u);
  const std::vector<BitString> short_advice(3);
  EXPECT_THROW(batched.run_lockstep(g, 0, short_advice, *flooding,
                                    RunOptions{}, {{1, 0}}, disp),
               std::invalid_argument);
  EXPECT_THROW(batched.run_lockstep(g, g.num_nodes(), advice, *flooding,
                                    RunOptions{}, {{1, 0}}, disp),
               std::invalid_argument);
}

TEST(SeedBatchEngine, BudgetStatusesMatchScalar) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const Algorithm* flooding = algorithm_by_name("flooding");
  ExecutionContext scalar;
  SeedBatchExecutionContext batched;
  for (const bool by_events : {false, true}) {
    RunOptions base;
    if (by_events) {
      base.max_events = 5;
    } else {
      base.max_messages = 5;
    }
    std::vector<Lane> lanes = {{1, 0}, {2, 0}};
    const std::vector<RunResult> got =
        batched.run(g, 0, advice, *flooding, base, lanes);
    EXPECT_EQ(batched.last_stats().shared, 2u);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base;
      options.seed = lanes[l].seed;
      const RunResult want = scalar.run(g, 0, advice, *flooding, options);
      EXPECT_EQ(want.status, RunStatus::kBudgetExhausted);
      EXPECT_EQ(got[l], want);
    }
  }
}

/// Deliberately breaks the wakeup rule: every node transmits on the empty
/// history, source or not.
class EagerBehavior : public NodeBehavior {
 public:
  void on_start(const NodeInput& input, std::vector<Send>& out) override {
    for (Port p = 0; p < static_cast<Port>(input.degree); ++p) {
      out.push_back({Message{}, p});
    }
  }
  void on_receive(const NodeInput&, const Message&, Port,
                  std::vector<Send>&) override {}
};

class EagerAlgorithm : public Algorithm {
 public:
  std::unique_ptr<NodeBehavior> make_behavior(const NodeInput&) const override {
    return std::make_unique<EagerBehavior>();
  }
  std::string name() const override { return "eager-violator"; }
  bool is_wakeup() const override { return true; }
};

TEST(SeedBatchEngine, WakeupViolationIsSharedAndIdentical) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  const EagerAlgorithm eager;
  RunOptions base;
  base.enforce_wakeup = true;
  std::vector<Lane> lanes = {{1, 0}, {2, 0}, {3, 0}};
  SeedBatchExecutionContext batched;
  const std::vector<RunResult> got =
      batched.run(g, 0, advice, eager, base, lanes);
  EXPECT_EQ(batched.last_stats().shared, 3u);
  ExecutionContext scalar;
  RunOptions options = base;
  options.seed = 1;
  const RunResult want = scalar.run(g, 0, advice, eager, options);
  EXPECT_EQ(want.status, RunStatus::kTaskFailed);
  EXPECT_FALSE(want.violation.empty());
  EXPECT_EQ(got[0], want);
}

/// Behaviors that throw, from on_start or from the constructor — the two
/// scalar-engine exception sites whose fault/clean split the lockstep pass
/// must reproduce.
class ThrowingBehavior : public NodeBehavior {
 public:
  void on_start(const NodeInput&, std::vector<Send>&) override {
    throw std::runtime_error("scripted on_start failure");
  }
  void on_receive(const NodeInput&, const Message&, Port,
                  std::vector<Send>&) override {}
};

class ThrowOnStartAlgorithm : public Algorithm {
 public:
  std::unique_ptr<NodeBehavior> make_behavior(const NodeInput&) const override {
    return std::make_unique<ThrowingBehavior>();
  }
  std::string name() const override { return "throw-on-start"; }
};

class ThrowOnMakeAlgorithm : public Algorithm {
 public:
  std::unique_ptr<NodeBehavior> make_behavior(const NodeInput&) const override {
    throw std::runtime_error("scripted make_behavior failure");
  }
  std::string name() const override { return "throw-on-make"; }
};

TEST(SeedBatchEngine, BehaviorExceptionsFollowTheFaultSplit) {
  const PortGraph g = fuzz_graph();
  const NullOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 0);
  ExecutionContext scalar;
  for (const bool at_make : {false, true}) {
    const ThrowOnStartAlgorithm on_start;
    const ThrowOnMakeAlgorithm on_make;
    const Algorithm& algorithm =
        at_make ? static_cast<const Algorithm&>(on_make)
                : static_cast<const Algorithm&>(on_start);
    std::vector<Lane> lanes = {{1, 0}, {2, 0}};

    // Fault-free family: the scalar engine propagates, so replays must too.
    SeedBatchExecutionContext batched;
    EXPECT_THROW(batched.run(g, 0, advice, algorithm, RunOptions{}, lanes),
                 std::runtime_error);
    EXPECT_EQ(batched.last_stats().shared, 0u);

    // Fault-enabled family: the scalar engine absorbs the exception into a
    // kTaskFailed result; the shared pass serves it to every lane.
    RunOptions faulty;
    faulty.fault.delay = 0.01;
    const std::vector<RunResult> got =
        batched.run(g, 0, advice, algorithm, faulty, lanes);
    EXPECT_EQ(batched.last_stats().shared, 2u);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = faulty;
      options.seed = lanes[l].seed;
      options.fault.seed = lanes[l].fault_seed;
      const RunResult want = scalar.run(g, 0, advice, algorithm, options);
      EXPECT_EQ(want.status, RunStatus::kTaskFailed);
      EXPECT_EQ(got[l], want);
    }
  }
}

TEST(SeedBatchEngine, CrashAndAdviceFlipLanesRetireAtArm) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const std::vector<BitString> advice = oracle.advise(g, 3);
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  ExecutionContext scalar;
  for (const bool by_flip : {false, true}) {
    RunOptions base;
    base.enforce_wakeup = true;
    if (by_flip) {
      base.fault.advice_flip = 0.2;
    } else {
      base.fault.crash = 0.5;
    }
    std::vector<Lane> lanes;
    for (std::uint64_t s = 1; s <= 12; ++s) lanes.push_back({1, s});
    SeedBatchExecutionContext batched;
    const std::vector<RunResult> got =
        batched.run(g, 3, advice, *wakeup, base, lanes);
    // At these rates some lanes must retire before the pass starts.
    EXPECT_GT(batched.last_stats().replayed, 0u);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      RunOptions options = base;
      options.fault.seed = lanes[l].fault_seed;
      EXPECT_EQ(got[l], scalar.run(g, 3, advice, *wakeup, options))
          << (by_flip ? "advice_flip" : "crash") << " lane " << l;
    }
  }
}

/// Stands in for any value of an aggregate member during field counting.
struct AnyField {
  template <typename T>
  operator T() const;  // never defined: used in unevaluated contexts only
};

/// The number of members of aggregate T: the longest AnyField list that
/// brace-initializes it.
template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

/// Calls visit(leaf) on every leaf field of a RunOptions, descending into
/// its FaultPlanParams and AdversaryPlanParams. The structured bindings
/// follow field_count, so a field added to any of the three structs is
/// visited without touching this function (or, past 12 members, fails to
/// compile until an arm is added).
template <typename T, typename Visit>
void for_each_leaf(T& value, Visit& visit) {
  if constexpr (std::is_same_v<T, RunOptions> ||
                std::is_same_v<T, FaultPlanParams> ||
                std::is_same_v<T, AdversaryPlanParams>) {
    auto each = [&visit](auto&... fields) {
      (for_each_leaf(fields, visit), ...);
    };
    constexpr std::size_t n = field_count<T>();
    static_assert(n >= 9 && n <= 12, "add a binding arm for this size");
    if constexpr (n == 9) {
      auto& [a, b, c, d, e, f, g, h, i] = value;
      each(a, b, c, d, e, f, g, h, i);
    } else if constexpr (n == 10) {
      auto& [a, b, c, d, e, f, g, h, i, j] = value;
      each(a, b, c, d, e, f, g, h, i, j);
    } else if constexpr (n == 11) {
      auto& [a, b, c, d, e, f, g, h, i, j, k] = value;
      each(a, b, c, d, e, f, g, h, i, j, k);
    } else {
      auto& [a, b, c, d, e, f, g, h, i, j, k, l] = value;
      each(a, b, c, d, e, f, g, h, i, j, k, l);
    }
  } else {
    visit(value);
  }
}

/// Gives one leaf field a different value of its type.
template <typename T>
void change(T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = !field;
  } else if constexpr (std::is_enum_v<T>) {
    field = static_cast<T>(static_cast<std::underlying_type_t<T>>(field) + 1);
  } else if constexpr (std::is_pointer_v<T>) {
    static TraceRecorder sink;
    field = &sink;
  } else {
    field = field + 1;
  }
}

TEST(SeedFamily, KeyIsSeedBlindAndOtherwiseSensitive) {
  const PortGraph g = fuzz_graph();
  Rng rng(7);
  const PortGraph h = make_random_tree(10, rng);
  const TreeWakeupOracle oracle;
  const NullOracle null_oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const Algorithm* flooding = algorithm_by_name("flooding");

  TrialSpec a(&g, 3, &oracle, wakeup);
  TrialSpec b = a;
  b.options.seed = 999;
  b.options.fault.seed = 777;
  EXPECT_EQ(seed_family_key(a), seed_family_key(b));
  EXPECT_FALSE(seed_family_key(a) < seed_family_key(b));
  EXPECT_FALSE(seed_family_key(b) < seed_family_key(a));

  // Every RunOptions leaf field, changed alone: the two randomness seeds
  // leave the key alone; every other field changes it, the adversary seed
  // included (different adversary seeds face different colluding sets).
  std::size_t leaves = 0;
  auto count = [&leaves](auto&) { ++leaves; };
  for_each_leaf(a.options, count);
  EXPECT_GE(leaves, 27u);  // when written: 25 fields and the two seeds
  for (std::size_t k = 0; k < leaves; ++k) {
    TrialSpec c = a;
    std::size_t at = 0;
    bool seed = false;
    auto change_kth = [&](auto& field) {
      if (at++ != k) return;
      change(field);
      const void* where = &field;
      seed = where == &c.options.seed || where == &c.options.fault.seed;
    };
    for_each_leaf(c.options, change_kth);
    ASSERT_FALSE(c.options == a.options) << "leaf " << k << " did not change";
    if (seed) {
      EXPECT_EQ(seed_family_key(a), seed_family_key(c)) << "leaf " << k;
    } else {
      EXPECT_NE(seed_family_key(a), seed_family_key(c)) << "leaf " << k;
      EXPECT_TRUE(seed_family_key(a) < seed_family_key(c) ||
                  seed_family_key(c) < seed_family_key(a))
          << "leaf " << k;
    }
  }

  TrialSpec e = a;
  e.graph = &h;
  EXPECT_NE(seed_family_key(a), seed_family_key(e));
  TrialSpec f = a;
  f.source = 4;
  EXPECT_NE(seed_family_key(a), seed_family_key(f));
  TrialSpec i = a;
  i.oracle = &null_oracle;
  EXPECT_NE(seed_family_key(a), seed_family_key(i));
  TrialSpec j = a;
  j.algorithm = flooding;
  EXPECT_NE(seed_family_key(a), seed_family_key(j));
  TrialSpec l = a;
  l.advice = std::make_shared<const std::vector<BitString>>(
      oracle.advise(g, 3));
  EXPECT_NE(seed_family_key(a), seed_family_key(l));
}

/// Everything deterministic in a TaskReport (the timing fields are the
/// documented exception to batch determinism).
void expect_reports_equal(const TaskReport& a, const TaskReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.run, b.run) << label;
  EXPECT_EQ(a.oracle_name, b.oracle_name) << label;
  EXPECT_EQ(a.algorithm_name, b.algorithm_name) << label;
  EXPECT_EQ(a.oracle_bits, b.oracle_bits) << label;
  EXPECT_EQ(a.max_advice_bits, b.max_advice_bits) << label;
  EXPECT_EQ(a.advice_cached, b.advice_cached) << label;
  EXPECT_EQ(a.attempts, b.attempts) << label;
  EXPECT_EQ(a.error, b.error) << label;
  EXPECT_EQ(a.shards, b.shards) << label;
}

/// `lanes` specs differing only in their fault seed. With `advice` set,
/// every spec carries it, so a family and its one-spec references both
/// report a precomputed (cached) advice rather than differing in who paid
/// for advise().
std::vector<TrialSpec> family_specs(const PortGraph& g, const Oracle& oracle,
                                    const Algorithm& algorithm,
                                    std::size_t lanes, double drop,
                                    AdvicePtr advice = nullptr) {
  std::vector<TrialSpec> specs;
  for (std::size_t l = 0; l < lanes; ++l) {
    RunOptions options;
    options.fault.drop = drop;
    options.fault.seed = 1000 + 17 * l;
    specs.emplace_back(&g, 3, &oracle, &algorithm, options, advice);
  }
  return specs;
}

/// The scalar reference: every spec as a one-spec batch, which never
/// forms a family.
std::vector<TaskReport> one_spec_batches(const BatchRunner& runner,
                                         const std::vector<TrialSpec>& specs) {
  std::vector<TaskReport> reports;
  for (const TrialSpec& spec : specs) {
    BatchStats stats;
    reports.push_back(runner.run({spec}, &stats).front());
    EXPECT_EQ(stats.seed_families, 0u);
    EXPECT_EQ(stats.batched_lanes, 0u);
  }
  return reports;
}

TEST(SeedBatchRunner, BatchedFamilyReproducesScalarBatch) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const std::vector<TrialSpec> specs = family_specs(
      g, oracle, *wakeup, 16, 0.02,
      std::make_shared<const std::vector<BitString>>(oracle.advise(g, 3)));

  BatchStats batched_stats;
  const std::vector<TaskReport> batched =
      BatchRunner(2).run(specs, &batched_stats);
  const std::vector<TaskReport> scalar =
      one_spec_batches(BatchRunner(2), specs);

  ASSERT_EQ(batched.size(), scalar.size());
  std::size_t fault_free_lanes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(batched[i], scalar[i], "spec " + std::to_string(i));
    fault_free_lanes += fault_free(scalar[i].run);
  }
  EXPECT_EQ(batched_stats.seed_families, 1u);
  EXPECT_EQ(batched_stats.batched_lanes, specs.size());
  // The shared/replayed split is exactly the fault-free/faulted split of
  // the scalar runs.
  EXPECT_EQ(batched_stats.lockstep_shared, fault_free_lanes);
  EXPECT_GT(fault_free_lanes, 0u);
  EXPECT_LT(fault_free_lanes, specs.size());
  // The new accounting reaches the metrics snapshot as plain counters.
  EXPECT_EQ(batched_stats.metrics.counters.at("seed_families"), 1u);
  EXPECT_EQ(batched_stats.metrics.counters.at("batched_lanes"),
            specs.size());
  EXPECT_EQ(batched_stats.metrics.counters.at("lockstep_shared_lanes"),
            fault_free_lanes);
}

TEST(SeedBatchRunner, RetriedAttemptsStayInFamilyAndMatchScalar) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  // A drop rate high enough that several lanes fail the task and retry.
  const std::vector<TrialSpec> specs = family_specs(
      g, oracle, *wakeup, 12, 0.15,
      std::make_shared<const std::vector<BitString>>(oracle.advise(g, 3)));
  RetryPolicy retry;
  retry.max_retries = 2;
  retry.retry_task_failures = true;

  BatchStats batched_stats;
  const std::vector<TaskReport> batched =
      BatchRunner(2, true, retry).run(specs, &batched_stats);
  const std::vector<TaskReport> scalar =
      one_spec_batches(BatchRunner(2, true, retry), specs);

  bool any_retried = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(batched[i], scalar[i], "spec " + std::to_string(i));
    any_retried |= batched[i].attempts > 1;
  }
  EXPECT_TRUE(any_retried) << "the retry path was not exercised";
  EXPECT_EQ(batched_stats.seed_families, 1u);
}

TEST(SeedBatchRunner, MixedBatchIsJobsInvariant) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const NullOracle null_oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const Algorithm* flooding = algorithm_by_name("flooding");
  std::vector<TrialSpec> specs = family_specs(g, oracle, *wakeup, 8, 0.02);
  // Singles that must stay scalar: a different algorithm and a different
  // source.
  specs.emplace_back(&g, 3, &null_oracle, flooding);
  specs.emplace_back(&g, 5, &oracle, wakeup);
  // Counter-keyed async-random pair: options.seed is now a lane axis, so
  // these two collapse into a second family.
  for (int k = 0; k < 2; ++k) {
    RunOptions options;
    options.scheduler = SchedulerKind::kAsyncRandom;
    options.seed = 40 + k;
    specs.emplace_back(&g, 3, &oracle, wakeup, options);
  }

  BatchStats stats1, stats3;
  const std::vector<TaskReport> at1 = BatchRunner(1).run(specs, &stats1);
  const std::vector<TaskReport> at3 = BatchRunner(3).run(specs, &stats3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(at1[i], at3[i], "spec " + std::to_string(i));
  }
  EXPECT_EQ(stats1.metrics.counters, stats3.metrics.counters);
  EXPECT_EQ(stats1.seed_families, 2u);
  EXPECT_EQ(stats1.batched_lanes, 10u);
}

/// An oracle whose advise() always throws.
class ThrowingOracle final : public Oracle {
 public:
  std::vector<BitString> advise(const PortGraph&, NodeId) const override {
    throw std::runtime_error("throwing-oracle: no advice");
  }
  std::string name() const override { return "throwing"; }
};

TEST(SeedBatchRunner, EveryUnitKindInOneBatchIsJobsInvariant) {
  const PortGraph g = fuzz_graph();
  const PortGraph big = make_grid(12, 12);  // claimed by the ShardPolicy
  const TreeWakeupOracle oracle;
  const NullOracle null_oracle;
  const ThrowingOracle throwing;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const Algorithm* flooding = algorithm_by_name("flooding");

  // A drop-fault family: some lanes share the pass, some replay and retry.
  const std::size_t family_lanes = 8;
  std::vector<TrialSpec> specs =
      family_specs(g, oracle, *wakeup, family_lanes, 0.02);
  // Singles: another algorithm, another source.
  specs.emplace_back(&g, 3, &null_oracle, flooding);
  specs.emplace_back(&g, 5, &oracle, wakeup);
  // A trial big enough for the ShardPolicy.
  const std::size_t sharded = specs.size();
  specs.emplace_back(&big, 0, &oracle, wakeup);
  // advise() throws in the pre-pass: the lowest-index exception.
  const std::size_t throws = specs.size();
  specs.emplace_back(&g, 3, &throwing, wakeup);
  // A two-lane family whose lockstep pass throws (advice sized for another
  // graph): each lane reports the engine's error, as a one-spec batch does.
  const std::size_t misfit = specs.size();
  const AdvicePtr misfit_advice =
      std::make_shared<const std::vector<BitString>>(oracle.advise(big, 0));
  for (std::uint64_t s = 1; s <= 2; ++s) {
    RunOptions options;
    options.fault.seed = s;
    specs.emplace_back(&g, 3, &oracle, wakeup, options, misfit_advice);
  }

  RetryPolicy retry;
  retry.max_retries = 2;
  retry.retry_task_failures = true;
  ShardPolicy shard;
  shard.shards = 2;
  shard.min_nodes = 100;
  BatchStats stats1, stats4;
  const std::vector<TaskReport> at1 =
      BatchRunner(1, true, retry, shard).run(specs, &stats1);
  const std::vector<TaskReport> at4 =
      BatchRunner(4, true, retry, shard).run(specs, &stats4);
  ASSERT_EQ(at1.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_reports_equal(at1[i], at4[i], "spec " + std::to_string(i));
  }
  EXPECT_EQ(stats1.metrics.counters, stats4.metrics.counters);
  EXPECT_EQ(stats1.seed_families, 2u);
  EXPECT_EQ(stats1.batched_lanes, 10u);
  EXPECT_EQ(stats1.lockstep_shared, stats4.lockstep_shared);
  EXPECT_GT(stats1.lockstep_shared, 0u);
  bool family_retried = false;
  for (std::size_t i = 0; i < family_lanes; ++i) {
    family_retried |= at1[i].attempts > 1;
  }
  EXPECT_TRUE(family_retried) << "no family lane retried";
  EXPECT_EQ(at1[sharded].shards, 2u);
  EXPECT_EQ(at1[throws].error, "throwing-oracle: no advice");
  EXPECT_EQ(at1[throws].attempts, 1u);  // advise failures never retry
  const std::vector<TaskReport> misfit_ref = one_spec_batches(
      BatchRunner(1, true, retry, shard),
      {specs.begin() + static_cast<std::ptrdiff_t>(misfit), specs.end()});
  for (std::size_t k = 0; k < misfit_ref.size(); ++k) {
    EXPECT_TRUE(at1[misfit + k].failed());
    expect_reports_equal(at1[misfit + k], misfit_ref[k],
                         "misfit lane " + std::to_string(k));
  }

  try {
    BatchRunner(4, true, retry, shard).run_rethrow(specs);
    ADD_FAILURE() << "run_rethrow did not throw";
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "throwing-oracle: no advice");
  }
}

TEST(SeedBatchRunner, CacheOffAndShardedTrialsStayScalar) {
  const PortGraph g = fuzz_graph();
  const TreeWakeupOracle oracle;
  const Algorithm* wakeup = algorithm_by_name("wakeup-tree");
  const std::vector<TrialSpec> specs =
      family_specs(g, oracle, *wakeup, 6, 0.0);

  BatchStats no_cache_stats;
  BatchRunner(1, false).run(specs, &no_cache_stats);
  EXPECT_EQ(no_cache_stats.seed_families, 0u);

  ShardPolicy shard;
  shard.shards = 2;
  shard.min_nodes = 1;  // everything big enough: ShardPolicy wins
  BatchStats sharded_stats;
  BatchRunner(1, true, {}, shard).run(specs, &sharded_stats);
  EXPECT_EQ(sharded_stats.seed_families, 0u);
}

}  // namespace
}  // namespace oraclesize
