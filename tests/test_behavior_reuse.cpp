// Behavior pooling (Algorithm::reusable + NodeBehavior::reset): an
// ExecutionContext that re-arms pooled behaviors must produce runs
// bit-identical to fresh contexts, across graphs, sources, schedulers,
// and algorithm switches.
#include <gtest/gtest.h>

#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/gossip.h"
#include "core/hybrid_wakeup.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/execution_context.h"
#include "sim/history.h"
#include "trace_helpers.h"

namespace oraclesize {
namespace {

std::vector<BitString> no_advice(const PortGraph& g) {
  return std::vector<BitString>(g.num_nodes());
}

// All six core algorithms opt into pooling; the history adapter must not
// (a ReplayBehavior closes over one instance's scheme).
TEST(BehaviorReuse, ReusableFlagsAreAsDocumented) {
  EXPECT_TRUE(WakeupTreeAlgorithm().reusable());
  EXPECT_TRUE(BroadcastBAlgorithm().reusable());
  EXPECT_TRUE(FloodingAlgorithm().reusable());
  EXPECT_TRUE(CensusAlgorithm().reusable());
  EXPECT_TRUE(GossipTreeAlgorithm().reusable());
  EXPECT_TRUE(HybridWakeupAlgorithm().reusable());
  const HistoryScheme silent = [](const History&) {
    return std::vector<Send>{};
  };
  EXPECT_FALSE(HistorySchemeAlgorithm(silent, "silent").reusable());
}

// Same algorithm, different graphs/advice/sources back to back: the pooled
// behaviors are reset(), never rebuilt, and every run must still equal a
// fresh context's run.
TEST(BehaviorReuse, PooledRunsMatchFreshContexts) {
  Rng rng(31);
  const PortGraph a = make_random_connected(100, 0.08, rng);
  const PortGraph b = make_grid(7, 11);
  const PortGraph c = make_complete_star(80);

  const LightBroadcastOracle oracle;
  const auto advice_a = oracle.advise(a, 0);
  const auto advice_b = oracle.advise(b, 4);
  const auto advice_c = oracle.advise(c, 0);
  const BroadcastBAlgorithm algorithm;

  for (SchedulerKind sched :
       {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
        SchedulerKind::kAsyncLifo, SchedulerKind::kAsyncLinkFifo}) {
    RunOptions opts;
    opts.scheduler = sched;
    opts.seed = 17;
    auto traced_run = [&](ExecutionContext& ctx, const PortGraph& g,
                          NodeId source, const std::vector<BitString>& adv) {
      return with_trace(
          [&](const RunOptions& o) {
            return ctx.run(g, source, adv, algorithm, o);
          },
          opts);
    };

    ExecutionContext pooled;
    const auto ra = traced_run(pooled, a, 0, advice_a);
    const auto rb = traced_run(pooled, b, 4, advice_b);
    const auto rc = traced_run(pooled, c, 0, advice_c);
    // Run `a` again through the (now thrice-recycled) pool.
    const auto ra2 = traced_run(pooled, a, 0, advice_a);

    ExecutionContext f1, f2, f3;
    EXPECT_EQ(ra, traced_run(f1, a, 0, advice_a)) << to_string(sched);
    EXPECT_EQ(rb, traced_run(f2, b, 4, advice_b)) << to_string(sched);
    EXPECT_EQ(rc, traced_run(f3, c, 0, advice_c)) << to_string(sched);
    EXPECT_EQ(ra, ra2) << to_string(sched);
  }
}

// Alternating algorithms invalidates the pool (different name()) and must
// still be correct: WakeupTree -> Census -> WakeupTree -> BroadcastB.
TEST(BehaviorReuse, AlternatingAlgorithmsStayCorrect) {
  Rng rng(57);
  const PortGraph g = make_random_connected(90, 0.07, rng);
  const TreeWakeupOracle tree_oracle;
  const LightBroadcastOracle light;
  const auto tree_advice = tree_oracle.advise(g, 2);
  const auto light_advice = light.advise(g, 2);

  RunOptions wake;
  wake.enforce_wakeup = true;
  const RunOptions plain;

  ExecutionContext pooled;
  for (int round = 0; round < 4; ++round) {
    const RunResult w =
        pooled.run(g, 2, tree_advice, WakeupTreeAlgorithm(), wake);
    ExecutionContext fw;
    EXPECT_EQ(w, fw.run(g, 2, tree_advice, WakeupTreeAlgorithm(), wake))
        << round;
    const RunResult c =
        pooled.run(g, 2, tree_advice, CensusAlgorithm(), plain);
    ExecutionContext fc;
    EXPECT_EQ(c, fc.run(g, 2, tree_advice, CensusAlgorithm(), plain))
        << round;
    const RunResult b =
        pooled.run(g, 2, light_advice, BroadcastBAlgorithm(), plain);
    ExecutionContext fb;
    EXPECT_EQ(b, fb.run(g, 2, light_advice, BroadcastBAlgorithm(), plain))
        << round;
  }
}

// Growing then shrinking the node count exercises both pool extension
// (make_behavior for the tail) and partial reuse (reset on a prefix).
TEST(BehaviorReuse, GrowAndShrinkPool) {
  const PortGraph small = make_path(6);
  const PortGraph big = make_complete_star(150);
  const FloodingAlgorithm algorithm;
  const RunOptions opts;

  ExecutionContext pooled;
  const RunResult s1 = pooled.run(small, 0, no_advice(small), algorithm,
                                  opts);
  const RunResult b1 = pooled.run(big, 0, no_advice(big), algorithm, opts);
  const RunResult s2 = pooled.run(small, 0, no_advice(small), algorithm,
                                  opts);

  ExecutionContext fs, fb;
  EXPECT_EQ(s1, fs.run(small, 0, no_advice(small), algorithm, opts));
  EXPECT_EQ(b1, fb.run(big, 0, no_advice(big), algorithm, opts));
  EXPECT_EQ(s1, s2);
}

// A violated (budget-capped) run leaves behaviors mid-flight; reset must
// fully re-arm them for the next run.
TEST(BehaviorReuse, ReuseAfterViolationIsClean) {
  const PortGraph g = make_complete_star(64);
  const LightBroadcastOracle oracle;
  const auto advice = oracle.advise(g, 0);
  const BroadcastBAlgorithm algorithm;

  ExecutionContext pooled;
  RunOptions tight;
  tight.max_messages = 8;
  const RunResult violated = pooled.run(g, 0, advice, algorithm, tight);
  ASSERT_FALSE(violated.violation.empty());

  const RunOptions normal;
  const RunResult after = pooled.run(g, 0, advice, algorithm, normal);
  ExecutionContext fresh;
  EXPECT_EQ(after, fresh.run(g, 0, advice, algorithm, normal));
  EXPECT_TRUE(after.violation.empty());
}

// Gossip carries the heaviest per-node state (pending children, item
// bundles); hammer its reset path across sources.
TEST(BehaviorReuse, GossipResetAcrossSources) {
  const PortGraph g = make_grid(5, 5);
  const TreeWakeupOracle oracle;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 9;
  opts.enforce_wakeup = true;

  ExecutionContext pooled;
  for (NodeId src : {NodeId{0}, NodeId{12}, NodeId{24}, NodeId{0}}) {
    const auto advice = oracle.advise(g, src);
    const RunResult r =
        pooled.run(g, src, advice, GossipTreeAlgorithm(), opts);
    ExecutionContext fresh;
    EXPECT_EQ(r, fresh.run(g, src, advice, GossipTreeAlgorithm(), opts))
        << "src " << src;
  }
}

}  // namespace
}  // namespace oraclesize
