#include "sim/execution_context.h"

#include <gtest/gtest.h>

#include <string>

#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "trace_helpers.h"

namespace oraclesize {
namespace {

std::vector<BitString> no_advice(const PortGraph& g) {
  return std::vector<BitString>(g.num_nodes());
}

// Context reuse: back-to-back runs on DIFFERENT graphs must equal what
// fresh contexts produce — nothing may leak from one run into the next.
TEST(ExecutionContext, ReuseAcrossGraphsMatchesFreshContexts) {
  Rng rng(11);
  const PortGraph a = make_random_connected(120, 0.08, rng);
  const PortGraph b = make_grid(9, 13);  // different n, different shape

  const LightBroadcastOracle oracle;
  const BroadcastBAlgorithm algorithm;
  const auto advice_a = oracle.advise(a, 0);
  const auto advice_b = oracle.advise(b, 2);

  // One context plays every scheduler, with and without extra-delay
  // faults, so its event queue also switches between the FIFO, stack, ring
  // and heap disciplines from run to run.
  ExecutionContext reused;
  for (SchedulerKind sched :
       {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
        SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
        SchedulerKind::kAsyncLinkFifo}) {
    for (const double delay : {0.0, 0.05}) {
      RunOptions opts;
      opts.scheduler = sched;
      opts.seed = 5;
      opts.fault.seed = 3;
      opts.fault.delay = delay;
      auto traced_run = [&](ExecutionContext& ctx, const PortGraph& g,
                            NodeId source,
                            const std::vector<BitString>& adv) {
        return with_trace(
            [&](const RunOptions& o) {
              return ctx.run(g, source, adv, algorithm, o);
            },
            opts);
      };

      const auto ra = traced_run(reused, a, 0, advice_a);
      const auto rb = traced_run(reused, b, 2, advice_b);

      ExecutionContext fresh_a, fresh_b;
      const std::string label =
          std::string(to_string(sched)) + " delay=" + std::to_string(delay);
      EXPECT_EQ(ra, traced_run(fresh_a, a, 0, advice_a)) << label;
      EXPECT_EQ(rb, traced_run(fresh_b, b, 2, advice_b)) << label;
    }
  }
}

// Shrinking reuse: a big run followed by a small one must not see stale
// per-node state or link clocks from the larger graph.
TEST(ExecutionContext, ShrinkingReuseIsClean) {
  const PortGraph big = make_complete_star(200);
  const PortGraph small = make_path(5);
  ExecutionContext context;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncLinkFifo;
  opts.seed = 3;
  (void)context.run(big, 0, no_advice(big), FloodingAlgorithm(), opts);
  const RunResult reused =
      context.run(small, 0, no_advice(small), FloodingAlgorithm(), opts);
  ExecutionContext fresh;
  EXPECT_EQ(reused,
            fresh.run(small, 0, no_advice(small), FloodingAlgorithm(), opts));
}

// A run that ends in a violation (budget) must not poison the next run.
TEST(ExecutionContext, ReuseAfterViolationIsClean) {
  const PortGraph g = make_complete_star(64);
  ExecutionContext context;
  RunOptions tight;
  tight.max_messages = 10;
  const RunResult violated =
      context.run(g, 0, no_advice(g), FloodingAlgorithm(), tight);
  ASSERT_FALSE(violated.violation.empty());

  const RunOptions normal;
  const RunResult after =
      context.run(g, 0, no_advice(g), FloodingAlgorithm(), normal);
  ExecutionContext fresh;
  EXPECT_EQ(after, fresh.run(g, 0, no_advice(g), FloodingAlgorithm(),
                             normal));
  EXPECT_TRUE(after.violation.empty());
}

// Many sequential runs across algorithms and sources stay stable: the
// event pool, free list, and behavior table are fully re-armed each time.
TEST(ExecutionContext, ManySequentialRunsStayIdentical) {
  Rng rng(77);
  const PortGraph g = make_random_connected(150, 0.06, rng);
  const TreeWakeupOracle tree_oracle;
  const auto advice = tree_oracle.advise(g, 7);

  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 123;
  opts.enforce_wakeup = true;

  ExecutionContext fresh;
  const RunResult expected =
      fresh.run(g, 7, advice, WakeupTreeAlgorithm(), opts);

  ExecutionContext reused;
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(reused.run(g, 7, advice, WakeupTreeAlgorithm(), opts),
              expected)
        << "round " << round;
    // Interleave a different task to dirty every internal buffer.
    (void)reused.run(g, 3, advice, CensusAlgorithm(), RunOptions{});
  }
}

TEST(ExecutionContext, ArgumentValidationMatchesEngine) {
  const PortGraph g = make_path(3);
  ExecutionContext context;
  EXPECT_THROW(context.run(g, 0, std::vector<BitString>(2),
                           FloodingAlgorithm(), RunOptions{}),
               std::invalid_argument);
  EXPECT_THROW(
      context.run(g, 9, no_advice(g), FloodingAlgorithm(), RunOptions{}),
      std::invalid_argument);
}

// Satellite pin: Message::size_bits must use 64-bit accounting so huge
// item lists cannot wrap Metrics::bits_sent negative.
TEST(ExecutionContext, MessageSizeBitsIs64Bit) {
  static_assert(
      std::is_same_v<decltype(std::declval<Message>().size_bits()),
                     std::uint64_t>,
      "size_bits must return std::uint64_t");
  Message m = Message::bundle(MsgKind::kControl, {0xffffffffffffffffULL});
  EXPECT_EQ(m.size_bits(), 2u + 64u + 2u);
}

}  // namespace
}  // namespace oraclesize
