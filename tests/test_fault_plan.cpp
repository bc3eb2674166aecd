// The fault-injection layer's contracts (sim/fault_plan.h):
//
//  * the zero plan is invisible — bit-identical RunResults to a run that
//    never heard of faults;
//  * a faulty execution is a pure function of (spec, plan): same seed →
//    same traces and counters, on one worker or eight;
//  * each fault family does what it says (drop silences, duplicate
//    re-delivers, crash-stop freezes a node, advice corruption never
//    touches the shared advice vector);
//  * the run-hardening knobs (deadline, event budget) terminate with the
//    right structured RunStatus;
//  * BatchRunner's RetryPolicy re-seeds deterministically and reports
//    attempt counts.
#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include "core/batch_runner.h"
#include "core/flooding.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "trace_helpers.h"

namespace oraclesize {
namespace {

PortGraph fault_graph() {
  Rng rng(4242);
  return make_random_connected(60, 0.12, rng);
}

/// One run on `ctx` with its transmissions recorded (trace_helpers.h).
auto traced_run(ExecutionContext& ctx, const PortGraph& g, NodeId source,
                const std::vector<BitString>& advice,
                const Algorithm& algorithm, const RunOptions& opts) {
  return with_trace(
      [&](const RunOptions& o) {
        return ctx.run(g, source, advice, algorithm, o);
      },
      opts);
}

TEST(FaultPlan, ZeroPlanBitIdenticalToDefaultRun) {
  const PortGraph g = fault_graph();
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions base;
  RunOptions zero = base;
  zero.fault.seed = 0xfeedface;  // a seed alone must not enable anything
  ASSERT_FALSE(zero.fault.enabled());

  ExecutionContext ctx;
  const auto a = traced_run(ctx, g, 0, advice, algorithm, base);
  const auto b = traced_run(ctx, g, 0, advice, algorithm, zero);
  EXPECT_EQ(a, b);  // full field-by-field equality, trace included
  EXPECT_EQ(a.first.status, RunStatus::kCompleted);
  EXPECT_EQ(a.first.faults, FaultCounters{});
}

TEST(FaultPlan, SameSeedSamePlanIsBitIdentical) {
  const PortGraph g = fault_graph();
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.fault.seed = 99;
  opts.fault.drop = 0.1;
  opts.fault.duplicate = 0.1;
  opts.fault.delay = 0.2;
  opts.fault.crash = 0.1;

  ExecutionContext ctx1, ctx2;
  const auto a = traced_run(ctx1, g, 0, advice, algorithm, opts);
  const auto b = traced_run(ctx2, g, 0, advice, algorithm, opts);
  EXPECT_EQ(a, b);
  // A fresh context after unrelated runs must reproduce it too (pooled
  // state cannot leak into fault decisions).
  traced_run(ctx1, g, 3, advice, algorithm, RunOptions{});
  const auto c = traced_run(ctx1, g, 0, advice, algorithm, opts);
  EXPECT_EQ(a, c);
  // The regime actually exercised something.
  const FaultCounters& f = a.first.faults;
  EXPECT_GT(f.dropped + f.duplicated + f.delayed, 0u);
}

TEST(FaultPlan, ResultsIndependentOfJobsUnderFaults) {
  const PortGraph g = fault_graph();
  const NullOracle null;
  const TreeWakeupOracle tree;
  const FloodingAlgorithm flooding;
  const WakeupTreeAlgorithm wakeup;

  std::vector<TrialSpec> specs;
  for (std::uint64_t s = 0; s < 6; ++s) {
    RunOptions opts;
    opts.seed = s + 1;
    opts.fault.seed = 1000 + s;
    opts.fault.drop = 0.05 * static_cast<double>(s % 3);
    opts.fault.duplicate = (s % 2) ? 0.1 : 0.0;
    opts.fault.crash = (s >= 4) ? 0.2 : 0.0;
    specs.push_back(
        TrialSpec{&g, static_cast<NodeId>(s % 5), &null, &flooding, opts});
    opts.fault.advice_flip = (s % 2) ? 0.05 : 0.0;
    specs.push_back(
        TrialSpec{&g, static_cast<NodeId>(s % 5), &tree, &wakeup, opts});
  }

  const RetryPolicy retry{2, true};
  const auto one = BatchRunner(1, true, retry).run(specs);
  const auto eight = BatchRunner(8, true, retry).run(specs);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].run, eight[i].run) << i;
    EXPECT_EQ(one[i].attempts, eight[i].attempts) << i;
    EXPECT_EQ(one[i].error, eight[i].error) << i;
  }
}

TEST(FaultPlan, CrashStopFreezesEveryNonSourceNode) {
  const PortGraph g = make_complete_star(8);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.fault.seed = 7;
  opts.fault.crash = 1.0;
  opts.fault.max_crash_key = 0;  // everyone (but the source) down at key 0

  ExecutionContext ctx;
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(r.status, RunStatus::kTaskFailed);
  EXPECT_EQ(r.faults.crashed_nodes, 7u);
  EXPECT_EQ(r.informed_count(), 1u);   // only the source
  EXPECT_GT(r.faults.dead_deliveries, 0u);
  EXPECT_EQ(r.metrics.deliveries, 0u);  // every delivery hit a dead node
  // The source is exempt by default: it still flooded its ports.
  EXPECT_EQ(r.metrics.messages_total, 7u);
}

TEST(FaultPlan, DropEverythingInformsNobody) {
  const PortGraph g = make_complete_star(6);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.fault.seed = 1;
  opts.fault.drop = 1.0;

  ExecutionContext ctx;
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(r.status, RunStatus::kTaskFailed);
  EXPECT_EQ(r.informed_count(), 1u);
  EXPECT_GT(r.metrics.messages_total, 0u);  // sends still count as sends
  EXPECT_EQ(r.faults.dropped, r.metrics.messages_total);
  EXPECT_EQ(r.metrics.deliveries, 0u);
}

TEST(FaultPlan, DuplicateEverythingStillCompletes) {
  const PortGraph g = make_complete_star(6);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.fault.seed = 2;
  opts.fault.duplicate = 1.0;

  ExecutionContext ctx;
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.faults.duplicated, r.metrics.messages_total);
  // Every send delivered twice.
  EXPECT_EQ(r.metrics.deliveries, 2 * r.metrics.messages_total);
}

TEST(FaultPlan, DelayedMessagesStillComplete) {
  const PortGraph g = fault_graph();
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.fault.seed = 3;
  opts.fault.delay = 1.0;
  opts.fault.max_extra_delay = 5;

  ExecutionContext ctx;
  const RunResult ref = ctx.run(g, 0, advice, algorithm, RunOptions{});
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(r.faults.delayed, r.metrics.messages_total);
  // Flooding is delay-tolerant: delays reorder, they don't change totals.
  EXPECT_EQ(r.metrics.messages_total, ref.metrics.messages_total);
  EXPECT_GE(r.metrics.completion_key, ref.metrics.completion_key);
}

TEST(FaultPlan, AdviceCorruptionNeverTouchesTheInput) {
  const PortGraph g = fault_graph();
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);
  const auto pristine = advice;  // deep copy to compare against

  RunOptions opts;
  opts.fault.seed = 5;
  opts.fault.advice_flip = 0.25;

  ExecutionContext ctx;
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_GT(r.faults.advice_bits_flipped, 0u);
  EXPECT_EQ(advice, pristine);  // shared advice must stay immutable
  // Whatever corruption did — decode failure or a wrong tree — the engine
  // absorbed it into a structured outcome instead of throwing.
  EXPECT_TRUE(r.status == RunStatus::kCompleted ||
              r.status == RunStatus::kTaskFailed);
  // Same corruption seed, same outcome.
  ExecutionContext ctx2;
  EXPECT_EQ(ctx2.run(g, 0, advice, algorithm, opts), r);
}

TEST(FaultPlan, EventBudgetExhaustsStructurally) {
  const PortGraph g = make_complete_star(8);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.max_events = 5;
  ExecutionContext ctx;
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(r.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(r.metrics.deliveries, 5u);
  EXPECT_FALSE(r.all_informed);
}

TEST(FaultPlan, DeadlineTimesOut) {
  const PortGraph g = make_grid(20, 20);  // > 1024 deliveries when healthy
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);

  RunOptions opts;
  opts.deadline_ns = 1;  // expires before the first amortized check
  ExecutionContext ctx;
  const RunResult r = ctx.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(r.status, RunStatus::kTimeout);
  EXPECT_FALSE(r.all_informed);
}

TEST(FaultPlan, MessageBudgetNowReportsBudgetExhausted) {
  const PortGraph g = make_complete_star(10);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;

  RunOptions opts;
  opts.max_messages = 4;
  const TaskReport r = run_task(g, 0, oracle, algorithm, opts);
  EXPECT_EQ(r.run.status, RunStatus::kBudgetExhausted);
  EXPECT_EQ(r.run.violation, "message budget exceeded");
  EXPECT_FALSE(r.ok());
}

TEST(FaultPlan, RetryReseedsDeterministically) {
  const PortGraph g = make_complete_star(8);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;

  RunOptions opts;
  opts.max_events = 3;  // exhausts on every attempt — a permanent transient
  const std::vector<TrialSpec> specs{
      TrialSpec{&g, 0, &oracle, &algorithm, opts}};

  const RetryPolicy retry{2};
  for (int round = 0; round < 2; ++round) {
    BatchStats stats;
    const auto reports = BatchRunner(1, true, retry).run(specs, &stats);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].attempts, 3u);  // 1 + max_retries, then give up
    EXPECT_EQ(reports[0].run.status, RunStatus::kBudgetExhausted);
    EXPECT_FALSE(reports[0].failed());  // structured, not an exception
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.failed, 0u);
  }
}

TEST(FaultPlan, RetryTaskFailuresOnlyWhenAsked) {
  const PortGraph g = make_complete_star(6);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;

  RunOptions opts;
  opts.fault.seed = 11;
  opts.fault.drop = 1.0;  // fails the task on every attempt
  const std::vector<TrialSpec> specs{
      TrialSpec{&g, 0, &oracle, &algorithm, opts}};

  BatchStats stats;
  auto reports =
      BatchRunner(1, true, RetryPolicy{3}).run(specs, &stats);
  EXPECT_EQ(reports[0].attempts, 1u);  // kTaskFailed is final by default
  EXPECT_EQ(stats.retries, 0u);

  reports = BatchRunner(1, true, RetryPolicy{3, true})
                .run(specs, &stats);
  EXPECT_EQ(reports[0].attempts, 4u);  // retried, every fault seed drops all
  EXPECT_EQ(reports[0].run.status, RunStatus::kTaskFailed);
  EXPECT_EQ(stats.retries, 3u);
}

}  // namespace
}  // namespace oraclesize
