// Deterministic replay: the full matrix.
//
// For every core algorithm, under the synchronous and the async-random
// scheduler, with and without an armed fault plan: record a trace, push it
// through the save/load text format, re-execute it from the artifact's
// embedded inputs alone, and demand a bit-identical event stream, status,
// metrics, and fault counters. This is the PR's determinism contract made
// exhaustive — 24 recorded executions, each replayed from scratch.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/replay.h"
#include "core/runner.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"

namespace oraclesize {
namespace {

PortGraph replay_graph() {
  Rng rng(515151);
  return make_random_connected(48, 0.12, rng);
}

/// The oracle each algorithm is designed to pair with.
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

TEST(TraceReplay, FullMatrixRoundTripsBitIdentically) {
  const PortGraph g = replay_graph();
  int replayed = 0;
  for (const std::string& name : known_algorithms()) {
    const Algorithm* algorithm = algorithm_by_name(name);
    ASSERT_NE(algorithm, nullptr) << name;
    const std::unique_ptr<Oracle> oracle = oracle_for(name);
    for (const SchedulerKind sched :
         {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom}) {
      for (const bool faulty : {false, true}) {
        RunOptions opts;
        opts.scheduler = sched;
        opts.seed = 1234;
        if (faulty) {
          opts.fault.seed = 88;
          opts.fault.drop = 0.05;
          opts.fault.duplicate = 0.05;
          opts.fault.delay = 0.08;
          opts.fault.crash = 0.04;
          opts.fault.advice_flip = 0.02;
        }
        TraceRecorder recorder;
        opts.trace_sink = &recorder;
        run_task(g, 3, *oracle, *algorithm, opts);
        RecordedTrace t = recorder.take();
        t.header.oracle = oracle->name();

        std::stringstream ss;
        save_trace(ss, t);
        const RecordedTrace loaded = load_trace(ss);
        const ReplayReport report = replay_trace(loaded);
        EXPECT_TRUE(report.match)
            << name << " / " << to_string(sched)
            << (faulty ? " / faulty: " : " / reliable: ")
            << (report.mismatches.empty() ? "?" : report.mismatches.front());
        EXPECT_EQ(report.replayed.digest(), t.digest());
        ++replayed;
      }
    }
  }
  EXPECT_EQ(replayed, 24);
}

TEST(TraceReplay, ReplayReportsUnknownAlgorithm) {
  RecordedTrace t;
  t.header.algorithm = "no-such-scheme";
  EXPECT_THROW(replay_trace(t), std::runtime_error);
}

TEST(TraceReplay, KnownAlgorithmsResolveBothWays) {
  for (const std::string& name : known_algorithms()) {
    const Algorithm* a = algorithm_by_name(name);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->name(), name);
  }
  EXPECT_EQ(known_algorithms().size(), 6u);
  EXPECT_EQ(algorithm_by_name("definitely-not"), nullptr);
}

TEST(TraceReplay, DivergenceIsLocalizedNotJustDetected) {
  // Change the recorded seed under the async scheduler: the replay explores
  // a different schedule and the report names the first divergent event
  // (or a metric) rather than merely failing.
  const PortGraph g = replay_graph();
  const TreeWakeupOracle oracle;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 42;
  TraceRecorder recorder;
  opts.trace_sink = &recorder;
  run_task(g, 3, oracle, *algorithm_by_name("census-echo"), opts);
  RecordedTrace t = recorder.take();
  t.header.oracle = oracle.name();

  t.header.options.seed = 43;  // forge a different schedule
  const ReplayReport report = replay_trace(t);
  EXPECT_FALSE(report.match);
  ASSERT_FALSE(report.mismatches.empty());
  bool localized = false;
  for (const std::string& m : report.mismatches) {
    if (m.find("events[") != std::string::npos ||
        m.find("metrics.") != std::string::npos) {
      localized = true;
    }
  }
  EXPECT_TRUE(localized) << report.mismatches.front();
}

TEST(TraceReplay, DiffFindsFirstDivergentEvent) {
  const PortGraph g = replay_graph();
  const TreeWakeupOracle oracle;
  auto record_with_seed = [&](std::uint64_t seed) {
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncRandom;
    opts.seed = seed;
    TraceRecorder recorder;
    opts.trace_sink = &recorder;
    run_task(g, 0, oracle, *algorithm_by_name("gossip-tree"), opts);
    RecordedTrace t = recorder.take();
    t.header.oracle = oracle.name();
    return t;
  };
  const RecordedTrace a = record_with_seed(1);
  const RecordedTrace b = record_with_seed(2);

  const TraceDiff self = diff_traces(a, a);
  EXPECT_TRUE(self.equal);
  EXPECT_TRUE(self.differences.empty());

  const TraceDiff diff = diff_traces(a, b);
  EXPECT_FALSE(diff.equal);
  bool event_line = false;
  for (const std::string& d : diff.differences) {
    if (d.find("events") != std::string::npos) event_line = true;
  }
  EXPECT_TRUE(event_line);
}

}  // namespace
}  // namespace oraclesize
