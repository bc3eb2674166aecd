// The trace recorder: capture fidelity, serialization, and zero-perturbation.
//
// A TraceSink must be a pure observer — attaching one cannot change a run's
// RunResult — and a RecordedTrace must survive save/load byte-exactly,
// reject corrupted or truncated artifacts with a structured error, filter
// node-state events at TraceLevel::kMessages, and keep only the LAST run
// when a recorder is re-entered (the batch runner's retry contract).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/broadcast_b.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/execution_context.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

PortGraph trace_graph() {
  Rng rng(777777);
  return make_random_connected(40, 0.15, rng);
}

RecordedTrace record_broadcast(RunOptions opts = {},
                               TraceLevel level = TraceLevel::kFull) {
  const PortGraph g = trace_graph();
  TraceRecorder recorder(level);
  opts.trace_sink = &recorder;
  run_task(g, 2, LightBroadcastOracle(), BroadcastBAlgorithm(), opts);
  RecordedTrace t = recorder.take();
  t.header.oracle = LightBroadcastOracle().name();
  return t;
}

TEST(TraceRecorder, AttachingASinkDoesNotPerturbTheRun) {
  const PortGraph g = trace_graph();
  const LightBroadcastOracle oracle;
  const BroadcastBAlgorithm algorithm;
  const auto advice = oracle.advise(g, 2);

  RunOptions plain;
  const RunResult bare = run_execution(g, 2, advice, algorithm, plain);

  TraceRecorder recorder;
  RunOptions traced;
  traced.trace_sink = &recorder;
  const RunResult observed = run_execution(g, 2, advice, algorithm, traced);

  EXPECT_EQ(bare, observed);
  ASSERT_TRUE(recorder.complete());
  EXPECT_EQ(recorder.trace().status, observed.status);
  EXPECT_EQ(recorder.trace().metrics, observed.metrics);
}

TEST(TraceRecorder, SaveLoadRoundTripsEveryField) {
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 90210;
  opts.fault.seed = 5;
  opts.fault.drop = 0.07;
  opts.fault.duplicate = 0.03;
  const RecordedTrace t = record_broadcast(opts);
  ASSERT_FALSE(t.events.empty());

  std::stringstream ss;
  save_trace(ss, t);
  const RecordedTrace loaded = load_trace(ss);

  EXPECT_EQ(loaded.header, t.header);
  EXPECT_EQ(loaded.graph_text, t.graph_text);
  EXPECT_EQ(loaded.advice, t.advice);
  EXPECT_EQ(loaded.events, t.events);
  EXPECT_EQ(loaded.status, t.status);
  EXPECT_EQ(loaded.metrics, t.metrics);
  EXPECT_EQ(loaded.faults, t.faults);
  EXPECT_EQ(loaded.digest(), t.digest());
}

TEST(TraceRecorder, LoadRequiresCounterKeying) {
  // Scheduler delays are counter-keyed, and the header says so. An artifact
  // claiming the retired draw-order `stream` keying — or carrying no keying
  // line at all — cannot be replayed faithfully, so loading refuses it with
  // a line-numbered parse error.
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 90210;
  std::stringstream ss;
  save_trace(ss, record_broadcast(opts));
  const std::string text = ss.str();
  const std::string line = "keying counter\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  {
    std::istringstream in(text);
    EXPECT_NO_THROW(load_trace(in));
  }
  auto load_error = [](const std::string& bad) {
    std::istringstream in(bad);
    try {
      load_trace(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  std::string stream = text;
  stream.replace(at, line.size(), "keying stream\n");
  EXPECT_NE(load_error(stream).find("trace parse error (line"),
            std::string::npos);
  EXPECT_NE(load_error(stream).find("stream"), std::string::npos);
  std::string missing = text;
  missing.erase(at, line.size());
  EXPECT_NE(load_error(missing).find("missing keying line"),
            std::string::npos);
}

TEST(TraceRecorder, LoadRejectsTamperedAndTruncatedArtifacts) {
  const RecordedTrace t = record_broadcast();
  std::stringstream ss;
  save_trace(ss, t);
  const std::string text = ss.str();

  {
    // Flip one digit inside an event line: the stored digest no longer
    // matches the recomputed one.
    std::string tampered = text;
    const std::size_t at = tampered.find("\ne ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t digit = tampered.find_first_of("0123456789", at + 3);
    ASSERT_NE(digit, std::string::npos);
    tampered[digit] = tampered[digit] == '9' ? '8' : '9';
    std::istringstream in(tampered);
    EXPECT_THROW(load_trace(in), std::runtime_error);
  }
  {
    // Truncation anywhere in the body loses the footer (or cuts a section
    // short); both are structured parse failures.
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_THROW(load_trace(in), std::runtime_error);
  }
  {
    std::istringstream in(std::string("not a trace\n"));
    EXPECT_THROW(load_trace(in), std::runtime_error);
  }
}

TEST(TraceRecorder, MessagesLevelDropsNodeStateEvents) {
  const RecordedTrace full = record_broadcast({}, TraceLevel::kFull);
  const RecordedTrace msgs = record_broadcast({}, TraceLevel::kMessages);

  bool full_has_state = false;
  for (const TraceEvent& e : full.events) {
    if (e.kind == TraceEventKind::kInformed ||
        e.kind == TraceEventKind::kAdviceRead) {
      full_has_state = true;
    }
  }
  EXPECT_TRUE(full_has_state);
  for (const TraceEvent& e : msgs.events) {
    EXPECT_NE(e.kind, TraceEventKind::kInformed);
    EXPECT_NE(e.kind, TraceEventKind::kAdviceRead);
  }
  EXPECT_LT(msgs.events.size(), full.events.size());
  // The filtered stream is exactly the full stream minus state events.
  std::vector<TraceEvent> filtered;
  for (const TraceEvent& e : full.events) {
    if (e.kind != TraceEventKind::kInformed &&
        e.kind != TraceEventKind::kAdviceRead) {
      filtered.push_back(e);
    }
  }
  EXPECT_EQ(msgs.events, filtered);
}

TEST(TraceRecorder, ReenteredRecorderKeepsTheLastRun) {
  const PortGraph g = trace_graph();
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm algorithm;
  const auto advice = oracle.advise(g, 0);
  const auto advice2 = oracle.advise(g, 9);

  TraceRecorder recorder;
  RunOptions opts;
  opts.enforce_wakeup = true;
  opts.trace_sink = &recorder;
  ExecutionContext context;
  context.run(g, 0, advice, algorithm, opts);
  const std::uint64_t first = recorder.trace().digest();
  context.run(g, 9, advice2, algorithm, opts);
  const RecordedTrace last = recorder.take();
  EXPECT_NE(last.digest(), first);
  EXPECT_EQ(last.header.source, 9u);

  // take() resets: the recorder is reusable afterwards.
  EXPECT_FALSE(recorder.complete());
  context.run(g, 0, advice, algorithm, opts);
  EXPECT_EQ(recorder.trace().digest(), first);
}

TEST(TraceRecorder, ChromeExportIsWellFormedJson) {
  const RecordedTrace t = record_broadcast();
  std::ostringstream out;
  write_chrome_trace(out, t);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for the exporter.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceRecorder, SendEventsCarryFaultCounterCoordinates) {
  // kSend events are stamped with the exact (seq, link) the fault plan
  // keys on: sequence numbers strictly increase and links stay in range.
  const RecordedTrace t = record_broadcast();
  const PortGraph g = trace_graph();
  std::uint64_t last_seq = 0;
  bool first = true;
  std::uint64_t links = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) links += g.degree(v);
  for (const TraceEvent& e : t.events) {
    if (e.kind != TraceEventKind::kSend) continue;
    if (!first) EXPECT_GT(e.seq, last_seq);
    first = false;
    last_seq = e.seq;
    EXPECT_LT(e.link, links);
  }
  EXPECT_FALSE(first);
}

}  // namespace
}  // namespace oraclesize
