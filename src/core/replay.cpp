#include "core/replay.h"

#include <sstream>
#include <stdexcept>

#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/flooding.h"
#include "core/gossip.h"
#include "core/hybrid_wakeup.h"
#include "core/wakeup.h"
#include "graph/io.h"
#include "sim/execution_context.h"

namespace oraclesize {

namespace {

const Algorithm* const* algorithm_table(std::size_t& count) {
  static const WakeupTreeAlgorithm wakeup;
  static const BroadcastBAlgorithm broadcast;
  static const FloodingAlgorithm flooding;
  static const CensusAlgorithm census;
  static const GossipTreeAlgorithm gossip;
  static const HybridWakeupAlgorithm hybrid;
  static const Algorithm* const table[] = {&wakeup, &broadcast, &flooding,
                                           &census, &gossip,    &hybrid};
  count = sizeof(table) / sizeof(table[0]);
  return table;
}

/// Appends "label: a vs b" to out when the two values differ.
template <typename T>
void note_if(std::vector<std::string>& out, const char* label, const T& a,
             const T& b) {
  if (a == b) return;
  std::ostringstream line;
  line << label << ": " << a << " vs " << b;
  out.push_back(line.str());
}

}  // namespace

const Algorithm* algorithm_by_name(const std::string& name) {
  std::size_t count = 0;
  const Algorithm* const* table = algorithm_table(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (table[i]->name() == name) return table[i];
  }
  return nullptr;
}

std::vector<std::string> known_algorithms() {
  std::size_t count = 0;
  const Algorithm* const* table = algorithm_table(count);
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) names.push_back(table[i]->name());
  return names;
}

TraceDiff diff_traces(const RecordedTrace& a, const RecordedTrace& b) {
  TraceDiff diff;
  std::vector<std::string>& out = diff.differences;

  note_if(out, "header.algorithm", a.header.algorithm, b.header.algorithm);
  note_if(out, "header.oracle", a.header.oracle, b.header.oracle);
  note_if(out, "header.source", a.header.source, b.header.source);
  const RunOptions& ao = a.header.options;
  const RunOptions& bo = b.header.options;
  note_if(out, "header.scheduler", std::string(to_string(ao.scheduler)),
          std::string(to_string(bo.scheduler)));
  note_if(out, "header.seed", ao.seed, bo.seed);
  note_if(out, "header.max_delay", ao.max_delay, bo.max_delay);
  note_if(out, "header.max_messages", ao.max_messages, bo.max_messages);
  note_if(out, "header.max_events", ao.max_events, bo.max_events);
  note_if(out, "header.enforce_wakeup", ao.enforce_wakeup, bo.enforce_wakeup);
  note_if(out, "header.anonymous", ao.anonymous, bo.anonymous);
  if (!(ao.fault == bo.fault)) out.push_back("header.fault: params differ");
  if (!(ao.adversary == bo.adversary)) {
    out.push_back("header.adversary: params differ");
  }
  note_if(out, "header.level", std::string(to_string(a.header.level)),
          std::string(to_string(b.header.level)));
  if (a.graph_text != b.graph_text) out.push_back("graph: text differs");
  if (a.advice != b.advice) out.push_back("advice: bit strings differ");

  // Event streams: localize the first divergence.
  const std::size_t n = a.events.size() < b.events.size() ? a.events.size()
                                                          : b.events.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (a.events[i] == b.events[i]) continue;
    std::ostringstream line;
    line << "events[" << i << "]: " << to_string(a.events[i]) << " vs "
         << to_string(b.events[i]);
    out.push_back(line.str());
    break;
  }
  if (a.events.size() != b.events.size()) {
    std::ostringstream line;
    line << "events: " << a.events.size() << " vs " << b.events.size()
         << " (first unmatched: "
         << to_string(a.events.size() > n ? a.events[n] : b.events[n]) << ")";
    out.push_back(line.str());
  }

  note_if(out, "status", std::string(to_string(a.status)),
          std::string(to_string(b.status)));
  note_if(out, "metrics.messages_total", a.metrics.messages_total,
          b.metrics.messages_total);
  note_if(out, "metrics.messages_source", a.metrics.messages_source,
          b.metrics.messages_source);
  note_if(out, "metrics.messages_hello", a.metrics.messages_hello,
          b.metrics.messages_hello);
  note_if(out, "metrics.messages_control", a.metrics.messages_control,
          b.metrics.messages_control);
  note_if(out, "metrics.bits_sent", a.metrics.bits_sent, b.metrics.bits_sent);
  note_if(out, "metrics.deliveries", a.metrics.deliveries,
          b.metrics.deliveries);
  note_if(out, "metrics.completion_key", a.metrics.completion_key,
          b.metrics.completion_key);
  note_if(out, "metrics.queue_depth_peak", a.metrics.queue_depth_peak,
          b.metrics.queue_depth_peak);
  note_if(out, "faults.dropped", a.faults.dropped, b.faults.dropped);
  note_if(out, "faults.duplicated", a.faults.duplicated, b.faults.duplicated);
  note_if(out, "faults.delayed", a.faults.delayed, b.faults.delayed);
  note_if(out, "faults.crashed_nodes", a.faults.crashed_nodes,
          b.faults.crashed_nodes);
  note_if(out, "faults.dead_deliveries", a.faults.dead_deliveries,
          b.faults.dead_deliveries);
  note_if(out, "faults.advice_bits_flipped", a.faults.advice_bits_flipped,
          b.faults.advice_bits_flipped);
  note_if(out, "byzantine.lying_nodes", a.adversary.lying_nodes,
          b.adversary.lying_nodes);
  note_if(out, "byzantine.forged", a.adversary.forged, b.adversary.forged);
  note_if(out, "byzantine.equivocated", a.adversary.equivocated,
          b.adversary.equivocated);
  note_if(out, "byzantine.replayed", a.adversary.replayed,
          b.adversary.replayed);
  note_if(out, "byzantine.structured_lies", a.adversary.structured_lies,
          b.adversary.structured_lies);
  note_if(out, "byzantine.advice_lies", a.adversary.advice_lies,
          b.adversary.advice_lies);

  diff.equal = out.empty();
  return diff;
}

ReplayReport replay_trace(const RecordedTrace& trace) {
  const Algorithm* algorithm = algorithm_by_name(trace.header.algorithm);
  if (algorithm == nullptr) {
    throw std::runtime_error("replay: unknown algorithm \"" +
                             trace.header.algorithm + "\"");
  }
  const PortGraph g = from_text(trace.graph_text);  // throws GraphParseError
  if (trace.advice.size() != g.num_nodes()) {
    throw std::runtime_error("replay: trace carries " +
                             std::to_string(trace.advice.size()) +
                             " advice strings for a graph of " +
                             std::to_string(g.num_nodes()) + " nodes");
  }

  RunOptions options = trace.header.options;
  TraceRecorder recorder(trace.header.level);
  options.trace_sink = &recorder;
  ExecutionContext context;
  context.run(g, trace.header.source, trace.advice, *algorithm, options);

  ReplayReport report;
  report.replayed = recorder.take();
  // The engine never sees the oracle (advice arrives precomputed), so the
  // re-recorded header can only inherit the original's oracle name.
  report.replayed.header.oracle = trace.header.oracle;
  TraceDiff diff = diff_traces(trace, report.replayed);
  report.match = diff.equal;
  report.mismatches = std::move(diff.differences);
  return report;
}

}  // namespace oraclesize
