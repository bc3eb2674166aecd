// Test helpers: a run with a TraceRecorder at TraceLevel::kMessages
// attached, returned together with the transmissions it recorded.
#pragma once

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/trace_recorder.h"

namespace oraclesize {

/// The stream's kSend events, in emission order: one per transmission.
inline std::vector<TraceEvent> send_events(
    const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> out;
  std::copy_if(events.begin(), events.end(), std::back_inserter(out),
               [](const TraceEvent& e) {
                 return e.kind == TraceEventKind::kSend;
               });
  return out;
}

/// Calls run(options) with a fresh recorder attached to a copy of
/// `options` and returns {run's result, the stream's kSend events}, e.g.
///   with_trace([&](const RunOptions& o) { return ctx.run(g, 0, a, alg, o); },
///              opts);
template <class Run>
auto with_trace(Run&& run, RunOptions options) {
  TraceRecorder recorder(TraceLevel::kMessages);
  options.trace_sink = &recorder;
  auto result = run(options);
  return std::make_pair(std::move(result),
                        send_events(recorder.trace().events));
}

}  // namespace oraclesize
