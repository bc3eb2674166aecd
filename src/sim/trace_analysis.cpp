#include "sim/trace_analysis.h"

#include <algorithm>

namespace oraclesize {

namespace {

EdgeKey normalized(const TraceEvent& e) {
  return {std::min(e.node, e.peer), std::max(e.node, e.peer)};
}

bool is_send(const TraceEvent& e) { return e.kind == TraceEventKind::kSend; }

}  // namespace

std::map<EdgeKey, std::uint64_t> traffic_per_edge(
    const std::vector<TraceEvent>& events) {
  std::map<EdgeKey, std::uint64_t> out;
  for (const TraceEvent& e : events) {
    if (is_send(e)) ++out[normalized(e)];
  }
  return out;
}

std::map<EdgeKey, std::uint64_t> traffic_per_edge(
    const std::vector<TraceEvent>& events, MsgKind kind) {
  std::map<EdgeKey, std::uint64_t> out;
  for (const TraceEvent& e : events) {
    if (is_send(e) && e.msg == kind) ++out[normalized(e)];
  }
  return out;
}

std::map<DirectedKey, std::uint64_t> traffic_per_direction(
    const std::vector<TraceEvent>& events) {
  std::map<DirectedKey, std::uint64_t> out;
  for (const TraceEvent& e : events) {
    if (is_send(e)) ++out[{e.node, e.peer}];
  }
  return out;
}

std::uint64_t max_edge_traffic(const std::vector<TraceEvent>& events) {
  std::uint64_t best = 0;
  for (const auto& [edge, count] : traffic_per_edge(events)) {
    best = std::max(best, count);
  }
  return best;
}

bool traffic_within(const std::vector<TraceEvent>& events,
                    const std::set<EdgeKey>& allowed) {
  return std::all_of(events.begin(), events.end(), [&](const TraceEvent& e) {
    return !is_send(e) || allowed.count(normalized(e)) > 0;
  });
}

std::uint64_t uninformed_sends(const std::vector<TraceEvent>& events) {
  return static_cast<std::uint64_t>(
      std::count_if(events.begin(), events.end(), [](const TraceEvent& e) {
        return is_send(e) && !e.flag;
      }));
}

}  // namespace oraclesize
