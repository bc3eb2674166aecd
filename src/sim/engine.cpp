#include "sim/engine.h"

#include <algorithm>

#include "sim/execution_context.h"

namespace oraclesize {

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted:
      return "completed";
    case RunStatus::kTaskFailed:
      return "task_failed";
    case RunStatus::kTimeout:
      return "timeout";
    case RunStatus::kBudgetExhausted:
      return "budget_exhausted";
    case RunStatus::kCrashed:
      return "crashed";
    case RunStatus::kByzantineDetected:
      return "byzantine_detected";
  }
  return "unknown";
}

const char* to_string(FallbackReason reason) {
  static constexpr const char* kNames[kFallbackReasons] = {
      "none",      "scheduler", "adversary",          "duplicate",
      "violation", "budget",    "behavior_exception", "max_events"};
  const auto r = static_cast<std::size_t>(reason);
  return r < kFallbackReasons ? kNames[r] : "unknown";
}

std::uint64_t RunResult::max_node_sends() const {
  std::uint64_t best = 0;
  for (std::uint64_t s : sends_by_node) best = std::max(best, s);
  return best;
}

std::size_t RunResult::informed_count() const {
  std::size_t c = 0;
  for (bool b : informed) c += b ? 1 : 0;
  return c;
}

RunResult run_execution(const PortGraph& g, NodeId source,
                        const std::vector<BitString>& advice,
                        const Algorithm& algorithm,
                        const RunOptions& options) {
  ExecutionContext context;
  return context.run(g, source, advice, algorithm, options);
}

}  // namespace oraclesize
