#include "sim/run_plane.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace oraclesize {

std::string violation_text(const SubmitOutcome& outcome, NodeId v,
                           std::size_t degree) {
  std::ostringstream os;
  switch (outcome.verdict) {
    case SubmitVerdict::kWakeupViolation:
      os << "wakeup violation: uninformed node " << v << " transmitted";
      break;
    case SubmitVerdict::kInvalidPort:
      os << "invalid send: node " << v << " port " << outcome.port
         << " (degree " << degree << ")";
      break;
    case SubmitVerdict::kBudget:
      os << "message budget exceeded";
      break;
    case SubmitVerdict::kOk:
    case SubmitVerdict::kAborted:
      break;
  }
  return os.str();
}

std::string format_behavior_exception(const char* what) {
  std::string s = "behavior exception: ";
  s += what;
  return s;
}

void trace_send(TraceSink& sink, TraceEvent send, const Message& wire,
                const AdversaryPlan::ForgeOutcome& forge,
                const FaultPlan::MessageFault& fault) {
  send.msg = wire.kind;
  if (forge.forged || forge.advice_lie) {
    TraceEvent e = send;
    e.kind = forge.replayed      ? TraceEventKind::kReplayAttack
             : forge.equivocated ? TraceEventKind::kEquivocate
             : forge.forged      ? TraceEventKind::kForge
                                 : TraceEventKind::kAdviceLie;
    e.aux = wire.payload;  // the lied content, for diffability
    e.flag = forge.advice_lie;
    sink.record(e);
  }
  send.kind = TraceEventKind::kSend;
  send.aux = wire.size_bits();
  sink.record(send);
  if (!fault.drop && !fault.duplicate && fault.extra_delay == 0) return;
  send.kind = fault.drop        ? TraceEventKind::kDrop
              : fault.duplicate ? TraceEventKind::kDuplicate
                                : TraceEventKind::kDelay;
  send.aux = fault.extra_delay;
  send.flag = false;
  sink.record(send);
  // A duplicated message can also be delayed; record both decisions.
  if (fault.duplicate && fault.extra_delay > 0) {
    send.kind = TraceEventKind::kDelay;
    sink.record(send);
  }
}

void RunPlane::check_run(const PortGraph& g, NodeId source,
                         const std::vector<BitString>& advice) {
  if (advice.size() != g.num_nodes()) {
    throw std::invalid_argument("run_execution: advice size != num nodes");
  }
  if (source >= g.num_nodes()) {
    throw std::invalid_argument("run_execution: bad source");
  }
  if (!g.frozen()) {
    throw std::invalid_argument(
        "run_execution: graph not frozen (call PortGraph::freeze)");
  }
}

void RunPlane::begin_result(RunResult& result, std::size_t n,
                            NodeId source) {
  result.informed.assign(n, false);
  result.informed[source] = true;
  result.sends_by_node.assign(n, 0);
  result.informed_at.assign(n, RunResult::kNeverInformed);
  result.informed_at[source] = 0;
}

void RunPlane::arm_failed(RunResult& result, std::size_t n, const char* what,
                          bool byzantine) {
  if (result.violation.empty()) {
    result.violation = format_behavior_exception(what);
  }
  result.terminated.assign(n, false);
  result.outputs.assign(n, 0);
  result.status =
      byzantine ? RunStatus::kByzantineDetected : RunStatus::kTaskFailed;
}

void RunPlane::begin_trace(TraceSink& sink, const PortGraph& g, NodeId source,
                           const std::vector<BitString>& advice,
                           const Algorithm& algorithm,
                           const RunOptions& options) {
  TraceRunInfo info;
  info.graph = &g;
  info.advice = &advice;
  info.source = source;
  info.algorithm = algorithm.name();
  info.options = &options;
  sink.begin_run(info);
}

bool RunPlane::bind(const PortGraph& g, NodeId source,
                    const std::vector<BitString>& advice,
                    const RunOptions& options, RunResult& result) {
  const bool faulty = options.fault.enabled();
  const std::vector<BitString>* used = &advice;
  if (faulty) {
    fault_plan.arm(options.fault, g.num_nodes(), source);
    result.faults.crashed_nodes = fault_plan.num_crashed();
    if (fault_plan.corrupts_advice()) {
      result.faults.advice_bits_flipped =
          fault_plan.corrupt_advice(advice, corrupted_advice);
      used = &corrupted_advice;
    }
  }
  bind_inputs(g, source, *used, options.anonymous);
  return faulty;
}

void RunPlane::bind_inputs(const PortGraph& g, NodeId source,
                           const std::vector<BitString>& advice,
                           bool anonymous) {
  const std::size_t n = g.num_nodes();
  advice_corrupted = &advice == &corrupted_advice;
  inputs.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    inputs[v] = NodeInput{&advice[v], v == source,
                          anonymous ? Label{0} : g.label(v), g.degree(v)};
  }
}

void RunPlane::trace_prologue(TraceSink& sink, bool faulty) const {
  const std::size_t n = inputs.size();
  for (NodeId v = 0; v < n; ++v) {
    TraceEvent e;
    e.kind = TraceEventKind::kAdviceRead;
    e.node = v;
    e.aux = inputs[v].advice->size();
    e.flag = advice_corrupted;
    sink.record(e);
  }
  if (!faulty) return;
  for (NodeId v = 0; v < n; ++v) {
    const std::int64_t at = fault_plan.crash_key(v);
    if (at == FaultPlan::kNoCrash) continue;
    TraceEvent e;
    e.kind = TraceEventKind::kCrash;
    e.node = v;
    e.key = at;
    sink.record(e);
  }
}

std::size_t RunPlane::begin_arm(const Algorithm& algorithm) {
  const std::size_t n = inputs.size();
  const bool pool_matches = algorithm.reusable() && pool_count > 0 &&
                            pool_algorithm == algorithm.name();
  behaviors.resize(n);
  // Pooled behaviors beyond the previous run's node count don't exist; the
  // reusable prefix is whatever survives both the pool and this run's size.
  return pool_matches ? std::min(pool_count, n) : 0;
}

void RunPlane::arm_range(NodeId begin, NodeId end, std::size_t reuse,
                         const Algorithm& algorithm) {
  for (NodeId v = begin; v < end; ++v) {
    if (v < reuse) {
      behaviors[v]->reset(inputs[v]);
    } else {
      behaviors[v] = algorithm.make_behavior(inputs[v]);
    }
  }
}

void RunPlane::end_arm(const Algorithm& algorithm) {
  if (algorithm.reusable()) {
    pool_algorithm = algorithm.name();
    pool_count = inputs.size();
  } else {
    drop_pool();
  }
}

void RunPlane::drop_pool() {
  pool_algorithm.clear();
  pool_count = 0;
}

void RunPlane::arm_behaviors(const Algorithm& algorithm) {
  const std::size_t reuse = begin_arm(algorithm);
  try {
    arm_range(0, static_cast<NodeId>(inputs.size()), reuse, algorithm);
  } catch (...) {
    behaviors.clear();
    drop_pool();
    throw;
  }
  end_arm(algorithm);
}

}  // namespace oraclesize
