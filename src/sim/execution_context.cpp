#include "sim/execution_context.h"

#include <chrono>
#include <utility>

namespace oraclesize {

RunResult ExecutionContext::run(const PortGraph& g, NodeId source,
                                const std::vector<BitString>& advice,
                                const Algorithm& algorithm,
                                const RunOptions& options) {
  RunPlane::check_run(g, source, advice);
  const std::size_t n = g.num_nodes();
  RunResult result;
  RunPlane::begin_result(result, n, source);

  // A null sink is the zero-cost default: every emission hides behind
  // `if (sink)`.
  TraceSink* const sink = options.trace_sink;
  if (sink) {
    RunPlane::begin_trace(*sink, g, source, advice, algorithm, options);
  }

  // Everything fault-related is gated on `faulty`: the disabled plan takes
  // the reliable path bit for bit and allocates nothing new (the
  // zero-allocation steady state is audited by tests/test_zero_alloc.cpp).
  const bool faulty = plane_.bind(g, source, advice, options, result);
  const FaultPlan& faults = plane_.fault_plan;

  // The Byzantine layer rides the same gate discipline: a disabled plan is
  // never armed, never consulted, and the run stays bit-identical to the
  // reliable path (tests/test_goldens.cpp ZeroAdversaryPlanIsInvisible).
  const bool byz = options.adversary.enabled();
  if (byz) {
    adversary_plan_.arm(options.adversary, n, source);
    result.adversary.lying_nodes = adversary_plan_.num_lying();
  }
  if (sink) plane_.trace_prologue(*sink, faulty);

  // Corrupted advice can make behavior constructors (which decode it)
  // throw. Only a faulty run absorbs that into a structured failure; a
  // reliable run keeps the contract of letting it propagate.
  try {
    plane_.arm_behaviors(algorithm);
  } catch (const std::exception& e) {
    if (!faulty) throw;
    RunPlane::arm_failed(result, n, e.what(), byz);
    if (sink) sink->end_run(result);
    return result;
  }

  const std::uint64_t* const offsets = g.csr_offsets();
  const Endpoint* const endpoints = g.csr_endpoints();
  scheduler_.reset(options.scheduler, options.seed, options.max_delay,
                   offsets[n]);
  events_.clear(Scheduler::delivery_order(options.scheduler, options.max_delay,
                                         options.fault));

  SubmitState st(g, options, result);
  if (faulty && faults.message_faults()) st.faults = &faults;
  if (byz) st.adversary = &adversary_plan_;
  st.sink = sink;
  bool budget_hit = false;
  auto fail = [&](std::string what) {
    if (result.violation.empty()) result.violation = std::move(what);
  };

  // Enqueues one admitted copy: the CSR endpoint array is indexed by
  // exactly the link ids the scheduler keys its per-link clocks on.
  auto place = [&](const AdmittedCopy& c) {
    const Endpoint dst = endpoints[c.link];
    const std::size_t slot = events_.acquire_slot();
    events_.slot(slot) = EngineEvent{dst.node, dst.port, c.msg, c.informed};
    events_.push({scheduler_.delivery_key(c.now, c.seq, c.link) +
                      static_cast<std::int64_t>(c.extra_delay),
                  c.seq, slot});
    return true;
  };
  auto submit = [&](NodeId v, std::int64_t now) {
    const SubmitOutcome out =
        submit_sends(st, v, result.informed[v], now, sends_.data(),
                     sends_.data() + sends_.size(), place);
    if (out.verdict == SubmitVerdict::kOk) return;
    if (out.verdict == SubmitVerdict::kBudget) budget_hit = true;
    fail(violation_text(out, v, g.degree(v)));
  };

  // Behaviors may throw on forged content as well as on corrupted advice;
  // either adversarial regime absorbs the exception into a structured
  // violation. Reliable runs let it propagate to the caller.
  const bool guarded = faulty || byz;
  auto invoke = [&](auto&& call) {
    if (!guarded) {
      call();
      return true;
    }
    try {
      call();
      return true;
    } catch (const std::exception& e) {
      fail(format_behavior_exception(e.what()));
      return false;
    }
  };

  // Empty-history activations. Node order is irrelevant to correctness
  // (deliveries all happen strictly later) but kept deterministic.
  for (NodeId v = 0; v < n && result.violation.empty(); ++v) {
    // A node whose crash key is <= 0 is down before its activation fires.
    if (faulty && faults.crash_key(v) <= 0) continue;
    sends_.clear();
    if (!invoke([&] {
          plane_.behaviors[v]->on_start(plane_.inputs[v], sends_);
        })) {
      break;
    }
    submit(v, 0);
  }

  const bool has_deadline = options.deadline_ns > 0;
  std::chrono::steady_clock::time_point deadline_at;
  if (has_deadline) {
    deadline_at = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(options.deadline_ns);
  }
  std::uint64_t processed = 0;
  bool timed_out = false;
  bool events_exhausted = false;

  while (!events_.empty() && result.violation.empty()) {
    if (options.max_events > 0 && processed >= options.max_events) {
      events_exhausted = true;
      break;
    }
    // The clock check is amortized: one steady_clock read per 1024 events
    // keeps the reliable fast path free of syscall-ish overhead.
    if (has_deadline && (processed & 1023u) == 0 &&
        std::chrono::steady_clock::now() >= deadline_at) {
      timed_out = true;
      break;
    }
    ++processed;
    const EventHeap::Entry top = events_.pop();
    // Move the event out before recycling its slot: submit() below may
    // acquire slots and grow the pool, invalidating references into it.
    EngineEvent ev = std::move(events_.slot(top.slot));
    events_.release_slot(top.slot);
    // Crash-stop: node v processes events with key strictly below its
    // crash key; anything at or after it lands on a dead node.
    if (faulty && top.key >= faults.crash_key(ev.to)) {
      ++result.faults.dead_deliveries;
      if (sink) {
        TraceEvent e;
        e.kind = TraceEventKind::kDeadDelivery;
        e.node = ev.to;
        e.port = ev.at_port;
        e.msg = ev.msg.kind;
        e.key = top.key;
        e.seq = top.seq;
        sink->record(e);
      }
      continue;
    }
    ++result.metrics.deliveries;
    if (top.key > result.metrics.completion_key) {
      result.metrics.completion_key = top.key;
    }
    if (sink) {
      // The sender is recoverable from the port relation — worth the
      // neighbor lookup only on observability runs.
      const Endpoint from = g.neighbor(ev.to, ev.at_port);
      TraceEvent e;
      e.kind = TraceEventKind::kDeliver;
      e.node = ev.to;
      e.port = ev.at_port;
      e.peer = from.node;
      e.msg = ev.msg.kind;
      e.key = top.key;
      e.seq = top.seq;
      // The same directed-link index the send was keyed on (sender side).
      e.link = offsets[from.node] + from.port;
      e.aux = ev.msg.size_bits();
      e.flag = ev.sender_informed;
      sink->record(e);
    }
    // Deliveries to colluding nodes feed the shared replay buffer: the
    // adversary replays genuine traffic its members have seen.
    if (byz && adversary_plan_.lying(ev.to)) adversary_plan_.observe(ev.msg);
    // The paper's informing rule: any message from an informed sender
    // informs the receiver (M can ride along on it).
    if (ev.sender_informed && !result.informed[ev.to]) {
      result.informed[ev.to] = true;
      result.informed_at[ev.to] = top.key;
      if (sink) {
        TraceEvent e;
        e.kind = TraceEventKind::kInformed;
        e.node = ev.to;
        e.peer = g.neighbor(ev.to, ev.at_port).node;
        e.port = ev.at_port;
        e.key = top.key;
        e.seq = top.seq;
        sink->record(e);
      }
    }
    sends_.clear();
    if (!invoke([&] {
          plane_.behaviors[ev.to]->on_receive(plane_.inputs[ev.to], ev.msg,
                                              ev.at_port, sends_);
        })) {
      break;
    }
    submit(ev.to, top.key);
  }

  result.metrics.queue_depth_peak = events_.peak();
  plane_.end_result(result, timed_out, events_exhausted || budget_hit, byz);
  if (sink) sink->end_run(result);
  return result;
}

}  // namespace oraclesize
