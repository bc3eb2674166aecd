// The engine kernel: per-run node state and the one submit loop.
//
// The three engines — ExecutionContext (scalar), ShardedExecutionContext
// (epoch barriers) and SeedBatchExecutionContext (lockstep lanes) — differ
// only in how they step: a heap pop, an epoch barrier, or a lane mask over
// key classes. Everything else about a run lives here, once:
//
//  * RunPlane owns the per-run node state: the input table, the behavior
//    pool and its reuse bookkeeping, the fault plan and its corrupted-advice
//    scratch, the RunResult prologue and epilogue, and the trace-sink
//    prologue. Every engine embeds one and keeps it across runs, so a sweep
//    re-arms pooled behaviors instead of reallocating them.
//  * submit_sends is the one place a message is counted. For each batch a
//    behavior call produced it runs the wakeup check and then, per send:
//    port check, budget-before-count, link id, Byzantine forge, counting,
//    sink send event, fault decision with its sink events and counters,
//    and finally hands every surviving copy to the caller's placement step
//    (the scalar heap, a destination shard's heap, the lockstep lane mask,
//    or nothing for the sharded fast path). The loop never asks which
//    engine called it; what differs is the placement and which optional
//    planes (faults, adversary, sink) the SubmitState points at.
//
// Engines accept frozen graphs only: link ids are the CSR offsets
// (offsets[v] + port) and delivery targets are one load from the CSR
// endpoint array.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/trace_recorder.h"

namespace oraclesize {

/// Why submit_sends stopped short of placing every send of a batch.
enum class SubmitVerdict : std::uint8_t {
  kOk,
  kWakeupViolation,  ///< an uninformed node transmitted under enforce_wakeup
  kInvalidPort,      ///< a send named a port the node does not have
  kBudget,           ///< RunOptions::max_messages reached before this send
  kAborted,          ///< the placement step asked to stop
};

struct SubmitOutcome {
  SubmitVerdict verdict = SubmitVerdict::kOk;
  Port port = kNoPort;  ///< the offending port, for kInvalidPort
};

/// RunResult::violation text for a stopped submit ("" for kOk / kAborted).
/// Cold: the hot loop carries no string formatting.
[[gnu::cold]] std::string violation_text(const SubmitOutcome& outcome,
                                         NodeId v, std::size_t degree);

/// RunResult::violation text for a behavior that threw.
[[gnu::cold]] std::string format_behavior_exception(const char* what);

/// One admitted message copy, handed to the placement step.
struct AdmittedCopy {
  const Message& msg;        ///< wire content (forged for a lying sender)
  std::uint64_t link;        ///< dense directed-link id, offsets[v] + port
  std::uint64_t seq;         ///< this copy's global send sequence number
  std::int64_t now;          ///< key of the event that produced the send
  std::uint32_t extra_delay; ///< fault-plan delay on top of the scheduler key
  bool informed;             ///< the sender was informed when it sent
};

/// The run-wide state submit_sends reads and advances. The optional planes
/// are null when off for this caller: `faults` only when the caller decides
/// message faults here (the sharded fast path decides them while routing).
struct SubmitState {
  const std::uint64_t* offsets = nullptr;  ///< frozen CSR offsets (n + 1)
  const Endpoint* endpoints = nullptr;     ///< frozen CSR endpoints
  bool enforce_wakeup = false;
  std::uint64_t max_messages = 0;
  const FaultPlan* faults = nullptr;
  AdversaryPlan* adversary = nullptr;
  TraceSink* sink = nullptr;
  RunResult* result = nullptr;  ///< metrics, per-node sends, fault counters
  std::uint64_t seq = 0;         ///< next global send sequence number
  /// Byzantine logical send-batch counter: one behavior invocation is one
  /// group, so equivocation keys forged content per link within a group
  /// while the forge decision itself is per group.
  std::uint64_t send_group = 0;

  SubmitState(const PortGraph& g, const RunOptions& options,
              RunResult& run_result)
      : offsets(g.csr_offsets()),
        endpoints(g.csr_endpoints()),
        enforce_wakeup(options.enforce_wakeup),
        max_messages(options.max_messages),
        result(&run_result) {}
};

/// The sink's view of one admitted send, in stream order: the Byzantine
/// rewrite if one applied, the kSend event, then the fault plan's decisions.
/// `send` carries the send's coordinates (node, port, peer, key, seq, link,
/// informed flag); the wire content supplies the message kind and sizes.
/// Out of line: runs without a sink never reach it.
void trace_send(TraceSink& sink, TraceEvent send, const Message& wire,
                const AdversaryPlan::ForgeOutcome& forge,
                const FaultPlan::MessageFault& fault);

/// Validates, counts, traces and fault-decides the sends [first, last) that
/// node v produced while handling an event with key `now`, then calls
/// `place(const AdmittedCopy&) -> bool` once per surviving copy (twice for
/// a duplicated message). A dropped message still consumes its sequence
/// number; every placed copy consumes one. Stops at the first violation,
/// or with kAborted when `place` returns false.
template <class Place>
inline SubmitOutcome submit_sends(SubmitState& st, NodeId v, bool informed,
                                  std::int64_t now, const Send* first,
                                  const Send* last, Place&& place) {
  const std::uint64_t group = st.send_group++;
  // Most deliveries send nothing; they must not touch the CSR offsets.
  if (first == last) return {};
  if (st.enforce_wakeup && !informed) {
    return {SubmitVerdict::kWakeupViolation};
  }
  RunResult& result = *st.result;
  const std::uint64_t base = st.offsets[v];
  const std::uint64_t degree = st.offsets[v + 1] - base;
  AdversaryPlan* const adversary =
      st.adversary != nullptr && st.adversary->lying(v) ? st.adversary
                                                        : nullptr;
  const FaultPlan* const faults = st.faults;
  TraceSink* const sink = st.sink;
  std::uint64_t seq = st.seq;
  SubmitOutcome out;
  for (const Send* s = first; s != last; ++s) {
    if (s->port >= degree) {
      out = {SubmitVerdict::kInvalidPort, s->port};
      break;
    }
    // Budget check BEFORE counting: a run never reports more messages than
    // it was allowed to send (messages_total <= max_messages holds even on
    // violating runs).
    if (result.metrics.messages_total >= st.max_messages) {
      out = {SubmitVerdict::kBudget};
      break;
    }
    const std::uint64_t link = base + s->port;
    // Byzantine rewrite: a lying node's content is forged BEFORE the
    // network sees it — metrics, traces and fault decisions all act on the
    // wire content. Ground truth (informed flags) rides outside the
    // message and is never forged, so a fake kSource can fool the receiving
    // behavior but never truly informs it.
    const Message* wire = &s->msg;
    Message forged;
    AdversaryPlan::ForgeOutcome fo;
    if (adversary) {
      forged = s->msg;
      fo = adversary->forge(v, group, link, degree, forged);
      if (fo.forged || fo.advice_lie) {
        wire = &forged;
        AdversaryCounters& ac = result.adversary;
        if (fo.forged) ++ac.forged;
        if (fo.equivocated) ++ac.equivocated;
        if (fo.replayed) ++ac.replayed;
        if (fo.structured) ++ac.structured_lies;
        if (fo.advice_lie) ++ac.advice_lies;
      }
    }
    result.metrics.count_send(*wire);
    ++result.sends_by_node[v];
    // The message's fate is decided once, at submit time, keyed on
    // (seq, link) — a send counts toward metrics even when the network
    // then drops it (the node did transmit).
    FaultPlan::MessageFault mf;
    if (faults) mf = faults->message_fault(seq, link);
    if (sink) {
      TraceEvent e;
      e.node = v;
      e.port = s->port;
      e.peer = st.endpoints[link].node;
      e.key = now;
      e.seq = seq;  // the first copy's sequence number: the fault key
      e.link = link;
      e.flag = informed;
      trace_send(*sink, e, *wire, fo, mf);
    }
    if (mf.drop) {
      ++result.faults.dropped;
      ++seq;  // the dropped message still consumes its sequence number
      continue;
    }
    if (mf.duplicate) ++result.faults.duplicated;
    if (mf.extra_delay > 0) ++result.faults.delayed;
    const int copies = mf.duplicate ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      if (!place(AdmittedCopy{*wire, link, seq, now, mf.extra_delay,
                              informed})) {
        out = {SubmitVerdict::kAborted};
        break;
      }
      ++seq;
    }
    if (out.verdict != SubmitVerdict::kOk) break;
  }
  st.seq = seq;
  return out;
}

/// Per-run node state, kept across runs by the engine that embeds it.
struct RunPlane {
  /// The shared entry checks of every engine: throws std::invalid_argument
  /// unless g is frozen, advice holds one string per node and source is a
  /// node.
  static void check_run(const PortGraph& g, NodeId source,
                        const std::vector<BitString>& advice);

  /// RunResult prologue: per-node tables sized to n, the source informed
  /// at key 0.
  static void begin_result(RunResult& result, std::size_t n, NodeId source);

  /// The outcome of a run whose behaviors could not be armed: the behavior
  /// exception as violation, no node terminated, kTaskFailed — or
  /// kByzantineDetected on an adversarial run.
  static void arm_failed(RunResult& result, std::size_t n, const char* what,
                         bool byzantine);

  /// begin_run for `sink`, describing the run with its ORIGINAL advice.
  static void begin_trace(TraceSink& sink, const PortGraph& g, NodeId source,
                          const std::vector<BitString>& advice,
                          const Algorithm& algorithm,
                          const RunOptions& options);

  /// Arms the fault plan when options.fault is enabled (recording the crash
  /// count and flipped advice bits into result.faults), then binds inputs
  /// to the advice the behaviors decode: the original, or a corrupted
  /// private copy. Returns whether the fault plan is armed.
  bool bind(const PortGraph& g, NodeId source,
            const std::vector<BitString>& advice, const RunOptions& options,
            RunResult& result);

  /// Binds inputs[v] to advice[v], the source flag, the label (0 when
  /// anonymous) and the degree — bind without the fault plan.
  void bind_inputs(const PortGraph& g, NodeId source,
                   const std::vector<BitString>& advice, bool anonymous);

  /// Node-state trace prologue, emitted before any scheme code runs: each
  /// node's advice binding (the string it decodes, possibly corrupted) and,
  /// when `faulty`, the crash schedule.
  void trace_prologue(TraceSink& sink, bool faulty) const;

  /// Behavior arming in three steps, so the sharded engine can arm node
  /// ranges in parallel: begin_arm sizes the table and returns how many
  /// leading pooled behaviors this algorithm may re-arm with reset();
  /// arm_range re-arms or constructs [begin, end); end_arm records the pool
  /// identity once every range succeeded. drop_pool forgets the pool after
  /// a failed arm (the table no longer matches its bookkeeping).
  std::size_t begin_arm(const Algorithm& algorithm);
  void arm_range(NodeId begin, NodeId end, std::size_t reuse,
                 const Algorithm& algorithm);
  void end_arm(const Algorithm& algorithm);
  void drop_pool();

  /// All three steps over every node; drops the pool and rethrows when a
  /// behavior constructor throws.
  void arm_behaviors(const Algorithm& algorithm);

  /// RunResult epilogue: every behavior's terminated()/output(),
  /// all_informed, and the status. `result.informed` must be final.
  void end_result(RunResult& result, bool timed_out, bool budget_exhausted,
                  bool byzantine) const;

  FaultPlan fault_plan;
  /// Scratch for FaultPlan::corrupt_advice — trials share immutable advice
  /// vectors, so corruption writes a private copy here instead.
  std::vector<BitString> corrupted_advice;
  bool advice_corrupted = false;  ///< inputs point into corrupted_advice
  std::vector<NodeInput> inputs;
  std::vector<std::unique_ptr<NodeBehavior>> behaviors;
  /// Behavior-pool identity: behaviors[v] (v < pool_count) were produced by
  /// a reusable algorithm named pool_algorithm and may be re-armed via
  /// reset() by any same-named reusable algorithm.
  std::string pool_algorithm;
  std::size_t pool_count = 0;
};

// Inline on purpose: an out-of-line epilogue measurably slows the scalar
// engine's event loop under -O3 (flooding on a 256x256 grid, ~25%).
inline void RunPlane::end_result(RunResult& result, bool timed_out,
                                 bool budget_exhausted, bool byzantine) const {
  const std::size_t n = inputs.size();
  result.terminated.resize(n);
  result.outputs.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.terminated[v] = behaviors[v]->terminated();
    result.outputs[v] = behaviors[v]->output();
  }
  result.all_informed = (result.informed_count() == n);
  if (timed_out) {
    result.status = RunStatus::kTimeout;
  } else if (budget_exhausted) {
    result.status = RunStatus::kBudgetExhausted;
  } else if (byzantine && !result.violation.empty()) {
    // An adversarial run that produced an observable symptom (violation or
    // behavior exception on forged content) was DETECTED. A fooled run that
    // ends cleanly but wrong stays kTaskFailed — the silent case.
    result.status = RunStatus::kByzantineDetected;
  } else if (!result.violation.empty() || !result.all_informed) {
    result.status = RunStatus::kTaskFailed;
  } else {
    result.status = RunStatus::kCompleted;
  }
}

}  // namespace oraclesize
