// The discrete-event execution engine.
//
// Given a network, a source, per-node advice strings (the oracle's output),
// and an algorithm, the engine instantiates one scheme per node and plays
// the message-passing execution under a chosen scheduler. It tracks the
// paper's notion of "informed" — the source is informed, and a node becomes
// informed upon receiving a message *sent by an informed node* (the source
// message can be piggybacked on any such message) — and can machine-check
// the wakeup constraint: a non-source node must not transmit before it is
// informed.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bitio/bitstring.h"
#include "graph/port_graph.h"
#include "sim/adversary_plan.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/scheme.h"

namespace oraclesize {

class TraceSink;  // sim/trace_recorder.h

/// Structured outcome of one execution. A run always terminates with
/// exactly one of these instead of looping or throwing for anything the
/// scheme (or the injected faults) did:
///  * kCompleted       — event queue drained, no violation, task criterion
///                       (all nodes informed) met;
///  * kTaskFailed      — the run ended cleanly but the task was not solved
///                       (uninformed nodes, a wakeup/port violation, or a
///                       behavior that threw on corrupted advice);
///  * kTimeout         — RunOptions::deadline_ns elapsed mid-run;
///  * kBudgetExhausted — the event or message budget ran out;
///  * kCrashed         — the trial infrastructure itself threw (set by
///                       BatchRunner, never by the engine);
///  * kByzantineDetected — the adversary plan was active and the run ended
///                       with an observable symptom (a violation, or a
///                       behavior that threw on forged content). A fooled
///                       run that terminates cleanly with a wrong answer
///                       stays kTaskFailed — the silent-wrong-answer case
///                       the detected case is distinguished from.
enum class RunStatus : std::uint8_t {
  kCompleted,
  kTaskFailed,
  kTimeout,
  kBudgetExhausted,
  kCrashed,
  kByzantineDetected,
};

const char* to_string(RunStatus status);

/// Why ShardedExecutionContext (sim/sharded_engine.h) played a run on its
/// embedded single-threaded engine: kScheduler, kAdversary and kDuplicate
/// up front, the rest detected inside an epoch, discarding the attempt.
enum class FallbackReason : std::uint8_t {
  kNone,
  kScheduler,  ///< async-fifo, async-lifo or adversarial
  kAdversary,  ///< a Byzantine plan
  kDuplicate,  ///< duplication faults: seq numbers chain across shards
  kViolation,  ///< a wakeup or port violation
  kBudget,     ///< max_messages ran out
  kBehaviorException,  ///< a behavior threw arming or handling an event
  kMaxEvents,  ///< max_events landed inside an epoch
};

/// One past the last FallbackReason, for tables indexed by reason.
inline constexpr std::size_t kFallbackReasons =
    static_cast<std::size_t>(FallbackReason::kMaxEvents) + 1;

/// "none", "scheduler", ..., "max_events": the one name table of the
/// reasons (BatchStats counters, docs).
const char* to_string(FallbackReason reason);

struct RunOptions {
  SchedulerKind scheduler = SchedulerKind::kSynchronous;
  std::uint64_t seed = 1;  ///< delay key of kAsyncRandom / kAsyncLinkFifo
  std::uint32_t max_delay = 16;    ///< max per-message delay, kAsyncRandom
  std::uint64_t max_messages = 50'000'000;  ///< runaway-scheme safety valve
  bool enforce_wakeup = false;  ///< flag transmissions by uninformed nodes
  bool anonymous = false;       ///< hide id(v) from the algorithm (pass 0)
  /// Deterministic fault injection (sim/fault_plan.h). The default plan is
  /// disabled: the run takes the legacy reliable-network path bit for bit.
  FaultPlanParams fault;
  /// Deterministic Byzantine injection (sim/adversary_plan.h): lying node
  /// sets, forged/equivocated/replayed messages, per-link advice lies. The
  /// default plan is disabled and costs nothing on the hot path.
  AdversaryPlanParams adversary;
  /// Wall-clock cap on one run; 0 = none. A run that exceeds it stops with
  /// RunStatus::kTimeout. NOTE: the only machine-dependent knob — runs
  /// racing a deadline are not reproducible across hosts.
  std::uint64_t deadline_ns = 0;
  /// Cap on delivered events; 0 = none. Exceeding it stops the run with
  /// RunStatus::kBudgetExhausted (deterministic, unlike deadline_ns).
  std::uint64_t max_events = 0;
  /// Event tracing (sim/trace_recorder.h), the engines' one tracing path:
  /// sends, deliveries, fault decisions and node-state transitions,
  /// stamped with the fault plan's counter keys. Null = disabled — the hot
  /// path pays one branch per event group and allocates nothing.
  /// Non-owning; the sink must outlive the run.
  TraceSink* trace_sink = nullptr;

  /// Field-wise, every field: BatchRunner's seed families key on whole
  /// options (seeds zeroed), so a field added here joins the key unasked.
  friend bool operator==(const RunOptions&, const RunOptions&) = default;
  friend auto operator<=>(const RunOptions&, const RunOptions&) = default;
};

struct RunResult {
  Metrics metrics;
  RunStatus status = RunStatus::kCompleted;  ///< structured outcome
  FaultCounters faults;  ///< what the fault plan did (all zero when disabled)
  AdversaryCounters adversary;  ///< what the Byzantine layer did (zero when off)
  std::vector<bool> informed;  ///< per node
  bool all_informed = false;   ///< the task's success criterion
  /// Empty when the run is clean; otherwise the first violation detected
  /// (wakeup constraint, invalid port, message budget).
  std::string violation;
  std::vector<bool> terminated;   ///< per-node NodeBehavior::terminated()
  std::vector<std::uint64_t> outputs;  ///< per-node NodeBehavior::output()
  std::vector<std::uint64_t> sends_by_node;  ///< per-node message load
  /// Scheduler key (round, under kSynchronous) at which each node became
  /// informed; kNeverInformed for nodes that never did, 0 for the source.
  static constexpr std::int64_t kNeverInformed =
      std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> informed_at;

  /// The heaviest sender's message count (load balance of the scheme —
  /// the paper counts totals; per-node load is a natural refinement).
  std::uint64_t max_node_sends() const;

  std::size_t informed_count() const;

  /// Field-by-field equality: the batch runtime's determinism contract
  /// ("bit-identical results regardless of --jobs") is checked with this.
  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// Executes `algorithm` on `g` from `source` with the given advice strings.
/// Throws std::invalid_argument unless g is frozen (PortGraph::freeze),
/// advice.size() equals g.num_nodes() and source is a node. Deterministic
/// for fixed inputs and options.
RunResult run_execution(const PortGraph& g, NodeId source,
                        const std::vector<BitString>& advice,
                        const Algorithm& algorithm, const RunOptions& options);

}  // namespace oraclesize
