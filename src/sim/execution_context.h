// A reusable execution engine: one ExecutionContext plays many runs.
//
// `run_execution` (sim/engine.h) is a convenience that builds a fresh
// context per call. For experiment sweeps — thousands of trials over the
// same or similar networks — that means re-heap-allocating the behavior
// table, the input table, and the event queue on every trial, and the
// `std::priority_queue<Event>` sifts full `Message`-carrying structs on
// every push/pop. ExecutionContext keeps all of that storage alive across
// runs:
//
//  * per-node tables (`NodeInput`, behavior slots — the RunPlane of
//    sim/run_plane.h) are resized, not reallocated;
//  * pending events live in a flat pool with a free list; the priority
//    queue is an index heap over the pool, so heap sifts move 8-byte
//    indices instead of events;
//  * the scheduler's per-link FIFO clock is a flat vector indexed by the
//    frozen graph's CSR offsets, reset (not rebuilt) per run;
//  * behavior objects are pooled: when consecutive runs use algorithms
//    reporting `Algorithm::reusable()` with the same name(), existing
//    behaviors are re-armed via `NodeBehavior::reset` instead of being
//    destroyed and re-`make_behavior`'d — so the steady state of a sweep
//    performs zero per-node heap allocations per run;
//  * sends are appended into one scratch vector recycled across events
//    (the sink protocol of sim/scheme.h).
//
// The contract: for a fixed (graph, source, advice, algorithm, options),
// ExecutionContext::run returns a RunResult bit-identical to
// run_execution's, regardless of how many runs the context played before —
// see tests/test_execution_context.cpp and tests/test_behavior_reuse.cpp.
// A context is NOT thread-safe; use one per worker (core/batch_runner.h
// does exactly that).
#pragma once

#include <vector>

#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/run_plane.h"

namespace oraclesize {

class ExecutionContext {
 public:
  ExecutionContext() : scheduler_(SchedulerKind::kSynchronous, 0, 1) {}

  /// Plays one execution. Identical semantics to run_execution; see
  /// sim/engine.h for the meaning of each argument, of the result, and of
  /// the frozen-graph precondition.
  RunResult run(const PortGraph& g, NodeId source,
                const std::vector<BitString>& advice,
                const Algorithm& algorithm, const RunOptions& options);

 private:
  Scheduler scheduler_;
  AdversaryPlan adversary_plan_;
  RunPlane plane_;
  std::vector<Send> sends_;  ///< scratch sink, recycled per event
  /// Pending events: slot pool + (key, seq) index heap (sim/event_heap.h).
  EventHeap events_;
};

}  // namespace oraclesize
