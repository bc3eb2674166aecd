// Sharded intra-run execution: one run, many cores, bit-identical results.
//
// ExecutionContext plays one run on one thread; BatchRunner parallelizes
// only *across* trials. A single million-node instance therefore cannot use
// the machine. ShardedExecutionContext splits one run across shards that
// each own a contiguous node range of the graph (graph/partition.h), with
// per-shard event queues and node-state slices, and exchanges cross-shard
// messages at deterministic epoch barriers.
//
// The execution model is bulk-synchronous over the scheduler's key space:
//
//  * an EPOCH is the set of pending events holding the globally minimal
//    delivery key K. Every scheduler in sim/scheduler.h either assigns
//    strictly-greater keys to all messages submitted while processing a
//    key-K event (kSynchronous, kAsyncRandom, kAsyncLinkFifo) or assigns
//    unique keys to every message (kAsyncFifo, kAsyncLifo — where an epoch
//    degenerates to one event), so the single-threaded engine necessarily
//    processes all of epoch K — in send-sequence order — before any other
//    pending event. Shards can therefore process their slice of an epoch in
//    parallel: events for a node are delivered only on the shard that owns
//    it, in (key, seq) order.
//  * at the BARRIER the coordinator finalizes the epoch's sends in global
//    send-sequence order (a k-way merge of the shards' processed-event
//    lists), assigning the exact sequence numbers, fault decisions
//    (sim/fault_plan.h is keyed on (seq, link) — shard-count-invariant by
//    construction), delivery keys, metrics, and trace records the
//    single-threaded engine would produce, and routes each message copy
//    into the destination shard's queue.
//
// Determinism contract: for every (graph, source, advice, algorithm,
// options), run() returns a RunResult bit-identical (RunResult::operator==)
// to ExecutionContext::run at ANY shard count, including any TraceSink
// stream. Pinned by tests/test_sharded_engine.cpp,
// tests/test_sharded_goldens.cpp and the fuzz sweep.
//
// Both barrier finalizers run the engines' one submit loop
// (sim/run_plane.h) in global send order; they differ in what it places:
//
//  * the FAST path (the pure schedulers of Scheduler::is_pure, no sink, no
//    duplication faults — delivery keys are pure functions of (now, seq,
//    link) and every send consumes exactly one sequence number) places
//    nothing: the serial pass only validates and counts, then fault
//    decisions, delivery keys and routing run in parallel per source
//    shard, and mailboxes drain into destination queues in parallel;
//  * the SERIAL path (the link-clock scheduler, active sinks, duplication)
//    places each copy into its destination shard's queue at the
//    coordinator, with sink events collected by a buffering sink —
//    parallelism then covers only behavior execution, which is correct
//    but slower; it exists so observability and fault regimes keep exact
//    semantics.
//
// Divergence handling: anything that stops the single-threaded engine
// mid-epoch — a wakeup/port/budget violation, a behavior exception, an
// event-budget cutoff inside an epoch — would leave the sharded attempt's
// state ahead of the canonical one. The attempt is then DISCARDED (no sink
// output is emitted — the stream is buffered until success) and the run is
// replayed on the embedded single-threaded engine, which reproduces the
// canonical result or exception exactly. last_stats().fell_back reports it.
// Clean runs, event budgets landing on epoch boundaries, and deadline stops
// never fall back.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "graph/partition.h"
#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/execution_context.h"
#include "sim/run_plane.h"
#include "sim/trace_recorder.h"

namespace oraclesize {

/// How the last run used the shard machinery. Reported out-of-band (never
/// inside RunResult — result equality across shard counts is the contract).
struct ShardedRunStats {
  std::uint32_t shards = 1;  ///< shards the run actually partitioned into
  std::uint64_t epochs = 0;  ///< barrier count (main loop only)
  std::uint64_t cross_shard_messages = 0;  ///< copies routed between shards
  bool fell_back = false;  ///< attempt discarded, replayed single-threaded

  friend bool operator==(const ShardedRunStats&,
                         const ShardedRunStats&) = default;
};

/// A reusable sharded engine. Like ExecutionContext, one instance plays
/// many runs and retains its storage across them; unlike it, run() may use
/// `shards` worker threads for one run. Not thread-safe: one
/// ShardedExecutionContext per caller thread.
class ShardedExecutionContext {
 public:
  /// `shards` = 0 picks one shard per available hardware thread. A value of
  /// 1 (or a graph too small to split) runs on the embedded single-threaded
  /// engine directly.
  explicit ShardedExecutionContext(std::uint32_t shards = 0);
  ~ShardedExecutionContext();

  ShardedExecutionContext(const ShardedExecutionContext&) = delete;
  ShardedExecutionContext& operator=(const ShardedExecutionContext&) = delete;

  /// Plays one execution; same signature, semantics and frozen-graph
  /// precondition as ExecutionContext::run, bit-identical results at any
  /// shard count.
  RunResult run(const PortGraph& g, NodeId source,
                const std::vector<BitString>& advice,
                const Algorithm& algorithm, const RunOptions& options);

  /// Shard usage of the most recent run().
  const ShardedRunStats& last_stats() const noexcept { return stats_; }

  /// The resolved shard count this context was built for.
  std::uint32_t configured_shards() const noexcept { return shards_; }

 private:
  /// One event handled during an epoch, recorded by its shard for the
  /// barrier finalizer. `order` is the global position among the epoch's
  /// events: the popped entry's send sequence in the main loop, the node id
  /// in the start phase (both strictly increasing per shard, disjoint
  /// across shards).
  struct ProcessedEvent {
    std::uint64_t order = 0;
    std::int64_t now = 0;   ///< delivery key (0 for start-phase activations)
    NodeId node = kNoNode;  ///< the acting node
    std::uint32_t send_begin = 0;  ///< range into Shard::sends
    std::uint32_t send_end = 0;
    std::uint32_t trace_begin = 0;  ///< range into Shard::trace
    std::uint32_t trace_end = 0;
    std::uint64_t seq_base = 0;  ///< fast path: first send's sequence number
    std::uint32_t pushes = 0;    ///< fast path: copies actually enqueued
    bool popped = false;    ///< consumed a queue entry (false in start phase)
    bool dead = false;      ///< delivery suppressed at a crashed node
    bool informed = false;  ///< informed[node] when its sends were produced
  };

  /// One routed message copy, parked in a per-(src, dst) mailbox between
  /// the fast finalizer's routing pass and the destination-queue drain.
  struct MailboxEntry {
    std::int64_t key = 0;
    std::uint64_t seq = 0;
    NodeId to = kNoNode;
    Port at_port = kNoPort;
    bool sender_informed = false;
    Message msg;
  };

  /// Per-shard state: the owned node range, the event queue, and the epoch
  /// scratch buffers. All vectors retain capacity across epochs and runs.
  struct Shard {
    NodeId begin = 0;
    NodeId end = 0;
    EventHeap events;
    std::vector<ProcessedEvent> processed;  ///< this epoch's handled events
    std::vector<Send> sends;                ///< flat pending-send storage
    std::vector<TraceEvent> trace;          ///< buffered delivery-side events
    std::vector<std::vector<MailboxEntry>> outbox;  ///< per destination shard
    std::vector<Send> scratch;              ///< behavior send sink
    std::uint64_t dropped = 0;              ///< routing-pass fault partials
    std::uint64_t delayed = 0;
    std::uint64_t cross = 0;                ///< copies routed off-shard
    std::exception_ptr error;               ///< captured from worker code
  };

  class Workers;  // persistent thread pool (sharded_engine.cpp)

  /// The sharded attempt. Returns true and fills `result` on a clean run
  /// (sink stream flushed); returns false when the attempt must be
  /// discarded and replayed single-threaded. Never lets worker exceptions
  /// escape a thread.
  bool attempt(const PortGraph& g, NodeId source,
               const std::vector<BitString>& advice,
               const Algorithm& algorithm, const RunOptions& options,
               const Partition& part, RunResult& result);

  /// Fills merge_order_ with the epoch's processed events of `parts` in
  /// global `order` — the k-way merge both barrier finalizers walk.
  void merge_by_order(const std::vector<std::uint32_t>& parts);

  std::uint32_t shards_ = 1;
  ShardedRunStats stats_;
  ExecutionContext legacy_;  ///< shards<=1 path and fallback replays

  // Sharded-run state (mirrors ExecutionContext's reuse discipline).
  Scheduler scheduler_;
  RunPlane plane_;
  /// Byte-wide informed flags: vector<bool> packs 64 nodes per word, which
  /// two shards bordering a word boundary would race on. Shards write only
  /// their own bytes here; RunResult::informed is filled serially at the
  /// end.
  std::vector<std::uint8_t> informed_;
  std::vector<TraceEvent> sink_buf_;  ///< whole-run buffered sink stream
  std::vector<Shard> shards_state_;
  std::vector<std::uint32_t> parts_;  ///< scratch: epoch participant ids
  /// Scratch: the epoch's merge order as (shard, processed-index) pairs,
  /// built by merge_by_order with one cursor per participating shard.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merge_order_;
  std::vector<std::uint32_t> cursor_;
  std::unique_ptr<Workers> workers_;
};

}  // namespace oraclesize
