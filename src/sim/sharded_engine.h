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
//    delivery key K. The schedulers the engine runs sharded (kSynchronous,
//    kAsyncRandom, kAsyncLinkFifo) give every message submitted while
//    processing a key-K event a key strictly above K, extra delay
//    included, so the single-threaded engine necessarily processes all of
//    epoch K — in send-sequence order — before any other pending event.
//    Shards can therefore process their slice of an epoch in parallel:
//    events for a node are delivered only on the shard that owns it, in
//    (key, seq) order.
//  * each epoch is one pass of the worker pool with two phases split by a
//    barrier. In phase A every shard merges its inbound mailboxes, in seq
//    order, into its own queue (sim/event_heap.h, the discipline
//    Scheduler::delivery_order picks, its ring floor raised to K), then
//    pops and runs its key-K events. In phase B every shard ranks its
//    events among all shards' by their global `order`, derives each
//    event's first sequence number from the other shards' send counts —
//    exactly the numbers the single-threaded engine would assign — and
//    runs the engines' one submit loop (sim/run_plane.h) over them:
//    wakeup and port checks, counts into per-shard partials, fault
//    decisions (keyed on (seq, link), so shard-count-invariant), delivery
//    keys and routing into per-destination mailboxes, and each event's
//    push − pop delta written at its rank. Keys come from
//    Scheduler::delivery_key; kAsyncLinkFifo's clock of link
//    offsets[v] + port is read and advanced only by v's shard, in the
//    single-threaded engine's order. Under a sink, each shard records its
//    send-side events into its own buffer and writes every event's rank.
//  * between passes the coordinator reduces the partials, checks the
//    message and event budgets, replays the rank-ordered deltas for
//    queue_depth_peak, splices the sink stream in rank order and picks the
//    next key from the queue tops and the mailbox minima.
//
// Determinism contract: for every (graph, source, advice, algorithm,
// options), run() returns a RunResult bit-identical (RunResult::operator==)
// to ExecutionContext::run at ANY shard count, including any TraceSink
// stream. Pinned by tests/test_sharded_engine.cpp,
// tests/test_sharded_goldens.cpp and the fuzz sweep.
//
// Runs that are serial by nature go to the embedded single-threaded engine
// up front: Byzantine plans and the adversarial scheduler (replay buffer
// and probe history follow global delivery order); kAsyncFifo and
// kAsyncLifo, whose epochs hold one event and whose keys, under extra
// delay, collide and fall below the epoch key; and duplication faults,
// where a send's fault decision, keyed on its own sequence number, decides
// whether it uses one number or two, so the numbers form a serial chain
// across shards.
//
// Divergence handling: anything that stops the single-threaded engine
// mid-epoch — a wakeup/port/budget violation, a behavior exception, an
// event-budget cutoff inside an epoch — would leave the sharded attempt's
// state ahead of the canonical one. The attempt is then DISCARDED (no sink
// output is emitted — the stream is buffered until success) and the run is
// replayed on the embedded single-threaded engine, which reproduces the
// canonical result or exception exactly. last_stats() reports that it fell
// back and why. Clean runs, event budgets landing on epoch boundaries, and
// deadline stops never fall back.
#pragma once

#include <cstdint>
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
  /// Why it fell back (kNone exactly when fell_back is false, FallbackReason
  /// in sim/engine.h). A run that would fail several ways inside one epoch
  /// reports max_events landing there first, then the lowest shard's
  /// failure, then the message budget.
  FallbackReason fallback = FallbackReason::kNone;

  friend bool operator==(const ShardedRunStats&,
                         const ShardedRunStats&) = default;
};

/// A reusable sharded engine. Like ExecutionContext, one instance plays
/// many runs and retains its storage across them; unlike it, run() may use
/// `shards` worker threads for one run. Not thread-safe: one
/// ShardedExecutionContext per caller thread.
class ShardedExecutionContext {
 public:
  /// `shards` = 0 picks one shard per CPU the calling thread may run on
  /// (util/cpus.h). A value of 1 (or a graph too small to split) runs on
  /// the embedded single-threaded engine directly.
  explicit ShardedExecutionContext(std::uint32_t shards = 0);
  ~ShardedExecutionContext();

  ShardedExecutionContext(const ShardedExecutionContext&) = delete;
  ShardedExecutionContext& operator=(const ShardedExecutionContext&) = delete;

  /// Plays one execution; same signature, semantics and frozen-graph
  /// precondition as ExecutionContext::run, bit-identical results at any
  /// shard count. Throws std::logic_error if the engine loses messages in
  /// flight (an engine bug, never a property of the run).
  RunResult run(const PortGraph& g, NodeId source,
                const std::vector<BitString>& advice,
                const Algorithm& algorithm, const RunOptions& options);

  /// Shard usage of the most recent run().
  const ShardedRunStats& last_stats() const noexcept { return stats_; }

  /// The resolved shard count this context was built for.
  std::uint32_t configured_shards() const noexcept { return shards_; }

 private:
  /// One event handled during an epoch, recorded by its shard in phase A.
  /// `order` is the global position among the epoch's events: the popped
  /// entry's send sequence in the main loop, the node id in the start phase
  /// (both strictly increasing per shard, disjoint across shards).
  struct ProcessedEvent {
    std::uint64_t order = 0;
    std::int64_t now = 0;   ///< delivery key (0 for start-phase activations)
    NodeId node = kNoNode;  ///< the acting node
    /// Range into Shard::sends; send_begin also counts the sends of the
    /// shard's earlier events this epoch (phase B's prefix sums).
    std::uint32_t send_begin = 0;
    std::uint32_t send_end = 0;
    std::uint32_t trace_begin = 0;  ///< range into Shard::trace
    std::uint32_t trace_end = 0;
    bool popped = false;    ///< consumed a queue entry (false in start phase)
    bool dead = false;      ///< delivery suppressed at a crashed node
    bool informed = false;  ///< informed[node] when its sends were produced
  };

  /// One routed message copy, parked in a per-(src, dst) mailbox until the
  /// destination merges it into its queue in the next phase A. Every
  /// mailbox is filled in seq order.
  struct MailboxEntry {
    std::int64_t key = 0;
    std::uint64_t seq = 0;
    NodeId to = kNoNode;
    Port at_port = kNoPort;
    bool sender_informed = false;
    Message msg;
  };

  /// Per-shard state: the owned node range, the event queue, the epoch
  /// scratch buffers and the run's counter partials. All vectors retain
  /// capacity across epochs and runs.
  struct Shard {
    NodeId begin = 0;
    NodeId end = 0;
    EventHeap events;
    std::vector<ProcessedEvent> processed;  ///< this epoch's handled events
    /// The epoch's sends, appended to by the behaviors themselves.
    std::vector<Send> sends;
    /// Buffered sink events: phase A's delivery side, then phase B's send
    /// side.
    std::vector<TraceEvent> trace;
    std::vector<std::vector<MailboxEntry>> outbox;  ///< per destination shard
    /// Phase A's merge cursors over the non-empty inbound mailboxes.
    std::vector<std::pair<MailboxEntry*, MailboxEntry*>> inbound;
    std::vector<std::uint32_t> cursor;  ///< phase B's rank cursors, per shard
    std::int64_t mail_min = 0;  ///< smallest key routed this epoch
    std::uint64_t pushes = 0;   ///< copies routed this epoch
    Metrics metrics;            ///< counter partials, reduced at the end
    FaultCounters faults;
    std::uint64_t cross = 0;    ///< copies routed off-shard
    FallbackReason stop = FallbackReason::kNone;  ///< set by worker code
  };

  /// A rank-table entry: the event's shard and index, and the range of its
  /// send-side events in that shard's trace buffer.
  struct RankedEvent {
    std::uint32_t shard = 0;
    std::uint32_t event = 0;
    std::uint32_t sent_begin = 0;
    std::uint32_t sent_end = 0;
  };

  class Workers;  // persistent spin-then-park pool (sharded_engine.cpp)

  /// The sharded attempt. Returns kNone and fills `result` on a clean run
  /// (sink stream flushed); otherwise the reason the attempt must be
  /// discarded and replayed single-threaded. Never lets worker exceptions
  /// escape a thread.
  FallbackReason attempt(const PortGraph& g, NodeId source,
                         const std::vector<BitString>& advice,
                         const Algorithm& algorithm, const RunOptions& options,
                         const Partition& part, RunResult& result);

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
  /// Phase B's output, indexed by an event's rank in the epoch: every
  /// event's push − pop delta and, under a sink, where its events are.
  std::vector<std::int32_t> deltas_;
  std::vector<RankedEvent> by_rank_;
  std::unique_ptr<Workers> workers_;
};

}  // namespace oraclesize
