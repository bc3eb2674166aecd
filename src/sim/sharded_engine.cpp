#include "sim/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/cpus.h"

namespace oraclesize {

namespace {

/// How long a waiting thread spins before it parks on std::atomic::wait:
/// longer than the gap between a grid run's barriers, so helpers stay awake
/// through a run, and short enough that a pool between runs, or one pinned
/// to fewer CPUs than it has threads, soon stops taking CPU from the
/// threads with work (EXPERIMENTS.md E14).
constexpr std::chrono::microseconds kSpinBound{50};

/// No mail routed this epoch.
constexpr std::int64_t kNoKey = std::numeric_limits<std::int64_t>::max();

/// Collects the sharded attempt's sink events: the prologue into the run's
/// buffer, and each shard's send-side events into its own. The stream is
/// replayed into the real sink only when the attempt succeeds, so a
/// fallback emits nothing.
class BufferSink final : public TraceSink {
 public:
  explicit BufferSink(std::vector<TraceEvent>& out) : out_(out) {}
  void begin_run(const TraceRunInfo&) override {}
  void record(const TraceEvent& event) override { out_.push_back(event); }
  void end_run(const RunResult&) override {}

 private:
  std::vector<TraceEvent>& out_;
};

/// Waits until done(a) holds and returns the value that satisfied it:
/// yields the CPU in a loop for kSpinBound, then parks on std::atomic::wait.
/// Yielding rather than pausing lets a thread that shares this CPU run —
/// the one being waited for, when the pool has more threads than CPUs.
/// Every load is acquire, so what the storing thread wrote before its
/// release store is visible on return.
template <class Done>
std::uint32_t await(const std::atomic<std::uint32_t>& a, Done done) noexcept {
  std::uint32_t v = a.load(std::memory_order_acquire);
  if (done(v)) return v;
  const auto until = std::chrono::steady_clock::now() + kSpinBound;
  do {
    std::this_thread::yield();
    v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
  } while (std::chrono::steady_clock::now() < until);
  while (!done(v)) {
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

/// Adds one shard's partials to the run's counters.
void add_partials(RunResult& result, const Metrics& m,
                  const FaultCounters& f) {
  Metrics& to = result.metrics;
  to.messages_total += m.messages_total;
  to.messages_source += m.messages_source;
  to.messages_hello += m.messages_hello;
  to.messages_control += m.messages_control;
  to.bits_sent += m.bits_sent;
  to.deliveries += m.deliveries;
  to.completion_key = std::max(to.completion_key, m.completion_key);
  result.faults.dropped += f.dropped;
  result.faults.duplicated += f.duplicated;
  result.faults.delayed += f.delayed;
  result.faults.dead_deliveries += f.dead_deliveries;
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker pool: `helpers` persistent threads plus the calling thread, each a
// fixed participant. run(body) calls body(i) once on every participant i
// (the caller is 0) and returns when all have returned; body may call
// sync(), a barrier among all participants, and must not throw (callers
// record failures in Shard::stop). Every handoff is a generation counter —
// start_ counts passes, phase_ barriers, done_ the helpers finished with
// the current pass — that a waiter spins on for kSpinBound before it parks
// on std::atomic::wait. The body pointer is written before start_ is
// incremented, read only after an acquire load sees the increment, and
// rewritten only after every helper has reported to done_, so the pool
// needs no lock. A counter that is notified is written seq_cst: a weaker
// store could be ordered after notify's check for waiters and lose the
// wakeup of a thread parking then.
// ---------------------------------------------------------------------------

class ShardedExecutionContext::Workers {
 public:
  explicit Workers(std::uint32_t helpers) : parties_(helpers + 1) {
    threads_.reserve(helpers);
    for (std::uint32_t i = 1; i <= helpers; ++i) {
      threads_.emplace_back([this, i] { helper_loop(i); });
    }
  }

  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  ~Workers() {
    stop_ = true;
    start_.fetch_add(1, std::memory_order_seq_cst);
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  template <class Body>
  void run(Body& body) {
    body_ = &body;
    call_ = [](void* b, std::uint32_t i) { (*static_cast<Body*>(b))(i); };
    done_.store(0, std::memory_order_relaxed);
    start_.fetch_add(1, std::memory_order_seq_cst);
    start_.notify_all();
    body(0);
    const std::uint32_t helpers = parties_ - 1;
    await(done_, [helpers](std::uint32_t d) { return d == helpers; });
  }

  void sync() noexcept {
    // Only this barrier's last arrival advances phase_, so the value read
    // here is the one the others wait to see change.
    const std::uint32_t gen = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(gen + 1, std::memory_order_seq_cst);
      phase_.notify_all();
    } else {
      await(phase_, [gen](std::uint32_t p) { return p != gen; });
    }
  }

 private:
  void helper_loop(std::uint32_t i) {
    std::uint32_t seen = 0;
    while (true) {
      seen = await(start_, [seen](std::uint32_t s) { return s != seen; });
      if (stop_) return;
      call_(body_, i);
      if (done_.fetch_add(1, std::memory_order_seq_cst) + 2 == parties_) {
        done_.notify_one();
      }
    }
  }

  const std::uint32_t parties_;
  // One cache line each: spinners poll one counter while others bump the
  // next.
  alignas(64) std::atomic<std::uint32_t> start_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};
  void (*call_)(void*, std::uint32_t) = nullptr;
  void* body_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the helpers use the above
};

// ---------------------------------------------------------------------------
// ShardedExecutionContext
// ---------------------------------------------------------------------------

ShardedExecutionContext::ShardedExecutionContext(std::uint32_t shards)
    : shards_(shards > 0 ? shards
                         : static_cast<std::uint32_t>(usable_cpus())),
      scheduler_(SchedulerKind::kSynchronous, 0, 1) {}

ShardedExecutionContext::~ShardedExecutionContext() = default;

RunResult ShardedExecutionContext::run(const PortGraph& g, NodeId source,
                                       const std::vector<BitString>& advice,
                                       const Algorithm& algorithm,
                                       const RunOptions& options) {
  RunPlane::check_run(g, source, advice);
  stats_ = ShardedRunStats{};
  // Runs that are serial by nature go to the scalar engine up front (see
  // the header), so every shard count returns the canonical answer.
  FallbackReason up_front = FallbackReason::kNone;
  if (options.adversary.enabled()) {
    up_front = FallbackReason::kAdversary;
  } else if (options.scheduler == SchedulerKind::kAsyncFifo ||
             options.scheduler == SchedulerKind::kAsyncLifo ||
             options.scheduler == SchedulerKind::kAsyncAdversarial) {
    up_front = FallbackReason::kScheduler;
  } else if (options.fault.duplicate > 0) {
    up_front = FallbackReason::kDuplicate;
  }
  if (up_front != FallbackReason::kNone) {
    stats_.fell_back = true;
    stats_.fallback = up_front;
    return legacy_.run(g, source, advice, algorithm, options);
  }
  PartitionOptions popt;
  popt.shards = shards_;
  const Partition part = make_partition(g, popt);
  if (part.num_shards() <= 1) {
    return legacy_.run(g, source, advice, algorithm, options);
  }

  if (!workers_) {
    workers_ = std::make_unique<Workers>(shards_ - 1);
  }

  RunResult result;
  const FallbackReason why =
      attempt(g, source, advice, algorithm, options, part, result);
  if (why == FallbackReason::kNone) return result;
  // Divergence from the serial semantics was detected mid-epoch (or a
  // behavior threw): discard the attempt and replay on the single-threaded
  // engine, which reproduces the canonical result — or rethrows the
  // canonical exception — exactly.
  stats_.fell_back = true;
  stats_.fallback = why;
  stats_.epochs = 0;
  stats_.cross_shard_messages = 0;
  return legacy_.run(g, source, advice, algorithm, options);
}

FallbackReason ShardedExecutionContext::attempt(
    const PortGraph& g, NodeId source, const std::vector<BitString>& advice,
    const Algorithm& algorithm, const RunOptions& options,
    const Partition& part, RunResult& result) {
  const std::size_t n = g.num_nodes();
  const std::uint32_t S = part.num_shards();
  stats_.shards = S;
  RunPlane::begin_result(result, n, source);

  // The sink stream is buffered for the whole attempt and flushed only on
  // success: a fallback must leave no trace of the discarded attempt.
  TraceSink* const sink = options.trace_sink;
  sink_buf_.clear();

  const bool faulty = plane_.bind(g, source, advice, options, result);
  const FaultPlan& faults = plane_.fault_plan;
  const bool message_faulty = faulty && faults.message_faults();
  if (sink) {
    BufferSink prologue(sink_buf_);
    plane_.trace_prologue(prologue, faulty);
  }

  const SchedulerKind kind = options.scheduler;
  const DeliveryOrder order =
      Scheduler::delivery_order(kind, options.max_delay, options.fault);
  shards_state_.resize(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    Shard& sh = shards_state_[s];
    sh.begin = part.begin(s);
    sh.end = part.end(s);
    sh.events.clear(order);
    sh.outbox.resize(S);
    // A discarded attempt can leave mail behind.
    for (std::vector<MailboxEntry>& box : sh.outbox) box.clear();
    sh.cursor.assign(S, 0);
    sh.metrics = Metrics{};
    sh.faults = FaultCounters{};
    sh.cross = 0;
    sh.stop = FallbackReason::kNone;
  }

  // Behavior arming, shard-parallel. make_behavior is a const factory and
  // reset() touches only the behavior itself, so distinct node ranges never
  // share state. Any exception (reliable decode errors propagate in the
  // serial engine; faulty ones become structured failures) is routed
  // through the fallback, which replays the canonical semantics.
  const std::size_t reuse = plane_.begin_arm(algorithm);
  auto arm = [&](std::uint32_t s) {
    if (s >= S) return;
    Shard& sh = shards_state_[s];
    try {
      plane_.arm_range(sh.begin, sh.end, reuse, algorithm);
    } catch (...) {
      sh.stop = FallbackReason::kBehaviorException;
    }
  };
  workers_->run(arm);
  for (std::uint32_t s = 0; s < S; ++s) {
    if (shards_state_[s].stop != FallbackReason::kNone) {
      plane_.behaviors.clear();
      plane_.drop_pool();
      return FallbackReason::kBehaviorException;
    }
  }
  plane_.end_arm(algorithm);

  const std::uint64_t* const offsets = g.csr_offsets();
  const Endpoint* const endpoints = g.csr_endpoints();
  scheduler_.reset(kind, options.seed, options.max_delay, offsets[n]);

  informed_.assign(n, 0);
  informed_[source] = 1;

  // Epoch state, written by the coordinator between passes.
  bool start = true;             // this pass runs the on_start activations
  std::int64_t epoch_key = 0;
  std::uint64_t epoch_seq = 0;   // the epoch's first send number
  std::int64_t inflight = 0;     // emulated single-queue size (V-trajectory)
  std::int64_t queue_peak = 0;

  // --- phase A: inbound mail, then the epoch's events ----------------------

  // Empty-history activations of the shard's nodes.
  auto run_starts = [&](Shard& sh) {
    for (NodeId v = sh.begin; v < sh.end; ++v) {
      // A node whose crash key is <= 0 is down before its activation.
      if (faulty && faults.crash_key(v) <= 0) continue;
      const std::size_t first = sh.sends.size();
      plane_.behaviors[v]->on_start(plane_.inputs[v], sh.sends);
      if (sh.sends.size() == first) continue;  // nothing for phase B to do
      ProcessedEvent pe;
      pe.order = v;
      pe.now = 0;
      pe.node = v;
      pe.informed = informed_[v] != 0;
      pe.trace_begin = pe.trace_end =
          static_cast<std::uint32_t>(sh.trace.size());
      pe.send_begin = static_cast<std::uint32_t>(first);
      pe.send_end = static_cast<std::uint32_t>(sh.sends.size());
      sh.processed.push_back(pe);
    }
  };

  // Moves shard d's inbound mail into its queue in seq order — the order
  // the single-threaded engine pushed it in, which the FIFO, stack and ring
  // disciplines pop by.
  auto merge_inbound = [&](std::uint32_t d) {
    Shard& sh = shards_state_[d];
    sh.inbound.clear();
    for (std::uint32_t s = 0; s < S; ++s) {
      std::vector<MailboxEntry>& box = shards_state_[s].outbox[d];
      if (!box.empty()) {
        sh.inbound.emplace_back(box.data(), box.data() + box.size());
      }
    }
    while (!sh.inbound.empty()) {
      std::size_t pick = 0;
      for (std::size_t r = 1; r < sh.inbound.size(); ++r) {
        if (sh.inbound[r].first->seq < sh.inbound[pick].first->seq) pick = r;
      }
      MailboxEntry& e = *sh.inbound[pick].first++;
      const std::size_t slot = sh.events.acquire_slot();
      sh.events.slot(slot) = EngineEvent{e.to, e.at_port, std::move(e.msg),
                                         e.sender_informed};
      sh.events.push({e.key, e.seq, slot});
      if (sh.inbound[pick].first == sh.inbound[pick].second) {
        sh.inbound[pick] = sh.inbound.back();
        sh.inbound.pop_back();
      }
    }
    for (std::uint32_t s = 0; s < S; ++s) shards_state_[s].outbox[d].clear();
  };

  // Pops and runs the shard's events of key epoch_key.
  auto run_epoch = [&](Shard& sh) {
    while (!sh.events.empty() && sh.events.top_key() == epoch_key) {
      const EventHeap::Entry top = sh.events.pop();
      // Read in place: no slot of this queue is acquired, and its pool
      // cannot grow, before the next merge.
      const EngineEvent& ev = sh.events.slot(top.slot);
      sh.events.release_slot(top.slot);
      ProcessedEvent pe;
      pe.order = top.seq;
      pe.now = top.key;
      pe.node = ev.to;
      pe.popped = true;
      pe.trace_begin = static_cast<std::uint32_t>(sh.trace.size());
      pe.send_begin = pe.send_end = static_cast<std::uint32_t>(sh.sends.size());
      // Crash-stop: node v processes events with key strictly below its
      // crash key; anything at or after it lands on a dead node.
      if (faulty && top.key >= faults.crash_key(ev.to)) {
        pe.dead = true;
        if (sink) {
          TraceEvent e;
          e.kind = TraceEventKind::kDeadDelivery;
          e.node = ev.to;
          e.port = ev.at_port;
          e.msg = ev.msg.kind;
          e.key = top.key;
          e.seq = top.seq;
          sh.trace.push_back(e);
        }
        pe.trace_end = static_cast<std::uint32_t>(sh.trace.size());
        sh.processed.push_back(pe);
        continue;
      }
      if (sink) {
        const Endpoint from = g.neighbor(ev.to, ev.at_port);
        TraceEvent e;
        e.kind = TraceEventKind::kDeliver;
        e.node = ev.to;
        e.port = ev.at_port;
        e.peer = from.node;
        e.msg = ev.msg.kind;
        e.key = top.key;
        e.seq = top.seq;
        e.link = offsets[from.node] + from.port;
        e.aux = ev.msg.size_bits();
        e.flag = ev.sender_informed;
        sh.trace.push_back(e);
      }
      // The paper's informing rule: any message from an informed sender
      // informs the receiver. informed_[v] and informed_at[v] are touched
      // only by v's owner shard.
      if (ev.sender_informed && !informed_[ev.to]) {
        informed_[ev.to] = 1;
        result.informed_at[ev.to] = top.key;
        if (sink) {
          TraceEvent e;
          e.kind = TraceEventKind::kInformed;
          e.node = ev.to;
          e.peer = g.neighbor(ev.to, ev.at_port).node;
          e.port = ev.at_port;
          e.key = top.key;
          e.seq = top.seq;
          sh.trace.push_back(e);
        }
      }
      // Behaviors append to the vector they are handed (sim/scheme.h).
      plane_.behaviors[ev.to]->on_receive(plane_.inputs[ev.to], ev.msg,
                                          ev.at_port, sh.sends);
      pe.informed = informed_[ev.to] != 0;
      pe.send_end = static_cast<std::uint32_t>(sh.sends.size());
      pe.trace_end = static_cast<std::uint32_t>(sh.trace.size());
      sh.processed.push_back(pe);
    }
  };

  auto phase_a = [&](std::uint32_t s) {
    Shard& sh = shards_state_[s];
    sh.processed.clear();
    sh.sends.clear();
    sh.trace.clear();
    sh.mail_min = kNoKey;
    sh.pushes = 0;
    try {
      if (start) {
        run_starts(sh);
      } else {
        // Every pending key is at least epoch_key, and a shard that popped
        // nothing for many epochs must not read its mail against a stale
        // ring floor.
        sh.events.advance_floor(epoch_key);
        merge_inbound(s);
        run_epoch(sh);
      }
    } catch (...) {
      sh.stop = FallbackReason::kBehaviorException;
    }
  };

  // --- phase B: ranks, then the submit loop per shard ----------------------

  // Calls visit(i, rank, before) for shard s's events in order, where rank
  // counts the epoch's events on every shard ordered before event i, and
  // `before` the sends those produced: two-pointer walks over the other
  // shards' order lists, whose send_begin fields are prefix sums. Stops
  // when visit returns false.
  auto rank_events = [&](std::uint32_t s, auto&& visit) {
    Shard& sh = shards_state_[s];
    std::fill(sh.cursor.begin(), sh.cursor.end(), 0u);
    const std::size_t count = sh.processed.size();
    for (std::size_t i = 0; i < count; ++i) {
      const ProcessedEvent& pe = sh.processed[i];
      std::size_t rank = i;
      std::uint64_t before = pe.send_begin;
      for (std::uint32_t t = 0; t < S; ++t) {
        if (t == s) continue;
        const Shard& other = shards_state_[t];
        const std::size_t size = other.processed.size();
        std::size_t c = sh.cursor[t];
        while (c < size && other.processed[c].order < pe.order) ++c;
        sh.cursor[t] = static_cast<std::uint32_t>(c);
        rank += c;
        before += c < size ? other.processed[c].send_begin : other.sends.size();
      }
      if (!visit(i, rank, before)) return;
    }
  };

  // The submit loop over shard s's events, counting into the shard's
  // partials (the coordinator checks the message budget). Without
  // duplication every send consumes exactly one sequence number, so an
  // event's first one is the epoch's plus the sends ranked before it.
  // Under a sink, the send-side events go to the shard's trace buffer and
  // the rank table says where.
  auto phase_b = [&](std::uint32_t s) {
    Shard& sh = shards_state_[s];
    SubmitState local(g, options, result);
    local.max_messages = std::numeric_limits<std::uint64_t>::max();
    local.metrics = &sh.metrics;
    local.fault_counters = &sh.faults;
    if (message_faulty) local.faults = &faults;
    BufferSink sent(sh.trace);
    if (sink) local.sink = &sent;
    std::int32_t pushes = 0;
    // Appends one admitted copy, under its delivery key, to this shard's
    // mailbox for the copy's destination shard.
    auto route = [&](const AdmittedCopy& c) {
      const std::int64_t key = scheduler_.delivery_key(c.now, c.seq, c.link) +
                               static_cast<std::int64_t>(c.extra_delay);
      const Endpoint dst = endpoints[c.link];
      const std::uint32_t d = part.shard_of(dst.node);
      sh.outbox[d].push_back(
          MailboxEntry{key, c.seq, dst.node, dst.port, c.informed, c.msg});
      if (key < sh.mail_min) sh.mail_min = key;
      if (d != s) ++sh.cross;
      ++pushes;
      return true;
    };
    rank_events(s, [&](std::size_t i, std::size_t rank, std::uint64_t before) {
      const ProcessedEvent& pe = sh.processed[i];
      const auto sent_begin = static_cast<std::uint32_t>(sh.trace.size());
      pushes = 0;
      if (pe.dead) {
        ++sh.faults.dead_deliveries;
      } else if (pe.popped) {
        ++sh.metrics.deliveries;
        sh.metrics.completion_key = std::max(sh.metrics.completion_key, pe.now);
      }
      // A dead delivery has no sends: the loop returns before any check.
      local.seq = epoch_seq + before;
      if (submit_sends(local, pe.node, pe.informed, pe.now,
                       sh.sends.data() + pe.send_begin,
                       sh.sends.data() + pe.send_end, route)
              .verdict != SubmitVerdict::kOk) {
        sh.stop = FallbackReason::kViolation;
        return false;
      }
      deltas_[rank] = pushes - (pe.popped ? 1 : 0);
      if (sink) {
        by_rank_[rank] = {s, static_cast<std::uint32_t>(i), sent_begin,
                          static_cast<std::uint32_t>(sh.trace.size())};
      }
      sh.pushes += static_cast<std::uint64_t>(pushes);
      return true;
    });
  };

  // One epoch on every shard. A shard whose phase A failed skips phase B;
  // the others rank against its (consistent) partial lists, and the
  // coordinator discards the attempt.
  auto pass = [&](std::uint32_t s) {
    if (s < S) phase_a(s);
    workers_->sync();
    if (s >= S || shards_state_[s].stop != FallbackReason::kNone) return;
    try {
      phase_b(s);
    } catch (...) {  // an allocation failure routing the mail
      shards_state_[s].stop = FallbackReason::kBehaviorException;
    }
  };

  // --- main loop: the start pass, then one pass per epoch -----------------
  const bool has_deadline = options.deadline_ns > 0;
  std::chrono::steady_clock::time_point deadline_at;
  if (has_deadline) {
    deadline_at = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(options.deadline_ns);
  }
  std::uint64_t processed = 0;
  bool timed_out = false;
  bool events_exhausted = false;

  while (true) {
    // Phase B writes one entry per event at its rank: an epoch pops at most
    // the pending count, the start pass activates at most n nodes.
    const std::size_t most = start ? n : static_cast<std::size_t>(inflight);
    if (deltas_.size() < most) deltas_.resize(most);
    if (sink && by_rank_.size() < most) by_rank_.resize(most);
    workers_->run(pass);

    std::size_t events = 0;
    std::uint64_t sends = 0;
    std::uint64_t pushes = 0;
    for (const Shard& sh : shards_state_) {
      events += sh.processed.size();
      sends += sh.sends.size();
      pushes += sh.pushes;
    }
    if (!start) {
      ++stats_.epochs;
      processed += events;
      // A cap inside the epoch stops the canonical engine there.
      if (options.max_events > 0 && processed > options.max_events) {
        return FallbackReason::kMaxEvents;
      }
    }
    for (const Shard& sh : shards_state_) {
      if (sh.stop != FallbackReason::kNone) return sh.stop;
    }
    // Every send consumed one sequence number and counted one message.
    if (epoch_seq + sends > options.max_messages) {
      return FallbackReason::kBudget;
    }
    epoch_seq += sends;
    // Replay the single queue's depth trajectory in rank order — unless
    // even all of the epoch's pushes cannot lift it past the peak.
    const std::int64_t pops = start ? 0 : static_cast<std::int64_t>(events);
    if (inflight + static_cast<std::int64_t>(pushes) > queue_peak) {
      for (std::size_t r = 0; r < events; ++r) {
        inflight += deltas_[r];
        if (inflight > queue_peak) queue_peak = inflight;
      }
    } else {
      inflight += static_cast<std::int64_t>(pushes) - pops;
    }
    // The stream in rank order: each event's delivery side, then its sends.
    for (std::size_t r = 0; sink && r < events; ++r) {
      const RankedEvent& e = by_rank_[r];
      const std::vector<TraceEvent>& trace = shards_state_[e.shard].trace;
      const ProcessedEvent& pe = shards_state_[e.shard].processed[e.event];
      sink_buf_.insert(sink_buf_.end(), trace.begin() + pe.trace_begin,
                       trace.begin() + pe.trace_end);
      sink_buf_.insert(sink_buf_.end(), trace.begin() + e.sent_begin,
                       trace.begin() + e.sent_end);
    }
    start = false;

    if (inflight == 0) break;
    if (options.max_events > 0 && processed >= options.max_events) {
      events_exhausted = true;
      break;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline_at) {
      timed_out = true;
      break;
    }
    epoch_key = kNoKey;
    for (std::uint32_t s = 0; s < S; ++s) {
      const Shard& sh = shards_state_[s];
      if (!sh.events.empty()) {
        epoch_key = std::min(epoch_key, sh.events.top_key());
      }
      epoch_key = std::min(epoch_key, sh.mail_min);
    }
    // Messages in flight that no shard holds were lost inside the engine,
    // e.g. by two sends of one epoch sharing a sequence number. Fail the
    // run: a fallback would hide the bug behind a correct serial replay.
    if (epoch_key == kNoKey) {
      throw std::logic_error("ShardedExecutionContext: " +
                             std::to_string(inflight) +
                             " messages in flight but no shard holds one");
    }
  }

  // --- epilogue (serial) ---------------------------------------------------
  for (NodeId v = 0; v < n; ++v) result.informed[v] = informed_[v] != 0;
  result.metrics.queue_depth_peak = static_cast<std::uint64_t>(queue_peak);
  for (std::uint32_t s = 0; s < S; ++s) {
    const Shard& sh = shards_state_[s];
    add_partials(result, sh.metrics, sh.faults);
    stats_.cross_shard_messages += sh.cross;
  }
  plane_.end_result(result, timed_out, events_exhausted, false);

  if (sink) {
    RunPlane::begin_trace(*sink, g, source, advice, algorithm, options);
    for (const TraceEvent& e : sink_buf_) sink->record(e);
    sink->end_run(result);
  }
  return FallbackReason::kNone;
}

}  // namespace oraclesize
