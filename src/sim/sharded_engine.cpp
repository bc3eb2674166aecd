#include "sim/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace oraclesize {

namespace {

/// Mailbox totals below this are drained by the coordinator alone: waking
/// the pool costs more than pushing a couple thousand queue entries.
constexpr std::size_t kSerialDrainLimit = 2048;

std::uint32_t resolve_shards(std::uint32_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::uint32_t>(hw) : 1u;
}

/// Collects the sharded attempt's sink stream: it is replayed into the real
/// sink only when the attempt succeeds, so a fallback emits nothing.
class BufferSink final : public TraceSink {
 public:
  explicit BufferSink(std::vector<TraceEvent>& out) : out_(out) {}
  void begin_run(const TraceRunInfo&) override {}
  void record(const TraceEvent& event) override { out_.push_back(event); }
  void end_run(const RunResult&) override {}

 private:
  std::vector<TraceEvent>& out_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Worker pool: `shards - 1` persistent helper threads plus the calling
// thread. parallel(tasks, fn) runs fn(0..tasks-1) with atomic work claiming;
// fn must not throw (callers capture into Shard::error). Generation counting
// under one mutex keeps the pool TSan-clean: every per-epoch handoff is a
// locked write followed by locked reads, and the task metadata is only
// dereferenced by threads that claimed an index for the current generation.
// ---------------------------------------------------------------------------

class ShardedExecutionContext::Workers {
 public:
  explicit Workers(unsigned helpers) {
    threads_.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void parallel(std::uint32_t tasks,
                const std::function<void(std::uint32_t)>& fn) {
    if (tasks == 0) return;
    if (tasks == 1 || threads_.empty()) {
      for (std::uint32_t i = 0; i < tasks; ++i) fn(i);
      return;
    }
    std::uint64_t gen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      tasks_ = tasks;
      next_ = 0;
      done_ = 0;
      gen = ++generation_;
    }
    work_cv_.notify_all();
    claim(gen);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_ == tasks_; });
    fn_ = nullptr;
  }

 private:
  // Claims indices for generation `gen` only: every claim re-checks the
  // generation under the lock, so a worker that overslept one handoff and
  // woke during a later one can neither dereference the earlier cycle's
  // (long-destroyed) fn nor disturb the current cycle's counters. The lock
  // is not hot — one claim per shard per barrier, each guarding a full
  // epoch's worth of work.
  void claim(std::uint64_t gen) {
    while (true) {
      const std::function<void(std::uint32_t)>* fn;
      std::uint32_t i;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (generation_ != gen || fn_ == nullptr || next_ >= tasks_) return;
        fn = fn_;
        i = next_++;
      }
      (*fn)(i);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (generation_ == gen && ++done_ == tasks_) done_cv_.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [this, seen] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      claim(seen);
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint32_t)>* fn_ = nullptr;  // guarded by mu_
  std::uint32_t tasks_ = 0;                                 // guarded by mu_
  std::uint32_t next_ = 0;                                  // guarded by mu_
  std::uint32_t done_ = 0;                                  // guarded by mu_
  std::uint64_t generation_ = 0;                            // guarded by mu_
  bool stop_ = false;                                       // guarded by mu_
};

// ---------------------------------------------------------------------------
// ShardedExecutionContext
// ---------------------------------------------------------------------------

ShardedExecutionContext::ShardedExecutionContext(std::uint32_t shards)
    : shards_(resolve_shards(shards)),
      scheduler_(SchedulerKind::kSynchronous, 0, 1) {}

ShardedExecutionContext::~ShardedExecutionContext() = default;

RunResult ShardedExecutionContext::run(const PortGraph& g, NodeId source,
                                       const std::vector<BitString>& advice,
                                       const Algorithm& algorithm,
                                       const RunOptions& options) {
  RunPlane::check_run(g, source, advice);
  stats_ = ShardedRunStats{};
  // Byzantine runs and the adversarial scheduler are inherently serial
  // (replay-buffer state and probe history follow global delivery order):
  // the existing fallback-not-divergence policy routes them to the scalar
  // engine up front, so every shard count returns the canonical answer.
  if (options.adversary.enabled() ||
      options.scheduler == SchedulerKind::kAsyncAdversarial) {
    stats_.fell_back = true;
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
  if (attempt(g, source, advice, algorithm, options, part, result)) {
    return result;
  }
  // Divergence from the serial semantics was detected mid-epoch (or a
  // behavior threw): discard the attempt and replay on the single-threaded
  // engine, which reproduces the canonical result — or rethrows the
  // canonical exception — exactly.
  stats_.fell_back = true;
  stats_.epochs = 0;
  stats_.cross_shard_messages = 0;
  return legacy_.run(g, source, advice, algorithm, options);
}

void ShardedExecutionContext::merge_by_order(
    const std::vector<std::uint32_t>& parts) {
  merge_order_.clear();
  cursor_.assign(parts.size(), 0);
  while (true) {
    std::size_t pick = parts.size();
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const std::vector<ProcessedEvent>& list =
          shards_state_[parts[i]].processed;
      if (cursor_[i] >= list.size()) continue;
      const std::uint64_t order = list[cursor_[i]].order;
      if (pick == parts.size() || order < best) {
        pick = i;
        best = order;
      }
    }
    if (pick == parts.size()) return;
    merge_order_.emplace_back(parts[pick], cursor_[pick]++);
  }
}

bool ShardedExecutionContext::attempt(const PortGraph& g, NodeId source,
                                      const std::vector<BitString>& advice,
                                      const Algorithm& algorithm,
                                      const RunOptions& options,
                                      const Partition& part,
                                      RunResult& result) {
  const std::size_t n = g.num_nodes();
  const std::uint32_t S = part.num_shards();
  stats_.shards = S;
  RunPlane::begin_result(result, n, source);

  // The sink stream is buffered for the whole attempt and flushed only on
  // success: a fallback must leave no trace of the discarded attempt.
  TraceSink* const sink = options.trace_sink;
  sink_buf_.clear();
  BufferSink buffer(sink_buf_);

  const bool faulty = plane_.bind(g, source, advice, options, result);
  const FaultPlan& faults = plane_.fault_plan;
  const bool message_faulty = faulty && faults.message_faults();
  if (sink) plane_.trace_prologue(buffer, faulty);

  shards_state_.resize(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    Shard& sh = shards_state_[s];
    sh.begin = part.begin(s);
    sh.end = part.end(s);
    sh.events.clear();
    sh.outbox.resize(S);
    sh.dropped = 0;
    sh.delayed = 0;
    sh.cross = 0;
    sh.error = nullptr;
  }

  auto any_error = [&](const std::vector<std::uint32_t>* subset) {
    if (subset) {
      for (std::uint32_t s : *subset) {
        if (shards_state_[s].error) return true;
      }
      return false;
    }
    for (Shard& sh : shards_state_) {
      if (sh.error) return true;
    }
    return false;
  };

  // Behavior arming, shard-parallel. make_behavior is a const factory and
  // reset() touches only the behavior itself, so distinct node ranges never
  // share state. Any exception (reliable decode errors propagate in the
  // serial engine; faulty ones become structured failures) is routed
  // through the fallback, which replays the canonical semantics.
  const std::size_t reuse = plane_.begin_arm(algorithm);
  workers_->parallel(S, [&](std::uint32_t s) {
    Shard& sh = shards_state_[s];
    try {
      plane_.arm_range(sh.begin, sh.end, reuse, algorithm);
    } catch (...) {
      sh.error = std::current_exception();
    }
  });
  if (any_error(nullptr)) {
    plane_.behaviors.clear();
    plane_.drop_pool();
    return false;
  }
  plane_.end_arm(algorithm);

  const std::uint64_t* const offsets = g.csr_offsets();
  const Endpoint* const endpoints = g.csr_endpoints();
  const SchedulerKind kind = options.scheduler;
  scheduler_.reset(kind, options.seed, options.max_delay, offsets[n]);

  // Fast barriers need delivery keys that are pure in (now, seq, link) and
  // sends that consume exactly one sequence number each; the link-clock
  // scheduler, sinks and duplication faults force the serial finalizer.
  const bool fast = Scheduler::is_pure(kind) && sink == nullptr &&
                    !(faulty && options.fault.duplicate > 0);

  informed_.assign(n, 0);
  informed_[source] = 1;

  SubmitState st(g, options, result);
  // The fast finalizer decides message faults in its parallel routing
  // pass; the serial one decides them in the submit loop.
  if (message_faulty && !fast) st.faults = &faults;
  if (sink) st.sink = &buffer;
  std::uint64_t inflight = 0;  // emulated single-queue size (V-trajectory)
  std::uint64_t queue_peak = 0;

  // Delivery-side accounting of one processed event at the barrier, in
  // global order. False for a dead delivery: nothing to submit.
  auto account = [&](const ProcessedEvent& pe) {
    if (!pe.popped) return true;
    if (pe.dead) {
      ++result.faults.dead_deliveries;
      return false;
    }
    ++result.metrics.deliveries;
    if (pe.now > result.metrics.completion_key) {
      result.metrics.completion_key = pe.now;
    }
    return true;
  };

  // --- serial barrier finalizer: the submit loop in global order ---------
  // Any violation stops the canonical run mid-epoch, which only the
  // fallback can reproduce.
  auto finalize_serial = [&](const std::vector<std::uint32_t>& parts) {
    merge_by_order(parts);
    for (const auto& [p, idx] : merge_order_) {
      const Shard& sh = shards_state_[p];
      const ProcessedEvent& pe = sh.processed[idx];
      if (sink) {
        sink_buf_.insert(sink_buf_.end(), sh.trace.begin() + pe.trace_begin,
                         sh.trace.begin() + pe.trace_end);
      }
      if (pe.popped) --inflight;
      if (!account(pe)) continue;
      const std::uint32_t src = p;
      auto place = [&](const AdmittedCopy& c) {
        const Endpoint dst = endpoints[c.link];
        const std::uint32_t d = part.shard_of(dst.node);
        EventHeap& q = shards_state_[d].events;
        const std::size_t slot = q.acquire_slot();
        q.slot(slot) = EngineEvent{dst.node, dst.port, c.msg, c.informed};
        q.push({scheduler_.delivery_key(c.now, c.seq, c.link) +
                    static_cast<std::int64_t>(c.extra_delay),
                c.seq, slot});
        if (++inflight > queue_peak) queue_peak = inflight;
        if (d != src) ++stats_.cross_shard_messages;
        return true;
      };
      if (submit_sends(st, pe.node, pe.informed, pe.now,
                       sh.sends.data() + pe.send_begin,
                       sh.sends.data() + pe.send_end, place)
              .verdict != SubmitVerdict::kOk) {
        return false;
      }
    }
    return true;
  };

  // --- fast barrier finalizer: serial validation, parallel routing --------
  auto finalize_fast = [&](const std::vector<std::uint32_t>& parts) {
    // Pass 1 (serial): the submit loop with nothing to place — violation
    // and budget checks, counting, and each event's sequence base.
    merge_by_order(parts);
    for (const auto& [p, idx] : merge_order_) {
      Shard& sh = shards_state_[p];
      ProcessedEvent& pe = sh.processed[idx];
      if (!account(pe)) continue;
      pe.seq_base = st.seq;
      if (submit_sends(st, pe.node, pe.informed, pe.now,
                       sh.sends.data() + pe.send_begin,
                       sh.sends.data() + pe.send_end,
                       [](const AdmittedCopy&) { return true; })
              .verdict != SubmitVerdict::kOk) {
        return false;
      }
    }

    // Pass 2 (parallel per source shard): fault decisions, delivery keys,
    // routing into per-destination mailboxes. Pure per-send work — fault
    // decisions are keyed on (seq, link), keys on (now, seq, link) — so
    // shards never contend.
    auto route = [&](std::uint32_t pi) {
      const std::uint32_t p = parts[pi];
      Shard& sh = shards_state_[p];
      try {
        for (auto& ob : sh.outbox) ob.clear();
        for (ProcessedEvent& pe : sh.processed) {
          pe.pushes = 0;
          if (pe.dead) continue;
          std::uint64_t sq = pe.seq_base;
          for (std::uint32_t i = pe.send_begin; i < pe.send_end; ++i) {
            const Send& s = sh.sends[i];
            const std::uint64_t link = offsets[pe.node] + s.port;
            FaultPlan::MessageFault mf;
            if (message_faulty) mf = faults.message_fault(sq, link);
            if (mf.drop) {
              ++sh.dropped;
              ++sq;
              continue;
            }
            if (mf.extra_delay > 0) ++sh.delayed;
            const std::int64_t key =
                Scheduler::pure_key(kind, pe.now, sq, link, options.seed,
                                    options.max_delay) +
                static_cast<std::int64_t>(mf.extra_delay);
            const Endpoint dst = endpoints[link];
            const std::uint32_t d = part.shard_of(dst.node);
            sh.outbox[d].push_back(
                MailboxEntry{key, sq, dst.node, dst.port, pe.informed, s.msg});
            if (d != p) ++sh.cross;
            ++pe.pushes;
            ++sq;
          }
        }
      } catch (...) {
        sh.error = std::current_exception();
      }
    };
    if (parts.size() == 1) {
      route(0);
    } else {
      workers_->parallel(static_cast<std::uint32_t>(parts.size()), route);
    }
    if (any_error(&parts)) return false;

    // Pass 3 (serial): replay the merge order against the effective push
    // counts to reproduce the single queue's depth trajectory exactly.
    std::size_t routed = 0;
    for (const auto& [p, idx] : merge_order_) {
      const ProcessedEvent& pe = shards_state_[p].processed[idx];
      if (pe.popped) --inflight;
      if (pe.pushes > 0) {
        inflight += pe.pushes;
        if (inflight > queue_peak) queue_peak = inflight;
        routed += pe.pushes;
      }
    }

    // Drain: move mailboxes into the destination queues. Insertion order
    // into a queue is irrelevant — (key, seq) pairs are unique, so the pop
    // sequence is a pure function of the queue's contents.
    auto drain = [&](std::uint32_t d) {
      Shard& dsh = shards_state_[d];
      try {
        for (std::uint32_t p : parts) {
          for (MailboxEntry& e : shards_state_[p].outbox[d]) {
            const std::size_t slot = dsh.events.acquire_slot();
            dsh.events.slot(slot) = EngineEvent{e.to, e.at_port,
                                                std::move(e.msg),
                                                e.sender_informed};
            dsh.events.push({e.key, e.seq, slot});
          }
        }
      } catch (...) {
        dsh.error = std::current_exception();
      }
    };
    if (routed <= kSerialDrainLimit) {
      for (std::uint32_t d = 0; d < S; ++d) drain(d);
    } else {
      workers_->parallel(S, drain);
    }
    return !any_error(nullptr);
  };

  // --- start phase: empty-history activations, shard-parallel -------------
  workers_->parallel(S, [&](std::uint32_t s) {
    Shard& sh = shards_state_[s];
    sh.processed.clear();
    sh.sends.clear();
    sh.trace.clear();
    try {
      for (NodeId v = sh.begin; v < sh.end; ++v) {
        // A node whose crash key is <= 0 is down before its activation.
        if (faulty && faults.crash_key(v) <= 0) continue;
        sh.scratch.clear();
        plane_.behaviors[v]->on_start(plane_.inputs[v], sh.scratch);
        if (sh.scratch.empty()) continue;  // nothing for the barrier to do
        ProcessedEvent pe;
        pe.order = v;
        pe.now = 0;
        pe.node = v;
        pe.informed = informed_[v] != 0;
        pe.trace_begin = pe.trace_end =
            static_cast<std::uint32_t>(sh.trace.size());
        pe.send_begin = static_cast<std::uint32_t>(sh.sends.size());
        sh.sends.insert(sh.sends.end(), sh.scratch.begin(), sh.scratch.end());
        pe.send_end = static_cast<std::uint32_t>(sh.sends.size());
        sh.processed.push_back(pe);
      }
    } catch (...) {
      sh.error = std::current_exception();
    }
  });
  if (any_error(nullptr)) return false;

  parts_.clear();
  for (std::uint32_t s = 0; s < S; ++s) parts_.push_back(s);
  if (!(fast ? finalize_fast(parts_) : finalize_serial(parts_))) return false;

  // --- main loop: one epoch per barrier ------------------------------------
  const bool has_deadline = options.deadline_ns > 0;
  std::chrono::steady_clock::time_point deadline_at;
  if (has_deadline) {
    deadline_at = std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(options.deadline_ns);
  }
  std::uint64_t processed = 0;
  bool timed_out = false;
  bool events_exhausted = false;

  auto process_epoch = [&](std::uint32_t s, std::int64_t epoch_key) {
    Shard& sh = shards_state_[s];
    sh.processed.clear();
    sh.sends.clear();
    sh.trace.clear();
    try {
      while (!sh.events.empty() && sh.events.top_key() == epoch_key) {
        const EventHeap::Entry top = sh.events.pop();
        // Move the event out before recycling its slot: later pushes into
        // this queue may grow the pool and invalidate references into it.
        EngineEvent ev = std::move(sh.events.slot(top.slot));
        sh.events.release_slot(top.slot);
        ProcessedEvent pe;
        pe.order = top.seq;
        pe.now = top.key;
        pe.node = ev.to;
        pe.popped = true;
        pe.trace_begin = static_cast<std::uint32_t>(sh.trace.size());
        pe.send_begin = pe.send_end =
            static_cast<std::uint32_t>(sh.sends.size());
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
        sh.scratch.clear();
        plane_.behaviors[ev.to]->on_receive(plane_.inputs[ev.to], ev.msg,
                                            ev.at_port, sh.scratch);
        pe.informed = informed_[ev.to] != 0;
        sh.sends.insert(sh.sends.end(), sh.scratch.begin(),
                        sh.scratch.end());
        pe.send_end = static_cast<std::uint32_t>(sh.sends.size());
        pe.trace_end = static_cast<std::uint32_t>(sh.trace.size());
        sh.processed.push_back(pe);
      }
    } catch (...) {
      sh.error = std::current_exception();
    }
  };

  while (true) {
    bool any = false;
    std::int64_t epoch_key = 0;
    for (std::uint32_t s = 0; s < S; ++s) {
      const Shard& sh = shards_state_[s];
      if (sh.events.empty()) continue;
      const std::int64_t k = sh.events.top_key();
      if (!any || k < epoch_key) epoch_key = k;
      any = true;
    }
    if (!any) break;
    if (options.max_events > 0 && processed >= options.max_events) {
      events_exhausted = true;
      break;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline_at) {
      timed_out = true;
      break;
    }
    parts_.clear();
    for (std::uint32_t s = 0; s < S; ++s) {
      const Shard& sh = shards_state_[s];
      if (!sh.events.empty() && sh.events.top_key() == epoch_key) {
        parts_.push_back(s);
      }
    }
    if (options.max_events > 0) {
      // Pre-count the epoch: a budget edge landing inside it would stop the
      // canonical engine mid-epoch, which only the fallback can reproduce.
      std::size_t count = 0;
      for (std::uint32_t s : parts_) {
        count += shards_state_[s].events.count_key(epoch_key);
      }
      if (processed + count > options.max_events) return false;
    }
    ++stats_.epochs;
    if (parts_.size() == 1) {
      process_epoch(parts_[0], epoch_key);
    } else {
      const std::int64_t ek = epoch_key;
      workers_->parallel(static_cast<std::uint32_t>(parts_.size()),
                         [&, ek](std::uint32_t i) {
                           process_epoch(parts_[i], ek);
                         });
    }
    if (any_error(&parts_)) return false;
    for (std::uint32_t s : parts_) {
      processed += shards_state_[s].processed.size();
    }
    if (!(fast ? finalize_fast(parts_) : finalize_serial(parts_))) {
      return false;
    }
  }

  // --- epilogue (serial) ---------------------------------------------------
  for (NodeId v = 0; v < n; ++v) result.informed[v] = informed_[v] != 0;
  result.metrics.queue_depth_peak = queue_peak;
  if (fast) {
    for (std::uint32_t s = 0; s < S; ++s) {
      result.faults.dropped += shards_state_[s].dropped;
      result.faults.delayed += shards_state_[s].delayed;
      stats_.cross_shard_messages += shards_state_[s].cross;
    }
  }
  plane_.end_result(result, timed_out, events_exhausted, false);

  if (sink) {
    RunPlane::begin_trace(*sink, g, source, advice, algorithm, options);
    for (const TraceEvent& e : sink_buf_) sink->record(e);
    sink->end_run(result);
  }
  return true;
}

}  // namespace oraclesize
