#include "sim/seed_batch_engine.h"

#include <utility>

namespace oraclesize {

bool SeedBatchExecutionContext::lockstep_eligible(
    const RunOptions& base) noexcept {
  // Every scheduler but kAsyncAdversarial, whose probe history is
  // execution-dependent, keys a message from (now, seq, link) and the lane
  // seed; the seeded ones batch as key classes. Byzantine families are
  // ineligible outright: the replay buffer evolves with delivery order, so
  // lanes can't share a clean-stream pass. They route to scalar replay
  // (fallback-not-divergence), never diverge.
  return base.scheduler != SchedulerKind::kAsyncAdversarial &&
         base.trace_sink == nullptr && base.deadline_ns == 0 &&
         !base.adversary.enabled();
}

const RunResult& SeedBatchExecutionContext::run_lockstep(
    const PortGraph& g, NodeId source, const std::vector<BitString>& advice,
    const Algorithm& algorithm, const RunOptions& base,
    const std::vector<Lane>& lanes,
    std::vector<LaneDisposition>& dispositions) {
  RunPlane::check_run(g, source, advice);
  const std::size_t n = g.num_nodes();
  stats_ = SeedBatchStats{};
  stats_.lanes = static_cast<std::uint32_t>(lanes.size());
  result_ = RunResult();
  keyed_ = false;
  lane_class_.assign(lanes.size(), kNoClass);
  dispositions.assign(lanes.size(), LaneDisposition::kShared);
  if (lanes.empty()) return result_;

  if (!lockstep_eligible(base)) {
    dispositions.assign(lanes.size(), LaneDisposition::kReplay);
    stats_.replayed = stats_.lanes;
    return result_;
  }
  stats_.lockstep_ran = true;

  // The fault rates are family-shared (only the seed is per-lane), so
  // either every lane runs a fault plan or none does — and likewise the
  // message-fault mask is armed for all enabled lanes or for none.
  const bool family_faulty = base.fault.enabled();
  std::uint32_t shared = static_cast<std::uint32_t>(lanes.size());
  active_mask_lanes_.clear();
  if (family_faulty) {
    lane_plans_.resize(lanes.size());
    for (std::uint32_t l = 0; l < lanes.size(); ++l) {
      FaultPlanParams params = base.fault;
      params.seed = lanes[l].fault_seed;
      lane_plans_[l].arm(params, n, source);
      // A lane leaves the clean stream the moment any fault materializes:
      // a scheduled crash or a flipped advice bit is known at arm time, so
      // such lanes retire before the pass even starts.
      if (lane_plans_[l].num_crashed() > 0 ||
          (lane_plans_[l].corrupts_advice() &&
           lane_plans_[l].corrupts_any_bit(advice))) {
        dispositions[l] = LaneDisposition::kReplay;
        --shared;
        continue;
      }
      if (lane_plans_[l].message_faults()) active_mask_lanes_.push_back(l);
    }
  }
  bool aborted = shared == 0;

  RunPlane::begin_result(result_, n, source);
  // Shared lanes read the ORIGINAL advice: fault lanes that would have
  // decoded a corrupted copy retired at arm time, and a zero-flip copy is
  // content-identical to the original.
  plane_.bind_inputs(g, source, advice, base.anonymous);
  const std::uint64_t* const offsets = g.csr_offsets();
  const Endpoint* const endpoints = g.csr_endpoints();

  // Counter-keyed seeded schedulers: group the surviving lanes into key
  // classes by scheduler seed. Each class gets its own queue / clocks /
  // key-valued outputs; everything else in the pass is shared. The
  // seed-independent schedulers skip all of this (keyed_ stays false) and
  // run the single-queue pass unchanged. The pass never adds an extra
  // delay (a lane whose message draws one retires), so its queues order
  // keys as a fault-free run's do.
  const SchedulerKind kind = base.scheduler;
  const bool link_fifo = kind == SchedulerKind::kAsyncLinkFifo;
  keyed_ = kind == SchedulerKind::kAsyncRandom || link_fifo;
  const DeliveryOrder order =
      Scheduler::delivery_order(kind, base.max_delay, FaultPlanParams{});
  if (keyed_) {
    std::size_t used = 0;
    for (std::uint32_t l = 0; l < lanes.size(); ++l) {
      if (dispositions[l] != LaneDisposition::kShared) continue;
      std::size_t ci = 0;
      while (ci < used && classes_[ci].seed != lanes[l].seed) ++ci;
      if (ci == used) {
        if (classes_.size() <= used) classes_.emplace_back();
        KeyClass& c = classes_[used];
        c.seed = lanes[l].seed;
        c.active = true;
        c.live = 0;
        c.queue.reset(order);
        c.now = 0;
        c.completion_key = 0;
        if (link_fifo) {
          c.link_clock.assign(offsets[n], 0);
        } else {
          c.link_clock.clear();
        }
        c.informed_at.assign(n, RunResult::kNeverInformed);
        c.informed_at[source] = 0;
        ++used;
      }
      ++classes_[ci].live;
      lane_class_[l] = static_cast<std::uint32_t>(ci);
    }
    classes_.resize(used);
  }

  // Behavior exceptions (advice decoders, scheme bugs) follow the scalar
  // engine's split: a fault-enabled lane absorbs them into a kTaskFailed
  // result, a fault-disabled lane propagates them from run(). The shared
  // pass always catches — on a fault-free family it then retires every
  // lane, whose scalar replays rethrow the exception canonically.
  auto drop_clean_lanes = [&]() {
    if (family_faulty) return;
    for (std::uint32_t l = 0; l < dispositions.size(); ++l) {
      dispositions[l] = LaneDisposition::kReplay;
    }
    shared = 0;
    aborted = true;
  };

  bool armed = true;
  if (!aborted) {
    try {
      plane_.arm_behaviors(algorithm);
    } catch (const std::exception& e) {
      drop_clean_lanes();
      RunPlane::arm_failed(result_, n, e.what(), false);
      armed = false;
    }
  }
  if (aborted || !armed) {
    stats_.shared = shared;
    stats_.replayed = stats_.lanes - shared;
    return result_;
  }

  events_.clear(order);
  SubmitState st(g, base, result_);
  bool budget_hit = false;
  auto fail = [&](std::string what) {
    if (result_.violation.empty()) result_.violation = std::move(what);
  };
  // Keyed mode bypasses events_'s own queue (classes carry their own), so
  // the pending count and its peak — the scalar engine's queue-size
  // trajectory — are tracked by hand.
  std::size_t pending = 0;
  std::size_t pending_peak = 0;

  // Retires a whole key class (its delivery order split from the driver's,
  // or its last live lane left): every still-shared lane of the class goes
  // to scalar replay and its lanes stop answering the fault mask.
  auto retire_class = [&](std::size_t ci) {
    KeyClass& c = classes_[ci];
    c.active = false;
    c.live = 0;
    for (std::uint32_t l = 0; l < dispositions.size(); ++l) {
      if (lane_class_[l] == ci && dispositions[l] == LaneDisposition::kShared) {
        dispositions[l] = LaneDisposition::kReplay;
        --shared;
      }
    }
    if (!active_mask_lanes_.empty()) {
      std::size_t w = 0;
      for (std::size_t k = 0; k < active_mask_lanes_.size(); ++k) {
        if (lane_class_[active_mask_lanes_[k]] != ci) {
          active_mask_lanes_[w++] = active_mask_lanes_[k];
        }
      }
      active_mask_lanes_.resize(w);
    }
    if (shared == 0) aborted = true;
  };

  // Places one admitted copy through the R-wide mask: the message's
  // seed-independent fault prekey is computed once, then every lane still
  // on the clean stream is asked for its decision; any non-benign answer
  // retires that lane, and the pass aborts when none is left.
  auto place = [&](const AdmittedCopy& c) {
    if (!active_mask_lanes_.empty()) {
      const std::uint64_t prekey = FaultPlan::message_prekey(c.seq, c.link);
      for (std::size_t k = 0; k < active_mask_lanes_.size();) {
        const std::uint32_t l = active_mask_lanes_[k];
        const FaultPlan::MessageFault mf =
            lane_plans_[l].message_fault_prekeyed(prekey);
        if (mf.drop || mf.duplicate || mf.extra_delay > 0) {
          dispositions[l] = LaneDisposition::kReplay;
          --shared;
          if (keyed_) {
            KeyClass& kc = classes_[lane_class_[l]];
            if (--kc.live == 0) kc.active = false;
          }
          active_mask_lanes_[k] = active_mask_lanes_.back();
          active_mask_lanes_.pop_back();
        } else {
          ++k;
        }
      }
      if (shared == 0) {
        aborted = true;
        return false;
      }
    }
    const Endpoint dst = endpoints[c.link];
    const std::size_t slot = events_.acquire_slot();
    events_.slot(slot) = EngineEvent{dst.node, dst.port, c.msg, c.informed};
    if (!keyed_) {
      events_.push({Scheduler::pure_key(kind, c.now, c.seq, c.link, base.seed,
                                        base.max_delay),
                    c.seq, slot});
      return true;
    }
    // One seed-independent hash for the message, one mix per active class
    // — the counter-keyed mirror of the fault mask above. Each class keys
    // the message with ITS OWN logical clock (kc.now is the key its scalar
    // replica would pass as `now`).
    const std::uint64_t prekey = Scheduler::delivery_prekey(c.seq, c.link);
    for (KeyClass& kc : classes_) {
      if (!kc.active) continue;
      std::int64_t key =
          Scheduler::counter_key(kc.now, kc.seed, prekey, base.max_delay);
      if (link_fifo) {
        key = Scheduler::link_fifo_clamp(kc.link_clock[c.link], key);
      }
      kc.queue.push({key, c.seq, slot});
    }
    if (++pending > pending_peak) pending_peak = pending;
    return true;
  };
  auto submit = [&](NodeId v, std::int64_t now) {
    const SubmitOutcome out =
        submit_sends(st, v, result_.informed[v], now, sends_.data(),
                     sends_.data() + sends_.size(), place);
    if (out.verdict == SubmitVerdict::kOk ||
        out.verdict == SubmitVerdict::kAborted) {
      return;
    }
    if (out.verdict == SubmitVerdict::kBudget) budget_hit = true;
    fail(violation_text(out, v, g.degree(v)));
  };
  auto invoke = [&](auto&& call) {
    try {
      call();
      return true;
    } catch (const std::exception& e) {
      drop_clean_lanes();
      fail(format_behavior_exception(e.what()));
      return false;
    }
  };

  for (NodeId v = 0; v < n && result_.violation.empty() && !aborted; ++v) {
    sends_.clear();
    if (!invoke([&] {
          plane_.behaviors[v]->on_start(plane_.inputs[v], sends_);
        })) {
      break;
    }
    submit(v, 0);
  }

  std::uint64_t processed = 0;
  bool events_exhausted = false;

  while ((keyed_ ? pending > 0 : !events_.empty()) &&
         result_.violation.empty() && !aborted) {
    if (base.max_events > 0 && processed >= base.max_events) {
      events_exhausted = true;
      break;
    }
    ++processed;
    EventHeap::Entry top;
    if (!keyed_) {
      top = events_.pop();
    } else {
      // The first active class drives: its minimum defines the delivery.
      // Every other class's minimum must name the same message, or that
      // class's key order has split from the shared stream and the whole
      // class retires to scalar replay.
      std::size_t di = 0;
      while (di < classes_.size() && !classes_[di].active) ++di;
      KeyClass& d = classes_[di];
      top = d.queue.pop();
      d.now = top.key;
      if (top.key > d.completion_key) d.completion_key = top.key;
      for (std::size_t ci = di + 1; ci < classes_.size(); ++ci) {
        KeyClass& c = classes_[ci];
        if (!c.active) continue;
        // A retiring class's queue is never read again this run, so it
        // may pop before it compares.
        const EventHeap::Entry e = c.queue.pop();
        if (e.slot != top.slot) {
          retire_class(ci);
          if (aborted) break;
          continue;
        }
        c.now = e.key;
        if (e.key > c.completion_key) c.completion_key = e.key;
      }
      if (aborted) break;
      --pending;
    }
    EngineEvent ev = std::move(events_.slot(top.slot));
    events_.release_slot(top.slot);
    // No crash-stop check: lanes with a non-empty crash schedule never
    // reach the pass, so the clean stream has no dead deliveries.
    ++result_.metrics.deliveries;
    if (!keyed_) {
      if (top.key > result_.metrics.completion_key) {
        result_.metrics.completion_key = top.key;
      }
    }
    if (ev.sender_informed && !result_.informed[ev.to]) {
      result_.informed[ev.to] = true;
      if (!keyed_) {
        result_.informed_at[ev.to] = top.key;
      } else {
        // Every class delivered this event at its own key (c.now, set by
        // the pop above); the informed bit flips once, shared.
        for (KeyClass& c : classes_) {
          if (c.active) c.informed_at[ev.to] = c.now;
        }
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

  stats_.lockstep_events = processed;
  stats_.shared = shared;
  stats_.replayed = stats_.lanes - shared;
  if (shared == 0) return result_;  // nobody reads the aborted state

  result_.metrics.queue_depth_peak = keyed_ ? pending_peak : events_.peak();
  if (keyed_) {
    // Fill the shared plane with the first surviving class's view so the
    // returned reference is a valid result for SOME lane; per-lane readers
    // go through lane_result, which re-patches per class.
    for (const KeyClass& c : classes_) {
      if (!c.active) continue;
      result_.metrics.completion_key = c.completion_key;
      result_.informed_at = c.informed_at;
      break;
    }
  }
  plane_.end_result(result_, false, events_exhausted || budget_hit, false);
  return result_;
}

RunResult SeedBatchExecutionContext::lane_result(std::size_t lane) const {
  RunResult r = result_;
  if (keyed_ && lane < lane_class_.size() && lane_class_[lane] != kNoClass) {
    const KeyClass& c = classes_[lane_class_[lane]];
    r.metrics.completion_key = c.completion_key;
    r.informed_at = c.informed_at;
  }
  return r;
}

std::vector<RunResult> SeedBatchExecutionContext::run(
    const PortGraph& g, NodeId source, const std::vector<BitString>& advice,
    const Algorithm& algorithm, const RunOptions& base,
    const std::vector<Lane>& lanes) {
  std::vector<LaneDisposition> dispositions;
  run_lockstep(g, source, advice, algorithm, base, lanes, dispositions);
  std::vector<RunResult> out(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (dispositions[l] == LaneDisposition::kShared) {
      out[l] = lane_result(l);
    } else {
      RunOptions options = base;
      options.seed = lanes[l].seed;
      options.fault.seed = lanes[l].fault_seed;
      out[l] = scalar_.run(g, source, advice, algorithm, options);
    }
  }
  return out;
}

}  // namespace oraclesize
