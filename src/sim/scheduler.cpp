#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>

#include "lowerbound/counting_adversary.h"
#include "sim/fault_plan.h"

namespace oraclesize {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSynchronous:
      return "sync";
    case SchedulerKind::kAsyncRandom:
      return "async-random";
    case SchedulerKind::kAsyncFifo:
      return "async-fifo";
    case SchedulerKind::kAsyncLifo:
      return "async-lifo";
    case SchedulerKind::kAsyncLinkFifo:
      return "async-link-fifo";
    case SchedulerKind::kAsyncAdversarial:
      return "async-adversarial";
  }
  return "unknown";
}

DeliveryOrder Scheduler::delivery_order(SchedulerKind kind,
                                        std::uint32_t max_delay,
                                        const FaultPlanParams& fault) noexcept {
  const std::uint64_t extra =
      fault.delay > 0 ? std::max<std::uint32_t>(fault.max_extra_delay, 1) : 0;
  std::uint64_t width = 0;  // distinct keys pending, the last popped included
  switch (kind) {
    case SchedulerKind::kSynchronous:
      if (extra == 0) return DeliveryOrder::kFifo;
      width = extra + 2;
      break;
    case SchedulerKind::kAsyncFifo:
      return extra == 0 ? DeliveryOrder::kFifo : DeliveryOrder::kHeap;
    case SchedulerKind::kAsyncLifo:
      return extra == 0 ? DeliveryOrder::kStack : DeliveryOrder::kHeap;
    case SchedulerKind::kAsyncRandom:
      width = std::max<std::uint32_t>(max_delay, 1) + extra + 1;
      break;
    default:
      return DeliveryOrder::kHeap;
  }
  return width <= kRingKeys ? DeliveryOrder::kRing : DeliveryOrder::kHeap;
}

Scheduler::Scheduler(SchedulerKind kind, std::uint64_t seed,
                     std::uint32_t max_delay)
    : kind_(kind),
      seed_(seed),
      max_delay_(max_delay == 0 ? 1 : max_delay) {}

Scheduler::~Scheduler() = default;

void Scheduler::reset(SchedulerKind kind, std::uint64_t seed,
                      std::uint32_t max_delay, std::size_t num_links) {
  kind_ = kind;
  seed_ = seed;
  max_delay_ = max_delay == 0 ? 1 : max_delay;
  link_clock_.assign(kind == SchedulerKind::kAsyncLinkFifo ? num_links : 0,
                     0);
  probes_ = 0;
  if (kind == SchedulerKind::kAsyncAdversarial) {
    // Every directed link is a candidate edge; one in four is special —
    // enough specials that the adversary's majority answers keep pressure
    // on throughout the run, few enough that special status stays scarce.
    num_candidates_ = num_links == 0 ? 1 : num_links;
    link_state_.assign(num_candidates_, 0);
    const std::size_t specials =
        num_candidates_ / 4 == 0 ? 1 : num_candidates_ / 4;
    adversary_ = std::make_unique<CountingAdversary>(
        EdgeDiscoveryProblem{num_candidates_, specials});
  } else {
    // No deallocation on the common path: link_state_ keeps its capacity,
    // and the adversary (heap state) is only dropped if one was armed.
    num_candidates_ = 0;
    link_state_.clear();
    adversary_.reset();
  }
}

std::int64_t Scheduler::delivery_key(std::int64_t now, std::uint64_t seq,
                                     std::uint64_t link) {
  switch (kind_) {
    case SchedulerKind::kAsyncLinkFifo: {
      // Random per-message delay, clamped so this link's deliveries stay in
      // send order (FIFO channel), while distinct links race freely.
      assert(link < link_clock_.size() &&
             "reset() must size the link-clock table to cover every link");
      return link_fifo_clamp(
          link_clock_[link],
          counter_key(now, seed_, delivery_prekey(seq, link), max_delay_));
    }
    case SchedulerKind::kAsyncAdversarial: {
      // Online Lemma 2.1: a link's first use probes the edge-discovery
      // adversary, whose majority answer decides whether the link is
      // "special" (a channel the scheme must discover → starved at twice
      // the regular penalty). Subsequent uses keep the verdict: special
      // links stay slow, regular links settle to the fast lane. No RNG is
      // consumed, so the schedule is a pure function of the probe history.
      if (link >= link_state_.size()) link_state_.resize(link + 1, 0);
      std::uint8_t& st = link_state_[link];
      if (st == 0) {
        bool special = false;
        if (adversary_ && !adversary_->resolved() &&
            probes_ < num_candidates_) {
          special = adversary_->answer(static_cast<std::size_t>(probes_))
                        .special;
          ++probes_;
        }
        st = special ? 2 : 1;
        const std::int64_t delay = static_cast<std::int64_t>(max_delay_);
        return now + 1 + (special ? 2 * delay : delay);
      }
      return st == 2 ? now + 1 + static_cast<std::int64_t>(max_delay_)
                     : now + 1;
    }
    default:
      return pure_key(kind_, now, seq, link, seed_, max_delay_);
  }
}

}  // namespace oraclesize
