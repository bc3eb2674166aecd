// Delivery-order policies for the simulator.
//
// The paper's upper bounds hold under *total asynchrony* (any finite delay,
// any interleaving) and the lower bounds already hold synchronously, so the
// engine supports both extremes plus randomized and adversarial middles:
//
//  * kSynchronous — classic rounds: everything sent in round t arrives in
//    round t+1, deliveries within a round in send order.
//  * kAsyncRandom — each message independently delayed by 1..max_delay,
//    modelling a benign asynchronous network. The delay is counter-keyed:
//    a pure function of (seed, seq, link) through the same SplitMix64 mix
//    FaultPlan keys its decisions on, so no draw-order stream exists and
//    the seed-batch executor can serve many scheduler seeds in one pass.
//  * kAsyncFifo — one global FIFO: strictly ordered, single delivery at a
//    time (a degenerate but legal asynchronous executive).
//  * kAsyncLifo — adversarial: always delivers the *most recently sent*
//    pending message first. This is the schedule that exposes
//    hello-after-M races in broadcast scheme B (DESIGN.md deviation #4).
//  * kAsyncLinkFifo — messages on the same directed link arrive in send
//    order (the classic asynchronous message-passing model with FIFO
//    channels), but different links race with independent counter-keyed
//    delays.
//  * kAsyncAdversarial — the Lemma 2.1 game played online: each directed
//    link's first use is a *probe* answered by the edge-discovery
//    CountingAdversary (lowerbound/counting_adversary.h), and links the
//    adversary marks special are slowed twice as hard as regular ones.
//    The adversary answers by majority to keep the active instance family
//    large, so the links it deems load-bearing — the ones a scheme must
//    discover — are exactly the ones it starves. Fully deterministic: no
//    RNG stream is consumed, every key is a pure function of the probe
//    history, which is itself a function of the execution.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace oraclesize {

class CountingAdversary;  // lowerbound/counting_adversary.h
struct FaultPlanParams;   // sim/fault_plan.h

enum class SchedulerKind {
  kSynchronous,
  kAsyncRandom,
  kAsyncFifo,
  kAsyncLifo,
  kAsyncLinkFifo,
  kAsyncAdversarial,
};

const char* to_string(SchedulerKind kind);

/// How a run's pending events are kept so that they pop in (key, seq)
/// order (sim/event_heap.h). Every discipline pops the same sequence; the
/// cheaper ones rely on what the scheduler promises about its keys.
enum class DeliveryOrder : std::uint8_t {
  kFifo,   ///< keys never fall in push order: pop in insertion order
  kStack,  ///< keys fall with every push: pop the newest entry first
  kRing,   ///< keys stay within kRingKeys of the last popped key
  kHeap,   ///< no usable bound: a binary min-heap
};

/// The widest key window a kRing queue holds: one bucket per key, found
/// through a 64-bit occupancy mask.
inline constexpr std::uint64_t kRingKeys = 64;

/// Computes the priority key under which a message becomes deliverable.
/// Lower keys deliver first; ties broken by sequence number (FIFO).
class Scheduler {
 public:
  Scheduler(SchedulerKind kind, std::uint64_t seed, std::uint32_t max_delay);
  ~Scheduler();  // out-of-line: unique_ptr of a forward-declared type

  /// Re-arms the scheduler for a fresh run without releasing the link-clock
  /// storage. `num_links` sizes the per-link clock table up front (pass the
  /// number of directed (node, port) slots). For kAsyncLinkFifo it must
  /// cover every link id delivery_key will see — the hot path asserts
  /// instead of growing the table on demand.
  void reset(SchedulerKind kind, std::uint64_t seed, std::uint32_t max_delay,
             std::size_t num_links = 0);

  /// Key for a message sent with sequence number `seq` while the engine was
  /// processing an event with key `now` (0 for on_start sends). `link`
  /// identifies the directed channel as a dense index (the engine uses the
  /// graph's prefix-summed (node, port) offset). kAsyncLinkFifo reads and
  /// advances the clock of `link` alone, so its keys may be taken
  /// concurrently for links of different senders (the sharded engine's
  /// shards do), each link's in its sender's send order. kAsyncAdversarial
  /// advances one shared probe history: one caller at a time.
  std::int64_t delivery_key(std::int64_t now, std::uint64_t seq,
                            std::uint64_t link);

  /// The seed-independent half of a counter-keyed delay: hash the
  /// per-message identity once, then derive any lane's delay with one more
  /// mix via counter_delay. Mirrors FaultPlan's message_prekey /
  /// message_fault_prekeyed split and exists for the same reason — the
  /// seed-batch executor hashes each message once and asks every
  /// still-active lane for its key.
  static std::uint64_t delivery_prekey(std::uint64_t seq,
                                       std::uint64_t link) noexcept {
    return mix64(kDelayTag ^ mix64(seq ^ mix64(link)));
  }

  /// Counter-keyed delay in [0, max_delay) for one (seed, prekey) pair.
  /// max_delay == 0 is treated as 1, matching the constructor's clamp.
  static std::uint32_t counter_delay(std::uint64_t seed, std::uint64_t prekey,
                                     std::uint32_t max_delay) noexcept {
    if (max_delay == 0) max_delay = 1;
    return static_cast<std::uint32_t>(mix64(seed ^ prekey) % max_delay);
  }

  /// The counter-keyed delivery key: one past `now` plus the delay of
  /// counter_delay. kAsyncRandom's key, and kAsyncLinkFifo's before its
  /// per-link clamp.
  static std::int64_t counter_key(std::int64_t now, std::uint64_t seed,
                                  std::uint64_t prekey,
                                  std::uint32_t max_delay) noexcept {
    return now + 1 +
           static_cast<std::int64_t>(counter_delay(seed, prekey, max_delay));
  }

  /// The FIFO-channel clamp of kAsyncLinkFifo: a message on a link never
  /// overtakes the link's previous one. Advances `clock` and returns the
  /// clamped key.
  static std::int64_t link_fifo_clamp(std::int64_t& clock,
                                      std::int64_t candidate) noexcept {
    clock = (candidate > clock) ? candidate : clock + 1;
    return clock;
  }

  /// The order discipline of a run under `kind`, `max_delay` and `fault`,
  /// both delays clamped to at least 1 as the constructor and
  /// FaultPlan::arm clamp them. A pushed key is the scheduler's key plus
  /// an extra delay in [1, max_extra_delay] when fault.delay > 0:
  ///  * kSynchronous (now + 1) and kAsyncFifo (seq) never fall in push
  ///    order: kFifo;
  ///  * kAsyncLifo (-seq) falls with every push: kStack;
  ///  * kAsyncRandom keys lie in [now + 1, now + max_delay + extra], so the
  ///    pending keys span at most max_delay + extra + 1 values counting the
  ///    last popped one, and sync under extra delay at most extra + 2: kRing
  ///    while that width is at most kRingKeys;
  ///  * kAsyncLinkFifo and kAsyncAdversarial (keys depend on earlier sends),
  ///    fifo and lifo under extra delay, and any wider window: kHeap.
  static DeliveryOrder delivery_order(SchedulerKind kind,
                                      std::uint32_t max_delay,
                                      const FaultPlanParams& fault) noexcept;

  /// The key a pure scheduler assigns — the one copy of that switch, used
  /// by delivery_key and the seed-batch pass. Precondition: `kind` is
  /// neither kAsyncLinkFifo nor kAsyncAdversarial (keyed on earlier sends).
  static std::int64_t pure_key(SchedulerKind kind, std::int64_t now,
                               std::uint64_t seq, std::uint64_t link,
                               std::uint64_t seed,
                               std::uint32_t max_delay) noexcept {
    switch (kind) {
      case SchedulerKind::kAsyncRandom:
        return counter_key(now, seed, delivery_prekey(seq, link), max_delay);
      case SchedulerKind::kAsyncFifo:
        return static_cast<std::int64_t>(seq);
      case SchedulerKind::kAsyncLifo:
        return -static_cast<std::int64_t>(seq);
      default:  // kSynchronous
        return now + 1;
    }
  }

  SchedulerKind kind() const noexcept { return kind_; }

 private:
  /// Domain-separation tag for delivery prekeys — the scheduler's sibling
  /// of FaultPlan's kMessageTag, so enabling faults never perturbs delays
  /// and vice versa.
  static constexpr std::uint64_t kDelayTag = 0x64656c6179ULL;  // "delay"

  SchedulerKind kind_;
  std::uint64_t seed_;
  std::uint32_t max_delay_;
  /// Flat per-link FIFO clock, indexed by the dense link id. Zero means
  /// "nothing delivered yet" — identical to the map-based default the
  /// original implementation relied on.
  std::vector<std::int64_t> link_clock_;

  /// kAsyncAdversarial state: the online Lemma 2.1 adversary, a per-link
  /// probe record (0 = unprobed, 1 = regular, 2 = special), and how many
  /// probes it has answered (it throws past resolution, so we guard).
  std::unique_ptr<CountingAdversary> adversary_;
  std::vector<std::uint8_t> link_state_;
  std::uint64_t probes_ = 0;
  std::size_t num_candidates_ = 0;
};

}  // namespace oraclesize
