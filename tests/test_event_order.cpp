// The event queue's order disciplines against the binary heap.
//
// Scheduler::delivery_order lets a run keep its pending events as a FIFO, a
// stack or a bucket ring instead of a heap, relying on what the scheduler
// promises about its keys. These tests drive seeded push/pop streams shaped
// like the engine's (keys from Scheduler::pure_key plus fault-plan extra
// delays, `now` the last popped key) through the chosen discipline and a
// heap side by side: every peek and pop must name the same (key, seq, slot)
// and the high-water marks must agree. A second test pins the choice itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "sim/event_heap.h"
#include "sim/fault_plan.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

using Entry = OrderQueue::Entry;

struct Case {
  SchedulerKind kind;
  std::uint32_t max_delay;
  double delay;  ///< fault.delay: the chance of an extra delay
  std::uint32_t max_extra_delay;
};

FaultPlanParams fault_of(const Case& c) {
  FaultPlanParams f;
  f.delay = c.delay;
  f.max_extra_delay = c.max_extra_delay;
  return f;
}

std::string label(const Case& c) {
  return std::string(to_string(c.kind)) + " max_delay=" +
         std::to_string(c.max_delay) + " delay=" + std::to_string(c.delay) +
         " max_extra=" + std::to_string(c.max_extra_delay);
}

bool same(const Entry& a, const Entry& b) {
  return std::tie(a.key, a.seq, a.slot) == std::tie(b.key, b.seq, b.slot);
}

/// How often the streams of one case met each trap.
struct Traps {
  int burst_smaller = 0;   ///< an on-start push keyed below the first one
  int duplicates = 0;      ///< two copies on consecutive seqs
  int delays = 0;          ///< copies given an extra delay
  int refills = 0;         ///< a drained queue filled again
  int peek_smaller = 0;    ///< a push keyed below a just-peeked key
  std::int64_t span = 0;   ///< widest key - (last popped key) + 1 pushed
};

/// One seeded stream: an on-start burst at now = 0, then pops each followed
/// by 0-2 sends at now = the popped key, with duplicates, extra delays,
/// peeks before pushes, and up to two drain-and-refill rounds.
void run_stream(const Case& c, std::uint64_t seed, Traps& traps) {
  const DeliveryOrder order =
      Scheduler::delivery_order(c.kind, c.max_delay, fault_of(c));
  OrderQueue got;
  OrderQueue want;
  got.reset(order);
  want.reset(DeliveryOrder::kHeap);
  Rng rng(seed);
  // FaultPlan::arm's clamp: an extra delay is drawn in [1, max(1, max)].
  const std::uint32_t extra_max = std::max<std::uint32_t>(c.max_extra_delay, 1);
  std::uint64_t seq = 0;
  std::size_t slot = 0;
  std::int64_t now = 0;
  std::int64_t peeked = std::numeric_limits<std::int64_t>::max();

  auto push = [&](const Entry& e) {
    traps.span = std::max(traps.span, e.key - now + 1);
    if (e.key < peeked) ++traps.peek_smaller;
    got.push(e);
    want.push(e);
  };
  // One send: one copy, or two on consecutive seqs, each keyed by the
  // scheduler's rule with its own seq, both carrying the same extra delay.
  auto send = [&] {
    const bool duplicate = rng.chance(0.1);
    std::uint32_t extra = 0;
    if (c.delay > 0 && rng.chance(c.delay)) {
      extra = 1 + static_cast<std::uint32_t>(rng.below(extra_max));
      ++traps.delays;
    }
    if (duplicate) ++traps.duplicates;
    for (int copy = 0; copy < (duplicate ? 2 : 1); ++copy) {
      const std::int64_t key =
          Scheduler::pure_key(c.kind, now, seq, 3 * seq + 1, seed,
                              c.max_delay) +
          static_cast<std::int64_t>(extra);
      push({key, seq, slot});
      ++seq;
      ++slot;
    }
  };
  auto expect_same_top = [&] {
    ASSERT_EQ(got.empty(), want.empty());
    if (want.empty()) return;
    ASSERT_TRUE(same(got.top(), want.top()))
        << label(c) << " seed " << seed << ": peek " << got.top().key << "/"
        << got.top().seq << " vs heap " << want.top().key << "/"
        << want.top().seq;
    peeked = want.top().key;
  };

  const int starters = 1 + static_cast<int>(rng.below(12));
  for (int v = 0; v < starters; ++v) {
    for (int k = static_cast<int>(rng.below(4)); k > 0; --k) send();
  }
  if (want.empty()) send();
  {
    // The on-start burst's keys in push order, off a copy of the heap.
    OrderQueue burst = want;
    std::int64_t first_key = 0;
    std::uint64_t first_seq = std::numeric_limits<std::uint64_t>::max();
    std::int64_t min_key = std::numeric_limits<std::int64_t>::max();
    while (!burst.empty()) {
      const Entry e = burst.pop();
      if (e.seq < first_seq) {
        first_seq = e.seq;
        first_key = e.key;
      }
      min_key = std::min(min_key, e.key);
    }
    if (min_key < first_key) ++traps.burst_smaller;
  }

  int refills = 0;
  int pops = 0;
  bool draining = false;
  while (!want.empty() && pops < 2500) {
    if (rng.chance(0.3)) expect_same_top();
    const Entry w = want.pop();
    const Entry g = got.pop();
    ++pops;
    ASSERT_TRUE(same(g, w)) << label(c) << " seed " << seed << " pop " << pops
                            << ": got " << g.key << "/" << g.seq << " want "
                            << w.key << "/" << w.seq;
    ASSERT_EQ(got.size(), want.size());
    now = w.key;
    peeked = std::numeric_limits<std::int64_t>::max();
    if (rng.chance(0.2)) expect_same_top();  // a peek, then pushes
    if (!draining && rng.chance(0.002)) draining = true;
    const int sends = draining ? 0 : static_cast<int>(rng.below(3));
    for (int s = 0; s < sends; ++s) send();
    if (want.empty() && refills < 2) {
      ++refills;
      ++traps.refills;
      draining = false;
      for (int k = 1 + static_cast<int>(rng.below(6)); k > 0; --k) send();
    }
  }
  EXPECT_EQ(got.size(), want.size()) << label(c);
  EXPECT_EQ(got.peak(), want.peak()) << label(c) << " seed " << seed;
}

TEST(EventOrder, EveryDisciplinePopsTheHeapSequence) {
  const auto sync = SchedulerKind::kSynchronous;
  const auto random = SchedulerKind::kAsyncRandom;
  const Case cases[] = {
      {sync, 16, 0.0, 8},            // FIFO
      {SchedulerKind::kAsyncFifo, 16, 0.0, 8},   // FIFO
      {SchedulerKind::kAsyncLifo, 16, 0.0, 8},   // stack
      {random, 16, 0.0, 8},          // ring, 17 keys
      {random, 0, 0.0, 8},           // max_delay 0 runs as 1: ring, 2 keys
      {random, 1, 0.0, 8},           // ring, 2 keys
      {random, 63, 0.0, 8},          // the widest ring: 64 keys
      {random, 16, 0.3, 8},          // ring under extra delay, 25 keys
      {random, 16, 0.3, 47},         // 64 keys
      {random, 16, 0.3, 0},          // max_extra_delay 0 runs as 1: 18 keys
      {random, 63, 0.3, 0},          // 65 keys clamped: heap
      {random, 0, 0.3, 62},          // 64 keys clamped
      {sync, 16, 0.3, 8},            // ring under extra delay, 10 keys
      {sync, 16, 0.3, 0},            // 3 keys clamped
      {sync, 16, 0.3, 62},           // 64 keys
      {SchedulerKind::kAsyncFifo, 16, 0.3, 8},   // heap
      {SchedulerKind::kAsyncLifo, 16, 0.3, 8},   // heap
  };
  for (const Case& c : cases) {
    Traps traps;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      run_stream(c, seed * 0x9e3779b97f4a7c15ULL, traps);
      if (::testing::Test::HasFatalFailure()) return;
    }
    SCOPED_TRACE(label(c));
    EXPECT_GT(traps.duplicates, 0);
    EXPECT_GT(traps.refills, 0);
    if (c.delay > 0) {
      EXPECT_GT(traps.delays, 0);
    }
    const DeliveryOrder order =
        Scheduler::delivery_order(c.kind, c.max_delay, fault_of(c));
    if (order == DeliveryOrder::kRing) {
      EXPECT_LE(traps.span, static_cast<std::int64_t>(kRingKeys));
      // Keys below a peeked one arrive after peeks, and the on-start
      // burst pushes keys below its first; both hold only where delays
      // vary.
      if (c.max_delay > 1 || c.delay > 0) {
        EXPECT_GT(traps.peek_smaller, 0);
        EXPECT_GT(traps.burst_smaller, 0);
      }
    }
  }
  // The widest rings do reach all 64 keys.
  for (const Case& c : {Case{random, 63, 0.0, 8}, Case{random, 16, 0.3, 47},
                        Case{sync, 16, 0.3, 62}}) {
    Traps traps;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      run_stream(c, seed * 0x9e3779b97f4a7c15ULL, traps);
    }
    EXPECT_EQ(traps.span, static_cast<std::int64_t>(kRingKeys)) << label(c);
  }
}

TEST(EventOrder, DisciplineFollowsSchedulerDelayAndFaultPlan) {
  using K = SchedulerKind;
  const auto fifo = DeliveryOrder::kFifo;
  const auto stack = DeliveryOrder::kStack;
  const auto ring = DeliveryOrder::kRing;
  const auto heap = DeliveryOrder::kHeap;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  struct Pin {
    Case c;
    DeliveryOrder want;
  };
  const Pin pins[] = {
      // No extra delay: the scheduler's own key rule decides.
      {{K::kSynchronous, 16, 0.0, 8}, fifo},
      {{K::kSynchronous, 0, 0.0, 0}, fifo},
      {{K::kAsyncFifo, 16, 0.0, 8}, fifo},
      {{K::kAsyncLifo, 16, 0.0, 8}, stack},
      {{K::kAsyncRandom, 16, 0.0, 8}, ring},
      {{K::kAsyncRandom, 0, 0.0, 8}, ring},    // runs as max_delay 1
      {{K::kAsyncRandom, 63, 0.0, 8}, ring},   // 64 keys: the cap
      {{K::kAsyncRandom, 64, 0.0, 8}, heap},   // 65 keys
      {{K::kAsyncRandom, kMax, 0.0, 8}, heap},
      {{K::kAsyncLinkFifo, 16, 0.0, 8}, heap},
      {{K::kAsyncLinkFifo, 1, 0.0, 8}, heap},
      {{K::kAsyncAdversarial, 16, 0.0, 8}, heap},
      // Extra delay widens the window by max_extra_delay (0 runs as 1).
      {{K::kSynchronous, 16, 0.001, 8}, ring},   // 10 keys
      {{K::kSynchronous, 16, 0.001, 0}, ring},   // 3 keys
      {{K::kSynchronous, 16, 0.001, 62}, ring},  // 64 keys
      {{K::kSynchronous, 16, 0.001, 63}, heap},  // 65 keys
      {{K::kSynchronous, 16, 1.0, kMax}, heap},
      {{K::kAsyncFifo, 16, 0.001, 8}, heap},
      {{K::kAsyncFifo, 16, 0.001, 0}, heap},
      {{K::kAsyncLifo, 16, 0.001, 8}, heap},
      {{K::kAsyncLifo, 16, 0.001, 0}, heap},
      {{K::kAsyncRandom, 16, 0.001, 8}, ring},   // 25 keys
      {{K::kAsyncRandom, 16, 0.001, 47}, ring},  // 64 keys
      {{K::kAsyncRandom, 16, 0.001, 48}, heap},  // 65 keys
      {{K::kAsyncRandom, 63, 0.001, 0}, heap},   // 65 keys, not 64
      {{K::kAsyncRandom, 62, 0.001, 0}, ring},   // 64 keys
      {{K::kAsyncRandom, 0, 0.001, 62}, ring},   // 64 keys
      {{K::kAsyncRandom, 0, 0.001, 63}, heap},   // 65 keys, not 64
      {{K::kAsyncRandom, kMax, 1.0, kMax}, heap},
      {{K::kAsyncLinkFifo, 16, 0.001, 8}, heap},
      {{K::kAsyncAdversarial, 16, 0.001, 8}, heap},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(Scheduler::delivery_order(p.c.kind, p.c.max_delay,
                                        fault_of(p.c)),
              p.want)
        << label(p.c);
  }
  // Only the delay rate widens the window: drops, duplicates, crashes and
  // advice flips keep the fault-free discipline.
  FaultPlanParams others;
  others.drop = 0.01;
  others.duplicate = 0.01;
  others.crash = 0.01;
  others.advice_flip = 0.01;
  others.max_extra_delay = 63;
  EXPECT_EQ(Scheduler::delivery_order(K::kAsyncFifo, 16, others), fifo);
  EXPECT_EQ(Scheduler::delivery_order(K::kAsyncLifo, 16, others), stack);
  EXPECT_EQ(Scheduler::delivery_order(K::kSynchronous, 16, others), fifo);
  EXPECT_EQ(Scheduler::delivery_order(K::kAsyncRandom, 63, others), ring);
}

}  // namespace
}  // namespace oraclesize
