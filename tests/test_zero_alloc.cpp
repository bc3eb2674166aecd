// Steady-state allocation audit for ExecutionContext::run and
// ShardedExecutionContext::run.
//
// Standalone binary (not gtest: the framework's own allocations would
// pollute the counters). Global operator new is replaced with a counting
// shim that counts every thread; after warming a context twice, a third run
// is counted, and the count must be INDEPENDENT of n for the paper's two
// schemes (wakeup via tree advice, broadcast via scheme B). A per-node
// allocation in the hot path — behavior churn, per-event vectors, advice
// copies — shows up as an O(n) gap between the n=256 and n=1024 counts and
// fails the audit. The sharded rows grow the epoch count instead (grids
// read from a corner): a per-epoch allocation — a task closure per barrier,
// a scratch vector per merge — fails them. (Counts, not bytes: an n-element
// vector is one allocation either way; the RunResult's per-node output
// vectors are a fixed number of calls.)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/broadcast_b.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "core/flooding.h"
#include "oracle/trivial_oracles.h"
#include "sim/execution_context.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace oraclesize {
namespace {

/// Warm a context on the exact workload, then count one more run.
std::size_t count_steady_run(const PortGraph& g,
                             const std::vector<BitString>& advice,
                             const Algorithm& algorithm,
                             const RunOptions& opts) {
  ExecutionContext context;
  for (int warm = 0; warm < 2; ++warm) {
    (void)context.run(g, 0, advice, algorithm, opts);
  }
  g_news.store(0);
  g_counting.store(true);
  const RunResult r = context.run(g, 0, advice, algorithm, opts);
  g_counting.store(false);
  if (!r.all_informed || !r.violation.empty()) {
    std::fprintf(stderr, "FAIL: %s run did not complete cleanly (%s)\n",
                 algorithm.name().c_str(), r.violation.c_str());
    std::exit(1);
  }
  return g_news.load();
}

/// The same on a ShardedExecutionContext(4); also reports the run's epochs.
std::size_t count_steady_sharded_run(const PortGraph& g,
                                     const std::vector<BitString>& advice,
                                     const Algorithm& algorithm,
                                     const RunOptions& opts,
                                     std::uint64_t& epochs) {
  ShardedExecutionContext context(4);
  for (int warm = 0; warm < 2; ++warm) {
    (void)context.run(g, 0, advice, algorithm, opts);
  }
  g_news.store(0);
  g_counting.store(true);
  const RunResult r = context.run(g, 0, advice, algorithm, opts);
  g_counting.store(false);
  epochs = context.last_stats().epochs;
  if (!r.all_informed || !r.violation.empty() ||
      context.last_stats().fell_back || context.last_stats().shards != 4) {
    std::fprintf(stderr, "FAIL: sharded %s run did not run cleanly (%s)\n",
                 algorithm.name().c_str(), r.violation.c_str());
    std::exit(1);
  }
  return g_news.load();
}

int audit() {
  // Same sparse family at two sizes; identical construction seeds so the
  // only variable is n.
  Rng rng_small(0xfeedULL), rng_big(0xfeedULL);
  const PortGraph small = make_random_connected(256, 8.0 / 256.0, rng_small);
  const PortGraph big = make_random_connected(1024, 8.0 / 1024.0, rng_big);

  int failures = 0;
  const auto check = [&failures](const char* label, std::size_t at_small,
                                 std::size_t at_big) {
    // Allow a handful of calls of jitter (container regrowth rounding);
    // a per-node leak would show up as hundreds.
    const std::size_t hi = at_small > at_big ? at_small : at_big;
    const std::size_t lo = at_small > at_big ? at_big : at_small;
    const bool ok = hi - lo <= 8;
    std::printf("%-12s n=256: %zu allocs   n=1024: %zu allocs   %s\n",
                label, at_small, at_big, ok ? "ok" : "FAIL (n-dependent)");
    if (!ok) ++failures;
  };

  {
    const TreeWakeupOracle oracle;
    const WakeupTreeAlgorithm algorithm;
    RunOptions opts;
    opts.scheduler = SchedulerKind::kSynchronous;
    opts.enforce_wakeup = true;
    const auto advice_small = oracle.advise(small, 0);
    const auto advice_big = oracle.advise(big, 0);
    const std::size_t w_small =
        count_steady_run(small, advice_small, algorithm, opts);
    const std::size_t w_big =
        count_steady_run(big, advice_big, algorithm, opts);
    check("wakeup", w_small, w_big);

    // A seeded-but-empty adversary plan must be allocation-free too: the
    // disabled plan is never consulted, so the steady state is the SAME
    // workload, not merely a similarly-flat one.
    RunOptions zeroed = opts;
    zeroed.adversary.seed = 123456789;  // junk seed, zero rates: disabled
    const std::size_t z_small =
        count_steady_run(small, advice_small, algorithm, zeroed);
    const std::size_t z_big =
        count_steady_run(big, advice_big, algorithm, zeroed);
    check("wakeup+0byz", z_small, z_big);
    check("0byz==off", w_big, z_big);

    // Extra-delay faults move a synchronous run from the FIFO to the
    // bucket ring; its node pool is recycled, never grown per event.
    RunOptions delayed = opts;
    delayed.fault.seed = 77;
    delayed.fault.delay = 0.05;
    check("wakeup+delay",
          count_steady_run(small, advice_small, algorithm, delayed),
          count_steady_run(big, advice_big, algorithm, delayed));
  }
  {
    const LightBroadcastOracle oracle;
    const BroadcastBAlgorithm algorithm;
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncRandom;
    opts.seed = 9;
    const auto advice_small = oracle.advise(small, 0);
    const auto advice_big = oracle.advise(big, 0);
    check("broadcast-b",
          count_steady_run(small, advice_small, algorithm, opts),
          count_steady_run(big, advice_big, algorithm, opts));

    // The link-fifo clock table is sized once in reset(), never grown in
    // delivery_key — the per-link clamp in the hot path must be free.
    RunOptions fifo = opts;
    fifo.scheduler = SchedulerKind::kAsyncLinkFifo;
    check("link-fifo",
          count_steady_run(small, advice_small, algorithm, fifo),
          count_steady_run(big, advice_big, algorithm, fifo));

    // The FIFO and the stack keep their capacity across runs too.
    RunOptions global_fifo = opts;
    global_fifo.scheduler = SchedulerKind::kAsyncFifo;
    check("async-fifo",
          count_steady_run(small, advice_small, algorithm, global_fifo),
          count_steady_run(big, advice_big, algorithm, global_fifo));
    RunOptions lifo = opts;
    lifo.scheduler = SchedulerKind::kAsyncLifo;
    check("async-lifo",
          count_steady_run(small, advice_small, algorithm, lifo),
          count_steady_run(big, advice_big, algorithm, lifo));
  }
  {
    // Sharded: 16x16, 32x32 and 64x64 grids from a corner hold 30, 62 and
    // 126 epochs on four shards, each a pass of the worker pool. The
    // link-fifo row advances link clocks in phase B and the max-events row
    // counts events against a cap past the run's end; both must allocate
    // exactly what the synchronous flooding row does.
    const PortGraph grids[] = {make_grid(16, 16), make_grid(32, 32),
                               make_grid(64, 64)};
    const TreeWakeupOracle wakeup_oracle;
    const WakeupTreeAlgorithm wakeup;
    const FloodingAlgorithm flooding;
    struct Row {
      const char* label;
      bool use_wakeup;
      SchedulerKind scheduler;
      std::uint64_t max_events;
    };
    const Row rows[] = {
        {"wakeup", true, SchedulerKind::kSynchronous, 0},
        {"flooding", false, SchedulerKind::kSynchronous, 0},
        {"link-fifo", false, SchedulerKind::kAsyncLinkFifo, 0},
        {"max-events", false, SchedulerKind::kSynchronous, 1'000'000},
    };
    std::size_t counts[4][3];
    for (std::size_t r = 0; r < 4; ++r) {
      const Row& row = rows[r];
      RunOptions opts;
      opts.enforce_wakeup = row.use_wakeup;
      opts.scheduler = row.scheduler;
      opts.max_events = row.max_events;
      std::uint64_t epochs[3];
      for (int i = 0; i < 3; ++i) {
        const std::vector<BitString> advice =
            row.use_wakeup ? wakeup_oracle.advise(grids[i], 0)
                           : std::vector<BitString>(grids[i].num_nodes());
        counts[r][i] = count_steady_sharded_run(
            grids[i], advice,
            row.use_wakeup ? static_cast<const Algorithm&>(wakeup)
                           : static_cast<const Algorithm&>(flooding),
            opts, epochs[i]);
      }
      const std::size_t* c = counts[r];
      const std::size_t hi = std::max({c[0], c[1], c[2]});
      const std::size_t lo = std::min({c[0], c[1], c[2]});
      const bool flat = hi - lo <= 8;
      const bool as_flooding = r < 2 || std::equal(c, c + 3, counts[1]);
      std::printf(
          "sharded-%-10s epochs %llu/%llu/%llu: %zu/%zu/%zu allocs   %s\n",
          row.label, static_cast<unsigned long long>(epochs[0]),
          static_cast<unsigned long long>(epochs[1]),
          static_cast<unsigned long long>(epochs[2]), c[0], c[1], c[2],
          !flat          ? "FAIL (epoch-dependent)"
          : !as_flooding ? "FAIL (differs from sharded-flooding)"
                         : "ok");
      if (!flat || !as_flooding) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace oraclesize

int main() { return oraclesize::audit(); }
