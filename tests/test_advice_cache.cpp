// The advice memoization layer (core/advice_cache.h) and BatchRunner's
// advise pre-pass, which dedupes the same keys without it: cached advice
// must be bit-identical to a fresh advise(), dedup accounting must be
// exact, and everything must hold under concurrency.
#include "core/advice_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/flooding.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/engine.h"

namespace oraclesize {
namespace {

// Counts advise() calls so tests can pin the exactly-once guarantee.
class CountingOracle final : public Oracle {
 public:
  explicit CountingOracle(const Oracle& inner) : inner_(inner) {}
  std::vector<BitString> advise(const PortGraph& g,
                                NodeId source) const override {
    ++calls;
    return inner_.advise(g, source);
  }
  std::string name() const override { return inner_.name(); }

  mutable std::atomic<std::size_t> calls{0};

 private:
  const Oracle& inner_;
};

class ThrowingOracle final : public Oracle {
 public:
  std::vector<BitString> advise(const PortGraph&, NodeId) const override {
    ++calls;
    throw std::runtime_error("throwing-oracle: no advice today");
  }
  std::string name() const override { return "throwing"; }

  mutable std::atomic<std::size_t> calls{0};
};

TEST(AdviceCache, CachedAdviceBitIdenticalToFreshAdvise) {
  Rng rng(11);
  const PortGraph g = make_random_connected(64, 0.1, rng);
  const TreeWakeupOracle oracle;
  const auto fresh = oracle.advise(g, 3);

  AdviceCache cache;
  const auto first = cache.lookup(g, oracle, 3);
  const auto second = cache.lookup(g, oracle, 3);
  ASSERT_NE(first.advice, nullptr);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.advise_ns, 0u);
  EXPECT_EQ(first.advice, second.advice);  // literally the same vector
  ASSERT_EQ(first.advice->size(), fresh.size());
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    EXPECT_EQ((*first.advice)[v], fresh[v]) << "node " << v;
  }
}

TEST(AdviceCache, DistinctKeysAreDistinctEntries) {
  const PortGraph g1 = make_grid(4, 4);
  const PortGraph g2 = make_grid(4, 4);  // same shape, different identity
  const TreeWakeupOracle tree;
  const NullOracle null;

  AdviceCache cache;
  EXPECT_FALSE(cache.lookup(g1, tree, 0).hit);
  EXPECT_FALSE(cache.lookup(g2, tree, 0).hit);  // graph address differs
  EXPECT_FALSE(cache.lookup(g1, tree, 1).hit);  // source differs
  EXPECT_FALSE(cache.lookup(g1, null, 0).hit);  // oracle name differs
  EXPECT_TRUE(cache.lookup(g1, tree, 0).hit);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(AdviceCache, ClearDropsEntries) {
  const PortGraph g = make_path(5);
  const NullOracle inner;
  const CountingOracle counting(inner);

  AdviceCache cache;
  cache.lookup(g, counting, 0);
  cache.lookup(g, counting, 0);
  EXPECT_EQ(counting.calls.load(), 1u);
  cache.clear();
  cache.lookup(g, counting, 0);
  EXPECT_EQ(counting.calls.load(), 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(AdviceCache, ConcurrentLookupsComputeOnce) {
  Rng rng(21);
  const PortGraph g = make_random_connected(128, 0.08, rng);
  const LightBroadcastOracle inner;
  const CountingOracle oracle(inner);

  AdviceCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<AdvicePtr> seen(kThreads);
  std::atomic<std::size_t> hits{0};
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int round = 0; round < 16; ++round) {
          const auto got = cache.lookup(g, oracle, 0);
          if (got.hit) ++hits;
          seen[t] = got.advice;
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  EXPECT_EQ(oracle.calls.load(), 1u);  // exactly one advise() ever ran
  EXPECT_EQ(hits.load(), kThreads * 16 - 1);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

TEST(AdviceCache, PoisonedEntryRethrowsForEveryWaiter) {
  const PortGraph g = make_path(4);
  const ThrowingOracle oracle;
  AdviceCache cache;
  EXPECT_THROW(cache.lookup(g, oracle, 0), std::runtime_error);
  // The entry stays poisoned: repeat lookups rethrow without re-advising.
  EXPECT_THROW(cache.lookup(g, oracle, 0), std::runtime_error);
  EXPECT_EQ(oracle.calls.load(), 1u);
}

// --- BatchRunner integration -------------------------------------------

TEST(AdviceCache, BatchDedupCountsAreExact) {
  const PortGraph g1 = make_complete_star(64);
  const PortGraph g2 = make_grid(8, 8);
  const TreeWakeupOracle inner;
  const CountingOracle oracle(inner);
  const WakeupTreeAlgorithm algorithm;

  // 6 specs over 2 distinct keys: (g1, src 0) x4 and (g2, src 0) x2.
  std::vector<TrialSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(TrialSpec{&g1, 0, &oracle, &algorithm, RunOptions{}});
  }
  for (int i = 0; i < 2; ++i) {
    specs.push_back(TrialSpec{&g2, 0, &oracle, &algorithm, RunOptions{}});
  }

  BatchStats stats;
  const auto reports = BatchRunner(4).run(specs, &stats);
  ASSERT_EQ(reports.size(), 6u);
  EXPECT_EQ(oracle.calls.load(), 2u);
  EXPECT_EQ(stats.unique_advice, 2u);
  EXPECT_EQ(stats.cache_hits, 4u);

  // Deterministic attribution: the FIRST spec of each group reports the
  // advise cost, duplicates are flagged cached with advise_ns == 0.
  EXPECT_FALSE(reports[0].advice_cached);
  EXPECT_FALSE(reports[4].advice_cached);
  for (std::size_t i : {1u, 2u, 3u, 5u}) {
    EXPECT_TRUE(reports[i].advice_cached) << i;
    EXPECT_EQ(reports[i].advise_ns, 0u) << i;
  }
}

TEST(AdviceCache, BatchResultsIdenticalCacheOnAndOff) {
  Rng rng(5);
  const PortGraph g = make_random_connected(96, 0.08, rng);
  const LightBroadcastOracle oracle;
  const BroadcastBAlgorithm broadcast;
  const TreeWakeupOracle tree_oracle;
  const WakeupTreeAlgorithm wakeup;

  std::vector<TrialSpec> specs;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncRandom;
    opts.seed = seed;
    specs.push_back(TrialSpec{&g, 2, &oracle, &broadcast, opts});
    specs.push_back(TrialSpec{&g, 2, &tree_oracle, &wakeup, opts});
  }

  const auto on = BatchRunner(4, /*advice_cache=*/true).run(specs);
  const auto off = BatchRunner(4, /*advice_cache=*/false).run(specs);
  const auto serial_on = BatchRunner(1, /*advice_cache=*/true).run(specs);
  ASSERT_EQ(on.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(on[i].run, off[i].run) << i;
    EXPECT_EQ(on[i].run, serial_on[i].run) << i;
    EXPECT_EQ(on[i].oracle_bits, off[i].oracle_bits) << i;
    EXPECT_EQ(on[i].oracle_name, off[i].oracle_name) << i;
  }
}

TEST(AdviceCache, TrialSpecPrecomputedAdviceIsHonored) {
  const PortGraph g = make_grid(6, 6);
  const TreeWakeupOracle oracle;
  const CountingOracle counting(oracle);
  const WakeupTreeAlgorithm algorithm;

  TrialSpec spec{&g, 0, &counting, &algorithm, RunOptions{}};
  spec.advice =
      std::make_shared<const std::vector<BitString>>(oracle.advise(g, 0));

  BatchStats stats;
  const auto reports = BatchRunner(1).run({spec}, &stats);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(counting.calls.load(), 0u);  // never asked to advise
  EXPECT_TRUE(reports[0].advice_cached);
  EXPECT_EQ(reports[0].advise_ns, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.unique_advice, 0u);

  // And the execution matches the self-advised path bit for bit.
  const auto direct = BatchRunner(1).run(
      {TrialSpec{&g, 0, &oracle, &algorithm, RunOptions{}}});
  EXPECT_EQ(reports[0].run, direct[0].run);
  EXPECT_EQ(reports[0].oracle_bits, direct[0].oracle_bits);
}

TEST(AdviceCache, AdviseExceptionIsIsolatedPerTrial) {
  const PortGraph g = make_path(6);
  const ThrowingOracle throwing;
  const NullOracle null;
  const FloodingAlgorithm algorithm;

  // Healthy trials around a poisoned group: every poisoned trial reports
  // the advise failure on itself, the healthy trials still run — for any
  // job count, cache on or off.
  std::vector<TrialSpec> specs;
  specs.push_back(TrialSpec{&g, 0, &null, &algorithm, RunOptions{}});
  specs.push_back(TrialSpec{&g, 0, &throwing, &algorithm, RunOptions{}});
  specs.push_back(TrialSpec{&g, 0, &throwing, &algorithm, RunOptions{}});
  specs.push_back(TrialSpec{&g, 0, &null, &algorithm, RunOptions{}});

  for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    for (bool cached : {true, false}) {
      BatchStats stats;
      const auto reports = BatchRunner(jobs, cached).run(specs, &stats);
      ASSERT_EQ(reports.size(), 4u) << "jobs=" << jobs << " cache=" << cached;
      EXPECT_EQ(stats.failed, 2u);
      for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
        EXPECT_TRUE(reports[i].failed());
        EXPECT_EQ(reports[i].run.status, RunStatus::kCrashed);
        EXPECT_NE(reports[i].error.find("no advice today"), std::string::npos)
            << reports[i].error;
      }
      for (std::size_t i : {std::size_t{0}, std::size_t{3}}) {
        EXPECT_FALSE(reports[i].failed()) << i;
        EXPECT_TRUE(reports[i].ok()) << i;
      }
    }
  }
  // With the cache on, the whole poisoned group shares ONE advise() call
  // (its failure is recorded for every spec, not recomputed).
  throwing.calls = 0;
  BatchRunner(4, true).run(specs);
  EXPECT_EQ(throwing.calls.load(), 1u);
  // run_rethrow restores the legacy abort contract for callers that want
  // the typed exception back.
  EXPECT_THROW(BatchRunner(4, true).run_rethrow(specs), std::runtime_error);
}

TEST(AdviceCache, CacheOffStillCountsAdviseTime) {
  const PortGraph g = make_grid(8, 8);
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm algorithm;
  std::vector<TrialSpec> specs(
      3, TrialSpec{&g, 0, &oracle, &algorithm, RunOptions{}});

  BatchStats stats;
  const auto reports = BatchRunner(1, /*advice_cache=*/false)
                           .run(specs, &stats);
  EXPECT_EQ(stats.unique_advice, 3u);  // every trial advises afresh
  EXPECT_EQ(stats.cache_hits, 0u);
  for (const auto& r : reports) EXPECT_FALSE(r.advice_cached);
}

}  // namespace
}  // namespace oraclesize
