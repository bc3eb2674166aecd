// Memoized oracle advice: compute each distinct advice vector once.
//
// Experiment sweeps repeat trials over the same (graph, oracle, source)
// triple — repeats for timing, scheduler ablations, seed sweeps — and no
// repeat needs to pay the oracle's advise() again. On a dense graph one
// advise costs about as much as a few runs (BENCH_perf_cache.json, the
// `complete` rows), on a sparse one less than a run. AdviceCache is a
// thread-safe memo table over
//
//     key = (graph identity, oracle name, source)
//
// mapping to a shared immutable advice vector. Graph identity is the
// PortGraph's address — the cache deliberately does NOT hash graph
// contents; callers must keep a graph alive (and unmodified) while any
// cache referencing it is in use, the same lifetime rule TrialSpec already
// imposes. Oracle identity is Oracle::name(), which every oracle in this
// repo makes parameter-complete (tree kind, fraction, seed, ...)
// precisely so equal names imply equal advice.
//
// Concurrency: any number of threads may call lookup() concurrently, with
// arbitrary key overlap. Exactly one caller computes a given key (it gets
// hit == false and the measured advise_ns); everyone else blocks on the
// shared future and gets hit == true. If advise() throws, the exception is
// propagated to every waiter of that key and the entry stays poisoned
// (repeat lookups rethrow, matching the determinism of the uncached path).
//
// A caller that reuses advice across batches (oracled) holds one and hands
// its advice on through TrialSpec::advice.
//
// Budgeted mode: constructing with a non-zero byte budget turns on LRU
// eviction. Completed entries are charged their resident size (BitString
// word storage + per-entry bookkeeping) and the least-recently-used
// completed entries are dropped whenever the total exceeds the budget.
// Eviction only severs the cache's reference: advice is handed out as a
// shared_ptr, so every in-flight holder (a TrialSpec, a waiter that
// already resolved the future) keeps its artifact alive untouched. A
// re-lookup of an evicted key recomputes — a new "generation" — and the
// exactly-once guarantee holds per generation: concurrent lookups of the
// same absent key still elect a single computing owner. The default
// budget of 0 means unbounded, which is bit-for-bit the historical
// behavior.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "oracle/oracle.h"

namespace oraclesize {

/// Shared immutable advice vector, one BitString per node.
using AdvicePtr = std::shared_ptr<const std::vector<BitString>>;

class AdviceCache {
 public:
  struct Lookup {
    AdvicePtr advice;
    /// Nanoseconds spent inside oracle.advise() — 0 on a hit (the cost was
    /// paid, and is reported, by the computing lookup).
    std::uint64_t advise_ns = 0;
    /// True when the advice was served from an existing entry.
    bool hit = false;
  };

  struct Stats {
    std::size_t entries = 0;  ///< resident keys (computed or computing)
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::uint64_t advise_ns = 0;  ///< total time spent in advise() calls
    std::uint64_t bytes = 0;      ///< accounted bytes of completed entries
    std::size_t evictions = 0;    ///< entries dropped to fit the budget
  };

  /// budget_bytes == 0 (the default) disables eviction entirely.
  explicit AdviceCache(std::uint64_t budget_bytes = 0)
      : budget_(budget_bytes) {}

  /// Returns the advice for (g, oracle, source), computing it on this
  /// thread if absent. Blocks if another thread is computing the same key.
  Lookup lookup(const PortGraph& g, const Oracle& oracle, NodeId source);

  Stats stats() const;

  /// Accounted bytes currently resident (completed entries only; an entry
  /// is charged once its advice is computed, and uncharged on eviction).
  std::uint64_t bytes() const;

  std::uint64_t byte_budget() const noexcept { return budget_; }

  /// Resident size the cache charges for one advice vector: BitString word
  /// storage plus per-object overhead. Deterministic in the advice alone.
  static std::uint64_t advice_bytes(const std::vector<BitString>& advice);

  /// Drops all entries. Not safe concurrently with lookup().
  void clear();

 private:
  struct Computed {
    AdvicePtr advice;
    std::uint64_t advise_ns = 0;
  };
  using Key = std::tuple<const PortGraph*, std::string, NodeId>;
  struct Entry {
    std::shared_future<Computed> future;
    std::uint64_t bytes = 0;  ///< 0 until the owner finishes computing
    bool completed = false;   ///< in lru_ and charged iff true
    std::list<Key>::iterator lru;
  };

  /// Records a finished computation (success or poison) under the lock:
  /// charges the entry, links it into the LRU list, and evicts from the
  /// cold end until the budget holds again. No-op if the entry was
  /// clear()ed while computing.
  void complete_entry_locked(const Key& key, std::uint64_t entry_bytes);
  void evict_to_budget_locked();

  mutable std::mutex mutex_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< completed entries, front = most recently used
  const std::uint64_t budget_;
  std::uint64_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::uint64_t advise_ns_ = 0;
};

}  // namespace oraclesize
