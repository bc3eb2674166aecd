// The engine's pending-event store: a slot pool plus an index min-heap.
//
// One implementation, shared by all three engines, of the ordering that
// defines delivery semantics: events are consumed in
// (delivery key, send sequence) order, which makes delivery a total order
// for any scheduler. Message payloads live in a flat slot pool with a free
// list; the heap sifts 24-byte index entries, never the Message-carrying
// events themselves. Storage is retained across clear() calls so a reused
// context performs no steady-state allocation (tests/test_zero_alloc.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/port_graph.h"
#include "sim/message.h"

namespace oraclesize {

/// One in-flight message's payload, parked in the pool until delivery.
struct EngineEvent {
  NodeId to = kNoNode;
  Port at_port = kNoPort;
  Message msg;
  bool sender_informed = false;
};

/// Pool + binary min-heap over (key, seq). Not thread-safe; the sharded
/// engine gives each shard its own EventHeap.
class EventHeap {
 public:
  /// Heap entries carry the ordering fields inline so sifting never
  /// dereferences the pool: `key` is the delivery priority (lower first)
  /// and `seq` the global send number — the tie-breaker that makes
  /// delivery order a total order. `slot` indexes the pool.
  struct Entry {
    std::int64_t key;
    std::uint64_t seq;
    std::size_t slot;
  };

  static bool entry_before(const Entry& a, const Entry& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  /// Drops all pending entries and resets the high-water mark; slot storage
  /// and heap capacity are retained for reuse.
  void clear() noexcept {
    pool_.clear();
    heap_.clear();
    free_slots_.clear();
    peak_ = 0;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Smallest pending delivery key. Precondition: !empty().
  std::int64_t top_key() const noexcept { return heap_.front().key; }

  /// Number of pending entries whose key equals `key` (linear scan over the
  /// raw heap array — used only for the sharded engine's event-budget
  /// pre-count, never on a per-event path).
  std::size_t count_key(std::int64_t key) const noexcept {
    std::size_t count = 0;
    for (const Entry& e : heap_) count += (e.key == key) ? 1 : 0;
    return count;
  }

  /// Heap high-water mark since the last clear() (records the heap size
  /// after every push — the queue_depth_peak metric).
  std::size_t peak() const noexcept { return peak_; }

  /// Claims a pool slot (recycled or fresh) for the caller to fill via
  /// slot().
  std::size_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    pool_.emplace_back();
    return pool_.size() - 1;
  }

  EngineEvent& slot(std::size_t s) noexcept { return pool_[s]; }

  /// Returns a slot to the free list (after the event was moved out).
  void release_slot(std::size_t s) { free_slots_.push_back(s); }

  void push(Entry e) {
    heap_push(heap_, e);
    if (heap_.size() > peak_) peak_ = heap_.size();
  }

  /// Removes and returns the smallest entry. Precondition: !empty(). The
  /// slot is NOT released — callers move the event out first, then call
  /// release_slot (filling a slot can grow the pool and invalidate
  /// references into it).
  Entry pop() { return heap_pop(heap_); }

  /// The sifts behind push/pop, over a bare entry vector: the seed-batch
  /// engine's per-class heaps share one slot pool and are nothing more than
  /// their entries. Hole insertion — the hole moves, the entry is written
  /// once at the end.
  static void heap_push(std::vector<Entry>& h, Entry e) {
    std::size_t i = h.size();
    h.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!entry_before(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  /// Removes and returns h's smallest entry. Precondition: !h.empty().
  static Entry heap_pop(std::vector<Entry>& h) {
    const Entry top = h.front();
    const Entry last = h.back();
    h.pop_back();
    const std::size_t size = h.size();
    if (size > 0) {
      // Sift the hole down from the root, then drop `last` into it.
      std::size_t i = 0;
      while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= size) break;
        const std::size_t right = left + 1;
        std::size_t best = left;
        if (right < size && entry_before(h[right], h[left])) best = right;
        if (!entry_before(h[best], last)) break;
        h[i] = h[best];
        i = best;
      }
      h[i] = last;
    }
    return top;
  }

 private:
  std::vector<EngineEvent> pool_;       ///< event storage (slots)
  std::vector<Entry> heap_;             ///< binary min-heap over the pool
  std::vector<std::size_t> free_slots_;  ///< recycled pool slots
  std::size_t peak_ = 0;                ///< heap high-water mark
};

}  // namespace oraclesize
