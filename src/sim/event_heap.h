// The engine's pending-event store: a slot pool plus an order queue.
//
// One implementation, shared by all three engines, of the ordering that
// defines delivery semantics: events are consumed in
// (delivery key, send sequence) order, which makes delivery a total order
// for any scheduler. Message payloads live in a flat slot pool with a free
// list; the order queue moves 24-byte index entries, never the
// Message-carrying events themselves.
//
// Since seq only grows, a scheduler whose keys never fall in push order
// pops in insertion order, one whose keys fall with every push pops the
// newest entry first, and one whose pending keys stay inside a short
// window can keep one FIFO bucket per key (a calendar queue whose bucket
// width is one key: R. Brown, "Calendar queues", CACM 31(10), 1988). The
// queue therefore keeps its entries in one of four disciplines — FIFO,
// stack, bucket ring, binary heap — chosen per run by
// Scheduler::delivery_order. All four pop the same sequence. Storage is
// retained across clear() calls so a reused context performs no
// steady-state allocation (tests/test_zero_alloc.cpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/port_graph.h"
#include "sim/message.h"
#include "sim/scheduler.h"

namespace oraclesize {

/// One in-flight message's payload, parked in the pool until delivery.
struct EngineEvent {
  NodeId to = kNoNode;
  Port at_port = kNoPort;
  Message msg;
  bool sender_informed = false;
};

/// Entries in (key, seq) order under one DeliveryOrder discipline. The
/// lockstep pass keeps one per key class over a shared slot pool; EventHeap
/// pairs one with its own pool. Not thread-safe.
class OrderQueue {
 public:
  /// Entries carry the ordering fields inline so ordering never
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

  /// Drops all entries, resets the high-water mark and switches to `order`;
  /// storage is retained. The caller promises what `order` relies on:
  /// kFifo keys never fall in push order, kStack keys fall with every
  /// push, and kRing keys lie in [p, p + kRingKeys) for p the last popped
  /// key or advanced floor, 0 before either.
  void reset(DeliveryOrder order) {
    order_ = order;
    size_ = 0;
    peak_ = 0;
    items_.clear();
    head_ = 0;
    next_.clear();
    free_node_ = kNil;
    occupied_ = 0;
    floor_ = 0;
    if (order == DeliveryOrder::kRing) ends_.resize(2 * kRingKeys);
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Size high-water mark since the last reset (the queue_depth_peak
  /// metric: the size after every push).
  std::size_t peak() const noexcept { return peak_; }

  // push, top and pop are forced inline: out of line, the lockstep pass's
  // walk over its key classes, one push and one pop per class and message,
  // ran about twice as slow.
  [[gnu::always_inline]] void push(Entry e) {
    switch (order_) {
      case DeliveryOrder::kFifo:
        if (size_ == items_.size()) grow_fifo();
        items_[(head_ + size_) & (items_.size() - 1)] = e;
        break;
      case DeliveryOrder::kStack:
        items_.push_back(e);
        break;
      case DeliveryOrder::kRing:
        ring_push(e);
        break;
      case DeliveryOrder::kHeap:
        heap_push(e);
        break;
    }
    if (++size_ > peak_) peak_ = size_;
  }

  /// The smallest entry, left in place. Precondition: !empty().
  [[gnu::always_inline]] const Entry& top() const noexcept {
    switch (order_) {
      case DeliveryOrder::kFifo:
        return items_[head_];
      case DeliveryOrder::kStack:
        return items_.back();
      case DeliveryOrder::kRing:
        return items_[ends_[2 * first_bucket()]];
      case DeliveryOrder::kHeap:
        break;
    }
    return items_.front();
  }

  /// Removes and returns the smallest entry. Precondition: !empty().
  [[gnu::always_inline]] Entry pop() {
    --size_;
    switch (order_) {
      case DeliveryOrder::kFifo: {
        const Entry e = items_[head_];
        head_ = (head_ + 1) & (items_.size() - 1);
        return e;
      }
      case DeliveryOrder::kStack: {
        const Entry e = items_.back();
        items_.pop_back();
        return e;
      }
      case DeliveryOrder::kRing:
        return ring_pop();
      case DeliveryOrder::kHeap:
        break;
    }
    return heap_pop();
  }

  /// Raises the kRing floor — the key the window starts at — to `key`. A
  /// sharded engine's shard that popped nothing for many epochs would
  /// otherwise keep a floor far below the keys it is handed, and alias
  /// them into the wrong buckets. Precondition: no pending key below `key`.
  void advance_floor(std::int64_t key) noexcept {
    if (key > floor_) floor_ = key;
  }

 private:
  static constexpr std::uint32_t kNil = ~0u;
  static_assert(kRingKeys == 64, "one occupancy bit per ring bucket");

  /// Doubles the circular buffer (16 entries at first), unrolling the
  /// pending entries to its front.
  void grow_fifo() {
    std::rotate(items_.begin(),
                items_.begin() + static_cast<std::ptrdiff_t>(head_),
                items_.end());
    head_ = 0;
    items_.resize(items_.empty() ? 16 : 2 * items_.size());
  }

  /// The bucket of the smallest pending key: the first occupied bucket at
  /// or after the floor's.
  unsigned first_bucket() const noexcept {
    const int from = static_cast<int>(static_cast<std::uint64_t>(floor_) &
                                      (kRingKeys - 1));
    const int skip = std::countr_zero(std::rotr(occupied_, from));
    return static_cast<unsigned>(from + skip) & (kRingKeys - 1);
  }

  void ring_push(Entry e) {
    assert(e.key >= floor_ &&
           static_cast<std::uint64_t>(e.key - floor_) < kRingKeys);
    std::uint32_t i = free_node_;
    if (i != kNil) {
      free_node_ = next_[i];
      items_[i] = e;
      next_[i] = kNil;
    } else {
      i = static_cast<std::uint32_t>(items_.size());
      items_.push_back(e);
      next_.push_back(kNil);
    }
    const unsigned b = static_cast<unsigned>(e.key) & (kRingKeys - 1);
    const std::uint64_t bit = std::uint64_t{1} << b;
    if (occupied_ & bit) {
      next_[ends_[2 * b + 1]] = i;
    } else {
      occupied_ |= bit;
      ends_[2 * b] = i;
    }
    ends_[2 * b + 1] = i;
  }

  Entry ring_pop() {
    const unsigned b = first_bucket();
    const std::uint32_t i = ends_[2 * b];
    if (next_[i] == kNil) {
      occupied_ &= ~(std::uint64_t{1} << b);
    } else {
      ends_[2 * b] = next_[i];
    }
    next_[i] = free_node_;
    free_node_ = i;
    // No later push may take a key below this one; a peek never moves it.
    floor_ = items_[i].key;
    return items_[i];
  }

  /// Hole insertion — the hole moves, the entry is written once at the end.
  void heap_push(Entry e) {
    std::size_t i = items_.size();
    items_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!entry_before(e, items_[parent])) break;
      items_[i] = items_[parent];
      i = parent;
    }
    items_[i] = e;
  }

  Entry heap_pop() {
    const Entry top = items_.front();
    const Entry last = items_.back();
    items_.pop_back();
    const std::size_t size = items_.size();
    if (size > 0) {
      // Sift the hole down from the root, then drop `last` into it.
      std::size_t i = 0;
      while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= size) break;
        const std::size_t right = left + 1;
        std::size_t best = left;
        if (right < size && entry_before(items_[right], items_[left])) {
          best = right;
        }
        if (!entry_before(items_[best], last)) break;
        items_[i] = items_[best];
        i = best;
      }
      items_[i] = last;
    }
    return top;
  }

  DeliveryOrder order_ = DeliveryOrder::kHeap;
  std::size_t size_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t occupied_ = 0;  ///< kRing: bit b set while bucket b holds entries
  std::int64_t floor_ = 0;  ///< kRing: the last popped key or advanced floor
  /// kHeap: the heap array. kStack: the stack. kFifo: a power-of-two
  /// circular buffer whose entries start at head_. kRing: the node pool,
  /// one FIFO chain per key modulo kRingKeys linked through next_, its
  /// nodes recycled through free_node_ so the pool never outgrows the peak
  /// size. One array for every discipline: a reused queue retains the
  /// largest of their peaks, not their sum.
  std::vector<Entry> items_;
  std::size_t head_ = 0;
  std::vector<std::uint32_t> next_;
  std::uint32_t free_node_ = kNil;
  /// Bucket b's first and last node at 2b and 2b + 1, valid while bit b of
  /// occupied_ is set. Out of line, so the lockstep pass's key classes,
  /// which it walks once per message, stay small.
  std::vector<std::uint32_t> ends_;
};

/// Pool + order queue. Not thread-safe; the sharded engine gives each shard
/// its own EventHeap, fed in seq order from its inbound mailboxes.
class EventHeap {
 public:
  using Entry = OrderQueue::Entry;

  /// Drops all pending entries, resets the high-water mark and orders the
  /// next run's entries under `order`; slot storage and queue capacity are
  /// retained for reuse.
  void clear(DeliveryOrder order) {
    pool_.clear();
    free_slots_.clear();
    queue_.reset(order);
  }

  bool empty() const noexcept { return queue_.empty(); }
  std::size_t size() const noexcept { return queue_.size(); }

  /// Smallest pending delivery key. Precondition: !empty().
  std::int64_t top_key() const noexcept { return queue_.top().key; }

  /// See OrderQueue::advance_floor.
  void advance_floor(std::int64_t key) noexcept { queue_.advance_floor(key); }

  /// Queue high-water mark since the last clear() (the queue_depth_peak
  /// metric).
  std::size_t peak() const noexcept { return queue_.peak(); }

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

  void push(Entry e) { queue_.push(e); }

  /// Removes and returns the smallest entry. Precondition: !empty(). The
  /// slot is NOT released — callers move the event out first, then call
  /// release_slot (filling a slot can grow the pool and invalidate
  /// references into it).
  Entry pop() { return queue_.pop(); }

 private:
  std::vector<EngineEvent> pool_;        ///< event storage (slots)
  OrderQueue queue_;                     ///< (key, seq) order over the pool
  std::vector<std::size_t> free_slots_;  ///< recycled pool slots
};

}  // namespace oraclesize
