// Contiguous node-range partitions of a port graph, balanced on edge mass.
//
// The sharded engine (sim/sharded_engine.h) splits a run across shards that
// each own a contiguous range of node ids. Contiguity is what makes the
// scheme cheap and correct at once:
//
//  * ownership is a single upper_bound over S+1 boundaries (shard_of);
//  * every per-node array (inputs, behaviors, informed bits, outputs) is
//    carved into disjoint slices with no indirection table;
//  * the CSR rows of a shard's nodes are one contiguous span of the frozen
//    endpoint array — a shard's window needs no subgraph copy.
//
// Boundaries are chosen by balancing *directed links* (edge endpoints), not
// node counts: the engine's per-event work is proportional to degree, so a
// degree-skewed graph partitioned by node count would leave one shard doing
// most of the work. make_partition walks the CSR offset array (the exact
// prefix-degree curve) and cuts at the nodes nearest the ideal equal-mass
// points. On machines with multiple memory domains this is also the
// cache/NUMA placement pass: each shard's slice of the CSR is touched only
// by the worker that owns it, so first-touch page placement localizes it.
//
// An optional alignment rounds boundaries down to a multiple (default 64)
// so two shards never share the cache line under neighboring per-node
// counters. Alignment is purely a performance knob: it is applied only when
// the graph is large enough (n >= shards * alignment) that it cannot starve
// shards, so small test graphs still shard at any requested count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/port_graph.h"

namespace oraclesize {

struct PartitionOptions {
  /// Number of shards; 0 picks one per usable CPU (util/cpus.h).
  std::uint32_t shards = 0;
  /// A graph with fewer nodes than shards * min_nodes_per_shard gets its
  /// shard count reduced (never below 1) so no shard is trivially empty.
  std::uint32_t min_nodes_per_shard = 1;
  /// Boundary alignment in nodes; see the header comment. 0 disables.
  std::uint32_t alignment = 64;
};

/// A partition of nodes 0..n-1 into contiguous ranges
/// [bounds[i], bounds[i+1]). bounds has num_shards()+1 strictly increasing
/// entries with bounds.front() == 0 and bounds.back() == n (except for the
/// empty graph, which partitions into one empty shard).
struct Partition {
  std::vector<NodeId> bounds;

  std::uint32_t num_shards() const noexcept {
    return bounds.size() < 2
               ? 1u
               : static_cast<std::uint32_t>(bounds.size() - 1);
  }
  NodeId begin(std::uint32_t shard) const noexcept { return bounds[shard]; }
  NodeId end(std::uint32_t shard) const noexcept { return bounds[shard + 1]; }
  std::size_t size(std::uint32_t shard) const noexcept {
    return end(shard) - begin(shard);
  }

  /// Owner shard of node v. Precondition: v < bounds.back().
  std::uint32_t shard_of(NodeId v) const noexcept {
    // upper_bound over at most a few dozen boundaries; branchy but cold
    // compared to the per-event work it gates.
    std::uint32_t lo = 0, hi = num_shards() - 1;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (v < bounds[mid + 1]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
};

/// Builds an edge-mass-balanced contiguous partition of g by walking its
/// CSR offsets. The result always satisfies the Partition invariants;
/// requesting more shards than the graph supports yields fewer. Throws
/// std::invalid_argument when g is not frozen and would be split (the
/// engines, which are its only callers, accept frozen graphs only).
Partition make_partition(const PortGraph& g, const PartitionOptions& options);

}  // namespace oraclesize
