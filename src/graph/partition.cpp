#include "graph/partition.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace oraclesize {

Partition make_partition(const PortGraph& g, const PartitionOptions& options) {
  const std::size_t n = g.num_nodes();

  std::uint32_t shards = options.shards;
  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    shards = hw > 0 ? hw : 1;
  }
  const std::uint32_t min_nodes = std::max<std::uint32_t>(
      1, options.min_nodes_per_shard);
  if (n / min_nodes < shards) {
    shards = static_cast<std::uint32_t>(std::max<std::size_t>(
        1, n / min_nodes));
  }

  Partition p;
  if (n == 0 || shards <= 1) {
    p.bounds = {0, static_cast<NodeId>(n)};
    if (n == 0) p.bounds = {0, 0};
    return p;
  }

  const std::uint64_t* offsets = g.csr_offsets();
  if (offsets == nullptr) {
    throw std::invalid_argument("make_partition: graph not frozen");
  }
  const std::uint64_t total_links = offsets[n];

  // Alignment only when it cannot starve shards of nodes; see partition.h.
  const std::uint64_t align =
      (options.alignment > 0 &&
       n >= static_cast<std::size_t>(shards) * options.alignment)
          ? options.alignment
          : 1;

  p.bounds.reserve(shards + 1);
  p.bounds.push_back(0);
  for (std::uint32_t s = 1; s < shards; ++s) {
    // Ideal equal-mass cut point for boundary s, found on the monotone
    // prefix curve; ties resolve to the first node at or past the target.
    const std::uint64_t target =
        total_links * static_cast<std::uint64_t>(s) / shards;
    const std::uint64_t* it =
        std::lower_bound(offsets, offsets + n + 1, target);
    std::uint64_t cut = static_cast<std::uint64_t>(it - offsets);
    cut = (cut / align) * align;
    // Keep bounds strictly increasing: an empty range would produce a shard
    // that exists but can never own work.
    const std::uint64_t prev = p.bounds.back();
    if (cut <= prev) cut = prev + 1;
    if (cut >= n) break;  // remaining mass all fits in the final shard
    p.bounds.push_back(static_cast<NodeId>(cut));
  }
  p.bounds.push_back(static_cast<NodeId>(n));
  return p;
}

}  // namespace oraclesize
