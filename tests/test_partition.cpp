// Invariant tests for graph/partition.h: every partition is a strictly
// increasing cover of [0, n), shard_of inverts the bounds, edge mass is
// balanced within the granularity the node-boundary cuts allow, and only
// frozen graphs are split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/builders.h"
#include "graph/partition.h"
#include "graph/port_graph.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

PartitionOptions opts(std::uint32_t shards, std::uint32_t alignment = 64,
                      std::uint32_t min_nodes = 1) {
  PartitionOptions o;
  o.shards = shards;
  o.alignment = alignment;
  o.min_nodes_per_shard = min_nodes;
  return o;
}

/// Checks the structural invariants every partition must satisfy.
void check_invariants(const PortGraph& g, const Partition& p) {
  const std::size_t n = g.num_nodes();
  ASSERT_GE(p.bounds.size(), 2u);
  EXPECT_EQ(p.bounds.front(), 0u);
  EXPECT_EQ(p.bounds.back(), n);
  for (std::size_t i = 0; i + 1 < p.bounds.size(); ++i) {
    if (n > 0) EXPECT_LT(p.bounds[i], p.bounds[i + 1]);
  }
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t s = p.shard_of(v);
    EXPECT_GE(v, p.begin(s));
    EXPECT_LT(v, p.end(s));
  }
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < p.num_shards(); ++s) total += p.size(s);
  EXPECT_EQ(total, n);
}

std::vector<PortGraph> sample_graphs() {
  Rng rng(20260807);
  std::vector<PortGraph> out;
  out.push_back(make_path(40));
  out.push_back(make_cycle(33));
  out.push_back(make_star(50));  // all mass at node 0: worst skew
  out.push_back(make_grid(8, 9));
  out.push_back(make_hypercube(6));
  out.push_back(make_lollipop(30));
  out.push_back(make_random_connected(64, 0.1, rng));
  out.push_back(make_random_tree(57, rng));
  return out;
}

TEST(Partition, InvariantsAcrossGraphsAndShardCounts) {
  for (const PortGraph& g : sample_graphs()) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 5u, 8u, 64u}) {
      const Partition p = make_partition(g, opts(shards, 0));
      check_invariants(g, p);
      EXPECT_LE(p.num_shards(), shards);
      EXPECT_GE(p.num_shards(), 1u);
    }
  }
}

TEST(Partition, SingleShardIsWholeRange) {
  const PortGraph g = make_grid(5, 5);
  const Partition p = make_partition(g, opts(1));
  EXPECT_EQ(p.num_shards(), 1u);
  EXPECT_EQ(p.begin(0), 0u);
  EXPECT_EQ(p.end(0), g.num_nodes());
}

TEST(Partition, EmptyAndTinyGraphs) {
  const Partition empty = make_partition(PortGraph(0), opts(4));
  EXPECT_EQ(empty.num_shards(), 1u);
  EXPECT_EQ(empty.bounds.back(), 0u);

  const PortGraph one(1);
  const Partition p1 = make_partition(one, opts(4, 0));
  check_invariants(one, p1);
  EXPECT_EQ(p1.num_shards(), 1u);

  // More shards than nodes: every shard still owns at least one node.
  const PortGraph path = make_path(3);
  const Partition p3 = make_partition(path, opts(8, 0));
  check_invariants(path, p3);
  EXPECT_LE(p3.num_shards(), 3u);
}

TEST(Partition, MinNodesPerShardReducesShardCount) {
  const PortGraph g = make_path(20);
  const Partition p = make_partition(g, opts(8, 0, 10));
  check_invariants(g, p);
  EXPECT_LE(p.num_shards(), 2u);
}

TEST(Partition, EdgeMassIsBalancedOnRegularGraphs) {
  // On a cycle every node has degree 2, so equal mass = equal node counts:
  // with alignment off, shard sizes may differ by at most one node.
  const PortGraph g = make_cycle(97);
  const Partition p = make_partition(g, opts(4, 0));
  ASSERT_EQ(p.num_shards(), 4u);
  std::size_t lo = g.num_nodes(), hi = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    lo = std::min(lo, p.size(s));
    hi = std::max(hi, p.size(s));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(Partition, EdgeMassBalancesDegreeSkew) {
  // Star: node 0 carries half of all directed links. Balanced-by-mass cuts
  // must give shard 0 far fewer NODES than a node-count split would.
  const PortGraph g = make_star(1000);
  const Partition p = make_partition(g, opts(4, 0));
  ASSERT_EQ(p.num_shards(), 4u);
  EXPECT_LT(p.size(0), 600u);  // node-count split would give 250 + hub mass
  check_invariants(g, p);
}

TEST(Partition, AlignmentRoundsBoundariesWhenRoomAllows) {
  PortGraph g = make_path(1024);
  g.freeze();
  const Partition p = make_partition(g, opts(4, 64));
  ASSERT_EQ(p.num_shards(), 4u);
  for (std::size_t i = 1; i + 1 < p.bounds.size(); ++i) {
    EXPECT_EQ(p.bounds[i] % 64, 0u);
  }
  // Alignment is skipped when it could starve shards: 8 shards * 64 > 100.
  const PortGraph small = make_path(100);
  const Partition ps = make_partition(small, opts(8, 64));
  check_invariants(small, ps);
  EXPECT_EQ(ps.num_shards(), 8u);
}

TEST(Partition, UnfrozenGraphIsRejectedWhenSplit) {
  PortGraph g(10);
  for (NodeId v = 0; v + 1 < 10; ++v) g.add_edge_auto(v, v + 1);
  EXPECT_THROW(make_partition(g, opts(2, 0)), std::invalid_argument);
  // One shard never reads the CSR: the whole range is the answer.
  EXPECT_EQ(make_partition(g, opts(1, 0)).num_shards(), 1u);
  g.freeze();
  check_invariants(g, make_partition(g, opts(2, 0)));
}

TEST(Partition, SparseRandomConnectedBuilder) {
  Rng rng(42);
  const PortGraph g = make_random_connected_sparse(500, 700, rng);
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(g.num_edges(), 499u + 700u);
  EXPECT_NE(g.csr_offsets(), nullptr);  // builder freezes its result
  // No self-loops or parallel edges.
  std::vector<std::uint64_t> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.u, e.v);
    const std::uint64_t key =
        std::min(e.u, e.v) * 500ull + std::max(e.u, e.v);
    seen.push_back(key);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_THROW(make_random_connected_sparse(3, 10, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace oraclesize
