#include <gtest/gtest.h>

#include "bitio/codecs.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/light_tree.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "util/mathx.h"

namespace oraclesize {
namespace {

TEST(OracleSize, Accounting) {
  std::vector<BitString> advice(3);
  advice[0] = BitString::from_string("101");
  advice[2] = BitString::from_string("1");
  EXPECT_EQ(oracle_size_bits(advice), 4u);
  EXPECT_EQ(max_advice_bits(advice), 3u);
}

TEST(NullOracle, ZeroBits) {
  const PortGraph g = make_grid(3, 3);
  const auto advice = NullOracle().advise(g, 0);
  EXPECT_EQ(advice.size(), g.num_nodes());
  EXPECT_EQ(oracle_size_bits(advice), 0u);
}

// ---- Theorem 2.1 oracle ----------------------------------------------------

TEST(TreeWakeupOracle, AdviceDecodesToChildPorts) {
  Rng rng(31);
  const PortGraph g = make_random_connected(24, 0.2, rng);
  const NodeId source = 5;
  const auto advice = TreeWakeupOracle(TreeKind::kBfs).advise(g, source);
  const SpanningTree tree = bfs_tree(g, source);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto decoded = decode_port_list(advice[v]);
    const auto& expected = tree.child_ports(v);
    ASSERT_EQ(decoded.size(), expected.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i], expected[i]);
    }
  }
}

TEST(TreeWakeupOracle, LeavesGetEmptyStrings) {
  const PortGraph g = make_star(10);
  const auto advice = TreeWakeupOracle().advise(g, 0);
  EXPECT_GT(advice[0].size(), 0u);
  for (NodeId v = 1; v < 10; ++v) EXPECT_TRUE(advice[v].empty());
}

TEST(TreeWakeupOracle, SizeMatchesTheorem21) {
  // Size = (n-1) fixed-width fields + one doubled-bit header per internal
  // node: n*ceil(log2 n) + O(n log log n). Check the explicit formula.
  for (std::size_t n : {16u, 64u, 200u, 512u}) {
    const PortGraph g = make_complete_star(n);
    const auto advice = TreeWakeupOracle(TreeKind::kBfs).advise(g, 0);
    const SpanningTree tree = bfs_tree(g, 0);
    const int width = ceil_log2(n);
    std::uint64_t expected = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (tree.num_children(v) > 0) {
        expected += tree.num_children(v) * static_cast<std::uint64_t>(width) +
                    static_cast<std::uint64_t>(
                        doubled_length(static_cast<std::uint64_t>(width)));
      }
    }
    EXPECT_EQ(oracle_size_bits(advice), expected);
    // And the headline bound: <= n log n + o(n log n); generously 2x.
    EXPECT_LE(oracle_size_bits(advice),
              2 * n * static_cast<std::uint64_t>(width));
  }
}

TEST(TreeWakeupOracle, AllTreeKindsProduceDecodableAdvice) {
  Rng rng(32);
  const PortGraph g = make_random_connected(30, 0.25, rng);
  for (TreeKind kind : {TreeKind::kBfs, TreeKind::kDfs, TreeKind::kKruskal,
                        TreeKind::kLight}) {
    const auto advice = TreeWakeupOracle(kind).advise(g, 0);
    std::size_t total_children = 0;
    for (const BitString& s : advice) {
      total_children += decode_port_list(s).size();
    }
    EXPECT_EQ(total_children, g.num_nodes() - 1) << to_string(kind);
  }
}

TEST(TreeWakeupOracle, SingletonNetwork) {
  const PortGraph g = make_path(1);
  const auto advice = TreeWakeupOracle().advise(g, 0);
  EXPECT_EQ(oracle_size_bits(advice), 0u);
}

// ---- Theorem 3.1 oracle ----------------------------------------------------

TEST(LightBroadcastOracle, WeightsArePortsAtTheReceivingEndpoint) {
  Rng rng(33);
  const PortGraph g = make_random_connected(40, 0.2, rng);
  const auto advice = LightBroadcastOracle(TreeKind::kLight).advise(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint64_t w : decode_weight_list(advice[v])) {
      // w is a real port of v...
      ASSERT_TRUE(g.has_port(v, static_cast<Port>(w)));
      // ...and it is the minimum of the two ports of that edge.
      const Endpoint other = g.neighbor(v, static_cast<Port>(w));
      EXPECT_LE(w, other.port);
    }
  }
}

TEST(LightBroadcastOracle, EveryTreeEdgeAssignedExactlyOnce) {
  Rng rng(34);
  const PortGraph g = make_random_connected(35, 0.3, rng);
  const auto advice = LightBroadcastOracle(TreeKind::kLight).advise(g, 0);
  // Each decoded weight names one edge (its holder's port); the n-1 of them
  // must be distinct edges that together span g.
  std::vector<NodeId> component(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) component[v] = v;
  std::size_t total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint64_t w : decode_weight_list(advice[v])) {
      const NodeId u = g.neighbor(v, static_cast<Port>(w)).node;
      const NodeId from = component[u];
      const NodeId to = component[v];
      ASSERT_NE(from, to) << "edge " << v << ":" << w << " closes a cycle";
      for (NodeId& c : component) {
        if (c == from) c = to;
      }
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_nodes() - 1);
}

TEST(LightBroadcastOracle, SizeIsLinearTheorem31) {
  // Oracle size <= sum over tree edges of (2 #2(w) + 2)
  //            <= 2*4n + 2n = 10n  (Claim 3.1 + per-weight framing).
  for (std::size_t n : {8u, 64u, 256u, 1024u}) {
    const PortGraph g = make_complete_star(n);
    const auto advice = LightBroadcastOracle().advise(g, 0);
    EXPECT_LE(oracle_size_bits(advice), 10 * n) << "n=" << n;
  }
}

TEST(LightBroadcastOracle, SizeLinearOnEveryFamily) {
  Rng rng(35);
  std::vector<PortGraph> graphs;
  graphs.push_back(make_grid(8, 8));
  graphs.push_back(make_hypercube(6));
  graphs.push_back(make_lollipop(64));
  graphs.push_back(make_random_connected(64, 0.4, rng));
  graphs.push_back(shuffle_ports(make_complete_star(64), rng));
  for (const PortGraph& g : graphs) {
    const auto advice = LightBroadcastOracle().advise(g, 0);
    EXPECT_LE(oracle_size_bits(advice), 10 * g.num_nodes()) << g.summary();
  }
}

TEST(LightBroadcastOracle, AdviceRoundTripsThroughCodec) {
  Rng rng(36);
  const PortGraph g = make_random_connected(30, 0.2, rng);
  const auto advice = LightBroadcastOracle().advise(g, 0);
  std::size_t weights = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::vector<std::uint64_t> decoded = decode_weight_list(advice[v]);
    EXPECT_EQ(encode_weight_list(decoded), advice[v]) << "node " << v;
    weights += decoded.size();
  }
  EXPECT_EQ(weights, g.num_nodes() - 1);
}

TEST(LightBroadcastOracle, NonLightTreesCanBeMuchBigger) {
  // Ablation seed: on K*_n a BFS tree from node 0 uses edges of every
  // weight 0..n-2 from the root, so its advice grows superlinearly, unlike
  // the light tree's.
  const std::size_t n = 512;
  const PortGraph g = make_complete_star(n);
  const auto light = LightBroadcastOracle(TreeKind::kLight).advise(g, 0);
  const auto bfs = LightBroadcastOracle(TreeKind::kBfs).advise(g, 0);
  EXPECT_LT(oracle_size_bits(light), oracle_size_bits(bfs));
}

// ---- map oracles -----------------------------------------------------------

TEST(FullMapOracle, EveryNodeGetsTheSameMap) {
  const PortGraph g = make_cycle(6);
  const auto advice = FullMapOracle().advise(g, 0);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_EQ(advice[v], advice[0]);
  }
  EXPECT_GT(oracle_size_bits(advice), 0u);
}

TEST(SourceMapOracle, OnlySourceGetsBits) {
  const PortGraph g = make_cycle(6);
  const auto advice = SourceMapOracle().advise(g, 2);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == 2) {
      EXPECT_FALSE(advice[v].empty());
    } else {
      EXPECT_TRUE(advice[v].empty());
    }
  }
}

TEST(GraphMapEncoding, IsDecodable) {
  Rng rng(37);
  const PortGraph g = make_random_connected(12, 0.3, rng);
  const BitString map = encode_graph_map(g);
  BitReader r(map);
  const std::uint64_t n = read_doubled(r);
  ASSERT_EQ(n, g.num_nodes());
  const int width = std::max(1, ceil_log2(n));
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t deg = read_doubled(r);
    ASSERT_EQ(deg, g.degree(v));
    for (Port p = 0; p < deg; ++p) {
      const NodeId nb = static_cast<NodeId>(r.read_uint(width));
      const Port nb_port = static_cast<Port>(r.read_uint(width));
      EXPECT_EQ(g.neighbor(v, p), (Endpoint{nb, nb_port}));
    }
  }
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace oraclesize
