#include <gtest/gtest.h>

#include "core/broadcast_b.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/stats.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/trace_analysis.h"
#include "trace_helpers.h"

namespace oraclesize {
namespace {

// ---- graph stats -----------------------------------------------------------

TEST(GraphStats, PathProfile) {
  const GraphStats s = compute_stats(make_path(10));
  EXPECT_EQ(s.nodes, 10u);
  EXPECT_EQ(s.edges, 9u);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_NEAR(s.avg_degree, 1.8, 1e-12);
  EXPECT_EQ(s.diameter, 9u);
  EXPECT_EQ(s.source_eccentricity, 9u);  // node 0 is an endpoint
}

TEST(GraphStats, CompleteGraphDiameterOne) {
  const GraphStats s = compute_stats(make_complete_star(9));
  EXPECT_EQ(s.diameter, 1u);
  EXPECT_EQ(s.min_degree, 8u);
  EXPECT_EQ(s.max_degree, 8u);
}

TEST(GraphStats, CycleDiameterIsHalf) {
  EXPECT_EQ(compute_stats(make_cycle(10)).diameter, 5u);
  EXPECT_EQ(compute_stats(make_cycle(11)).diameter, 5u);
}

TEST(GraphStats, HypercubeDiameterIsDimension) {
  EXPECT_EQ(compute_stats(make_hypercube(5)).diameter, 5u);
}

TEST(GraphStats, EccentricityDependsOnNode) {
  const PortGraph g = make_path(9);
  EXPECT_EQ(eccentricity(g, 0), 8u);
  EXPECT_EQ(eccentricity(g, 4), 4u);  // the middle
}

TEST(GraphStats, DisconnectedThrows) {
  PortGraph g(4);
  g.add_edge_auto(0, 1);
  g.add_edge_auto(2, 3);
  EXPECT_THROW(eccentricity(g, 0), std::invalid_argument);
  EXPECT_THROW(compute_stats(g), std::invalid_argument);
}

TEST(GraphStats, SingleNode) {
  const GraphStats s = compute_stats(make_path(1));
  EXPECT_EQ(s.diameter, 0u);
  EXPECT_EQ(s.edges, 0u);
}

// ---- trace analysis --------------------------------------------------------

TEST(TraceAnalysis, WakeupEdgeTrafficIsExactlyOneEachWay) {
  Rng rng(1001);
  const PortGraph g = make_random_connected(30, 0.2, rng);
  const auto [r, sends] = with_trace(
      [&](const RunOptions& o) {
        return run_task(g, 0, TreeWakeupOracle(), WakeupTreeAlgorithm(), o);
      },
      RunOptions{});
  ASSERT_TRUE(r.ok());
  const auto per_edge = traffic_per_edge(sends);
  EXPECT_EQ(per_edge.size(), g.num_nodes() - 1);  // exactly the tree edges
  for (const auto& [edge, count] : per_edge) {
    EXPECT_EQ(count, 1u);  // parent -> child, once
  }
  EXPECT_EQ(max_edge_traffic(sends), 1u);
  EXPECT_EQ(uninformed_sends(sends), 0u);
}

TEST(TraceAnalysis, BroadcastStaysWithinTreeAndBudgets) {
  Rng rng(1002);
  const PortGraph g = make_random_connected(40, 0.25, rng);
  const SpanningTree tree = build_tree(g, 2, TreeKind::kLight);
  std::set<EdgeKey> allowed;
  for (const Edge& e : tree.edges(g)) allowed.insert({e.u, e.v});

  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncLifo;
  const auto [r, sends] = with_trace(
      [&](const RunOptions& o) {
        return run_task(g, 2, LightBroadcastOracle(), BroadcastBAlgorithm(),
                        o);
      },
      opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(traffic_within(sends, allowed));
  // Hellos: at most once per edge; M: at most twice per edge.
  for (const auto& [edge, count] :
       traffic_per_edge(sends, MsgKind::kHello)) {
    EXPECT_LE(count, 1u);
  }
  for (const auto& [edge, count] :
       traffic_per_edge(sends, MsgKind::kSource)) {
    EXPECT_LE(count, 2u);
  }
  // Spontaneous hellos are exactly the uninformed sends.
  EXPECT_GT(uninformed_sends(sends), 0u);
}

TEST(TraceAnalysis, DirectedCountsSumToTotal) {
  const PortGraph g = make_star(12);
  const auto [r, sends] = with_trace(
      [&](const RunOptions& o) {
        return run_task(g, 0, LightBroadcastOracle(), BroadcastBAlgorithm(),
                        o);
      },
      RunOptions{});
  ASSERT_TRUE(r.ok());
  std::uint64_t sum = 0;
  for (const auto& [dir, count] : traffic_per_direction(sends)) {
    sum += count;
  }
  EXPECT_EQ(sum, r.run.metrics.messages_total);
}

TEST(TraceAnalysis, EmptyTrace) {
  const std::vector<TraceEvent> empty;
  EXPECT_TRUE(traffic_per_edge(empty).empty());
  EXPECT_EQ(max_edge_traffic(empty), 0u);
  EXPECT_TRUE(traffic_within(empty, {}));
  EXPECT_EQ(uninformed_sends(empty), 0u);
}

}  // namespace
}  // namespace oraclesize
