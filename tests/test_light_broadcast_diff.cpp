// Differential tests of the oracles' per-graph stage. LightBroadcastOracle
// builds its kLight/kKruskal forest once per graph and orients it per
// source; the reference (tests/light_broadcast_reference.h) rebuilds the
// tree rooted at every source. Both must hand out the same bits, and for
// every oracle prepare(g)->advise(s) must equal advise(g, s).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "light_broadcast_reference.h"
#include "oracle/composite_oracle.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/neighborhood_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

/// g rebuilt as a never-frozen builder-state graph with the same ports.
PortGraph builder_copy(const PortGraph& g) {
  PortGraph out(g.num_nodes());
  for (const Edge& e : g.edges()) out.add_edge(e.u, e.port_u, e.v, e.port_v);
  return out;
}

/// Six families at sizes up to 64, each with canonical and shuffled ports.
std::vector<PortGraph> small_graphs() {
  Rng rng(0x1e57b0adULL);
  std::vector<PortGraph> canonical;
  for (std::size_t n : {3u, 8u, 17u, 33u, 64u}) {
    canonical.push_back(make_complete_star(n));
    canonical.push_back(make_random_connected(n, 0.3, rng));
    canonical.push_back(make_random_tree(n, rng));
    canonical.push_back(make_lollipop(n));
  }
  canonical.push_back(make_grid(4, 6));
  canonical.push_back(make_grid(8, 8));
  canonical.push_back(make_complete_bipartite(5, 9));
  canonical.push_back(make_complete_bipartite(16, 16));
  std::vector<PortGraph> out;
  for (const PortGraph& g : canonical) {
    out.push_back(g);
    out.push_back(shuffle_ports(g, rng));
    out.push_back(shuffle_ports(g, rng));
  }
  return out;
}

constexpr TreeKind kForestKinds[] = {TreeKind::kLight, TreeKind::kKruskal};

TEST(LightBroadcastOracle, PreparedForestMatchesPerSourceReference) {
  std::size_t pairs = 0;
  std::size_t differs_from_source_0 = 0;
  for (const PortGraph& frozen : small_graphs()) {
    const PortGraph copy = builder_copy(frozen);
    for (const PortGraph* g : {&frozen, &copy}) {
      for (const TreeKind kind : kForestKinds) {
        const LightBroadcastOracle oracle(kind);
        const auto advisor = oracle.prepare(*g);
        const auto at_0 = advisor->advise(0);
        for (NodeId s = 0; s < g->num_nodes(); ++s) {
          const auto want = reference::light_broadcast_advice(*g, s, kind);
          const auto got = advisor->advise(s);
          ASSERT_EQ(got, want) << g->summary() << " " << to_string(kind)
                               << " source " << s;
          ASSERT_EQ(oracle.advise(*g, s), want) << g->summary();
          ++pairs;
          differs_from_source_0 += got != at_0;
        }
      }
    }
  }
  EXPECT_GT(pairs, 5000u);
  // The source orders the weight lists: a forest advised from source 0
  // alone would be wrong for many sources.
  EXPECT_GT(differs_from_source_0, pairs / 10);
}

TEST(LightBroadcastOracle, PreparedForestMatchesReferenceOnDenseText) {
  // dense_text's shape: a shuffled K*_1024 advised from 48 distinct sources.
  Rng rng(1);
  const PortGraph g = shuffle_ports(make_complete_star(1024), rng);
  const LightBroadcastOracle oracle;
  const auto advisor = oracle.prepare(g);
  for (const std::size_t s : rng.sample_without_replacement(1024, 48)) {
    const NodeId source = static_cast<NodeId>(s);
    EXPECT_EQ(advisor->advise(source),
              reference::light_broadcast_advice(g, source, TreeKind::kLight))
        << "source " << source;
  }
}

TEST(LightBroadcastOracle, EdgeCasesMatchTheReference) {
  PortGraph empty(0);
  empty.freeze();
  for (const TreeKind kind : kForestKinds) {
    const LightBroadcastOracle oracle(kind);
    EXPECT_TRUE(oracle.advise(empty, 0).empty());
    EXPECT_TRUE(oracle.prepare(empty)->advise(3).empty());
    // One node: one empty string, whatever the source.
    const PortGraph single = make_path(1);
    for (const NodeId s : {NodeId{0}, NodeId{5}}) {
      const auto advice = oracle.advise(single, s);
      ASSERT_EQ(advice.size(), 1u);
      EXPECT_TRUE(advice[0].empty());
    }
    const PortGraph pair = make_path(2);
    for (const NodeId s : {NodeId{0}, NodeId{1}}) {
      EXPECT_EQ(oracle.advise(pair, s),
                reference::light_broadcast_advice(pair, s, kind));
    }
    // A source past the last node throws what the reference throws.
    EXPECT_THROW(reference::light_broadcast_advice(pair, 2, kind),
                 std::out_of_range);
    EXPECT_THROW(oracle.advise(pair, 2), std::out_of_range);
    EXPECT_THROW(oracle.prepare(pair)->advise(2), std::out_of_range);
    // A disconnected graph fails in the per-graph stage.
    PortGraph apart(3);
    apart.add_edge(0, 0, 1, 0);
    apart.freeze();
    EXPECT_THROW(reference::light_broadcast_advice(apart, 0, kind),
                 std::invalid_argument);
    EXPECT_THROW(oracle.prepare(apart), std::invalid_argument);
    EXPECT_THROW(oracle.advise(apart, 0), std::invalid_argument);
  }
}

TEST(Oracle, PrepareMatchesAdviseForEveryOracle) {
  const TreeWakeupOracle tree_bfs(TreeKind::kBfs);
  const LightBroadcastOracle light;
  const NullOracle null;
  const FullMapOracle full_map;
  const SourceMapOracle source_map;
  const NeighborhoodOracle ball(2);
  const PartialTreeOracle partial(0.5, 7);
  const CompositeOracle composite({&tree_bfs, &light});
  std::vector<const Oracle*> oracles = {&null,    &full_map, &source_map,
                                        &ball,    &partial,  &composite};
  std::vector<TreeWakeupOracle> trees;
  std::vector<LightBroadcastOracle> lights;
  for (const TreeKind kind : {TreeKind::kBfs, TreeKind::kDfs,
                              TreeKind::kKruskal, TreeKind::kLight}) {
    trees.emplace_back(kind);
    lights.emplace_back(kind);
  }
  for (std::size_t k = 0; k < trees.size(); ++k) {
    oracles.push_back(&trees[k]);
    oracles.push_back(&lights[k]);
  }
  Rng rng(9);
  const PortGraph graphs[] = {
      make_grid(4, 5), shuffle_ports(make_complete_star(16), rng),
      make_random_connected(24, 0.25, rng), make_path(1)};
  for (const Oracle* oracle : oracles) {
    for (const PortGraph& g : graphs) {
      const auto advisor = oracle->prepare(g);
      for (NodeId s = 0; s < g.num_nodes(); ++s) {
        EXPECT_EQ(advisor->advise(s), oracle->advise(g, s))
            << oracle->name() << " " << g.summary() << " source " << s;
      }
    }
  }
}

}  // namespace
}  // namespace oraclesize
