#include "graph/light_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/subdivision.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

void expect_claim31(const PortGraph& g, NodeId root) {
  const LightTreeResult r = light_tree(g, root);
  const std::size_t n = g.num_nodes();
  // It is a spanning tree...
  EXPECT_EQ(r.tree.num_nodes(), n);
  EXPECT_EQ(r.tree.edges(g).size(), n - 1);
  // ...whose contribution obeys Claim 3.1.
  EXPECT_LE(r.contribution, 4 * n) << g.summary();
  // Reported contribution matches an independent recount.
  EXPECT_EQ(r.contribution, tree_contribution(g, r.tree));
}

TEST(LightTree, Claim31OnCompleteGraphs) {
  for (std::size_t n : {2u, 3u, 8u, 32u, 100u, 256u}) {
    expect_claim31(make_complete_star(n), 0);
  }
}

TEST(LightTree, Claim31OnSparseFamilies) {
  expect_claim31(make_path(50), 0);
  expect_claim31(make_cycle(63), 5);
  expect_claim31(make_grid(9, 13), 0);
  expect_claim31(make_hypercube(7), 1);
  expect_claim31(make_star(100), 0);
  expect_claim31(make_lollipop(60), 59);
  expect_claim31(make_binary_tree(127), 0);
}

TEST(LightTree, Claim31OnRandomGraphs) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    const std::size_t n = 20 + 15 * static_cast<std::size_t>(i);
    expect_claim31(make_random_connected(n, 0.1, rng), 0);
  }
}

TEST(LightTree, Claim31OnShuffledPorts) {
  // Adversarial port numbering must not break the bound: the bound's proof
  // only uses tree sizes, not the builder's friendly port order.
  Rng rng(12);
  for (int i = 0; i < 5; ++i) {
    const PortGraph g =
        shuffle_ports(make_random_connected(80, 0.3, rng), rng);
    expect_claim31(g, 0);
  }
}

TEST(LightTree, Claim31OnLowerBoundFamilies) {
  Rng rng(13);
  const SubdividedGraph sg = make_gns(24, 24, rng);
  expect_claim31(sg.graph, 0);
}

TEST(LightTree, PhaseCountLogarithmic) {
  const PortGraph g = make_complete_star(128);
  const LightTreeResult r = light_tree(g, 0);
  EXPECT_LE(r.phases.size(), 8u);  // ceil(log2 128) = 7, +1 slack
  EXPECT_GE(r.phases.size(), 1u);
}

TEST(LightTree, PhaseAccountingConsistent) {
  Rng rng(14);
  const PortGraph g = make_random_connected(60, 0.2, rng);
  const LightTreeResult r = light_tree(g, 0);
  std::size_t total_added = 0;
  std::uint64_t total_contribution = 0;
  for (const LightTreePhase& p : r.phases) {
    EXPECT_GT(p.trees_before, 1u);
    EXPECT_LE(p.small_trees, p.trees_before);
    EXPECT_LE(p.edges_added, p.small_trees);
    total_added += p.edges_added;
    total_contribution += p.contribution;
  }
  EXPECT_EQ(total_added, g.num_nodes() - 1);
  EXPECT_EQ(total_contribution, r.contribution);
}

TEST(LightTree, PaperPerPhaseBound) {
  // The proof's per-phase bound: C_k <= k * |T_small(k)| (each added edge in
  // phase k contributes at most k bits).
  const PortGraph g = make_complete_star(200);
  const LightTreeResult r = light_tree(g, 0);
  for (const LightTreePhase& p : r.phases) {
    EXPECT_LE(p.contribution,
              static_cast<std::uint64_t>(p.phase) * p.small_trees);
  }
}

TEST(LightTree, TrivialGraphs) {
  const LightTreeResult single = light_tree(make_path(1), 0);
  EXPECT_EQ(single.contribution, 0u);
  EXPECT_TRUE(single.phases.empty());

  const LightTreeResult pair = light_tree(make_path(2), 0);
  EXPECT_EQ(pair.contribution, 1u);  // one edge with weight 0: #2(0) = 1
}

TEST(LightTree, BeatsBfsOnAdversarialStar) {
  // A star whose leaves sit on high ports at the center: BFS rooted at a
  // leaf must still use the same edges (a star has only one spanning tree),
  // so instead compare on the complete graph, where tree choice matters.
  const PortGraph g = make_complete_star(128);
  const LightTreeResult light = light_tree(g, 0);
  const SpanningTree bfs = bfs_tree(g, 0);
  EXPECT_LE(light.contribution, tree_contribution(g, bfs));
}

TEST(LightTree, RootChoiceDoesNotAffectContribution) {
  // The tree is built unrooted and then oriented; any root gives the same
  // edge set, hence the same contribution.
  const PortGraph g = make_complete_star(32);
  const std::uint64_t c0 = light_tree(g, 0).contribution;
  const std::uint64_t c7 = light_tree(g, 7).contribution;
  const std::uint64_t c31 = light_tree(g, 31).contribution;
  EXPECT_EQ(c0, c7);
  EXPECT_EQ(c0, c31);
}

TEST(LightTree, DisconnectedGraphThrowsInvalidArgument) {
  // Two disjoint edges: both pairs merge in phase 1, then neither has an
  // outgoing edge. A path plus an isolated node: the isolated node is stuck
  // at once.
  PortGraph two_edges(4);
  two_edges.add_edge(0, 0, 1, 0);
  two_edges.add_edge(2, 0, 3, 0);
  PortGraph path_plus_isolated(4);
  path_plus_isolated.add_edge(0, 0, 1, 0);
  path_plus_isolated.add_edge(1, 1, 2, 0);
  for (PortGraph* g : {&two_edges, &path_plus_isolated}) {
    for (int frozen = 0; frozen < 2; ++frozen) {
      if (frozen == 1) g->freeze();
      try {
        light_tree(*g, 0);
        ADD_FAILURE() << "no throw on " << g->summary();
      } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "light_tree: graph is disconnected");
      }
    }
  }
}

// ---- The phase rule restated over one fully sorted edge list ----------------

struct ReferenceTree {
  std::vector<LightTreePhase> phases;
  std::uint64_t contribution = 0;
  std::vector<NodeId> parent;
  std::vector<Port> up_port;
  std::vector<std::vector<Port>> child_ports;
};

/// Claim 3.1 the slow way: in phase k every tree of fewer than 2^k nodes
/// picks the first edge leaving it in edges_by_weight(g) order, i.e. its
/// minimum by (weight, g.edges() index); the picks are merged in g.edges()
/// order, and a pick whose ends already share a tree is erased. The chosen
/// edges are then rooted by a BFS, children listed by ascending id.
ReferenceTree reference_light_tree(const PortGraph& g, NodeId root) {
  const std::size_t n = g.num_nodes();
  const std::vector<Edge> order = edges_by_weight(g);
  std::vector<std::size_t> comp(n);
  std::vector<std::size_t> size(n, 1);
  std::iota(comp.begin(), comp.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (comp[x] != x) x = comp[x];
    return x;
  };
  ReferenceTree ref;
  std::vector<Edge> chosen;
  std::size_t trees = n;
  for (int k = 1; trees > 1 && k < 63; ++k) {
    LightTreePhase phase;
    phase.phase = k;
    phase.trees_before = trees;
    std::map<std::size_t, Edge> pick;  // tree root -> first edge leaving it
    for (const Edge& e : order) {
      const std::size_t a = find(e.u);
      const std::size_t b = find(e.v);
      if (a == b) continue;
      if (size[a] < (std::size_t{1} << k)) pick.try_emplace(a, e);
      if (size[b] < (std::size_t{1} << k)) pick.try_emplace(b, e);
    }
    phase.small_trees = pick.size();
    std::vector<Edge> merged;
    for (const auto& [r, e] : pick) merged.push_back(e);
    std::sort(merged.begin(), merged.end(), [](const Edge& x, const Edge& y) {
      return x.u != y.u ? x.u < y.u : x.port_u < y.port_u;
    });
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    for (const Edge& e : merged) {
      const std::size_t a = find(e.u);
      const std::size_t b = find(e.v);
      if (a == b) {
        ++phase.edges_erased;
        continue;
      }
      comp[b] = a;
      size[a] += size[b];
      --trees;
      chosen.push_back(e);
      ++phase.edges_added;
      phase.contribution += static_cast<std::uint64_t>(num_bits(e.weight()));
    }
    ref.contribution += phase.contribution;
    if (phase.small_trees > 0) ref.phases.push_back(phase);
  }

  std::vector<std::vector<Edge>> incident(n);
  for (const Edge& e : chosen) {
    incident[e.u].push_back(e);
    incident[e.v].push_back(e);
  }
  ref.parent.assign(n, kNoNode);
  ref.up_port.assign(n, kNoPort);
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue{root};
  seen[root] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const Edge& e : incident[v]) {
      const NodeId u = e.u == v ? e.v : e.u;
      if (seen[u]) continue;
      seen[u] = true;
      ref.parent[u] = v;
      ref.up_port[u] = e.u == v ? e.port_v : e.port_u;
      queue.push_back(u);
    }
  }
  ref.child_ports.assign(n, {});
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    ref.child_ports[ref.parent[v]].push_back(
        g.neighbor(v, ref.up_port[v]).port);
  }
  return ref;
}

void expect_matches_reference(const PortGraph& g, NodeId root,
                              const std::string& what) {
  const LightTreeResult got = light_tree(g, root);
  const ReferenceTree want = reference_light_tree(g, root);
  ASSERT_EQ(got.phases.size(), want.phases.size()) << what;
  for (std::size_t i = 0; i < want.phases.size(); ++i) {
    const LightTreePhase& a = got.phases[i];
    const LightTreePhase& b = want.phases[i];
    EXPECT_EQ(a.phase, b.phase) << what << " row " << i;
    EXPECT_EQ(a.trees_before, b.trees_before) << what << " row " << i;
    EXPECT_EQ(a.small_trees, b.small_trees) << what << " row " << i;
    EXPECT_EQ(a.edges_added, b.edges_added) << what << " row " << i;
    EXPECT_EQ(a.edges_erased, b.edges_erased) << what << " row " << i;
    EXPECT_EQ(a.contribution, b.contribution) << what << " row " << i;
  }
  EXPECT_EQ(got.contribution, want.contribution) << what;
  ASSERT_EQ(got.tree.num_nodes(), g.num_nodes()) << what;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(got.tree.parent(v), want.parent[v]) << what << " node " << v;
    ASSERT_EQ(got.tree.port_to_parent(v), want.up_port[v])
        << what << " node " << v;
    ASSERT_TRUE(std::ranges::equal(got.tree.child_ports(v),
                                   want.child_ports[v]))
        << what << " node " << v;
  }
}

TEST(LightTree, MatchesSortedScanReference) {
  Rng rng(20261017);
  std::vector<std::pair<std::string, PortGraph>> graphs;
  const auto add = [&](std::string name, PortGraph g) {
    graphs.emplace_back(name, g);
    graphs.emplace_back(name + "/shuffled", shuffle_ports(g, rng));
  };
  for (int i = 0; i < 40; ++i) {
    const std::size_t n = 2 + rng.below(70);
    add("dense-random", make_random_connected(n, 0.3 + 0.6 * rng.unit(), rng));
    const std::size_t non_tree_pairs = (n - 1) * (n - 2) / 2;
    add("sparse-random",
        make_random_connected_sparse(
            n, rng.below(std::min(2 * n, non_tree_pairs) + 1), rng));
  }
  for (std::size_t n : {2u, 3u, 4u, 5u, 8u, 13u, 16u, 31u, 33u, 64u}) {
    add("complete", make_complete_star(n));
  }
  for (std::size_t b : {1u, 2u, 5u, 17u, 40u}) {
    add("bipartite K1,b", make_complete_bipartite(1, b));
    add("bipartite K2,b", make_complete_bipartite(2, b));
    add("bipartite K3,b", make_complete_bipartite(3, b));
    add("bipartite Kb,b", make_complete_bipartite(b, b));
  }
  for (std::size_t n : {2u, 3u, 9u, 40u}) add("star", make_star(n));
  for (std::size_t n : {4u, 5u, 12u, 41u}) add("wheel", make_wheel(n));
  for (std::size_t n : {3u, 8u, 21u, 50u}) add("lollipop", make_lollipop(n));
  for (std::size_t spine : {1u, 4u, 9u}) {
    for (std::size_t legs : {0u, 2u, 5u}) {
      add("caterpillar", make_caterpillar(spine, legs));
    }
  }
  for (int i = 0; i < 8; ++i) {
    const std::size_t d = 2 + rng.below(4);
    std::size_t n = 8 + rng.below(40);
    if ((n * d) % 2 == 1) ++n;
    add("random-regular", make_random_regular(n, d, rng));
  }
  for (std::size_t rows : {1u, 2u, 5u, 9u}) {
    for (std::size_t cols : {3u, 7u}) add("grid", make_grid(rows, cols));
  }
  for (int d = 1; d <= 7; ++d) add("hypercube", make_hypercube(d));
  for (int i = 0; i < 6; ++i) {
    const std::size_t n = 6 + rng.below(14);
    add("gns", make_gns(n, 1 + rng.below(n), rng).graph);
  }
  ASSERT_GE(graphs.size(), 300u);

  for (const auto& [name, g] : graphs) {
    PortGraph builder(g.num_nodes());
    for (const Edge& e : g.edges()) {
      builder.add_edge(e.u, e.port_u, e.v, e.port_v);
    }
    const NodeId root = static_cast<NodeId>(rng.below(g.num_nodes()));
    const std::string what = name + " " + g.summary();
    expect_matches_reference(g, root, what + " frozen");
    expect_matches_reference(builder, root, what + " builder");
  }
}

}  // namespace
}  // namespace oraclesize
