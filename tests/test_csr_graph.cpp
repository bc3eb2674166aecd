// Property tests for the two-state (builder / frozen-CSR) PortGraph:
// every checked accessor must answer identically in both states, freeze()
// must enforce its preconditions, and the counting-sort edge order must
// match the std::stable_sort it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/light_tree.h"
#include "graph/port_graph.h"
#include "graph/spanning_tree.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

/// Rebuilds g as a never-frozen builder-state graph with the same edges,
/// ports, and labels.
PortGraph builder_copy(const PortGraph& g) {
  PortGraph out(g.num_nodes());
  for (const Edge& e : g.edges()) out.add_edge(e.u, e.port_u, e.v, e.port_v);
  for (NodeId v = 0; v < g.num_nodes(); ++v) out.set_label(v, g.label(v));
  return out;
}

std::vector<PortGraph> sample_graphs() {
  Rng rng(20260806);
  std::vector<PortGraph> out;
  out.push_back(make_path(17));
  out.push_back(make_cycle(12));
  out.push_back(make_star(9));
  out.push_back(make_grid(4, 6));
  out.push_back(make_hypercube(4));
  out.push_back(make_binary_tree(21));
  out.push_back(make_lollipop(14));
  out.push_back(make_torus(3, 5));
  out.push_back(make_complete_bipartite(4, 7));
  out.push_back(make_complete_star(13));
  out.push_back(make_random_tree(25, rng));
  out.push_back(make_random_connected(24, 0.3, rng));
  return out;
}

TEST(CsrGraph, BuildersReturnFrozenGraphs) {
  for (const PortGraph& g : sample_graphs()) {
    EXPECT_TRUE(g.frozen()) << g.summary();
    EXPECT_NE(g.csr_endpoints(), nullptr) << g.summary();
  }
}

TEST(CsrGraph, FrozenAndBuilderStatesAnswerIdentically) {
  for (const PortGraph& g : sample_graphs()) {
    const PortGraph b = builder_copy(g);
    ASSERT_FALSE(b.frozen());
    EXPECT_EQ(b.csr_endpoints(), nullptr);
    ASSERT_EQ(b.num_nodes(), g.num_nodes());
    EXPECT_EQ(b.num_edges(), g.num_edges());
    EXPECT_EQ(b.edges(), g.edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(b.degree(v), g.degree(v)) << g.summary() << " v=" << v;
      EXPECT_EQ(b.label(v), g.label(v));
      const auto grow = g.neighbors(v);
      const auto brow = b.neighbors(v);
      ASSERT_EQ(grow.size(), brow.size());
      for (Port p = 0; p < grow.size(); ++p) {
        EXPECT_EQ(grow[p], brow[p]);
        EXPECT_EQ(b.neighbor(v, p), g.neighbor(v, p));
        EXPECT_EQ(b.has_port(v, p), g.has_port(v, p));
      }
      for (const Endpoint& e : grow) {
        EXPECT_EQ(b.port_towards(v, e.node), g.port_towards(v, e.node));
      }
    }
  }
}

TEST(CsrGraph, UncheckedAccessorsMatchCheckedOnFrozen) {
  for (const PortGraph& g : sample_graphs()) {
    const Endpoint* csr = g.csr_endpoints();
    std::size_t link = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g.degree_u(v), g.degree(v));
      for (Port p = 0; p < g.degree_u(v); ++p, ++link) {
        EXPECT_EQ(g.neighbor_u(v, p), g.neighbor(v, p));
        // CSR index offsets[v] + p doubles as the directed-link id.
        EXPECT_EQ(csr[link], g.neighbor(v, p));
      }
    }
    EXPECT_EQ(link, 2 * g.num_edges());
  }
}

TEST(CsrGraph, FreezeRejectsMutationAndIsIdempotent) {
  PortGraph g(4);
  g.add_edge_auto(0, 1);
  g.add_edge_auto(1, 2);
  g.add_edge_auto(2, 3);
  g.freeze();
  ASSERT_TRUE(g.frozen());
  EXPECT_THROW(g.add_edge(0, 1, 3, 1), std::logic_error);
  EXPECT_THROW(g.add_edge_auto(0, 3), std::logic_error);
  const std::vector<Edge> before = g.edges();
  g.freeze();  // idempotent
  EXPECT_TRUE(g.frozen());
  EXPECT_EQ(g.edges(), before);
}

TEST(CsrGraph, FreezeRejectsPortHoles) {
  PortGraph g(3);
  g.add_edge(0, 1, 1, 0);  // port 0 of node 0 left vacant
  EXPECT_THROW(g.freeze(), std::invalid_argument);
  EXPECT_FALSE(g.frozen());
}

TEST(CsrGraph, AddEdgeAutoFillsHolesLeftByExplicitPorts) {
  PortGraph g(4);
  g.add_edge(0, 2, 1, 1);  // node 0: ports 0 and 1 still free
  auto [p1, q1] = g.add_edge_auto(0, 2);
  EXPECT_EQ(p1, 0u);
  EXPECT_EQ(q1, 0u);
  auto [p2, q2] = g.add_edge_auto(0, 3);
  EXPECT_EQ(p2, 1u);
  EXPECT_EQ(q2, 0u);
  auto [p3, q3] = g.add_edge_auto(0, 1);  // next free after explicit port 2
  EXPECT_EQ(p3, 3u);
  EXPECT_EQ(q3, 0u);
  EXPECT_NO_THROW(g.freeze());
}

TEST(CsrGraph, MemoryBytesShrinkOnFreeze) {
  const PortGraph g = make_complete_star(64);
  const PortGraph b = builder_copy(g);
  EXPECT_LT(g.memory_bytes(), b.memory_bytes());
}

// ---- counting sort vs the std::stable_sort it replaced ----

TEST(CsrGraph, EdgesByWeightMatchesStableSort) {
  for (const PortGraph& g : sample_graphs()) {
    std::vector<Edge> expect = g.edges();
    std::stable_sort(expect.begin(), expect.end(),
                     [](const Edge& a, const Edge& b) {
                       return a.weight() < b.weight();
                     });
    EXPECT_EQ(edges_by_weight(g), expect) << g.summary();
  }
}

TEST(CsrGraph, KruskalMatchesStableSortReference) {
  for (const PortGraph& g : sample_graphs()) {
    // Reference Kruskal: stable_sort by weight + plain union-find.
    std::vector<Edge> sorted = g.edges();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Edge& a, const Edge& b) {
                       return a.weight() < b.weight();
                     });
    std::vector<NodeId> parent(g.num_nodes());
    std::iota(parent.begin(), parent.end(), NodeId{0});
    const auto find = [&](NodeId x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    std::vector<Edge> expect;
    for (const Edge& e : sorted) {
      const NodeId a = find(e.u);
      const NodeId b = find(e.v);
      if (a == b) continue;
      parent[a] = b;
      expect.push_back(e);
    }
    const SpanningTree t = kruskal_mst(g, 0);
    std::vector<Edge> got = t.edges(g);
    std::sort(got.begin(), got.end(), [](const Edge& a, const Edge& b) {
      return a.u < b.u || (a.u == b.u && a.port_u < b.port_u);
    });
    std::sort(expect.begin(), expect.end(), [](const Edge& a, const Edge& b) {
      return a.u < b.u || (a.u == b.u && a.port_u < b.port_u);
    });
    EXPECT_EQ(got, expect) << g.summary();
  }
}

// ---- tree constructions must not care about the storage state ----

void expect_same_tree(const SpanningTree& a, const SpanningTree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.root(), b.root());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.parent(v), b.parent(v));
    EXPECT_EQ(a.port_to_parent(v), b.port_to_parent(v));
    EXPECT_TRUE(std::ranges::equal(a.child_ports(v), b.child_ports(v)));
    EXPECT_EQ(a.depth(v), b.depth(v));
  }
}

TEST(CsrGraph, TreesIdenticalOnFrozenAndBuilderGraphs) {
  for (const PortGraph& g : sample_graphs()) {
    const PortGraph b = builder_copy(g);
    expect_same_tree(bfs_tree(g, 0), bfs_tree(b, 0));
    expect_same_tree(dfs_tree(g, 0), dfs_tree(b, 0));
    expect_same_tree(kruskal_mst(g, 0), kruskal_mst(b, 0));
    const LightTreeResult lg = light_tree(g, 0);
    const LightTreeResult lb = light_tree(b, 0);
    expect_same_tree(lg.tree, lb.tree);
    EXPECT_EQ(lg.contribution, lb.contribution);
  }
}

}  // namespace
}  // namespace oraclesize
