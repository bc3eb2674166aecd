#include "graph/builders.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "graph/validate.h"

namespace oraclesize {

PortGraph make_path(std::size_t n) {
  if (n < 1) throw std::invalid_argument("make_path: n >= 1 required");
  PortGraph g(n);
  for (std::size_t v = 0; v + 1 < n; ++v) {
    g.add_edge_auto(static_cast<NodeId>(v), static_cast<NodeId>(v + 1));
  }
  g.freeze();
  return g;
}

PortGraph make_cycle(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_cycle: n >= 3 required");
  PortGraph g(n);
  for (std::size_t v = 0; v < n; ++v) {
    g.add_edge_auto(static_cast<NodeId>(v), static_cast<NodeId>((v + 1) % n));
  }
  g.freeze();
  return g;
}

PortGraph make_star(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_star: n >= 2 required");
  PortGraph g(n);
  for (std::size_t v = 1; v < n; ++v) {
    g.add_edge_auto(0, static_cast<NodeId>(v));
  }
  g.freeze();
  return g;
}

PortGraph make_grid(std::size_t rows, std::size_t cols) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("make_grid: dimensions >= 1 required");
  }
  PortGraph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge_auto(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge_auto(id(r, c), id(r + 1, c));
    }
  }
  g.freeze();
  return g;
}

PortGraph make_hypercube(int d) {
  if (d < 0 || d > 20) throw std::invalid_argument("make_hypercube: bad d");
  const std::size_t n = std::size_t{1} << d;
  PortGraph g(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (int b = 0; b < d; ++b) {
      const std::size_t u = v ^ (std::size_t{1} << b);
      if (v < u) {
        // Port = dimension index on both sides: the canonical hypercube
        // port labeling.
        g.add_edge(static_cast<NodeId>(v), static_cast<Port>(b),
                   static_cast<NodeId>(u), static_cast<Port>(b));
      }
    }
  }
  g.freeze();
  return g;
}

PortGraph make_binary_tree(std::size_t n) {
  if (n < 1) throw std::invalid_argument("make_binary_tree: n >= 1 required");
  PortGraph g(n);
  for (std::size_t v = 1; v < n; ++v) {
    g.add_edge_auto(static_cast<NodeId>((v - 1) / 2), static_cast<NodeId>(v));
  }
  g.freeze();
  return g;
}

PortGraph make_random_tree(std::size_t n, Rng& rng) {
  if (n < 1) throw std::invalid_argument("make_random_tree: n >= 1 required");
  PortGraph g(n);
  if (n == 1) {
    g.freeze();
    return g;
  }
  if (n == 2) {
    g.add_edge_auto(0, 1);
    g.freeze();
    return g;
  }
  // Decode a uniformly random Prufer sequence of length n-2.
  std::vector<std::size_t> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<std::size_t>(rng.below(n));
  std::vector<std::size_t> degree(n, 1);
  for (std::size_t x : prufer) ++degree[x];
  // Min-heap-free decoding: repeatedly attach the smallest leaf.
  std::vector<bool> used(n, false);
  std::size_t leaf_ptr = 0;
  auto next_leaf = [&]() {
    while (degree[leaf_ptr] != 1 || used[leaf_ptr]) ++leaf_ptr;
    return leaf_ptr;
  };
  std::size_t leaf = next_leaf();
  std::size_t cursor = leaf;
  for (std::size_t x : prufer) {
    g.add_edge_auto(static_cast<NodeId>(cursor), static_cast<NodeId>(x));
    used[cursor] = true;
    if (--degree[x] == 1 && x < leaf_ptr) {
      cursor = x;  // x became a leaf smaller than the scan frontier
    } else {
      leaf = next_leaf();
      cursor = leaf;
    }
  }
  // Two nodes remain; connect them.
  std::size_t a = kNoNode, b = kNoNode;
  for (std::size_t v = 0; v < n; ++v) {
    if (!used[v] && degree[v] == 1) {
      (a == kNoNode ? a : b) = v;
    }
  }
  g.add_edge_auto(static_cast<NodeId>(a), static_cast<NodeId>(b));
  g.freeze();
  return g;
}

PortGraph make_random_connected(std::size_t n, double p, Rng& rng) {
  PortGraph tree = make_random_tree(n, rng);
  // Re-add tree edges into a fresh graph, then sprinkle extras. When pair
  // (u, v) comes up, only a tree edge can already join it, so u's tree
  // neighbors are marked instead of searching u's growing row.
  PortGraph g(n);
  for (const Edge& e : tree.edges()) g.add_edge_auto(e.u, e.v);
  std::vector<NodeId> tree_neighbor_of(n, kNoNode);
  for (NodeId u = 0; u < n; ++u) {
    for (const Endpoint& e : tree.neighbors(u)) tree_neighbor_of[e.node] = u;
    for (NodeId v = u + 1; v < n; ++v) {
      if (tree_neighbor_of[v] == u) continue;
      if (rng.chance(p)) g.add_edge_auto(u, v);
    }
  }
  g.freeze();
  return g;
}

PortGraph make_random_connected_sparse(std::size_t n, std::size_t extra,
                                       Rng& rng) {
  if (n < 1) {
    throw std::invalid_argument(
        "make_random_connected_sparse: n >= 1 required");
  }
  const std::size_t tree_edges = n - 1;
  const std::size_t all_pairs = n * (n - 1) / 2;
  if (extra > all_pairs - tree_edges) {
    throw std::invalid_argument(
        "make_random_connected_sparse: extra exceeds the non-tree pairs");
  }
  PortGraph tree = make_random_tree(n, rng);
  PortGraph g(n);
  // Membership set over normalized pairs (u < v), seeded with the tree so
  // rejection sampling never re-adds a spanning edge. Sparse regimes
  // (extra = O(n)) reject rarely; dense requests degrade gracefully because
  // `extra` is capped well below the pair count above.
  std::unordered_set<std::uint64_t> present;
  present.reserve(tree_edges + extra);
  auto pair_key = [n](NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return static_cast<std::uint64_t>(u) * n + v;
  };
  for (const Edge& e : tree.edges()) {
    present.insert(pair_key(e.u, e.v));
    g.add_edge_auto(e.u, e.v);
  }
  std::size_t added = 0;
  while (added < extra) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (!present.insert(pair_key(u, v)).second) continue;
    g.add_edge_auto(u, v);
    ++added;
  }
  g.freeze();
  return g;
}

PortGraph make_lollipop(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_lollipop: n >= 2 required");
  const std::size_t clique = (n + 1) / 2;
  PortGraph g(n);
  for (NodeId u = 0; u < clique; ++u) {
    for (NodeId v = u + 1; v < clique; ++v) g.add_edge_auto(u, v);
  }
  for (std::size_t v = clique; v < n; ++v) {
    g.add_edge_auto(static_cast<NodeId>(v - 1), static_cast<NodeId>(v));
  }
  g.freeze();
  return g;
}

PortGraph make_torus(std::size_t rows, std::size_t cols) {
  if (rows < 3 || cols < 3) {
    throw std::invalid_argument("make_torus: dimensions >= 3 required");
  }
  PortGraph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      g.add_edge_auto(id(r, c), id(r, (c + 1) % cols));
      g.add_edge_auto(id(r, c), id((r + 1) % rows, c));
    }
  }
  g.freeze();
  return g;
}

PortGraph make_complete_bipartite(std::size_t a, std::size_t b) {
  if (a < 1 || b < 1) {
    throw std::invalid_argument("make_complete_bipartite: sides >= 1");
  }
  PortGraph g(a + b);
  for (NodeId u = 0; u < a; ++u) {
    for (std::size_t v = a; v < a + b; ++v) {
      g.add_edge_auto(u, static_cast<NodeId>(v));
    }
  }
  g.freeze();
  return g;
}

PortGraph make_wheel(std::size_t n) {
  if (n < 4) throw std::invalid_argument("make_wheel: n >= 4 required");
  PortGraph g(n);
  const std::size_t rim = n - 1;  // nodes 1..n-1; node 0 is the hub
  for (std::size_t i = 0; i < rim; ++i) {
    g.add_edge_auto(static_cast<NodeId>(1 + i),
                    static_cast<NodeId>(1 + (i + 1) % rim));
  }
  for (std::size_t i = 0; i < rim; ++i) {
    g.add_edge_auto(0, static_cast<NodeId>(1 + i));
  }
  g.freeze();
  return g;
}

PortGraph make_caterpillar(std::size_t spine, std::size_t legs) {
  if (spine < 1) throw std::invalid_argument("make_caterpillar: spine >= 1");
  const std::size_t n = spine * (1 + legs);
  PortGraph g(n);
  for (std::size_t s = 0; s + 1 < spine; ++s) {
    g.add_edge_auto(static_cast<NodeId>(s), static_cast<NodeId>(s + 1));
  }
  for (std::size_t s = 0; s < spine; ++s) {
    for (std::size_t l = 0; l < legs; ++l) {
      g.add_edge_auto(static_cast<NodeId>(s),
                      static_cast<NodeId>(spine + s * legs + l));
    }
  }
  g.freeze();
  return g;
}

namespace {

// One configuration-model draw followed by stub-rewiring repair: random
// double-edge swaps involving a defective pair (self-loop or duplicate)
// preserve the degree sequence and quickly drive the defect count to zero
// (the practical standard; plain whole-graph rejection has acceptance
// ~exp(-d^2/4) and dies already at d = 6).
bool try_random_regular(std::size_t n, std::size_t d, Rng& rng,
                        PortGraph& out) {
  std::vector<NodeId> stubs;
  stubs.reserve(n * d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  rng.shuffle(stubs);

  const std::size_t m = stubs.size() / 2;
  std::vector<std::pair<NodeId, NodeId>> pairs(m);
  std::map<std::pair<NodeId, NodeId>, int> multiplicity;
  auto key = [](NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  };
  for (std::size_t i = 0; i < m; ++i) {
    pairs[i] = {stubs[2 * i], stubs[2 * i + 1]};
    ++multiplicity[key(pairs[i].first, pairs[i].second)];
  }
  auto defective = [&](std::size_t i) {
    const auto [a, b] = pairs[i];
    return a == b || multiplicity[key(a, b)] > 1;
  };

  // Repair loop: swap a defective pair against a random partner.
  for (std::size_t iter = 0; iter < 200 * m; ++iter) {
    std::size_t bad = m;
    // Scan from a random offset so repeated failures do not starve a pair.
    const std::size_t start = static_cast<std::size_t>(rng.below(m));
    for (std::size_t s = 0; s < m; ++s) {
      const std::size_t i = (start + s) % m;
      if (defective(i)) {
        bad = i;
        break;
      }
    }
    if (bad == m) break;  // simple!
    const std::size_t other = static_cast<std::size_t>(rng.below(m));
    if (other == bad) continue;
    auto& [a, b] = pairs[bad];
    auto& [c, e] = pairs[other];
    // Propose (a,b),(c,e) -> (a,e),(c,b).
    --multiplicity[key(a, b)];
    --multiplicity[key(c, e)];
    std::swap(b, e);
    ++multiplicity[key(a, b)];
    ++multiplicity[key(c, e)];
    if (defective(bad) || defective(other)) {
      // Roll back bad proposals that create new defects elsewhere only if
      // they also failed locally; keeping neutral moves mixes the state.
      --multiplicity[key(a, b)];
      --multiplicity[key(c, e)];
      std::swap(b, e);
      ++multiplicity[key(a, b)];
      ++multiplicity[key(c, e)];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (defective(i)) return false;
  }
  PortGraph g(n);
  for (const auto& [a, b] : pairs) g.add_edge_auto(a, b);
  g.freeze();  // pure add_edge_auto build: dense ports, freeze cannot fail
  if (!is_connected(g)) return false;
  out = std::move(g);
  return true;
}

}  // namespace

PortGraph make_random_regular(std::size_t n, std::size_t d, Rng& rng,
                              int max_attempts) {
  if (d >= n || (n * d) % 2 != 0 || d < 2) {
    throw std::invalid_argument("make_random_regular: need d>=2, d<n, nd even");
  }
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    PortGraph g;
    if (try_random_regular(n, d, rng, g)) return g;
  }
  throw std::runtime_error("make_random_regular: too many rejected samples");
}

PortGraph shuffle_ports(const PortGraph& g, Rng& rng) {
  const std::size_t n = g.num_nodes();
  // Draw one independent port permutation per node.
  std::vector<std::vector<Port>> perm(n);
  for (NodeId v = 0; v < n; ++v) {
    perm[v].resize(g.degree(v));
    std::iota(perm[v].begin(), perm[v].end(), Port{0});
    rng.shuffle(perm[v]);
  }
  PortGraph out(n);
  for (NodeId v = 0; v < n; ++v) out.set_label(v, g.label(v));
  for (const Edge& e : g.edges()) {
    out.add_edge(e.u, perm[e.u][e.port_u], e.v, perm[e.v][e.port_v]);
  }
  out.freeze();
  return out;
}

}  // namespace oraclesize
