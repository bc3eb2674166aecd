#include "graph/spanning_tree.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/mathx.h"

namespace oraclesize {

namespace {

/// Plain union-find with union by size and path halving.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }
  std::size_t component_size(std::size_t x) { return size_[find(x)]; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace

SpanningTree SpanningTree::from_parent_ports(const PortGraph& g,
                                             NodeId root,
                                             std::vector<NodeId> parent,
                                             std::vector<Port> up_port) {
  const std::size_t n = g.num_nodes();
  SpanningTree t;
  t.root_ = root;
  t.parent_ = std::move(parent);
  t.up_port_ = std::move(up_port);
  // Children per parent, summed into end offsets; the fill below walks v
  // downwards, so each parent's ports come out in ascending child id and
  // child_begin_[p] ends at p's first slot.
  t.child_begin_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const NodeId p = t.parent_[v];
    if (p == kNoNode || p >= n) {
      throw std::invalid_argument("SpanningTree: node without valid parent");
    }
    const Port up = t.up_port_[v];
    if (up == kNoPort || !g.has_port(v, up) || g.neighbor(v, up).node != p) {
      throw std::invalid_argument("SpanningTree: parent edge not in graph");
    }
    ++t.child_begin_[p];
  }
  std::partial_sum(t.child_begin_.begin(), t.child_begin_.end(),
                   t.child_begin_.begin());
  t.child_port_.resize(t.child_begin_[n]);
  for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
    if (v == root) continue;
    t.child_port_[--t.child_begin_[t.parent_[v]]] =
        g.neighbors(v)[t.up_port_[v]].port;
  }
  // Depths; doubles as an acyclicity/spanning check. A child port at v
  // leads to the child itself.
  t.depth_.assign(n, 0);
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue;
  queue.reserve(n);
  queue.push_back(root);
  seen[root] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    const std::span<const Endpoint> row = g.neighbors(v);
    for (const Port q : t.child_ports(v)) {
      const NodeId u = row[q].node;
      if (seen[u]) throw std::invalid_argument("SpanningTree: cycle");
      seen[u] = true;
      t.depth_[u] = t.depth_[v] + 1;
      queue.push_back(u);
    }
  }
  if (queue.size() != n) {
    throw std::invalid_argument("SpanningTree: parent array does not span");
  }
  return t;
}

SpanningTree SpanningTree::from_parents(const PortGraph& g, NodeId root,
                                        const std::vector<NodeId>& parent) {
  const std::size_t n = g.num_nodes();
  if (parent.size() != n || root >= n || parent[root] != kNoNode) {
    throw std::invalid_argument("SpanningTree: malformed parent array");
  }
  // The general entry point has to find each up port itself; the
  // traversal constructors below know theirs already and skip this scan.
  std::vector<Port> up_port(n, kNoPort);
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const NodeId p = parent[v];
    if (p == kNoNode || p >= n) {
      throw std::invalid_argument("SpanningTree: node without valid parent");
    }
    const Port up = g.port_towards(v, p);
    if (up == kNoPort) {
      throw std::invalid_argument("SpanningTree: parent edge not in graph");
    }
    up_port[v] = up;
  }
  return from_parent_ports(g, root, parent, std::move(up_port));
}

SpanningTree SpanningTree::from_edges(const PortGraph& g, NodeId root,
                                      const std::vector<Edge>& edges) {
  const std::size_t n = g.num_nodes();
  if (edges.size() + 1 != n) {
    throw std::invalid_argument("SpanningTree::from_edges: wrong edge count");
  }
  // Forest edges carry both port numbers, so the BFS orientation can
  // record each node's up port as it goes instead of re-deriving it. The
  // forest adjacency is one array over prefix-summed degrees, filled from
  // the back so each node lists its edges in input order.
  struct Half {
    NodeId to;
    Port to_port;  // port AT `to` on this edge
  };
  std::vector<std::size_t> begin(n + 1, 0);
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("SpanningTree::from_edges: bad edge");
    }
    ++begin[e.u];
    ++begin[e.v];
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<Half> adj(2 * edges.size());
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    adj[--begin[e->v]] = Half{e->u, e->port_u};
    adj[--begin[e->u]] = Half{e->v, e->port_v};
  }
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<Port> up_port(n, kNoPort);
  std::vector<bool> seen(n, false);
  seen.at(root) = true;
  std::vector<NodeId> queue;
  queue.reserve(n);
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (std::size_t i = begin[v]; i < begin[v + 1]; ++i) {
      const Half h = adj[i];
      if (!seen[h.to]) {
        seen[h.to] = true;
        parent[h.to] = v;
        up_port[h.to] = h.to_port;
        queue.push_back(h.to);
      }
    }
  }
  return from_parent_ports(g, root, std::move(parent),
                           std::move(up_port));
}

std::uint32_t SpanningTree::height() const {
  std::uint32_t h = 0;
  for (std::uint32_t d : depth_) h = std::max(h, d);
  return h;
}

std::vector<Edge> SpanningTree::edges(const PortGraph& g) const {
  std::vector<Edge> out;
  out.reserve(num_nodes() == 0 ? 0 : num_nodes() - 1);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (is_root(v)) continue;
    const Port up = up_port_[v];
    const Endpoint pe = g.neighbor(v, up);
    const NodeId p = pe.node;
    if (v < p) {
      out.push_back(Edge{v, up, p, pe.port});
    } else {
      out.push_back(Edge{p, pe.port, v, up});
    }
  }
  return out;
}

SpanningTree bfs_tree(const PortGraph& g, NodeId root) {
  const std::size_t n = g.num_nodes();
  if (root >= n) {
    throw std::invalid_argument("bfs_tree: root out of range");
  }
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<Port> up_port(n, kNoPort);
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue;
  queue.reserve(n);
  queue.push_back(root);
  seen[root] = true;
  // Once every node is discovered the remaining row scans cannot assign
  // another parent, so the traversal stops early — on dense graphs this
  // turns the O(m) BFS into an O(sum of scanned rows) one.
  for (std::size_t head = 0; head < queue.size() && queue.size() < n;
       ++head) {
    const NodeId v = queue[head];
    for (const Endpoint& e : g.neighbors(v)) {
      if (e.node == kNoNode) continue;  // vacant slot in a builder-state row
      if (!seen[e.node]) {
        seen[e.node] = true;
        parent[e.node] = v;
        up_port[e.node] = e.port;  // e.port is at e.node, pointing back to v
        queue.push_back(e.node);
      }
    }
  }
  return SpanningTree::from_parent_ports(g, root, std::move(parent),
                                         std::move(up_port));
}

SpanningTree dfs_tree(const PortGraph& g, NodeId root) {
  const std::size_t n = g.num_nodes();
  if (root >= n) {
    throw std::invalid_argument("dfs_tree: root out of range");
  }
  std::vector<NodeId> parent(n, kNoNode);
  std::vector<Port> up_port(n, kNoPort);
  std::vector<bool> seen(n, false);
  // Iterative DFS; stack of (node, next port to try). Ports are explored
  // in ascending order, exactly as the per-port loop did. As in bfs_tree,
  // the walk stops once every node has been discovered.
  std::vector<std::pair<NodeId, Port>> stack{{root, 0}};
  seen[root] = true;
  std::size_t found = 1;
  while (!stack.empty() && found < n) {
    auto& [v, p] = stack.back();
    const std::span<const Endpoint> row = g.neighbors(v);
    if (p >= row.size()) {
      stack.pop_back();
      continue;
    }
    const Endpoint e = row[p];
    ++p;
    if (e.node == kNoNode) continue;  // vacant slot in a builder-state row
    if (!seen[e.node]) {
      seen[e.node] = true;
      parent[e.node] = v;
      up_port[e.node] = e.port;
      stack.emplace_back(e.node, 0);
      ++found;
    }
  }
  return SpanningTree::from_parent_ports(g, root, std::move(parent),
                                         std::move(up_port));
}

std::vector<Edge> edges_by_weight(const PortGraph& g) {
  std::vector<Edge> all = g.edges();
  // The paper's weight w(e) = min port is bounded by the maximum degree, so
  // a counting sort bucketed by weight runs in O(m + Delta) — and, done as
  // prefix-sum + forward scatter, it is STABLE: within a weight bucket
  // edges keep their g.edges() order, which is exactly the tie-break the
  // previous std::stable_sort implementation applied.
  Port max_weight = 0;
  for (const Edge& e : all) max_weight = std::max(max_weight, e.weight());
  std::vector<std::size_t> bucket_start(static_cast<std::size_t>(max_weight) +
                                            2,
                                        0);
  for (const Edge& e : all) ++bucket_start[e.weight() + 1];
  for (std::size_t w = 1; w < bucket_start.size(); ++w) {
    bucket_start[w] += bucket_start[w - 1];
  }
  std::vector<Edge> sorted(all.size());
  for (const Edge& e : all) sorted[bucket_start[e.weight()]++] = e;
  return sorted;
}

SpanningTree kruskal_mst(const PortGraph& g, NodeId root) {
  const std::vector<Edge> all = edges_by_weight(g);
  Dsu dsu(g.num_nodes());
  std::vector<Edge> chosen;
  chosen.reserve(g.num_nodes() - 1);
  for (const Edge& e : all) {
    if (dsu.unite(e.u, e.v)) chosen.push_back(e);
  }
  return SpanningTree::from_edges(g, root, chosen);
}

std::uint64_t tree_contribution(const PortGraph& g, const SpanningTree& t) {
  std::uint64_t total = 0;
  for (const Edge& e : t.edges(g)) {
    total += static_cast<std::uint64_t>(num_bits(e.weight()));
  }
  return total;
}

}  // namespace oraclesize
