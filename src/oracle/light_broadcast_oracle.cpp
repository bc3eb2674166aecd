#include "oracle/light_broadcast_oracle.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "bitio/codecs.h"
#include "graph/light_tree.h"

namespace oraclesize {

namespace {

/// A spanning tree's edges with each weight at its holder, ready to be
/// oriented from any source.
class WeightForest final : public Advisor {
 public:
  /// `edges` spans n nodes (n-1 edges, normalized u < v), or n <= 1.
  WeightForest(std::size_t n, const std::vector<Edge>& edges)
      : adj_begin_(n + 1, 0), held_begin_(n + 1, 0) {
    // Both arrays are filled from prefix-summed end offsets downwards.
    for (const Edge& e : edges) {
      ++adj_begin_[e.u];
      ++adj_begin_[e.v];
      ++held_begin_[holder(e)];
    }
    std::partial_sum(adj_begin_.begin(), adj_begin_.end(), adj_begin_.begin());
    std::partial_sum(held_begin_.begin(), held_begin_.end(),
                     held_begin_.begin());
    adj_.resize(2 * edges.size());
    held_.resize(edges.size());
    for (const Edge& e : edges) {
      adj_[--adj_begin_[e.u]] = e.v;
      adj_[--adj_begin_[e.v]] = e.u;
      const NodeId x = holder(e);
      held_[--held_begin_[x]] = Held{x == e.u ? e.v : e.u, e.weight()};
    }
    for (NodeId x = 0; x < n; ++x) {
      std::sort(held_.begin() + held_begin_[x],
                held_.begin() + held_begin_[x + 1],
                [](const Held& a, const Held& b) {
                  return a.neighbor < b.neighbor;
                });
    }
  }

  std::vector<BitString> advise(NodeId source) const override {
    const std::size_t n = adj_begin_.size() - 1;
    std::vector<BitString> advice(n);
    if (n <= 1) return advice;
    if (source >= n) {
      throw std::out_of_range("LightBroadcastOracle: source out of range");
    }
    // Parents by a BFS from the source; the source is its own parent.
    std::vector<NodeId> parent(n, kNoNode);
    std::vector<NodeId> queue;
    queue.reserve(n);
    parent[source] = source;
    queue.push_back(source);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (std::size_t i = adj_begin_[v]; i < adj_begin_[v + 1]; ++i) {
        const NodeId u = adj_[i];
        if (parent[u] == kNoNode) {
          parent[u] = v;
          queue.push_back(u);
        }
      }
    }
    // A weight goes at its edge's child: the neighbour, or x itself on
    // x's parent edge. That is the order of the tree's edges by child id.
    for (NodeId x = 0; x < n; ++x) {
      const std::size_t begin = held_begin_[x];
      const std::size_t end = held_begin_[x + 1];
      std::size_t up = begin;
      while (up < end && held_[up].neighbor != parent[x]) ++up;
      bool up_written = up == end;
      BitString& out = advice[x];
      for (std::size_t i = begin; i < end; ++i) {
        if (i == up) continue;
        if (!up_written && held_[i].neighbor > x) {
          append_doubled(out, held_[up].weight);
          up_written = true;
        }
        append_doubled(out, held_[i].weight);
      }
      if (!up_written) append_doubled(out, held_[up].weight);
    }
    return advice;
  }

 private:
  struct Held {
    NodeId neighbor;
    Port weight;
  };

  /// The endpoint whose port is w(e); a tie goes to the smaller id.
  static NodeId holder(const Edge& e) {
    return e.port_u <= e.port_v ? e.u : e.v;
  }

  // Tree neighbours of v: adj_[adj_begin_[v] .. adj_begin_[v + 1]).
  std::vector<std::uint32_t> adj_begin_;
  std::vector<NodeId> adj_;
  // Weights x holds, by ascending neighbour id:
  // held_[held_begin_[x] .. held_begin_[x + 1]).
  std::vector<std::uint32_t> held_begin_;
  std::vector<Held> held_;
};

/// BFS and DFS trees are grown from the source: a different tree each.
bool grown_per_source(TreeKind tree) {
  return tree == TreeKind::kBfs || tree == TreeKind::kDfs;
}

/// The root-free spanning tree of kLight or kKruskal.
std::vector<Edge> forest_edges(const PortGraph& g, TreeKind tree) {
  if (g.num_nodes() <= 1) return {};
  if (tree == TreeKind::kLight) return light_forest(g).edges;
  std::vector<Edge> edges = kruskal_forest(g);
  if (edges.size() + 1 != g.num_nodes()) {
    throw std::invalid_argument("kruskal_forest: graph is disconnected");
  }
  return edges;
}

}  // namespace

std::unique_ptr<const Advisor> LightBroadcastOracle::prepare(
    const PortGraph& g) const {
  if (grown_per_source(tree_)) return Oracle::prepare(g);
  return std::make_unique<WeightForest>(g.num_nodes(), forest_edges(g, tree_));
}

std::vector<BitString> LightBroadcastOracle::advise(const PortGraph& g,
                                                    NodeId source) const {
  if (grown_per_source(tree_)) {
    const std::size_t n = g.num_nodes();
    if (n <= 1) return std::vector<BitString>(n);
    return WeightForest(n, build_tree(g, source, tree_).edges(g))
        .advise(source);
  }
  return prepare(g)->advise(source);
}

std::string LightBroadcastOracle::name() const {
  return std::string("light-broadcast(") + to_string(tree_) + ")";
}

}  // namespace oraclesize
