#include "graph/light_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/mathx.h"

namespace oraclesize {

namespace {

/// Union by size with path halving. root_size() reads a root's size
/// directly, so the scan pays one find per endpoint and no more.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n), size_(n, 1), count_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }
  NodeId find(NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --count_;
    return true;
  }
  /// Precondition: r is a root (find(r) == r).
  NodeId root_size(NodeId r) const noexcept { return size_[r]; }
  std::size_t num_components() const noexcept { return count_; }

 private:
  std::vector<NodeId> parent_;
  std::vector<NodeId> size_;
  std::size_t count_;
};

/// The edges of g grouped by the paper's weight w(e) = min port, one bucket
/// per weight, each built the first time a scan asks for it. Bucket w holds
/// a handle (x << 32) | w per edge of weight w, where x is the endpoint
/// whose port on the edge is w (the smaller id when both ports are w), in
/// ascending x. Building bucket w walks `alive_`, the nodes of degree > w,
/// and drops those of degree w + 1, so all buckets together visit at most
/// 2m + n nodes; a scan that stops after a few weights of a dense graph
/// never touches the rest of its edges.
class WeightBuckets {
 public:
  explicit WeightBuckets(const PortGraph& g) : g_(g) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!g.neighbors(v).empty()) alive_.push_back(v);
    }
  }

  /// False once w is past every port of the graph.
  bool has(std::size_t w) const { return w < end_.size() || !alive_.empty(); }

  /// Bucket w, built on first use. Precondition: has(w), and every lighter
  /// bucket has been asked for.
  std::span<std::uint64_t> bucket(std::size_t w) {
    if (w == end_.size()) build(static_cast<Port>(w));
    return {handles_.data() + begin_[w], end_[w] - begin_[w]};
  }

  /// Keeps only the first `kept` handles of bucket w.
  void shrink(std::size_t w, std::size_t kept) { end_[w] = begin_[w] + kept; }

 private:
  void build(Port w) {
    begin_.push_back(handles_.size());
    std::size_t still = 0;
    for (const NodeId x : alive_) {
      const std::span<const Endpoint> row = g_.neighbors(x);
      const Endpoint y = row[w];  // vacant in a builder-state row if kNoNode
      if (y.node != kNoNode && (y.port > w || (y.port == w && x < y.node))) {
        handles_.push_back((std::uint64_t{x} << 32) | w);
      }
      if (row.size() > std::size_t{w} + 1) alive_[still++] = x;
    }
    alive_.resize(still);
    end_.push_back(handles_.size());
  }

  const PortGraph& g_;
  std::vector<NodeId> alive_;
  std::vector<std::uint64_t> handles_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
};

}  // namespace

LightForest light_forest(const PortGraph& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) throw std::invalid_argument("light_tree: empty graph");

  Dsu dsu(n);
  WeightBuckets buckets(g);
  LightForest result;
  result.edges.reserve(n - 1);

  // A pick is an edge's g.edges() key, (smaller endpoint << 32) | its port.
  // Keys are monotone in g.edges() order, so a tree's smallest key among
  // its outgoing edges of its lightest weight is its minimum by (weight,
  // g.edges() index), and sorted keys merge the picks in g.edges() order.
  // `weight` tells a pick made in the bucket being scanned from a final one.
  constexpr std::uint64_t kUnset = std::numeric_limits<std::uint64_t>::max();
  struct Pick {
    std::uint64_t key = kUnset;
    Port weight = 0;
  };
  std::vector<Pick> best(n);  // indexed by root: no hashing in the scan
  std::vector<NodeId> touched;
  std::vector<std::uint64_t> picks;

  // Phases k = 1, 2, ...: every tree of size < 2^k selects a minimum-weight
  // outgoing edge; selected edges are merged in, cycle-closing ones erased.
  // Components only grow, so after at most ceil(log2 n) + 1 phases every
  // tree is "small or alone" and the forest is a single spanning tree.
  for (int k = 1; dsu.num_components() > 1; ++k) {
    LightTreePhase phase;
    phase.phase = k;
    phase.trees_before = dsu.num_components();
    const std::size_t small_limit = (k < 63) ? (std::size_t{1} << k) : n + 1;

    std::size_t needed = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dsu.find(v) == v && dsu.root_size(v) < small_limit) ++needed;
    }

    // Scan whole weights in ascending order until every small tree holds a
    // pick. Internal edges are dropped from their bucket for good: an edge
    // whose endpoints share a tree never leaves one again.
    touched.clear();
    for (std::size_t w = 0; touched.size() < needed && buckets.has(w); ++w) {
      const std::span<std::uint64_t> bucket = buckets.bucket(w);
      std::size_t kept = 0;
      for (const std::uint64_t handle : bucket) {
        const NodeId x = static_cast<NodeId>(handle >> 32);
        const Endpoint y = g.neighbors(x)[w];
        const NodeId rx = dsu.find(x);
        const NodeId ry = dsu.find(y.node);
        if (rx == ry) continue;
        bucket[kept++] = handle;
        const std::uint64_t key =
            x < y.node ? handle : (std::uint64_t{y.node} << 32) | y.port;
        for (const NodeId r : {rx, ry}) {
          if (dsu.root_size(r) >= small_limit) continue;
          Pick& p = best[r];
          if (p.key == kUnset) {
            p = Pick{key, static_cast<Port>(w)};
            touched.push_back(r);
          } else if (p.weight == w && key < p.key) {
            p.key = key;
          }
        }
      }
      buckets.shrink(w, kept);
    }
    // In a connected graph every tree has an outgoing edge while there are
    // two or more.
    if (touched.size() < needed) {
      throw std::invalid_argument("light_tree: graph is disconnected");
    }
    phase.small_trees = touched.size();

    // Two trees may select the same edge; add it once (no cycle arises).
    picks.clear();
    for (const NodeId rep : touched) {
      picks.push_back(best[rep].key);
      best[rep].key = kUnset;  // reset for the next phase
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());

    for (const std::uint64_t key : picks) {
      const NodeId u = static_cast<NodeId>(key >> 32);
      const Port pu = static_cast<Port>(key);
      const Endpoint other = g.neighbors(u)[pu];
      const Edge e{u, pu, other.node, other.port};
      if (dsu.unite(e.u, e.v)) {
        result.edges.push_back(e);
        ++phase.edges_added;
        phase.contribution += static_cast<std::uint64_t>(num_bits(e.weight()));
      } else {
        ++phase.edges_erased;  // closed a cycle among this phase's picks
      }
    }
    if (phase.small_trees > 0) result.phases.push_back(phase);
  }

  for (const LightTreePhase& p : result.phases) {
    result.contribution += p.contribution;
  }
  return result;
}

LightTreeResult light_tree(const PortGraph& g, NodeId root) {
  LightForest forest = light_forest(g);
  return LightTreeResult{SpanningTree::from_edges(g, root, forest.edges),
                         std::move(forest.phases), forest.contribution};
}

}  // namespace oraclesize
