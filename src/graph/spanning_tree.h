// Rooted spanning trees over port-labeled graphs.
//
// Both oracle constructions in the paper hand out *ports of spanning-tree
// edges*: Theorem 2.1 gives each node the ports towards its children in an
// arbitrary spanning tree, Theorem 3.1 gives one endpoint of each edge of a
// specially chosen light tree the weight (= smaller port number) of that
// edge. This header provides the rooted-tree representation plus the classic
// constructions (BFS, DFS, Kruskal MST under the paper's min-port weight);
// the Claim 3.1 light tree lives in graph/light_tree.h.
#pragma once

#include <span>
#include <vector>

#include "graph/port_graph.h"

namespace oraclesize {

/// A spanning tree of a PortGraph, rooted, with the port numbers of every
/// tree edge recorded on both sides.
class SpanningTree {
 public:
  /// Builds from a parent array (parent[root] == kNoNode). Ports are looked
  /// up in g. Throws std::invalid_argument if the array is not a spanning
  /// tree of g.
  static SpanningTree from_parents(const PortGraph& g, NodeId root,
                                   const std::vector<NodeId>& parent);

  /// Builds from an (n-1)-element forest edge list that spans g.
  /// Orientation (parent/child) is chosen by a BFS from root.
  static SpanningTree from_edges(const PortGraph& g, NodeId root,
                                 const std::vector<Edge>& edges);

  /// As from_parents, but with each node's up port supplied by the caller —
  /// the traversal constructors (BFS/DFS/from_edges) learn it at discovery
  /// time, which saves from_parents' O(deg) port_towards scan per node.
  /// Every (parent, up port) pair is still verified against g, and the
  /// spanning/acyclicity check still runs.
  static SpanningTree from_parent_ports(const PortGraph& g, NodeId root,
                                        std::vector<NodeId> parent,
                                        std::vector<Port> up_port);

  NodeId root() const noexcept { return root_; }
  std::size_t num_nodes() const noexcept { return parent_.size(); }

  NodeId parent(NodeId v) const { return parent_.at(v); }
  bool is_root(NodeId v) const { return parent_.at(v) == kNoNode; }

  /// Port at v leading to its parent. Undefined (kNoPort) for the root.
  Port port_to_parent(NodeId v) const { return up_port_.at(v); }

  /// Ports at v leading to each of its children, in ascending child id: a
  /// view into the tree's flat child-port array, valid as long as the tree.
  /// Throws std::out_of_range for v >= num_nodes().
  std::span<const Port> child_ports(NodeId v) const {
    const std::size_t end = child_begin_.at(std::size_t{v} + 1);
    return {child_port_.data() + child_begin_[v], end - child_begin_[v]};
  }
  std::size_t num_children(NodeId v) const { return child_ports(v).size(); }
  bool is_leaf(NodeId v) const { return child_ports(v).empty(); }

  /// Depth of v (root has depth 0).
  std::uint32_t depth(NodeId v) const { return depth_.at(v); }
  std::uint32_t height() const;

  /// The n-1 tree edges, with both port numbers, normalized u < v.
  std::vector<Edge> edges(const PortGraph& g) const;

 private:
  NodeId root_ = kNoNode;
  std::vector<NodeId> parent_;
  std::vector<Port> up_port_;
  // Children of v: child_port_[child_begin_[v] .. child_begin_[v + 1]).
  std::vector<std::uint32_t> child_begin_;
  std::vector<Port> child_port_;
  std::vector<std::uint32_t> depth_;
};

/// Breadth-first spanning tree (children discovered in port order).
SpanningTree bfs_tree(const PortGraph& g, NodeId root);

/// Depth-first spanning tree (children explored in port order).
SpanningTree dfs_tree(const PortGraph& g, NodeId root);

/// All edges of g sorted ascending by the paper's weight w(e) = min port,
/// ties broken by g.edges() order. Implemented as a stable counting sort
/// bucketed by weight (bounded by the max degree): O(m + Delta) instead of
/// the O(m log m) a comparison sort would pay.
std::vector<Edge> edges_by_weight(const PortGraph& g);

/// The edges of the minimum spanning forest under the paper's edge weight
/// w(e) = min{port_u(e), port_v(e)} (Kruskal; ties broken by edge order),
/// normalized u < v, in the order Kruskal adds them. Root-free: n-1 edges
/// exactly when g is connected.
std::vector<Edge> kruskal_forest(const PortGraph& g);

/// kruskal_forest(g) oriented from `root` (from_edges).
SpanningTree kruskal_mst(const PortGraph& g, NodeId root);

/// Sum over tree edges of #2(w(e)) — the quantity Claim 3.1 bounds by 4n.
std::uint64_t tree_contribution(const PortGraph& g, const SpanningTree& t);

}  // namespace oraclesize
