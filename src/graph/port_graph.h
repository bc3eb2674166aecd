// Port-labeled network model.
//
// The paper models a network as a connected undirected graph whose nodes
// carry distinct labels and whose edge endpoints carry *port numbers*: at a
// node v of degree deg(v) the incident edges are numbered 0..deg(v)-1, and a
// node addresses its neighbors only through these local port numbers (it
// does not a priori know who is at the other end). All algorithms, oracles,
// and lower-bound constructions in this library speak exclusively in terms
// of (node, port).
//
// A PortGraph has two storage states (docs/api.md "Graph storage & freeze"):
//
//  * BUILDER — a nested std::vector<std::vector<Endpoint>> that supports
//    incremental add_edge / add_edge_auto, including out-of-order port
//    slots with temporary holes;
//  * FROZEN — a compact CSR layout (flat offsets[] + endpoints[] arrays)
//    produced by freeze(). Frozen graphs are immutable: the builder
//    mutators throw std::logic_error, every per-port lookup is one array
//    index, and neighbors(v) exposes the whole adjacency row as a
//    contiguous span for allocation-free traversal.
//
// The checked accessors (degree/neighbor/has_port/port_towards/edges)
// answer identically in both states; all graph builders return frozen
// graphs. Hot loops should iterate neighbors(v) or use the _u accessors,
// which skip bounds checks (preconditions documented per member).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace oraclesize {

using NodeId = std::uint32_t;
using Port = std::uint32_t;
using Label = std::uint64_t;

struct ParseLimits;  // graph/io.h

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
inline constexpr Port kNoPort = std::numeric_limits<Port>::max();

/// The far side of a port: which node it reaches and on which of *its* ports.
struct Endpoint {
  NodeId node = kNoNode;
  Port port = kNoPort;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// An undirected edge with both port numbers, normalized so that u < v.
struct Edge {
  NodeId u = kNoNode;
  Port port_u = kNoPort;
  NodeId v = kNoNode;
  Port port_v = kNoPort;

  /// The paper's edge weight w(e) = min{port_u(e), port_v(e)} (Section 3).
  Port weight() const noexcept { return port_u < port_v ? port_u : port_v; }

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// An undirected graph with per-endpoint port numbers and per-node labels.
///
/// Invariants (checked by validate_ports in graph/validate.h):
///  * at every node the occupied ports are exactly 0..deg-1;
///  * the port relation is symmetric: neighbor(u,p) == {v,q} iff
///    neighbor(v,q) == {u,p};
///  * labels are pairwise distinct.
///
/// Node ids are dense indices 0..num_nodes()-1; labels default to id+1 so
/// that a freshly built n-node graph is labeled 1..n as in the paper.
class PortGraph {
 public:
  PortGraph() = default;
  explicit PortGraph(std::size_t num_nodes);

  std::size_t num_nodes() const noexcept { return labels_.size(); }
  std::size_t num_edges() const noexcept { return num_edges_; }

  /// Adds an undirected edge between u (at port pu) and v (at port pv).
  /// Port slots may be created out of order; validate_ports() (or freeze())
  /// later checks there are no holes. Throws std::invalid_argument if a
  /// slot is occupied, u == v, or an endpoint is out of range, and
  /// std::logic_error on a frozen graph.
  void add_edge(NodeId u, Port pu, NodeId v, Port pv);

  /// Adds an undirected edge using the lowest free port at each endpoint
  /// (per-node next-free cursors make a pure add_edge_auto build linear in
  /// the edge count); returns the two assigned ports. Throws
  /// std::logic_error on a frozen graph.
  std::pair<Port, Port> add_edge_auto(NodeId u, NodeId v);

  /// Compacts the builder adjacency into the CSR layout and releases the
  /// nested vectors. Requires every node's occupied ports to be exactly
  /// 0..deg-1 (throws std::invalid_argument on a hole). Idempotent; all
  /// read accessors answer identically before and after.
  void freeze();

  /// True once freeze() has run: the graph is immutable CSR.
  bool frozen() const noexcept { return frozen_; }

  /// Degree of v. Throws std::out_of_range for an out-of-range node (via a
  /// cold helper — the hot path is a compare and an array index).
  std::size_t degree(NodeId v) const;

  /// Unchecked degree. Precondition: v < num_nodes() and the graph is
  /// frozen.
  std::size_t degree_u(NodeId v) const noexcept {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// The endpoint reached through port p of node v.
  /// Throws std::out_of_range for a vacant or out-of-range slot.
  Endpoint neighbor(NodeId v, Port p) const;

  /// Unchecked lookup. Precondition: the graph is frozen, v < num_nodes(),
  /// p < degree_u(v).
  Endpoint neighbor_u(NodeId v, Port p) const noexcept {
    return endpoints_[offsets_[v] + p];
  }

  /// The adjacency row of v as a contiguous span: element p is the far
  /// side of port p. Zero-cost on frozen graphs (a slice of the CSR
  /// array); on a builder graph it views the node's slot vector, where a
  /// not-yet-validated graph may still contain vacant slots
  /// (node == kNoNode). Precondition: v < num_nodes().
  std::span<const Endpoint> neighbors(NodeId v) const noexcept {
    if (frozen_) {
      return {endpoints_.data() + offsets_[v], degree_u(v)};
    }
    return {adj_[v].data(), adj_[v].size()};
  }

  /// Raw CSR endpoint array, or nullptr until frozen. Element
  /// offsets[v] + p is neighbor(v, p); the offsets are exactly the
  /// prefix-summed degrees, so the execution engine can index this array
  /// with the directed-link ids it already computes for its per-link
  /// clocks.
  const Endpoint* csr_endpoints() const noexcept {
    return frozen_ ? endpoints_.data() : nullptr;
  }

  /// Raw CSR offset array (n + 1 entries), or nullptr until frozen. Entry v
  /// is the first directed-link id of node v — the prefix-summed degrees the
  /// engine otherwise recomputes per run, and the edge-density curve
  /// graph/partition.h balances shard boundaries on.
  const std::uint64_t* csr_offsets() const noexcept {
    return frozen_ ? offsets_.data() : nullptr;
  }

  /// True iff the port slot exists and is occupied.
  bool has_port(NodeId v, Port p) const noexcept;

  /// Finds the port at u leading to v, or kNoPort if not adjacent.
  /// O(deg(u)).
  Port port_towards(NodeId u, NodeId v) const;

  Label label(NodeId v) const;
  void set_label(NodeId v, Label label);

  /// All edges, normalized (u < v), in ascending (u, port_u) order.
  std::vector<Edge> edges() const;

  /// Resident bytes of the adjacency + label storage in the CURRENT layout
  /// (vector headers and capacity slack included for the builder state; the
  /// flat CSR arrays for the frozen state). The quantity behind the
  /// bytes-per-edge columns of BENCH_perf_csr.json.
  std::size_t memory_bytes() const noexcept;

  /// Graphviz rendering with labels and port annotations (debugging aid).
  std::string to_dot() const;

  /// One-line summary: "PortGraph(n=8, m=12)".
  std::string summary() const;

 private:
  // The text reader builds the CSR arrays straight from the text, checks
  // every invariant on them, and hands them over here: no builder state.
  friend PortGraph from_text(const std::string& text,
                             const ParseLimits& limits);
  PortGraph(std::vector<std::uint64_t> offsets,
            std::vector<Endpoint> endpoints, std::vector<Label> labels);

  // Builder state (released by freeze()).
  std::vector<std::vector<Endpoint>> adj_;  // adj_[v][port]
  std::vector<Port> next_free_;             // add_edge_auto scan cursors
  // Frozen state: CSR over directed endpoints. offsets_ has n+1 entries;
  // the row of v is endpoints_[offsets_[v] .. offsets_[v+1]). The index
  // offsets_[v] + p is exactly the directed-link id the execution engine
  // keys its per-link clocks and fault decisions on.
  bool frozen_ = false;
  std::vector<std::uint64_t> offsets_;
  std::vector<Endpoint> endpoints_;

  std::vector<Label> labels_;
  std::size_t num_edges_ = 0;
};

}  // namespace oraclesize
