#include "graph/port_graph.h"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace oraclesize {

namespace {

// Error-message formatting is hoisted into cold [[noreturn]] helpers so the
// checked accessors carry nothing but a compare + call on their hot path
// (no inline std::string construction, no ostringstream machinery).
[[gnu::cold]] [[noreturn]] void throw_bad_node(const char* where) {
  throw std::out_of_range(std::string(where) + ": node out of range");
}

[[gnu::cold]] [[noreturn]] void throw_vacant_port() {
  throw std::out_of_range("neighbor: vacant port");
}

[[gnu::cold]] [[noreturn]] void throw_frozen(const char* where) {
  throw std::logic_error(std::string(where) +
                         ": graph is frozen (immutable CSR)");
}

[[gnu::cold]] [[noreturn]] void throw_freeze_hole(NodeId v, Port p) {
  std::ostringstream os;
  os << "freeze: node " << v << " has a vacant port " << p
     << " below its top occupied slot";
  throw std::invalid_argument(os.str());
}

}  // namespace

PortGraph::PortGraph(std::size_t num_nodes)
    : adj_(num_nodes), next_free_(num_nodes, 0), labels_(num_nodes) {
  for (std::size_t v = 0; v < num_nodes; ++v) {
    labels_[v] = static_cast<Label>(v) + 1;  // paper-style labels 1..n
  }
}

PortGraph::PortGraph(std::vector<std::uint64_t> offsets,
                     std::vector<Endpoint> endpoints,
                     std::vector<Label> labels)
    : frozen_(true),
      offsets_(std::move(offsets)),
      endpoints_(std::move(endpoints)),
      labels_(std::move(labels)),
      num_edges_(endpoints_.size() / 2) {}

void PortGraph::add_edge(NodeId u, Port pu, NodeId v, Port pv) {
  if (frozen_) throw_frozen("add_edge");
  if (u >= num_nodes() || v >= num_nodes()) {
    throw std::invalid_argument("add_edge: node out of range");
  }
  if (u == v) throw std::invalid_argument("add_edge: self-loop");
  auto reserve = [](std::vector<Endpoint>& slots, Port p) {
    if (slots.size() <= p) slots.resize(p + 1);
    if (slots[p].node != kNoNode) {
      throw std::invalid_argument("add_edge: port already occupied");
    }
  };
  reserve(adj_[u], pu);
  reserve(adj_[v], pv);
  adj_[u][pu] = Endpoint{v, pv};
  adj_[v][pv] = Endpoint{u, pu};
  ++num_edges_;
}

std::pair<Port, Port> PortGraph::add_edge_auto(NodeId u, NodeId v) {
  if (frozen_) throw_frozen("add_edge_auto");
  if (u >= num_nodes() || v >= num_nodes()) {
    throw std::invalid_argument("add_edge_auto: node out of range");
  }
  // Per-node cursors: each scan resumes where the last one stopped, so a
  // build made of add_edge_auto calls does amortized O(1) work per
  // endpoint (linear in m overall) instead of re-scanning filled slots.
  auto next_free = [this](NodeId x) {
    Port c = next_free_[x];
    const std::vector<Endpoint>& slots = adj_[x];
    while (c < slots.size() && slots[c].node != kNoNode) ++c;
    next_free_[x] = c;
    return c;
  };
  const Port pu = next_free(u);
  const Port pv = next_free(v);
  add_edge(u, pu, v, pv);
  ++next_free_[u];
  next_free_[v] = pv + 1;
  return {pu, pv};
}

void PortGraph::freeze() {
  if (frozen_) return;
  const std::size_t n = num_nodes();
  offsets_.resize(n + 1);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    offsets_[v] = total;
    for (Port p = 0; p < adj_[v].size(); ++p) {
      if (adj_[v][p].node == kNoNode) throw_freeze_hole(v, p);
    }
    total += adj_[v].size();
  }
  offsets_[n] = total;
  endpoints_.reserve(static_cast<std::size_t>(total));
  for (NodeId v = 0; v < n; ++v) {
    endpoints_.insert(endpoints_.end(), adj_[v].begin(), adj_[v].end());
  }
  // Release the builder storage; the CSR arrays are now the graph.
  adj_ = {};
  next_free_ = {};
  frozen_ = true;
}

std::size_t PortGraph::degree(NodeId v) const {
  if (v >= num_nodes()) throw_bad_node("degree");
  return frozen_ ? degree_u(v) : adj_[v].size();
}

Endpoint PortGraph::neighbor(NodeId v, Port p) const {
  if (v >= num_nodes()) throw_bad_node("neighbor");
  if (frozen_) {
    if (p >= degree_u(v)) throw_vacant_port();
    return neighbor_u(v, p);
  }
  const std::vector<Endpoint>& slots = adj_[v];
  if (p >= slots.size() || slots[p].node == kNoNode) throw_vacant_port();
  return slots[p];
}

bool PortGraph::has_port(NodeId v, Port p) const noexcept {
  if (v >= num_nodes()) return false;
  if (frozen_) return p < degree_u(v);
  const std::vector<Endpoint>& slots = adj_[v];
  return p < slots.size() && slots[p].node != kNoNode;
}

Port PortGraph::port_towards(NodeId u, NodeId v) const {
  if (u >= num_nodes()) throw_bad_node("port_towards");
  const std::span<const Endpoint> row = neighbors(u);
  for (std::size_t p = 0; p < row.size(); ++p) {
    if (row[p].node == v) return static_cast<Port>(p);
  }
  return kNoPort;
}

Label PortGraph::label(NodeId v) const {
  if (v >= num_nodes()) throw_bad_node("label");
  return labels_[v];
}

void PortGraph::set_label(NodeId v, Label label) {
  if (v >= num_nodes()) throw_bad_node("set_label");
  labels_[v] = label;
}

std::vector<Edge> PortGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const std::span<const Endpoint> row = neighbors(u);
    for (std::size_t p = 0; p < row.size(); ++p) {
      const Endpoint e = row[p];
      if (e.node != kNoNode && u < e.node) {
        out.push_back(Edge{u, static_cast<Port>(p), e.node, e.port});
      }
    }
  }
  return out;
}

std::size_t PortGraph::memory_bytes() const noexcept {
  std::size_t bytes = labels_.capacity() * sizeof(Label);
  if (frozen_) {
    bytes += offsets_.capacity() * sizeof(std::uint64_t);
    bytes += endpoints_.capacity() * sizeof(Endpoint);
  } else {
    bytes += adj_.capacity() * sizeof(std::vector<Endpoint>);
    bytes += next_free_.capacity() * sizeof(Port);
    for (const std::vector<Endpoint>& slots : adj_) {
      bytes += slots.capacity() * sizeof(Endpoint);
    }
  }
  return bytes;
}

std::string PortGraph::to_dot() const {
  std::ostringstream os;
  os << "graph G {\n";
  for (NodeId v = 0; v < num_nodes(); ++v) {
    os << "  n" << v << " [label=\"" << labels_[v] << "\"];\n";
  }
  for (const Edge& e : edges()) {
    os << "  n" << e.u << " -- n" << e.v << " [taillabel=\"" << e.port_u
       << "\", headlabel=\"" << e.port_v << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string PortGraph::summary() const {
  std::ostringstream os;
  os << "PortGraph(n=" << num_nodes() << ", m=" << num_edges() << ")";
  return os.str();
}

}  // namespace oraclesize
