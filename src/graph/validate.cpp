#include "graph/validate.h"

#include <deque>
#include <span>
#include <unordered_set>

namespace oraclesize {

std::string validate_ports(const PortGraph& g) {
  const std::size_t n = g.num_nodes();
  std::unordered_set<Label> labels;
  labels.reserve(n);
  // seen_by[u] == v once u has turned up behind a port of v: one array
  // finds parallel edges at every node.
  std::vector<NodeId> seen_by(n, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    if (!labels.insert(g.label(v)).second) {
      return "duplicate label " + std::to_string(g.label(v)) + " at node " +
             std::to_string(v);
    }
    const std::span<const Endpoint> row = g.neighbors(v);
    for (Port p = 0; p < row.size(); ++p) {
      const Endpoint e = row[p];
      if (e.node == kNoNode) {
        return "node " + std::to_string(v) + " has a vacant port " +
               std::to_string(p) + " below degree " +
               std::to_string(row.size());
      }
      const std::span<const Endpoint> far =
          e.node < n ? g.neighbors(e.node) : std::span<const Endpoint>{};
      if (e.port >= far.size() || far[e.port].node == kNoNode) {
        return "node " + std::to_string(v) + " port " + std::to_string(p) +
               " points to vacant slot";
      }
      if (far[e.port] != Endpoint{v, p}) {
        return "asymmetric port relation at node " + std::to_string(v) +
               " port " + std::to_string(p);
      }
      if (seen_by[e.node] == v) {
        return "parallel edge between " + std::to_string(v) + " and " +
               std::to_string(e.node);
      }
      seen_by[e.node] = v;
    }
  }
  return {};
}

std::vector<std::uint32_t> bfs_distances(const PortGraph& g, NodeId root) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist.at(root) = 0;
  queue.push_back(root);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const Endpoint& e : g.neighbors(v)) {
      if (e.node == kNoNode) continue;  // vacant slot in a builder-state row
      if (dist[e.node] == kUnreachable) {
        dist[e.node] = dist[v] + 1;
        queue.push_back(e.node);
      }
    }
  }
  return dist;
}

bool is_connected(const PortGraph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) return false;
  }
  return true;
}

}  // namespace oraclesize
