// Test-only reference for the light-broadcast advice: the per-source route
// oracle/light_broadcast_oracle.cpp took before it prepared each graph
// once. It builds the tree rooted at the source, walks t.edges(g) (by
// child id), hands each weight w(e) to the endpoint whose port is w(e)
// (the smaller id on a tie) and encodes each node's list with
// encode_weight_list. Differential tests hold LightBroadcastOracle to it.
#pragma once

#include <cstdint>
#include <vector>

#include "bitio/codecs.h"
#include "oracle/tree_wakeup_oracle.h"

namespace oraclesize::reference {

/// Each node's weights in the order the reference route assigns them.
inline std::vector<std::vector<std::uint64_t>> assigned_ports(
    const PortGraph& g, NodeId source, TreeKind tree) {
  std::vector<std::vector<std::uint64_t>> ports(g.num_nodes());
  if (g.num_nodes() <= 1) return ports;
  const SpanningTree t = build_tree(g, source, tree);
  for (const Edge& e : t.edges(g)) {
    const NodeId x = (e.port_u <= e.port_v) ? e.u : e.v;
    ports[x].push_back(e.weight());
  }
  return ports;
}

inline std::vector<BitString> light_broadcast_advice(const PortGraph& g,
                                                     NodeId source,
                                                     TreeKind tree) {
  const auto ports = assigned_ports(g, source, tree);
  std::vector<BitString> advice(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!ports[v].empty()) advice[v] = encode_weight_list(ports[v]);
  }
  return advice;
}

}  // namespace oraclesize::reference
