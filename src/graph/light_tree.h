// The light spanning tree of Claim 3.1 — the heart of the O(n) broadcast
// oracle (Theorem 3.1).
//
// With edge weights w(e) = min{port_u(e), port_v(e)} and #2(w) the binary
// length of w, Claim 3.1 constructs a spanning tree T0 with
//
//     sum over e in T0 of #2(w(e))  <=  4n.
//
// The construction is a phased Boruvka/Kruskal hybrid: in phase k every
// "small" tree (fewer than 2^k nodes) selects a minimum-weight edge leaving
// it; all selected edges are added and one edge per created cycle is erased.
// Small trees at phase k have fewer than 2^k nodes, so the port used never
// exceeds 2^k - 2, bounding that edge's contribution by k; with at most
// n/2^{k-1} trees in phase k the total telescopes to <= 4n.
#pragma once

#include "graph/port_graph.h"
#include "graph/spanning_tree.h"

namespace oraclesize {

/// Per-phase accounting of the construction (exported for tests and the E3
/// benchmark, which reproduces the telescoping bound).
struct LightTreePhase {
  int phase = 0;                   ///< k
  std::size_t trees_before = 0;    ///< trees at the start of the phase
  std::size_t small_trees = 0;     ///< |T_small(k)|
  std::size_t edges_added = 0;     ///< selected edges that merged trees
  std::size_t edges_erased = 0;    ///< selected edges erased (cycle-closing)
  std::uint64_t contribution = 0;  ///< C_k = sum of #2(w) over added edges
};

struct LightTreeResult {
  SpanningTree tree;
  std::vector<LightTreePhase> phases;
  std::uint64_t contribution = 0;  ///< sum of #2(w(e)) over tree edges
};

/// Runs the Claim 3.1 construction on a connected graph. In phase k each
/// small tree picks its minimum outgoing edge by (w(e), g.edges() index).
/// Edges are grouped into weight buckets, each built on first use at one
/// visit per node of degree > w; a phase scans whole buckets from weight 0
/// and stops after the weight at which its last small tree found an edge.
/// A call costs O(n) per phase and per bucket reached plus the edges it
/// reads: about O(n) per bucket on dense graphs instead of O(m), and never
/// more than sorting all m edges and scanning them once per phase.
/// Throws std::invalid_argument if g is empty or disconnected.
LightTreeResult light_tree(const PortGraph& g, NodeId root);

}  // namespace oraclesize
