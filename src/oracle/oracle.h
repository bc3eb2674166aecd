// The oracle abstraction (Section 1.2 of the paper).
//
// An oracle is a function O whose argument is a labeled network G (with its
// distinguished source) and whose value O(G) is a function f : V -> {0,1}*
// assigning a binary string to every node. The *size* of the oracle on G is
// the sum of the lengths of all assigned strings — the total number of bits
// of information about the network made available to its nodes. Minimum
// oracle size for solving a task efficiently is the paper's difficulty
// measure.
//
// Advice has a per-graph part and a per-source part. prepare(g) computes
// the first once; the Advisor it returns answers advise(source) for any
// number of sources. An oracle whose advice has no per-graph part keeps
// the default, which advises each source from scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitio/bitstring.h"
#include "graph/port_graph.h"

namespace oraclesize {

/// One oracle prepared for one graph. advise(source) equals the oracle's
/// advise(g, source) bit for bit, and may be called from several threads
/// at once. An Advisor must not outlive its graph or its oracle.
class Advisor {
 public:
  virtual ~Advisor() = default;
  virtual std::vector<BitString> advise(NodeId source) const = 0;
};

class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Computes f = O(G): advice[v] is the string handed to node v.
  /// The oracle sees the entire labeled network, including which node is
  /// the source; the algorithm that later consumes the advice sees only
  /// one node's quadruple.
  virtual std::vector<BitString> advise(const PortGraph& g,
                                        NodeId source) const = 0;

  /// The per-graph stage: everything advise(g, ·) computes that does not
  /// depend on the source, done once. The default does nothing up front
  /// and calls advise(g, source) per source.
  virtual std::unique_ptr<const Advisor> prepare(const PortGraph& g) const;

  virtual std::string name() const = 0;
};

/// The paper's oracle size: total bits over all nodes.
std::uint64_t oracle_size_bits(const std::vector<BitString>& advice);

/// Largest single per-node string (useful for "balanced advice" reporting).
std::uint64_t max_advice_bits(const std::vector<BitString>& advice);

}  // namespace oraclesize
