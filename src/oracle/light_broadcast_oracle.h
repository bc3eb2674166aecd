// The Theorem 3.1 oracle: O(n) bits enabling broadcast with a linear number
// of messages.
//
// Take the Claim 3.1 light spanning tree T0 (sum of #2(w(e)) <= 4n for
// w(e) = min port). For every tree edge e = {u,v}, the binary representation
// of w(e) is handed to the endpoint x whose port number on e *is* w(e)
// (ties broken towards the smaller node id). A node holding several weights
// gets them packed into one self-delimiting string (encode_weight_list).
// Decoded at the node, each weight is literally one of its own port numbers
// that carries a tree edge — which is all scheme B (core/broadcast_b.h)
// needs.
//
// The light tree's edge set is a function of the port labels alone, so
// prepare(g) builds it once (light_forest) and each source only orients
// it. The source decides one thing: the order of each node's list, which
// is ascending neighbour id, except that the weight on the node's edge
// towards the source goes at the node's own id.
#pragma once

#include <memory>

#include "oracle/oracle.h"
#include "oracle/tree_wakeup_oracle.h"  // TreeKind

namespace oraclesize {

class LightBroadcastOracle final : public Oracle {
 public:
  /// TreeKind::kLight reproduces Theorem 3.1. Other kinds are ablations
  /// (E9): the same advice layout over a different tree — correct broadcast
  /// but without the 4n contribution guarantee.
  explicit LightBroadcastOracle(TreeKind tree = TreeKind::kLight)
      : tree_(tree) {}

  /// prepare(g)->advise(source). n <= 1 gives n empty strings; a source
  /// >= n of a larger graph throws std::out_of_range.
  std::vector<BitString> advise(const PortGraph& g,
                                NodeId source) const override;
  /// kLight and kKruskal build their root-free forest here. kBfs and kDfs
  /// build a different tree for every source, so they prepare nothing.
  std::unique_ptr<const Advisor> prepare(const PortGraph& g) const override;
  std::string name() const override;

 private:
  TreeKind tree_;
};

}  // namespace oraclesize
