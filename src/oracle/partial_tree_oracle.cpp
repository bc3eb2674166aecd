#include "oracle/partial_tree_oracle.h"

#include <span>
#include <sstream>

#include "bitio/codecs.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace oraclesize {

std::vector<BitString> PartialTreeOracle::advise(const PortGraph& g,
                                                 NodeId source) const {
  const std::size_t n = g.num_nodes();
  std::vector<BitString> advice(n);
  if (n <= 1) return advice;
  const SpanningTree tree = build_tree(g, source, tree_);
  const int width = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
  Rng rng(seed_);
  for (NodeId v = 0; v < n; ++v) {
    // The source always keeps its advice: an unadvised source would flood
    // and pay deg(source) regardless of everyone else.
    if (v != source && !rng.chance(fraction_)) continue;
    BitString s;
    s.append_bit(true);  // "advised" flag
    const std::span<const Port> ports = tree.child_ports(v);
    if (!ports.empty()) {
      s.append(encode_port_list(
          std::vector<std::uint64_t>(ports.begin(), ports.end()), width));
    }
    advice[v] = s;
  }
  return advice;
}

std::string PartialTreeOracle::name() const {
  std::ostringstream os;
  // The seed is part of the name: names must be parameter-complete so that
  // equal names imply equal advice (core/advice_cache.h keys on them).
  os << "partial-tree(" << fraction_ << "," << to_string(tree_) << ",seed="
     << seed_ << ")";
  return os.str();
}

}  // namespace oraclesize
