#include "oracle/oracle.h"

#include <algorithm>

namespace oraclesize {

namespace {

/// The default per-graph stage: none. Each source is advised from scratch.
class PerSourceAdvisor final : public Advisor {
 public:
  PerSourceAdvisor(const Oracle& oracle, const PortGraph& g)
      : oracle_(oracle), g_(g) {}
  std::vector<BitString> advise(NodeId source) const override {
    return oracle_.advise(g_, source);
  }

 private:
  const Oracle& oracle_;
  const PortGraph& g_;
};

}  // namespace

std::unique_ptr<const Advisor> Oracle::prepare(const PortGraph& g) const {
  return std::make_unique<PerSourceAdvisor>(*this, g);
}

std::uint64_t oracle_size_bits(const std::vector<BitString>& advice) {
  std::uint64_t total = 0;
  for (const BitString& s : advice) total += s.size();
  return total;
}

std::uint64_t max_advice_bits(const std::vector<BitString>& advice) {
  std::uint64_t best = 0;
  for (const BitString& s : advice) {
    best = std::max<std::uint64_t>(best, s.size());
  }
  return best;
}

}  // namespace oraclesize
