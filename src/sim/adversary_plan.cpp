#include "sim/adversary_plan.h"

#include <stdexcept>

#include "util/rng.h"

namespace oraclesize {

namespace {

// Domain-separation tags: each adversary decision family draws from its
// own keyed stream, and none of them collides with FaultPlan's tags — so
// enabling the Byzantine layer never perturbs which messages a given fault
// seed drops, and vice versa.
constexpr std::uint64_t kSelectTag = 0x62797a73656cULL;   // "byzsel"
constexpr std::uint64_t kForgeTag = 0x666f726765ULL;      // "forge"
constexpr std::uint64_t kEquivTag = 0x6571756976ULL;      // "equiv"
constexpr std::uint64_t kContentTag = 0x636f6e74ULL;      // "cont"
constexpr std::uint64_t kAdviceLieTag = 0x6164766c6965ULL;  // "advlie"

Rng keyed_rng(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
              std::uint64_t b) noexcept {
  return Rng(mix64(seed ^ mix64(tag ^ mix64(a ^ mix64(b)))));
}

}  // namespace

const char* to_string(ByzantineStrategy strategy) {
  switch (strategy) {
    case ByzantineStrategy::kRandomBits:
      return "random-bits";
    case ByzantineStrategy::kReplay:
      return "replay";
    case ByzantineStrategy::kStructuredLie:
      return "structured-lie";
  }
  return "unknown";
}

ByzantineStrategy parse_byzantine_strategy(const std::string& name) {
  if (name == "random-bits") return ByzantineStrategy::kRandomBits;
  if (name == "replay") return ByzantineStrategy::kReplay;
  if (name == "structured-lie") return ByzantineStrategy::kStructuredLie;
  throw std::invalid_argument("unknown byzantine strategy '" + name + "'");
}

void AdversaryPlan::arm(const AdversaryPlanParams& params,
                        std::size_t num_nodes, NodeId source) {
  params_ = params;
  lying_.assign(num_nodes, 0);
  num_lying_ = 0;
  replay_.clear();
  observed_ = 0;
  if (!params_.enabled()) return;

  if (params_.byz_nodes > 0) {
    // Exact colluding-set size: sample without replacement from the
    // eligible nodes. The eligible list is built in node order, so the
    // draw is pure in (seed, num_nodes, byz_nodes).
    std::vector<NodeId> eligible;
    eligible.reserve(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (v == source && !params_.byz_source) continue;
      eligible.push_back(v);
    }
    const std::size_t k =
        eligible.size() < params_.byz_nodes ? eligible.size()
                                            : params_.byz_nodes;
    Rng rng = keyed_rng(params_.seed, kSelectTag, num_nodes, params_.byz_nodes);
    const std::vector<std::size_t> picks =
        rng.sample_without_replacement(eligible.size(), k);
    for (const std::size_t i : picks) {
      lying_[eligible[i]] = 1;
      ++num_lying_;
    }
    return;
  }

  // Per-node Bernoulli membership, counter-keyed per node id.
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (v == source && !params_.byz_source) continue;
    Rng rng = keyed_rng(params_.seed, kSelectTag, v, 0);
    if (rng.chance(params_.byz_rate)) {
      lying_[v] = 1;
      ++num_lying_;
    }
  }
}

void AdversaryPlan::observe(const Message& msg) {
  if (params_.replay_window == 0) return;
  const std::size_t pos =
      static_cast<std::size_t>(observed_ % params_.replay_window);
  if (pos < replay_.size()) {
    replay_[pos] = msg;
  } else {
    replay_.push_back(msg);
  }
  ++observed_;
}

AdversaryPlan::ForgeOutcome AdversaryPlan::forge(NodeId v, std::uint64_t group,
                                                 std::uint64_t link,
                                                 std::size_t degree,
                                                 Message& msg) {
  ForgeOutcome out;
  // One mix chain folds (node, group) into a single coordinate so the
  // two-slot keyed_rng can carry three dimensions.
  const std::uint64_t vg = mix64(static_cast<std::uint64_t>(v) ^ mix64(group));

  const bool forge_batch =
      params_.forge > 0 &&
      keyed_rng(params_.seed, kForgeTag, v, group).chance(params_.forge);
  if (forge_batch) {
    out.forged = true;
    // Equivocation decision is per logical send batch; when it fires, the
    // forged content is additionally keyed per link, so each neighbor in
    // the batch receives different content from the same transmission.
    out.equivocated =
        params_.equivocate > 0 &&
        keyed_rng(params_.seed, kEquivTag, v, group).chance(params_.equivocate);
    Rng content = keyed_rng(params_.seed, kContentTag, vg,
                            out.equivocated ? link + 1 : 0);
    switch (params_.strategy) {
      case ByzantineStrategy::kRandomBits: {
        constexpr MsgKind kKinds[] = {MsgKind::kSource, MsgKind::kHello,
                                      MsgKind::kControl};
        msg.kind = kKinds[content.below(3)];
        msg.payload = content.next_u64();
        msg.items.clear();
        break;
      }
      case ByzantineStrategy::kReplay: {
        if (!replay_.empty()) {
          // A stale genuine message, verbatim: correctly formatted, wrong
          // moment. Picked uniformly from the bounded buffer.
          msg = replay_[static_cast<std::size_t>(
              content.below(replay_.size()))];
          out.replayed = true;
        } else {
          // Nothing observed yet: degrade to random bits so an early
          // forger is not silently honest.
          msg.kind = MsgKind::kControl;
          msg.payload = content.next_u64();
          msg.items.clear();
        }
        break;
      }
      case ByzantineStrategy::kStructuredLie: {
        // A plausible-but-wrong structural claim: the payload becomes a
        // port/parent index in [0, degree) guaranteed to differ from the
        // genuine one when the degree allows, and a kSource mark (the "I
        // carry M" claim) is demoted to kHello — the node lies about the
        // tree AND about its informedness.
        const std::uint64_t span = degree == 0 ? 1 : degree;
        std::uint64_t claim = content.below(span);
        if (claim == msg.payload && span > 1) claim = (claim + 1) % span;
        msg.payload = claim;
        if (msg.kind == MsgKind::kSource) msg.kind = MsgKind::kHello;
        msg.items.clear();
        out.structured = true;
        break;
      }
    }
  }

  // Inconsistent advice: a persistent per-link payload distortion, keyed
  // on (seed, link) ONLY — no sequence, no group — so the same neighbor
  // always sees the same internally-consistent lie, and different
  // neighbors see divergent views. Applies on top of (or without) forging.
  if (params_.advice_lie > 0) {
    Rng lie = keyed_rng(params_.seed, kAdviceLieTag, link, 0);
    if (lie.chance(params_.advice_lie)) {
      // A small nonzero XOR mask: enough to misdirect port/parent claims
      // without turning the payload into an implausible 64-bit blob.
      msg.payload ^= 1 + lie.below(63);
      out.advice_lie = true;
    }
  }
  return out;
}

}  // namespace oraclesize
