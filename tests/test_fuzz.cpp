// Randomized end-to-end property sweep ("fuzz" suite).
//
// For a grid of seeds, draw a random connected network (random density,
// random port shuffle, random source) and check every paper invariant at
// once, under every scheduler:
//   * wakeup:    exactly n-1 messages, all informed, constraint clean;
//   * census:    2(n-1) messages, source output == n, all terminated;
//   * broadcast: <= 3(n-1) messages, all informed, M/hello budgets,
//                light-tree advice <= 10n bits;
//   * light tree: contribution <= 4n;
//   * anonymity: hiding ids changes nothing (checked via totals).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "bitio/codecs.h"
#include "core/broadcast_b.h"
#include "core/census.h"
#include "core/gossip.h"
#include "core/hybrid_wakeup.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/io.h"
#include "graph/light_tree.h"
#include "graph/spanning_tree.h"
#include "graph/validate.h"
#include "core/flooding.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/partial_tree_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "sim/execution_context.h"
#include "sim/sharded_engine.h"
#include "sim/trace_recorder.h"

namespace oraclesize {
namespace {

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, AllPaperInvariantsHold) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  const std::size_t n = 3 + static_cast<std::size_t>(rng.below(120));
  const double p = rng.unit() * 0.4;
  PortGraph g = make_random_connected(n, p, rng);
  if (rng.chance(0.5)) g = shuffle_ports(g, rng);
  const NodeId source = static_cast<NodeId>(rng.below(n));
  ASSERT_EQ(validate_ports(g), "");
  ASSERT_TRUE(is_connected(g));

  // Light-tree invariant.
  EXPECT_LE(light_tree(g, source).contribution, 4 * n);

  const SchedulerKind kinds[] = {
      SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
      SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
      SchedulerKind::kAsyncLinkFifo};
  const SchedulerKind sched = kinds[rng.below(5)];

  RunOptions opts;
  opts.scheduler = sched;
  opts.seed = seed;
  opts.max_delay = 1 + static_cast<std::uint32_t>(rng.below(64));
  opts.anonymous = rng.chance(0.5);

  // Wakeup.
  {
    const TaskReport r =
        run_task(g, source, TreeWakeupOracle(), WakeupTreeAlgorithm(), opts);
    ASSERT_TRUE(r.ok()) << "wakeup seed=" << seed << " " << r.summary();
    EXPECT_EQ(r.run.metrics.messages_total, n - 1);
  }
  // Census.
  {
    const TaskReport r =
        run_task(g, source, TreeWakeupOracle(), CensusAlgorithm(), opts);
    ASSERT_TRUE(r.ok()) << "census seed=" << seed << " " << r.summary();
    EXPECT_EQ(r.run.metrics.messages_total, 2 * (n - 1));
    EXPECT_EQ(r.run.outputs[source], n);
    for (NodeId v = 0; v < n; ++v) EXPECT_TRUE(r.run.terminated[v]);
  }
  // Broadcast scheme B.
  {
    const TaskReport r = run_task(g, source, LightBroadcastOracle(),
                                  BroadcastBAlgorithm(), opts);
    ASSERT_TRUE(r.ok()) << "broadcast seed=" << seed << " " << r.summary();
    EXPECT_LE(r.oracle_bits, 10 * n);
    EXPECT_LE(r.run.metrics.messages_source, 2 * (n - 1));
    EXPECT_LE(r.run.metrics.messages_hello, n - 1);
    EXPECT_LE(r.run.metrics.messages_total, 3 * (n - 1));
  }
  // Gossip: everyone learns the full label sum.
  {
    const TaskReport r = run_task(g, source, TreeWakeupOracle(),
                                  GossipTreeAlgorithm(), opts);
    ASSERT_TRUE(r.ok()) << "gossip seed=" << seed << " " << r.summary();
    EXPECT_EQ(r.run.metrics.messages_total, 3 * (n - 1));
    if (!opts.anonymous) {
      const std::uint64_t want =
          static_cast<std::uint64_t>(n) * (n + 1) / 2;
      for (NodeId v = 0; v < n; ++v) EXPECT_EQ(r.run.outputs[v], want);
    }
  }
  // Hybrid wakeup at a random advice fraction.
  {
    const double q = rng.unit();
    const TaskReport r = run_task(g, source, PartialTreeOracle(q, seed),
                                  HybridWakeupAlgorithm(), opts);
    ASSERT_TRUE(r.ok()) << "hybrid seed=" << seed << " q=" << q << " "
                        << r.summary();
    EXPECT_GE(r.run.metrics.messages_total, n - 1);
    EXPECT_LE(r.run.metrics.messages_total,
              2 * g.num_edges());  // never worse than double-flooding
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(0, 40));

// Sharded-engine property sweep: for a grid of seeds, draw a network,
// scheduler, fault plan, budgets, algorithm and shard count, and demand the
// sharded engine reproduce the single-threaded run bit for bit. Each case
// runs twice, without a sink and with a TraceRecorder, comparing the
// recorded event stream too. Paths, thin grids and caterpillars at up to 8
// shards leave most shards idle for many epochs, and message budgets, event
// budgets and extra delays cross the run at random points. This is the
// randomized counterpart of the pinned matrix in
// tests/test_sharded_goldens.cpp; between them the determinism contract is
// checked on both chosen and adversarially-random inputs.
class ShardedFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedFuzz, ShardedMatchesSingleThreaded) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 20260808);

  const std::size_t n = 4 + static_cast<std::size_t>(rng.below(110));
  PortGraph g;
  switch (rng.below(5)) {
    case 0:
      g = make_random_connected_sparse(
          n, static_cast<std::size_t>(rng.below(n)), rng);
      break;
    case 1:
      g = make_path(n);
      break;
    case 2:
      g = make_grid(2 + rng.below(3), 2 + n / 4);
      break;
    case 3:
      g = make_caterpillar(2 + n / 3, 2);
      break;
    default:
      g = make_random_connected(n, rng.unit() * 0.3, rng);
      break;
  }
  if (rng.chance(0.5)) g = shuffle_ports(g, rng);
  const std::size_t nodes = g.num_nodes();
  // A source at the first node floods the graph's far shards last.
  const NodeId source =
      rng.chance(0.5) ? 0 : static_cast<NodeId>(rng.below(nodes));

  const SchedulerKind kinds[] = {
      SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
      SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
      SchedulerKind::kAsyncLinkFifo};
  RunOptions opts;
  opts.scheduler = kinds[rng.below(5)];
  opts.seed = rng.below(1 << 20) + 1;
  opts.max_delay = 1 + static_cast<std::uint32_t>(rng.below(48));
  if (rng.chance(0.5)) {
    opts.fault.seed = rng.below(1 << 20) + 1;
    opts.fault.drop = rng.unit() * 0.1;
    opts.fault.duplicate = rng.chance(0.3) ? rng.unit() * 0.1 : 0.0;
    opts.fault.delay = rng.unit() * 0.5;
    opts.fault.max_extra_delay = 1 + static_cast<std::uint32_t>(rng.below(40));
    opts.fault.crash = rng.unit() * 0.05;
    opts.fault.advice_flip = rng.unit() * 0.05;
  }
  if (rng.chance(0.2)) opts.max_messages = 1 + rng.below(3 * nodes);
  if (rng.chance(0.1)) opts.max_events = 1 + rng.below(3 * nodes);
  const std::uint32_t shard_counts[] = {2, 3, 4, 5, 8};
  const std::uint32_t shards = shard_counts[rng.below(5)];

  // The wakeup scheme (advice-driven, enforced constraint), Broadcast B
  // (hello traffic beside M) or flooding (message-heavy, advice-free).
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup;
  const LightBroadcastOracle broadcast_oracle;
  const BroadcastBAlgorithm broadcast;
  const FloodingAlgorithm flooding;
  const std::uint64_t pick = rng.below(3);
  const Algorithm& algorithm =
      pick == 0   ? static_cast<const Algorithm&>(wakeup)
      : pick == 1 ? static_cast<const Algorithm&>(broadcast)
                  : static_cast<const Algorithm&>(flooding);
  const std::vector<BitString> advice =
      pick == 0   ? wakeup_oracle.advise(g, source)
      : pick == 1 ? broadcast_oracle.advise(g, source)
                  : std::vector<BitString>(nodes);
  opts.enforce_wakeup = algorithm.is_wakeup();

  auto traced = [&](auto& engine) {
    TraceRecorder recorder;
    RunOptions with_sink = opts;
    with_sink.trace_sink = &recorder;
    const RunResult result =
        engine.run(g, source, advice, algorithm, with_sink);
    return std::make_pair(result, recorder.take().digest());
  };
  const std::string where = "seed " + std::to_string(seed) + " shards " +
                            std::to_string(shards) + " sched " +
                            to_string(opts.scheduler) + " " + algorithm.name();
  ExecutionContext single;
  ShardedExecutionContext sharded(shards);
  const RunResult want = single.run(g, source, advice, algorithm, opts);
  EXPECT_EQ(sharded.run(g, source, advice, algorithm, opts), want)
      << where << " without a sink";
  const auto want_traced = traced(single);
  const auto got_traced = traced(sharded);
  EXPECT_EQ(got_traced.first, want_traced.first) << where << " with a sink";
  EXPECT_EQ(got_traced.second, want_traced.second) << where;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFuzz,
                         ::testing::Range<std::uint64_t>(0, 200));

// Storage-state property sweep: a frozen CSR graph and a never-frozen
// builder rebuild of the same edges must be observationally identical,
// and the counting-sort edge order must match the std::stable_sort it
// replaced (see tests/test_csr_graph.cpp for the deterministic
// per-family version of these properties).
class CsrFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrFuzz, FrozenMatchesBuilderAndSortIsStable) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x517cc1b727220a95ULL + 3);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.below(100));
  const double p = rng.unit() * 0.5;
  PortGraph g = make_random_connected(n, p, rng);
  if (rng.chance(0.5)) g = shuffle_ports(g, rng);
  ASSERT_TRUE(g.frozen());

  PortGraph b(g.num_nodes());
  for (const Edge& e : g.edges()) b.add_edge(e.u, e.port_u, e.v, e.port_v);
  ASSERT_FALSE(b.frozen());
  EXPECT_EQ(b.edges(), g.edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(b.degree(v), g.degree(v));
    ASSERT_EQ(g.degree_u(v), g.degree(v));
    const auto grow = g.neighbors(v);
    const auto brow = b.neighbors(v);
    ASSERT_EQ(grow.size(), brow.size());
    for (Port q = 0; q < grow.size(); ++q) {
      EXPECT_EQ(grow[q], brow[q]);
      EXPECT_EQ(g.neighbor_u(v, q), b.neighbor(v, q));
    }
  }

  std::vector<Edge> expect = g.edges();
  std::stable_sort(
      expect.begin(), expect.end(),
      [](const Edge& a, const Edge& c) { return a.weight() < c.weight(); });
  EXPECT_EQ(edges_by_weight(g), expect);
  EXPECT_EQ(edges_by_weight(b), expect);

  // Trees must not care about the storage state either.
  const NodeId root = static_cast<NodeId>(rng.below(n));
  const SpanningTree tg = bfs_tree(g, root);
  const SpanningTree tb = bfs_tree(b, root);
  const LightTreeResult lg = light_tree(g, root);
  const LightTreeResult lb = light_tree(b, root);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(tg.parent(v), tb.parent(v));
    EXPECT_EQ(tg.port_to_parent(v), tb.port_to_parent(v));
    EXPECT_EQ(lg.tree.parent(v), lb.tree.parent(v));
    EXPECT_TRUE(
        std::ranges::equal(lg.tree.child_ports(v), lb.tree.child_ports(v)));
  }
  EXPECT_EQ(lg.contribution, lb.contribution);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrFuzz,
                         ::testing::Range<std::uint64_t>(0, 30));

// Loader fuzz: mutated serializations must either parse into a graph that
// passes validate_ports, or throw GraphParseError — never assert, loop,
// exhaust memory, or hand back a structurally broken graph.
class LoaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoaderFuzz, MutatedInputParsesCleanlyOrThrowsStructured) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);

  const std::size_t n = 3 + static_cast<std::size_t>(rng.below(40));
  const PortGraph g = make_random_connected(n, rng.unit() * 0.3, rng);
  std::string text = to_text(g);

  // A tight node cap so even "fix one digit" mutations that inflate the
  // header are rejected cheaply instead of allocating.
  const ParseLimits limits{/*max_nodes=*/10'000};

  // The unmutated round trip must survive the hardened parser.
  EXPECT_EQ(validate_ports(from_text(text, limits)), "");

  const std::size_t mutations = 1 + static_cast<std::size_t>(rng.below(8));
  for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
    switch (rng.below(7)) {
      case 0:  // flip one character to random printable junk
        text[rng.below(text.size())] =
            static_cast<char>(' ' + rng.below(95));
        break;
      case 1:  // truncate mid-file
        text.resize(rng.below(text.size()) + 1);
        break;
      case 2: {  // duplicate a random chunk (repeated edges/headers)
        const std::size_t at = rng.below(text.size());
        const std::size_t len =
            std::min<std::size_t>(text.size() - at, 1 + rng.below(40));
        text.insert(at, text.substr(at, len));
        break;
      }
      case 3:  // splice in a hostile line
        text += (rng.chance(0.5) ? "\nportgraph 4000000000\n"
                                 : "\nedge 0 -1 1 999999999\n");
        break;
      case 4: {  // delete a random chunk
        const std::size_t at = rng.below(text.size());
        const std::size_t len =
            std::min<std::size_t>(text.size() - at, 1 + rng.below(20));
        text.erase(at, len);
        break;
      }
      case 5:  // overwrite one byte with any byte: NUL, controls, >= 0x80
        text[rng.below(text.size())] = static_cast<char>(rng.below(256));
        break;
      case 6: {  // insert a separator a tokenizer may misclassify
        static constexpr char kSeparators[] = {' ',  '\t', '\n', '\v',
                                               '\f', '\r', '#'};
        text.insert(rng.below(text.size() + 1), 1,
                    kSeparators[rng.below(sizeof kSeparators)]);
        break;
      }
    }
  }

  try {
    const PortGraph parsed = from_text(text, limits);
    // Accepted input must yield a structurally sound graph within limits.
    EXPECT_EQ(validate_ports(parsed), "");
    EXPECT_LE(parsed.num_nodes(), limits.max_nodes);
  } catch (const GraphParseError& e) {
    // Structured rejection: line context present for line-level failures,
    // and the what() string embeds the same diagnostic.
    EXPECT_FALSE(e.detail().empty());
    EXPECT_NE(std::string(e.what()).find(e.detail()), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoaderFuzz,
                         ::testing::Range<std::uint64_t>(0, 60));

// Property-based codec sweep: every self-delimiting code must round-trip
// any value, report its cost exactly, consume exactly its own bits from a
// longer stream, and reject truncation with the documented exception —
// over 10k seeded values stretched across all 64 magnitudes.

/// Draws a value whose bit width is uniform in [1, 64] (plain next_u64()
/// would almost never produce small values, and small values are where the
/// terminator logic lives).
std::uint64_t stretched_value(Rng& rng) {
  const int width = 1 + static_cast<int>(rng.below(64));
  const std::uint64_t mask =
      width == 64 ? ~0ULL : ((std::uint64_t{1} << width) - 1);
  return rng.next_u64() & mask;
}

TEST(CodecProperties, DoubledBitRoundTrip10k) {
  Rng rng(0xd0b1edULL);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = stretched_value(rng);
    BitString bits;
    append_doubled(bits, v);
    ASSERT_EQ(bits.size(),
              static_cast<std::size_t>(doubled_length(v)))
        << "v=" << v;
    BitReader r(bits);
    ASSERT_EQ(read_doubled(r), v) << "v=" << v;
    ASSERT_TRUE(r.exhausted()) << "v=" << v;
  }
}

TEST(CodecProperties, EliasGammaDeltaRoundTrip10k) {
  Rng rng(0xe11a5ULL);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = stretched_value(rng) | 1;  // gamma/delta: v >= 1
    BitString gamma;
    append_elias_gamma(gamma, v);
    ASSERT_EQ(gamma.size(),
              static_cast<std::size_t>(elias_gamma_length(v)))
        << "v=" << v;
    BitReader gr(gamma);
    ASSERT_EQ(read_elias_gamma(gr), v) << "v=" << v;
    ASSERT_TRUE(gr.exhausted());

    BitString delta;
    append_elias_delta(delta, v);
    ASSERT_EQ(delta.size(),
              static_cast<std::size_t>(elias_delta_length(v)))
        << "v=" << v;
    BitReader dr(delta);
    ASSERT_EQ(read_elias_delta(dr), v) << "v=" << v;
    ASSERT_TRUE(dr.exhausted());
  }
}

TEST(CodecProperties, MixedStreamSelfDelimits) {
  // Concatenate a random interleaving of all three codes into ONE string;
  // each decoder must stop exactly at its own boundary.
  Rng rng(0x5e1fde1ULL);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::pair<int, std::uint64_t>> plan;
    BitString bits;
    const std::size_t k = 1 + rng.below(20);
    for (std::size_t j = 0; j < k; ++j) {
      const int codec = static_cast<int>(rng.below(3));
      std::uint64_t v = stretched_value(rng);
      if (codec != 0) v |= 1;
      plan.emplace_back(codec, v);
      if (codec == 0) {
        append_doubled(bits, v);
      } else if (codec == 1) {
        append_elias_gamma(bits, v);
      } else {
        append_elias_delta(bits, v);
      }
    }
    BitReader r(bits);
    for (const auto& [codec, v] : plan) {
      const std::uint64_t got = codec == 0   ? read_doubled(r)
                                : codec == 1 ? read_elias_gamma(r)
                                             : read_elias_delta(r);
      ASSERT_EQ(got, v) << "round=" << round;
    }
    ASSERT_TRUE(r.exhausted()) << "round=" << round;
  }
}

TEST(CodecProperties, TruncatedStreamsThrow10k) {
  // Every proper prefix of a valid code word must throw std::out_of_range
  // (exhausted mid-read) — never return a value or touch memory. Sweeping
  // every prefix of ~3.3k words visits well over 10k truncated streams.
  Rng rng(0x7au);
  int streams = 0;
  for (int i = 0; i < 1'000; ++i) {
    for (int codec = 0; codec < 3; ++codec) {
      std::uint64_t v = stretched_value(rng);
      if (codec != 0) v |= 1;
      BitString bits;
      if (codec == 0) {
        append_doubled(bits, v);
      } else if (codec == 1) {
        append_elias_gamma(bits, v);
      } else {
        append_elias_delta(bits, v);
      }
      for (std::size_t cut = 0; cut < bits.size(); ++cut) {
        BitString prefix;
        for (std::size_t b = 0; b < cut; ++b) prefix.append_bit(bits.bit(b));
        BitReader r(prefix);
        const auto read = [&] {
          return codec == 0   ? read_doubled(r)
                 : codec == 1 ? read_elias_gamma(r)
                              : read_elias_delta(r);
        };
        ++streams;
        // A truncated gamma/delta prefix of all zeros would decode as an
        // unterminated length field; every such mid-word cut must throw.
        EXPECT_THROW(read(), std::out_of_range)
            << "codec=" << codec << " v=" << v << " cut=" << cut;
      }
    }
  }
  EXPECT_GT(streams, 10'000);
}

TEST(CodecProperties, PortAndWeightListRoundTrip) {
  Rng rng(0x9027ULL);
  for (int i = 0; i < 2'000; ++i) {
    const int width = 1 + static_cast<int>(rng.below(16));
    std::vector<std::uint64_t> ports(rng.below(12));
    for (std::uint64_t& p : ports) {
      p = rng.below(std::uint64_t{1} << width);
    }
    const BitString bits = encode_port_list(ports, width);
    EXPECT_EQ(decode_port_list(bits), ports) << "i=" << i;

    std::vector<std::uint64_t> weights(rng.below(10));
    for (std::uint64_t& w : weights) w = stretched_value(rng);
    const BitString packed = encode_weight_list(weights);
    EXPECT_EQ(decode_weight_list(packed), weights) << "i=" << i;
  }
}

TEST(CodecProperties, PortListTruncationRejected) {
  // decode_port_list promises: leftover or missing bits raise
  // std::invalid_argument (whole-string consumption), truncation inside a
  // code word surfaces as out_of_range. Either way: a structured throw.
  Rng rng(0x7277ULL);
  int rejected = 0;
  for (int i = 0; i < 500; ++i) {
    const int width = 2 + static_cast<int>(rng.below(10));
    std::vector<std::uint64_t> ports(1 + rng.below(8));
    for (std::uint64_t& p : ports) p = rng.below(std::uint64_t{1} << width);
    const BitString bits = encode_port_list(ports, width);
    const std::size_t cut = rng.below(bits.size());
    BitString prefix;
    for (std::size_t b = 0; b < cut; ++b) prefix.append_bit(bits.bit(b));
    try {
      const std::vector<std::uint64_t> out = decode_port_list(prefix);
      // A prefix that happens to be a valid encoding must decode to a
      // strictly shorter list (never garbage beyond the original).
      ASSERT_LE(out.size(), ports.size());
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::out_of_range&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace oraclesize
