// Differential fuzz of the graph text reader against the sequential
// reference reader (graph_text_reference.h).
//
// The reader parses in two phases: every line into edge records, then one
// counting build of the CSR, so it finds an occupied port, a hole or a
// parallel edge later than a reader that applies each line as it goes.
// These tests hold it to the sequential reader's outcome anyway: for every
// text, from_text, read_port_graph and the reference must give the same
// canonical graph or the same GraphParseError line and detail. The texts
// are seeded mutations of random graphs: LoaderFuzz's byte mutations plus
// label lines, swapped lines, extra edge lines (some with trailing junk,
// so an occupied port, a syntax error and a self-loop meet in every
// order) and edges on the next free ports (new ones or parallel ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builders.h"
#include "graph/io.h"
#include "graph_text_reference.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

/// "accept\n" + the canonical text, or "reject line L: detail".
std::string outcome(const std::function<PortGraph()>& parse) {
  try {
    return "accept\n" + to_text(parse());
  } catch (const GraphParseError& e) {
    return "reject line " + std::to_string(e.line()) + ": " + e.detail();
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type begin = 0;
  while (begin <= text.size()) {
    const std::string::size_type eol = text.find('\n', begin);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, eol - begin));
    begin = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

/// A number for a mutated line: usually a valid node or port, sometimes
/// one past the end, now and then a token no reader may accept.
std::string field(Rng& rng, std::size_t n) {
  switch (rng.below(10)) {
    case 0:
      return std::to_string(n);
    case 1: {
      static const char* const kJunk[] = {"x", "-1", "", "0x1", "99999999999"};
      return kJunk[rng.below(5)];
    }
    default:
      return std::to_string(rng.below(n));
  }
}

/// One seeded text: a random graph's canonical text, mutated.
std::string mutated_text(Rng& rng) {
  const std::size_t n = 3 + static_cast<std::size_t>(rng.below(40));
  PortGraph g = make_random_connected(n, rng.unit() * 0.3, rng);
  if (rng.chance(0.5)) g = shuffle_ports(g, rng);
  std::string text = to_text(g);
  std::vector<std::size_t> degree(n);
  for (NodeId v = 0; v < n; ++v) degree[v] = g.degree(v);
  const std::size_t mutations = 1 + static_cast<std::size_t>(rng.below(4));
  for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
    switch (rng.below(14)) {
      // LoaderFuzz's byte mutations.
      case 0:
        text[rng.below(text.size())] =
            static_cast<char>(' ' + rng.below(95));
        break;
      case 1:
        text.resize(rng.below(text.size()) + 1);
        break;
      case 2: {
        const std::size_t at = rng.below(text.size());
        const std::size_t len =
            std::min<std::size_t>(text.size() - at, 1 + rng.below(40));
        text.insert(at, text.substr(at, len));
        break;
      }
      case 3:
        text += (rng.chance(0.5) ? "\nportgraph 4000000000\n"
                                 : "\nedge 0 -1 1 999999999\n");
        break;
      case 4: {
        const std::size_t at = rng.below(text.size());
        const std::size_t len =
            std::min<std::size_t>(text.size() - at, 1 + rng.below(20));
        text.erase(at, len);
        break;
      }
      case 5:
        text[rng.below(text.size())] = static_cast<char>(rng.below(256));
        break;
      case 6: {
        static constexpr char kSeparators[] = {' ',  '\t', '\n', '\v',
                                               '\f', '\r', '#'};
        text.insert(rng.below(text.size() + 1), 1,
                    kSeparators[rng.below(sizeof kSeparators)]);
        break;
      }
      // Line mutations.
      case 7: {  // a label line: a fresh label, or one a node already has
        std::vector<std::string> lines = split_lines(text);
        const Label label = rng.chance(0.5) ? 1 + rng.below(n + 1)
                                            : rng.next_u64();
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         1 + rng.below(lines.size())),
                     "label " + field(rng, n) + " " + std::to_string(label));
        text = join_lines(lines);
        break;
      }
      case 8: {  // swap two lines
        std::vector<std::string> lines = split_lines(text);
        std::swap(lines[rng.below(lines.size())],
                  lines[rng.below(lines.size())]);
        text = join_lines(lines);
        break;
      }
      case 9:
      case 10: {  // an extra edge line, maybe on taken ports or junk-tailed
        std::vector<std::string> lines = split_lines(text);
        std::string line = "edge " + field(rng, n) + " " + field(rng, n) +
                           " " + field(rng, n) + " " + field(rng, n);
        if (rng.chance(0.3)) line += rng.chance(0.5) ? " x" : " 0";
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(lines.size() + 1)),
                     line);
        text = join_lines(lines);
        break;
      }
      case 11: {  // repeat an existing line elsewhere, with trailing junk
        std::vector<std::string> lines = split_lines(text);
        std::string line = lines[rng.below(lines.size())];
        if (rng.chance(0.5)) line += " junk";
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(lines.size() + 1)),
                     line);
        text = join_lines(lines);
        break;
      }
      case 12:
      case 13: {  // an edge on the next free ports: new, or a parallel edge
        const NodeId u = static_cast<NodeId>(rng.below(n));
        const NodeId v = static_cast<NodeId>((u + 1 + rng.below(n - 1)) % n);
        text += "\nedge " + std::to_string(u) + " " +
                std::to_string(degree[u]++) + " " + std::to_string(v) + " " +
                std::to_string(degree[v]++) + "\n";
        break;
      }
    }
  }
  return text;
}

class GraphTextDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphTextDiff, ReaderMatchesSequentialReference) {
  constexpr std::uint64_t kTextsPerShard = 750;
  const ParseLimits limits{/*max_nodes=*/10'000};
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < kTextsPerShard; ++i) {
    const std::uint64_t seed = GetParam() * kTextsPerShard + i;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
    const std::string text = mutated_text(rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string expected =
        outcome([&] { return reference::from_text(text, limits); });
    ASSERT_EQ(outcome([&] { return from_text(text, limits); }), expected);
    ASSERT_EQ(outcome([&] {
                std::istringstream is(text);
                return read_port_graph(is, limits);
              }),
              expected);
    if (expected.starts_with("accept")) ++accepted;
  }
  // The mutations must leave some texts valid, or acceptance goes untested.
  EXPECT_GT(accepted, kTextsPerShard / 25);
}

// 8 shards x 750 texts = 6,000 texts.
INSTANTIATE_TEST_SUITE_P(Shards, GraphTextDiff,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace oraclesize
