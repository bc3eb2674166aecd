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
// A second part mutates texts of several MiB on and next to the cuts of
// the reader's chunked scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/io.h"
#include "graph_text_reference.h"
#include "util/rng.h"

namespace oraclesize {
namespace {

/// The line that holds byte `at`: [begin, end), without its '\n'.
std::pair<std::size_t, std::size_t> line_at(const std::string& text,
                                            std::size_t at) {
  const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
  return {begin, std::min(text.find('\n', at), text.size())};
}

/// Inserts `line` and a '\n' before the line that holds byte `at`.
void insert_line(std::string& text, std::size_t at, const std::string& line) {
  text.insert(line_at(text, at).first, line + '\n');
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

/// A graph's canonical text and its degrees, for the mutations to extend.
struct BaseText {
  std::string text;
  std::size_t n;
  std::vector<std::size_t> degree;
};

BaseText base_text(const PortGraph& g) {
  BaseText b{to_text(g), g.num_nodes(), {}};
  for (NodeId v = 0; v < b.n; ++v) b.degree.push_back(g.degree(v));
  return b;
}

/// Applies 1 to `most` seeded mutations to `b.text`, each at a byte
/// `at(text)` picks: LoaderFuzz's byte mutations plus line mutations.
template <typename At>
void mutate(BaseText& b, Rng& rng, std::size_t most, At at) {
  std::string& text = b.text;
  const std::size_t n = b.n;
  const std::size_t mutations = 1 + static_cast<std::size_t>(rng.below(most));
  for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
    const std::size_t pos = at(text);
    switch (rng.below(14)) {
      // LoaderFuzz's byte mutations.
      case 0:
        text[pos] = static_cast<char>(' ' + rng.below(95));
        break;
      case 1:
        text.resize(pos + 1);
        break;
      case 2: {
        const std::size_t len =
            std::min<std::size_t>(text.size() - pos, 1 + rng.below(40));
        text.insert(pos, text.substr(pos, len));
        break;
      }
      case 3:
        insert_line(text, pos,
                    rng.chance(0.5) ? "portgraph 4000000000"
                                    : "edge 0 -1 1 999999999");
        break;
      case 4: {
        const std::size_t len =
            std::min<std::size_t>(text.size() - pos, 1 + rng.below(20));
        text.erase(pos, len);
        break;
      }
      case 5:
        text[pos] = static_cast<char>(rng.below(256));
        break;
      case 6: {
        static constexpr char kSeparators[] = {' ',  '\t', '\n', '\v',
                                               '\f', '\r', '#'};
        text.insert(pos, 1, kSeparators[rng.below(sizeof kSeparators)]);
        break;
      }
      // Line mutations.
      case 7: {  // a label line: a fresh label, or one a node already has
        const Label label = rng.chance(0.5) ? 1 + rng.below(n + 1)
                                            : rng.next_u64();
        insert_line(text, pos,
                    "label " + field(rng, n) + " " + std::to_string(label));
        break;
      }
      case 8: {  // swap two lines
        auto [a0, a1] = line_at(text, pos);
        auto [b0, b1] = line_at(text, at(text));
        if (a0 > b0) {
          std::swap(a0, b0);
          std::swap(a1, b1);
        }
        if (a0 == b0) break;
        text = text.substr(0, a0) + text.substr(b0, b1 - b0) +
               text.substr(a1, b0 - a1) + text.substr(a0, a1 - a0) +
               text.substr(b1);
        break;
      }
      case 9:
      case 10: {  // an extra edge line, maybe on taken ports or junk-tailed
        std::string line = "edge " + field(rng, n) + " " + field(rng, n) +
                           " " + field(rng, n) + " " + field(rng, n);
        if (rng.chance(0.3)) line += rng.chance(0.5) ? " x" : " 0";
        insert_line(text, pos, line);
        break;
      }
      case 11: {  // repeat an existing line elsewhere, with trailing junk
        const auto [begin, end] = line_at(text, pos);
        std::string line = text.substr(begin, end - begin);
        if (rng.chance(0.5)) line += " junk";
        insert_line(text, at(text), line);
        break;
      }
      case 12:
      case 13: {  // an edge on the next free ports: new, or a parallel edge
        const NodeId u = static_cast<NodeId>(rng.below(n));
        const NodeId v = static_cast<NodeId>((u + 1 + rng.below(n - 1)) % n);
        insert_line(text, pos,
                    "edge " + std::to_string(u) + " " +
                        std::to_string(b.degree[u]++) + " " +
                        std::to_string(v) + " " +
                        std::to_string(b.degree[v]++));
        break;
      }
    }
  }
}

/// One seeded text: a random graph's canonical text, mutated anywhere.
std::string mutated_text(Rng& rng) {
  const std::size_t n = 3 + static_cast<std::size_t>(rng.below(40));
  PortGraph g = make_random_connected(n, rng.unit() * 0.3, rng);
  if (rng.chance(0.5)) g = shuffle_ports(g, rng);
  BaseText b = base_text(g);
  mutate(b, rng, 4, [&](const std::string& text) {
    return static_cast<std::size_t>(rng.below(text.size()));
  });
  return std::move(b.text);
}

/// Where the chunks after the first begin, by the split rule of a text of
/// 2 MiB or more (graph/io.h): after the first '\n' at or past each 512
/// KiB of the lines after the header, taken here as the first line.
std::vector<std::size_t> chunk_cuts(const std::string& text) {
  constexpr std::size_t kChunkBytes = std::size_t{1} << 19;
  std::vector<std::size_t> cuts;
  for (std::size_t begin = text.find('\n') + 1;
       begin > 0 && begin + kChunkBytes <= text.size();) {
    const std::size_t eol = text.find('\n', begin + kChunkBytes - 1);
    if (eol == std::string::npos || eol + 1 == text.size()) break;
    cuts.push_back(eol + 1);
    begin = eol + 1;
  }
  return cuts;
}

/// Two multi-MiB canonical texts with shuffled ports: K*_512, and a
/// complete bipartite graph whose sides may gain edges that are not
/// parallel. 2.5 to 4.5 MB each.
std::vector<BaseText> chunked_bases(Rng& rng) {
  std::vector<BaseText> bases;
  bases.push_back(base_text(shuffle_ports(make_complete_star(512), rng)));
  bases.push_back(base_text(shuffle_ports(
      make_complete_bipartite(350 + rng.below(100), 350 + rng.below(100)),
      rng)));
  return bases;
}

/// One seeded text: a base, mutated once or twice, each time at a chunk
/// cut or within 32 bytes of one.
std::string mutated_chunked_text(BaseText b, Rng& rng) {
  mutate(b, rng, 2, [&](const std::string& text) {
    const std::vector<std::size_t> cuts = chunk_cuts(text);
    const std::size_t cut =
        cuts.empty() ? text.size() / 2 : cuts[rng.below(cuts.size())];
    if (rng.chance(0.5)) return std::min(cut, text.size() - 1);
    const std::size_t from = cut < 32 ? 0 : cut - 32;
    return std::min(from + static_cast<std::size_t>(rng.below(65)),
                    text.size() - 1);
  });
  return std::move(b.text);
}

/// Holds from_text and read_port_graph to the reference on one text.
/// Returns whether the reference accepts it.
bool matches_reference(const std::string& text, const ParseLimits& limits) {
  using reference::outcome;
  const std::string expected =
      outcome([&] { return reference::from_text(text, limits); });
  EXPECT_EQ(outcome([&] { return from_text(text, limits); }), expected);
  EXPECT_EQ(outcome([&] {
              std::istringstream is(text);
              return read_port_graph(is, limits);
            }),
            expected);
  return expected.starts_with("accept");
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
    accepted += matches_reference(text, limits);
    if (HasFailure()) return;
  }
  // The mutations must leave some texts valid, or acceptance goes untested.
  EXPECT_GT(accepted, kTextsPerShard / 25);
}

// 8 shards x 750 texts = 6,000 texts.
INSTANTIATE_TEST_SUITE_P(Shards, GraphTextDiff,
                         ::testing::Range<std::uint64_t>(0, 8));

// Texts of 2 MiB or more take the chunked scan. These are mutated on and
// next to the chunk cuts, so a bad line, a second header or a line that
// joins two others lands in either chunk of a cut.
class GraphTextDiffChunks : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphTextDiffChunks, MultiChunkReaderMatchesSequentialReference) {
  constexpr std::uint64_t kTextsPerShard = 40;
  Rng base_rng(GetParam() * 0x9e3779b97f4a7c15ULL + 0xc4);
  const std::vector<BaseText> bases = chunked_bases(base_rng);
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < kTextsPerShard; ++i) {
    const std::uint64_t seed = GetParam() * kTextsPerShard + i;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc5);
    const std::string text =
        mutated_chunked_text(bases[rng.below(bases.size())], rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    accepted += matches_reference(text, ParseLimits{});
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, 0u);
}

// 4 shards x 40 texts = 160 texts.
INSTANTIATE_TEST_SUITE_P(Shards, GraphTextDiffChunks,
                         ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace oraclesize
