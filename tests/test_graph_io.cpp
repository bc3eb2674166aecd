#include "graph/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/validate.h"
#include "graph_text_reference.h"

namespace oraclesize {
namespace {

void expect_same_graph(const PortGraph& a, const PortGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.label(v), b.label(v));
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (Port p = 0; p < a.degree(v); ++p) {
      EXPECT_EQ(a.neighbor(v, p), b.neighbor(v, p));
    }
  }
}

TEST(GraphIo, RoundTripSmall) {
  const PortGraph g = make_cycle(5);
  expect_same_graph(g, from_text(to_text(g)));
}

TEST(GraphIo, RoundTripEveryFamily) {
  Rng rng(61);
  expect_same_graph(make_path(1), from_text(to_text(make_path(1))));
  expect_same_graph(make_grid(4, 7), from_text(to_text(make_grid(4, 7))));
  expect_same_graph(make_complete_star(9),
                    from_text(to_text(make_complete_star(9))));
  const PortGraph shuffled =
      shuffle_ports(make_random_connected(30, 0.2, rng), rng);
  expect_same_graph(shuffled, from_text(to_text(shuffled)));
}

TEST(GraphIo, RoundTripCustomLabels) {
  PortGraph g = make_path(3);
  g.set_label(0, 100);
  g.set_label(2, 7);
  const PortGraph h = from_text(to_text(g));
  EXPECT_EQ(h.label(0), 100u);
  EXPECT_EQ(h.label(1), 2u);
  EXPECT_EQ(h.label(2), 7u);
}

TEST(GraphIo, ParsesCommentsAndBlankLines) {
  const std::string text =
      "# a triangle\n"
      "portgraph 3\n"
      "\n"
      "edge 0 0 1 0   # first edge\n"
      "edge 1 1 2 0\n"
      "edge 2 1 0 1\n";
  const PortGraph g = from_text(text);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(validate_ports(g), "");
}

TEST(GraphIo, RejectsMissingHeader) {
  EXPECT_THROW(from_text("edge 0 0 1 0\n"), std::invalid_argument);
  EXPECT_THROW(from_text("# nothing\n"), std::invalid_argument);
}

TEST(GraphIo, RejectsDuplicateHeader) {
  EXPECT_THROW(from_text("portgraph 2\nportgraph 2\n"),
               std::invalid_argument);
}

TEST(GraphIo, RejectsUnknownKeyword) {
  EXPECT_THROW(from_text("portgraph 2\nvertex 0\n"), std::invalid_argument);
}

TEST(GraphIo, RejectsMalformedEdge) {
  EXPECT_THROW(from_text("portgraph 2\nedge 0 0 1\n"), std::invalid_argument);
  EXPECT_THROW(from_text("portgraph 2\nedge 0 0 9 0\n"),
               std::invalid_argument);
  // Occupied port reported with the offending line.
  EXPECT_THROW(from_text("portgraph 3\nedge 0 0 1 0\nedge 0 0 2 0\n"),
               std::invalid_argument);
}

TEST(GraphIo, RejectsTrailingTokens) {
  EXPECT_THROW(from_text("portgraph 2 extra\n"), std::invalid_argument);
  EXPECT_THROW(from_text("portgraph 2\nedge 0 0 1 0 junk\n"),
               std::invalid_argument);
}

TEST(GraphIo, RejectsOutOfRangeLabelNode) {
  EXPECT_THROW(from_text("portgraph 2\nlabel 5 77\n"), std::invalid_argument);
}

TEST(GraphIo, ErrorsCarryLineNumbers) {
  try {
    from_text("portgraph 2\n\nedge 0 0 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

// Exact outcomes of hostile texts. A text that parses is pinned by its
// canonical to_text; a rejected one by GraphParseError::line() and
// detail(). Each case runs through both from_text and read_port_graph.
struct TextCase {
  const char* name;
  std::string text;
  std::string canonical;  // empty: the text must be rejected
  std::size_t line;
  std::string detail;
};

void expect_case(const TextCase& c, const std::function<PortGraph()>& parse,
                 const char* path) {
  SCOPED_TRACE(std::string(c.name) + " via " + path);
  try {
    const PortGraph g = parse();
    EXPECT_FALSE(c.canonical.empty()) << "accepted a text it must reject";
    EXPECT_EQ(to_text(g), c.canonical);
  } catch (const GraphParseError& e) {
    EXPECT_TRUE(c.canonical.empty()) << "rejected: " << e.what();
    EXPECT_EQ(e.line(), c.line);
    EXPECT_EQ(e.detail(), c.detail);
  }
}

TEST(GraphIo, HostileTextsHaveExactOutcomes) {
  using namespace std::string_literals;
  constexpr const char kEdge01[] = "portgraph 2\nedge 0 0 1 0\n";
  const TextCase cases[] = {
      // Separators: the classic-locale whitespace set splits tokens; only
      // '\n' ends a line.
      {"tab", "portgraph\t2\nedge\t0 0\t1\t0\n", kEdge01, 0, ""},
      {"crlf", "portgraph 2\r\nedge 0 0 1 0\r\n", kEdge01, 0, ""},
      {"vtab", "portgraph\v2\nedge 0\v0 1 0\v\n", kEdge01, 0, ""},
      {"formfeed", "\fportgraph 2\f\nedge\f0 0 1 0\n", kEdge01, 0, ""},
      {"cr_is_not_a_line_break", "portgraph 2\redge 0 0 1 0\n", "", 1,
       "trailing tokens"},
      {"vtab_is_not_a_line_break", "portgraph 2\vedge 0 0 1 0\n", "", 1,
       "trailing tokens"},
      {"whitespace_only_lines", " \t\r\nportgraph 1\n\v\f\n", "portgraph 1\n",
       0, ""},
      // Token bytes.
      {"hash_glued_to_token", "portgraph 2#c\nedge 0 0 1 0#x\n", kEdge01, 0,
       ""},
      {"hash_inside_keyword", "por#tgraph 2\n", "", 1, "unknown keyword 'por'"},
      {"hash_cuts_a_field", "portgraph 2\nedge 0 0 1#0\n", "", 2,
       "bad edge port (expected an unsigned integer, got '')"},
      {"nul_in_token", "portgraph 2\nedge 0 0\0 1 0\n"s, "", 2,
       "bad edge port (expected an unsigned integer, got '0\0')"s},
      {"nul_keyword", "\0\n"s, "", 1, "unknown keyword '\0'"s},
      {"high_byte_in_number", "portgraph 2\nedge 0 0 1 \xff\n", "", 2,
       "bad edge port (expected an unsigned integer, got '\xff')"},
      {"nbsp_is_not_whitespace", "portgraph\xa0" "2\n", "", 1,
       "unknown keyword 'portgraph\xa0" "2'"},
      // Number forms: digits only, no sign, no base prefix, no overflow.
      {"minus", "portgraph -5\n", "", 1,
       "bad node count (expected an unsigned integer, got '-5')"},
      {"plus", "portgraph +5\n", "", 1,
       "bad node count (expected an unsigned integer, got '+5')"},
      {"hex", "portgraph 0x10\n", "", 1,
       "bad node count (expected an unsigned integer, got '0x10')"},
      {"overflow", "portgraph 2\nlabel 0 18446744073709551616\n", "", 2,
       "bad label value (expected an unsigned integer, got "
       "'18446744073709551616')"},
      {"max_label_is_out_of_range",
       "portgraph 2\nlabel 0 18446744073709551615\n", "", 2,
       "label value 18446744073709551615 out of range ()"},
      {"leading_zeros", "portgraph 002\nedge 00 0 1 000\nlabel 1 07\n",
       "portgraph 2\nlabel 1 7\nedge 0 0 1 0\n", 0, ""},
      {"node_count_over_limit", "portgraph 16777217\n", "", 1,
       "node count 16777217 out of range (exceeds ParseLimits::max_nodes)"},
      // File structure.
      {"no_final_newline", "portgraph 2\nedge 0 0 1 0", kEdge01, 0, ""},
      {"error_on_unterminated_last_line", "portgraph 2\nedge 0 0 1", "", 2,
       "bad edge port (expected an unsigned integer, got '')"},
      {"edge_before_header", "edge 0 0 1 0\nportgraph 2\n", "", 1,
       "edge before header"},
      {"label_before_header", "# c\nlabel 0 5\n", "", 2, "label before header"},
      {"duplicate_header", "portgraph 2\n\nportgraph 2\n", "", 3,
       "duplicate header"},
      {"empty_text", "", "", 0, "missing header"},
      {"comments_only", "# a\n\n#b", "", 0, "missing header"},
      {"unknown_keyword", "portgraph 2\nvertex 0\n", "", 2,
       "unknown keyword 'vertex'"},
      {"trailing_token", "portgraph 2 x\n", "", 1, "trailing tokens"},
      {"label_node_out_of_range", "portgraph 2\nlabel 5 77\n", "", 2,
       "label node 5 out of range (not a node)"},
      {"endpoint_out_of_range", "portgraph 2\nedge 0 0 9 0\n", "", 2,
       "edge endpoint 9 out of range (not a node)"},
      {"port_out_of_range", "portgraph 2\nedge 0 2 1 0\n", "", 2,
       "edge port 2 out of range (port >= num nodes)"},
      // Edge and whole-graph checks.
      {"occupied_port", "portgraph 3\nedge 0 0 1 0\nedge 0 0 2 0\n", "", 3,
       "add_edge: port already occupied"},
      {"self_loop", "portgraph 2\nedge 1 0 1 1\n", "", 2,
       "add_edge: self-loop"},
      {"port_hole", "portgraph 3\nedge 0 1 1 0\nedge 0 2 2 0\n", "", 0,
       "invalid graph: node 0 has a vacant port 0 below degree 3"},
      {"parallel_edge", "portgraph 2\nedge 0 0 1 0\nedge 0 1 1 1\n", "", 0,
       "invalid graph: parallel edge between 0 and 1"},
      {"duplicate_label", "portgraph 3\nlabel 2 1\nedge 0 0 1 0\n", "", 0,
       "invalid graph: duplicate label 1 at node 2"},
      {"label_checked_before_a_later_hole",
       "portgraph 3\nlabel 1 1\nedge 2 1 0 0\n", "", 0,
       "invalid graph: duplicate label 1 at node 1"},
      {"hole_checked_before_a_later_label",
       "portgraph 3\nlabel 2 1\nedge 0 1 1 0\n", "", 0,
       "invalid graph: node 0 has a vacant port 0 below degree 2"},
      // Orders a reader that checks slots after reading every line must
      // still get right: a line's occupied port before its own trailing
      // tokens and before any later line, a self-loop before trailing
      // tokens, the last of two labels, and a parallel edge before a hole
      // at a higher port of the same node.
      {"occupied_port_before_own_trailing_tokens",
       "portgraph 3\nedge 0 0 1 0\nedge 0 0 2 0 x\n", "", 3,
       "add_edge: port already occupied"},
      {"self_loop_before_trailing_tokens", "portgraph 2\nedge 1 0 1 1 x\n",
       "", 2, "add_edge: self-loop"},
      {"occupied_port_before_a_later_syntax_error",
       "portgraph 3\nedge 0 0 1 0\nedge 0 0 2 0\nedge 1 x 2 1\n", "", 3,
       "add_edge: port already occupied"},
      {"syntax_error_before_a_later_occupied_port",
       "portgraph 3\nedge 0 0 1 0\nedge 1 x 2 1\nedge 0 0 2 0\n", "", 3,
       "bad edge port (expected an unsigned integer, got 'x')"},
      {"last_label_wins", "portgraph 2\nlabel 0 5\nlabel 0 9\nedge 0 0 1 0\n",
       "portgraph 2\nlabel 0 9\nedge 0 0 1 0\n", 0, ""},
      {"parallel_edge_before_a_higher_hole",
       "portgraph 4\nedge 0 0 1 0\nedge 0 1 1 1\nedge 0 3 2 0\n", "", 0,
       "invalid graph: parallel edge between 0 and 1"},
  };
  for (const TextCase& c : cases) {
    expect_case(c, [&] { return from_text(c.text); }, "from_text");
    expect_case(
        c,
        [&] {
          std::istringstream is(c.text);
          return read_port_graph(is);
        },
        "read_port_graph");
  }
}

// A text of 2 MiB or more is scanned in chunks: the lines after the header
// are cut after the first '\n' at or past each 512 KiB (graph/io.h).
// K*_512's canonical text is 2.51 MiB, so its lines fall into five chunks.
// Each case puts hostile lines in different chunks or on both sides of a
// cut, and its outcome must be the sequential reference reader's.
constexpr std::size_t kChunkBytes = std::size_t{1} << 19;

/// The chunk each line falls in under the split rule, for a text with a
/// '\n' after every line; the lines through the header read -1.
std::vector<int> chunk_of_lines(const std::vector<std::string>& lines) {
  std::vector<int> chunk(lines.size(), -1);
  std::size_t i = 0;
  while (i < lines.size() && !lines[i].starts_with("portgraph")) ++i;
  int c = 0;
  std::size_t left = kChunkBytes;  // bytes of chunk c still to come
  for (++i; i < lines.size(); ++i) {
    chunk[i] = c;
    const std::size_t bytes = lines[i].size() + 1;
    if (bytes >= left) {
      ++c;
      left = kChunkBytes;
    } else {
      left -= bytes;
    }
  }
  return chunk;
}

TEST(GraphIo, CrossChunkTextsHaveTheSequentialOutcome) {
  const std::string base = to_text(make_complete_star(512));
  std::vector<std::string> k512;
  for (std::size_t begin = 0; begin < base.size();) {
    const std::size_t eol = base.find('\n', begin);
    k512.push_back(base.substr(begin, eol - begin));
    begin = eol + 1;
  }
  const int last = chunk_of_lines(k512).back();
  ASSERT_GE(last, 2);
  using Lines = std::vector<std::string>;
  // The first line of chunk k.
  const auto first_line = [](const Lines& lines, int k) {
    const std::vector<int> chunks = chunk_of_lines(lines);
    return static_cast<std::size_t>(
        std::find(chunks.begin(), chunks.end(), k) - chunks.begin());
  };
  const std::size_t cut1 = first_line(k512, 1);
  const std::size_t late = k512.size() - 3;  // in the last chunk
  const auto insert = [](Lines& lines, std::size_t at, std::string line) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 std::move(line));
  };
  // Chunk k-1 then ends with a comment (the edge line that ended it,
  // commented out), and chunk k starts with a blank line, a '\r' line, a
  // tab line and that edge line.
  const auto dress_cut = [&](Lines& l, int k) {
    const std::size_t cut = first_line(l, k);
    const std::string edge = l[cut - 1];
    l[cut - 1] = "# " + edge;
    l.insert(l.begin() + static_cast<std::ptrdiff_t>(cut),
             {"", "\r", "\t", edge});
    const std::vector<int> chunks = chunk_of_lines(l);
    EXPECT_EQ(chunks[cut - 1], k - 1) << "the comment ends chunk " << k - 1;
    EXPECT_EQ(chunks[cut], k) << "the blank line starts chunk " << k;
  };
  struct ChunkCase {
    const char* name;
    std::function<void(Lines&)> edit;  // inserts later lines first
    // Lines that must land in the given chunks.
    std::vector<std::pair<std::string, int>> placed;
    std::string expect;  // "accept", or the rejection's detail
    bool final_newline = true;
  };
  const ChunkCase cases[] = {
      {"port_taken_in_the_first_and_last_chunks",
       [&](Lines& l) { insert(l, late, "edge 0 0 2 511"); },
       {{"edge 0 0 1 510", 0}, {"edge 0 0 2 511", last}},
       "add_edge: port already occupied"},
      {"occupied_port_before_a_later_chunks_syntax_error",
       [&](Lines& l) {
         insert(l, late, "edge 1 x 2 1");
         insert(l, 5, "edge 0 0 2 511");
       },
       {{"edge 0 0 2 511", 0}, {"edge 1 x 2 1", last}},
       "add_edge: port already occupied"},
      {"syntax_error_before_a_later_chunks_occupied_port",
       [&](Lines& l) {
         insert(l, late, "edge 0 0 2 511");
         insert(l, 5, "edge 1 x 2 1");
       },
       {{"edge 1 x 2 1", 0}, {"edge 0 0 2 511", last}},
       "bad edge port (expected an unsigned integer, got 'x')"},
      {"second_header_in_a_later_chunk",
       [&](Lines& l) { insert(l, cut1 + 10, "portgraph 2"); },
       {{"portgraph 2", 1}},
       "duplicate header"},
      // Node 5's first label repeats node 6's; the last label wins.
      {"one_node_labelled_in_two_chunks",
       [&](Lines& l) {
         insert(l, late, "label 5 1000000");
         insert(l, 5, "label 5 7");
       },
       {{"label 5 7", 0}, {"label 5 1000000", last}},
       "accept"},
      {"parallel_edge_split_across_chunks",
       [&](Lines& l) { insert(l, late, "edge 0 511 1 511"); },
       {{"edge 0 0 1 510", 0}, {"edge 0 511 1 511", last}},
       "invalid graph: parallel edge between 0 and 1"},
      {"hole_in_the_last_chunk",
       [&](Lines& l) {
         l.erase(l.begin() + static_cast<std::ptrdiff_t>(late));
       },
       {},
       "vacant port"},
      // Phase 2 runs by record slice and node range. In K*_512 port p of
      // node i leads to node (i + p + 1) mod 512. Node 509's port 1 edge,
      // in the last chunk, is re-pointed at its port 2, which the first
      // chunk's edge to node 0 holds: port 1 goes vacant, port 510 stays
      // the largest, so the degrees still sum to 2m and both records reach
      // the scatter, from different slices.
      {"port_taken_twice_within_the_degree_sum",
       [&](Lines& l) {
         *std::find(l.begin(), l.end(), "edge 509 1 511 509") =
             "edge 509 2 511 509";
       },
       {{"edge 0 508 509 2", 0}, {"edge 509 2 511 509", last}},
       "add_edge: port already occupied"},
      // Nodes 510 and 511 sit in the last node range however the nodes
      // are split; their second edge, on their free port 511, is in the
      // first chunk.
      {"parallel_edge_within_the_last_node_range",
       [&](Lines& l) { insert(l, 5, "edge 510 511 511 511"); },
       {{"edge 510 511 511 511", 0}, {"edge 510 0 511 510", last}},
       "invalid graph: parallel edge between 510 and 511"},
      {"label_repeated_in_a_later_chunk",
       [&](Lines& l) { insert(l, late, "label 300 1"); },
       {{"label 300 1", last}},
       "invalid graph: duplicate label 1 at node 300"},
      {"header_after_comment_lines",
       [&](Lines& l) {
         insert(l, 0, "#");
         insert(l, 0, "");
         insert(l, 0, "# K*_512");
       },
       {{"edge 0 0 1 510", 0}},
       "accept"},
      {"comment_blank_cr_and_tab_lines_at_the_cuts",
       [&](Lines& l) {
         for (int k = 1; k <= last; ++k) dress_cut(l, k);
       },
       {},
       "accept"},
      {"last_line_without_newline", [](Lines&) {}, {}, "accept", false},
  };
  for (const ChunkCase& c : cases) {
    SCOPED_TRACE(c.name);
    Lines lines = k512;
    c.edit(lines);
    const std::vector<int> chunks = chunk_of_lines(lines);
    for (const auto& [line, chunk] : c.placed) {
      const auto at = std::find(lines.begin(), lines.end(), line);
      ASSERT_NE(at, lines.end()) << line;
      EXPECT_EQ(chunks[static_cast<std::size_t>(at - lines.begin())], chunk)
          << line;
    }
    std::string text;
    for (const std::string& line : lines) text += line + '\n';
    if (!c.final_newline) text.pop_back();
    ASSERT_GE(text.size(), 2 * kChunkBytes);
    const std::string expected =
        reference::outcome([&] { return reference::from_text(text); });
    EXPECT_NE(expected.find(c.expect), std::string::npos) << expected;
    EXPECT_EQ(reference::outcome([&] { return from_text(text); }), expected);
    EXPECT_EQ(reference::outcome([&] {
                std::istringstream is(text);
                return read_port_graph(is);
              }),
              expected);
  }
}

TEST(GraphIo, ToTextOfRelabeledShuffledGraphIsPinned) {
  // Ports deliberately not in insertion order; labels off the default at
  // three nodes, one of them the largest Label.
  PortGraph g(5);
  g.add_edge(0, 2, 1, 0);
  g.add_edge(3, 2, 4, 1);
  g.add_edge(0, 0, 3, 1);
  g.add_edge(2, 1, 3, 0);
  g.add_edge(0, 1, 4, 0);
  g.add_edge(1, 1, 2, 0);
  g.set_label(1, 10);
  g.set_label(3, 0);
  g.set_label(4, 18446744073709551615u);
  const std::string expected =
      "portgraph 5\n"
      "label 1 10\n"
      "label 3 0\n"
      "label 4 18446744073709551615\n"
      "edge 0 0 3 1\n"
      "edge 0 1 4 0\n"
      "edge 0 2 1 0\n"
      "edge 1 1 2 0\n"
      "edge 2 1 3 0\n"
      "edge 3 2 4 1\n";
  EXPECT_EQ(to_text(g), expected);  // builder state
  g.freeze();
  EXPECT_EQ(to_text(g), expected);
  std::ostringstream os;
  write_port_graph(os, g);
  EXPECT_EQ(os.str(), expected);
}

TEST(GraphIo, DefaultLabelsAreOmittedFromOutput) {
  const std::string text = to_text(make_path(4));
  EXPECT_EQ(text.find("label"), std::string::npos);
}

}  // namespace
}  // namespace oraclesize
