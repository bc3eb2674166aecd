#include "graph/io.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/validate.h"

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
