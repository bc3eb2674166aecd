#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>

#include "graph/validate.h"

namespace oraclesize {

namespace {

/// Appends one line: the keyword, then each field after a space.
void append_line(std::string& out, std::string_view keyword,
                 std::initializer_list<std::uint64_t> fields) {
  // Room for any keyword here and four 20-digit fields.
  char buf[16 + 4 * 21];
  char* p = std::copy(keyword.begin(), keyword.end(), buf);
  for (const std::uint64_t field : fields) {
    *p++ = ' ';
    p = std::to_chars(p, buf + sizeof buf, field).ptr;
  }
  *p++ = '\n';
  out.append(buf, p);
}

}  // namespace

std::string to_text(const PortGraph& g) {
  const std::size_t n = g.num_nodes();
  // Every field of a frozen graph's edge line is below n, so
  // "edge u p v q\n" takes at most 9 + 4 * digits(n) bytes.
  std::size_t digits = 1;
  for (std::size_t x = n; x >= 10; x /= 10) ++digits;
  std::string out;
  out.reserve(32 + g.num_edges() * (9 + 4 * digits));
  append_line(out, "portgraph", {n});
  for (NodeId v = 0; v < n; ++v) {
    const Label label = g.label(v);
    if (label != static_cast<Label>(v) + 1) {
      append_line(out, "label", {v, label});
    }
  }
  // The order of edges(): ascending (u, port_u), each edge once from u < v.
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const Endpoint> row = g.neighbors(u);
    for (std::size_t p = 0; p < row.size(); ++p) {
      const Endpoint e = row[p];
      if (e.node != kNoNode && u < e.node) {
        append_line(out, "edge", {u, p, e.node, e.port});
      }
    }
  }
  return out;
}

void write_port_graph(std::ostream& os, const PortGraph& g) {
  const std::string text = to_text(g);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

namespace {

std::string format_parse_error(std::size_t line, const std::string& detail) {
  std::string out = "read_port_graph: ";
  if (line > 0) out += "line " + std::to_string(line) + ": ";
  return out + detail;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw GraphParseError(line, what);
}

/// The whitespace set `operator>>` skips under the classic locale.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Takes the next whitespace-separated token off the front of `rest`, in
/// place; returns an empty view once `rest` holds no token.
std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Strict unsigned parse: digits only. `operator>>` into an unsigned type
/// accepts "-5" and wraps it silently — that path must never see hostile
/// input. Rejects empty tokens, signs, hex/float syntax, and overflow.
bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

/// Takes the next token off the line and strictly parses it as a u64
/// below `bound` (exclusive); fails the line otherwise.
std::uint64_t next_number(std::string_view& rest, std::size_t lineno,
                          const char* field, std::uint64_t bound,
                          const char* bound_what) {
  const std::string_view token = next_token(rest);
  std::uint64_t value = 0;
  if (!parse_u64(token, value)) {
    fail(lineno, std::string("bad ") + field + " (expected an unsigned "
                     "integer, got '" + std::string(token) + "')");
  }
  if (value >= bound) {
    fail(lineno, std::string(field) + " " + std::string(token) +
                     " out of range (" + bound_what + ")");
  }
  return value;
}

/// The one parser behind read_port_graph and from_text: both feed it the
/// same lines (split on '\n', without the '\n'), so they accept and reject
/// identically.
class LineParser {
 public:
  explicit LineParser(const ParseLimits& limits) : limits_(limits) {}

  void line(std::string_view text) {
    ++lineno_;
    std::string_view rest = text.substr(0, text.find('#'));
    const std::string_view keyword = next_token(rest);
    if (keyword.empty()) return;  // blank or comment-only line

    if (keyword == "portgraph") {
      if (seen_header_) fail(lineno_, "duplicate header");
      // The limit check precedes construction: `portgraph 4000000000`
      // must fail here, not inside a giant PortGraph allocation.
      const std::uint64_t n =
          next_number(rest, lineno_, "node count",
                      static_cast<std::uint64_t>(limits_.max_nodes) + 1,
                      "exceeds ParseLimits::max_nodes");
      g_ = PortGraph(static_cast<std::size_t>(n));
      seen_header_ = true;
    } else if (keyword == "label") {
      if (!seen_header_) fail(lineno_, "label before header");
      const std::uint64_t v = next_number(rest, lineno_, "label node",
                                          g_.num_nodes(), "not a node");
      const std::uint64_t label =
          next_number(rest, lineno_, "label value", kNoBound, "");
      g_.set_label(static_cast<NodeId>(v), label);
    } else if (keyword == "edge") {
      if (!seen_header_) fail(lineno_, "edge before header");
      // Ports are bounded by the node count too: a node's ports are
      // 0..deg-1 and deg <= n-1 in a simple graph, so any port >= n is
      // malformed — and letting it through would let one line drive an
      // n-sized adjacency row to arbitrary length.
      const std::uint64_t n = g_.num_nodes();
      const std::uint64_t u =
          next_number(rest, lineno_, "edge endpoint", n, "not a node");
      const std::uint64_t pu =
          next_number(rest, lineno_, "edge port", n, "port >= num nodes");
      const std::uint64_t v =
          next_number(rest, lineno_, "edge endpoint", n, "not a node");
      const std::uint64_t pv =
          next_number(rest, lineno_, "edge port", n, "port >= num nodes");
      try {
        g_.add_edge(static_cast<NodeId>(u), static_cast<Port>(pu),
                    static_cast<NodeId>(v), static_cast<Port>(pv));
      } catch (const std::exception& e) {
        fail(lineno_, e.what());
      }
    } else {
      fail(lineno_, "unknown keyword '" + std::string(keyword) + "'");
    }
    if (!next_token(rest).empty()) fail(lineno_, "trailing tokens");
  }

  PortGraph finish() {
    if (!seen_header_) fail(0, "missing header");
    // Structural post-check: the per-line checks cannot see port-map holes
    // (edge on port 2 with port 0 never filled) or any asymmetry a future
    // format extension might introduce. Nothing downstream has to defend
    // against a parsed-but-malformed graph.
    const std::string invalid = validate_ports(g_);
    if (!invalid.empty()) fail(0, "invalid graph: " + invalid);
    g_.freeze();  // validated: dense ports, so freeze cannot fail
    return std::move(g_);
  }

 private:
  static constexpr std::uint64_t kNoBound =
      std::numeric_limits<std::uint64_t>::max();

  const ParseLimits limits_;
  PortGraph g_;
  bool seen_header_ = false;
  std::size_t lineno_ = 0;
};

}  // namespace

GraphParseError::GraphParseError(std::size_t line, const std::string& detail)
    : std::invalid_argument(format_parse_error(line, detail)),
      line_(line),
      detail_(detail) {}

PortGraph read_port_graph(std::istream& is, const ParseLimits& limits) {
  LineParser parser(limits);
  std::string line;
  while (std::getline(is, line)) parser.line(line);
  return parser.finish();
}

PortGraph from_text(const std::string& text, const ParseLimits& limits) {
  LineParser parser(limits);
  // The lines std::getline would give: a final line without '\n' counts,
  // an empty remainder after the last '\n' does not.
  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    parser.line(rest.substr(0, eol));
    if (eol == std::string_view::npos) break;
    rest.remove_prefix(eol + 1);
  }
  return parser.finish();
}

}  // namespace oraclesize
