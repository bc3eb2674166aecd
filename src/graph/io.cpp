#include "graph/io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

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

/// Reads a text one line at a time and each line one token at a time, in
/// place. A line ends at '\n' (a final line without one counts, an empty
/// remainder after the last '\n' does not) and its first '#' starts a
/// comment that runs to the line's end.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Moves to the start of the next line, skipping what is left of this
  /// one; false once the text is exhausted.
  bool next_line() {
    if (line_ > 0) {
      to_line_end();
      if (p_ == end_) return false;
      ++p_;
    }
    if (p_ == end_) return false;
    ++line_;
    return true;
  }

  /// The next token of the current line, or an empty view at its end.
  std::string_view token() {
    skip_blanks();
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_) && *p_ != '#') ++p_;
    const std::string_view out(begin, static_cast<std::size_t>(p_ - begin));
    skip_comment();
    return out;
  }

  /// Reads the next token if it is 1 to 7 digits and at least 8 bytes of
  /// text remain: from one 8-byte load, with no branch per digit. Returns
  /// false, having read nothing, for any other token.
  bool short_number(std::uint64_t& value, std::string_view& token) {
    skip_blanks();
    if (std::endian::native != std::endian::little || end_ - p_ < 8) {
      return false;
    }
    // Byte i of t holds digit i's value if it is a digit. The lowest byte
    // with a high bit set in `non_digit` is the first non-digit: a carry
    // into a byte only comes from a non-digit below it.
    std::uint64_t t = 0;
    std::memcpy(&t, p_, 8);
    t ^= 0x3030303030303030u;
    const std::uint64_t non_digit =
        (t | (t + 0x0606060606060606u)) & 0xf0f0f0f0f0f0f0f0u;
    const unsigned size = static_cast<unsigned>(std::countr_zero(non_digit)) / 8;
    if (size - 1 >= 7 || !(is_space(p_[size]) || p_[size] == '#')) {
      return false;
    }
    // Shifting in leading zero bytes makes eight digits; pair them, then
    // combine the pairs.
    std::uint64_t d = t << (8 * (8 - size));
    d = d * 10 + (d >> 8);
    d = ((d & 0x000000ff000000ffu) * (100 + (1000000ull << 32)) +
         ((d >> 16) & 0x000000ff000000ffu) * (1 + (10000ull << 32))) >>
        32;
    value = static_cast<std::uint32_t>(d);
    token = std::string_view(p_, size);
    p_ += size;
    skip_comment();
    return true;
  }

  /// The current line, 1-based.
  std::size_t line() const { return line_; }

 private:
  void skip_blanks() {
    while (p_ != end_ && *p_ != '\n' && is_space(*p_)) ++p_;
  }

  /// After a token that ended at '#', skips the comment.
  void skip_comment() {
    if (p_ != end_ && *p_ == '#') to_line_end();
  }

  /// Moves to the '\n' that ends the current line, or to the text's end.
  void to_line_end() {
    if (p_ != end_ && *p_ != '\n') {
      const void* eol =
          std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
      p_ = eol == nullptr ? end_ : static_cast<const char*>(eol);
    }
  }

  const char* p_;
  const char* end_;
  std::size_t line_ = 0;
};

/// One `edge u port_u v port_v` line.
struct EdgeRecord {
  NodeId u;
  Port pu;
  NodeId v;
  Port pv;
};

/// What phase 1 reads off the text: the node count, each edge line as a
/// record and each label line as an assignment, all in line order.
struct TextRecords {
  std::size_t num_nodes = 0;
  std::vector<EdgeRecord> edges;
  std::vector<std::pair<NodeId, Label>> labels;
};

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// (key, index) pairs; first_repeat finds the first index whose key repeats.
using Keyed = std::vector<std::pair<std::uint64_t, std::size_t>>;

/// Sorts `keyed` and returns the smallest index whose key a smaller index
/// also has, or kNone.
std::size_t first_repeat(Keyed& keyed) {
  std::sort(keyed.begin(), keyed.end());
  std::size_t first = kNone;
  for (std::size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first == keyed[i - 1].first) {
      first = std::min(first, keyed[i].second);
    }
  }
  return first;
}

// The cold diagnosis. Once a fast check fails, these functions find the
// exact rejection a reader applying the lines one at a time would give.
// They sort per record or per node and never allocate by a port number.

/// The line of record k. Every edge line before the line that ended
/// phase 1 became a record, so record k sits on the (k+1)-th edge line.
[[gnu::cold]] std::size_t line_of_edge(std::string_view text, std::size_t k) {
  LineCursor in(text);
  while (in.next_line()) {
    if (in.token() == "edge" && k-- == 0) break;
  }
  return in.line();
}

/// Every record's two port slots, keyed node << 32 | port and sorted with
/// their record indices. If a record takes a slot an earlier one holds,
/// rejects the text at the first such record's line instead: there a
/// reader applying one line at a time fails before it reads a later line,
/// the rest of that line, or the whole-graph checks.
[[gnu::cold]] Keyed check_slots(std::string_view text,
                                const std::vector<EdgeRecord>& edges) {
  Keyed slots;
  slots.reserve(2 * edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    slots.emplace_back(std::uint64_t{edges[i].u} << 32 | edges[i].pu, i);
    slots.emplace_back(std::uint64_t{edges[i].v} << 32 | edges[i].pv, i);
  }
  const std::size_t k = first_repeat(slots);
  if (k != kNone) fail(line_of_edge(text, k), "add_edge: port already occupied");
  return slots;
}

/// The first violation in validate_ports' order, given check_slots' sorted
/// slots: node by node, a repeated label, then the node's ports in order
/// (a vacant port, or a neighbor already met at a lower port).
[[gnu::cold]] std::string first_invalid(const TextRecords& r,
                                        const std::vector<Label>& labels,
                                        std::size_t dup_label,
                                        const Keyed& slots) {
  std::vector<NodeId> seen_by(r.num_nodes, kNoNode);
  std::size_t i = 0;
  for (NodeId v = 0; v < r.num_nodes; ++v) {
    if (v == dup_label) {
      return "duplicate label " + std::to_string(labels[v]) + " at node " +
             std::to_string(v);
    }
    const std::size_t begin = i;
    while (i < slots.size() && slots[i].first >> 32 == v) ++i;
    for (std::size_t j = begin; j < i; ++j) {
      const std::uint64_t p = j - begin;
      if ((slots[j].first & 0xffffffffu) != p) {
        const std::uint64_t degree = (slots[i - 1].first & 0xffffffffu) + 1;
        return "node " + std::to_string(v) + " has a vacant port " +
               std::to_string(p) + " below degree " + std::to_string(degree);
      }
      const EdgeRecord& e = r.edges[slots[j].second];
      const NodeId w = e.u == v ? e.v : e.u;
      if (seen_by[w] == v) {
        return "parallel edge between " + std::to_string(v) + " and " +
               std::to_string(w);
      }
      seen_by[w] = v;
    }
  }
  return {};
}

/// Phase 1: one pass over the text into edge records and label
/// assignments. Every line-level check runs here, in line order.
class TextScan {
 public:
  TextScan(std::string_view text, const ParseLimits& limits)
      : text_(text), limits_(limits), in_(text) {}

  TextRecords run() {
    // At most one record per line: reserving the line count allocates the
    // record array once.
    r_.edges.reserve(
        static_cast<std::size_t>(std::count(text_.begin(), text_.end(), '\n')) +
        1);
    bool seen_header = false;
    while (in_.next_line()) {
      const std::string_view keyword = in_.token();
      if (keyword.empty()) continue;  // blank or comment-only line
      if (keyword == "edge") {
        if (!seen_header) fail_here("edge before header");
        // A node's ports are 0..deg-1 and deg <= n-1 in a simple graph, so
        // a port >= n is malformed.
        const std::uint64_t n = r_.num_nodes;
        const std::uint64_t u = number("edge endpoint", n, "not a node");
        const std::uint64_t pu = number("edge port", n, "port >= num nodes");
        const std::uint64_t v = number("edge endpoint", n, "not a node");
        const std::uint64_t pv = number("edge port", n, "port >= num nodes");
        if (u == v) fail_here("add_edge: self-loop");
        r_.edges.push_back({static_cast<NodeId>(u), static_cast<Port>(pu),
                            static_cast<NodeId>(v), static_cast<Port>(pv)});
      } else if (keyword == "label") {
        if (!seen_header) fail_here("label before header");
        const std::uint64_t v =
            number("label node", r_.num_nodes, "not a node");
        const std::uint64_t label = number(
            "label value", std::numeric_limits<std::uint64_t>::max(), "");
        r_.labels.emplace_back(static_cast<NodeId>(v), label);
      } else if (keyword == "portgraph") {
        if (seen_header) fail_here("duplicate header");
        // Checked before anything is sized by it: `portgraph 4000000000`
        // fails here.
        r_.num_nodes = static_cast<std::size_t>(
            number("node count",
                   static_cast<std::uint64_t>(limits_.max_nodes) + 1,
                   "exceeds ParseLimits::max_nodes"));
        seen_header = true;
      } else {
        fail_here("unknown keyword '" + std::string(keyword) + "'");
      }
      if (!in_.token().empty()) fail_here("trailing tokens");
    }
    if (!seen_header) fail(0, "missing header");
    return std::move(r_);
  }

 private:
  /// Takes the next token and parses it strictly as a u64 below `bound`
  /// (exclusive): digits only, no sign, no base prefix, no overflow.
  std::uint64_t number(const char* field, std::uint64_t bound,
                       const char* bound_what) {
    std::uint64_t value = 0;
    std::string_view token;
    if (!in_.short_number(value, token)) {
      token = in_.token();
      const char* end = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(token.data(), end, value);
      if (token.empty() || ec != std::errc{} || ptr != end) {
        fail_here(std::string("bad ") + field +
                  " (expected an unsigned integer, got '" +
                  std::string(token) + "')");
      }
    }
    if (value >= bound) {
      fail_here(std::string(field) + " " + std::string(token) +
                " out of range (" + bound_what + ")");
    }
    return value;
  }

  /// Rejects the current line, unless a record so far reuses a slot.
  [[gnu::cold]] [[noreturn]] void fail_here(const std::string& detail) {
    check_slots(text_, r_.edges);
    fail(in_.line(), detail);
  }

  std::string_view text_;
  const ParseLimits& limits_;
  LineCursor in_;
  TextRecords r_;
};

/// Rejects records that passed every line but break a whole-graph check.
[[gnu::cold]] [[noreturn]] void fail_structure(
    std::string_view text, const TextRecords& r,
    const std::vector<Label>& labels, std::size_t dup_label) {
  const Keyed slots = check_slots(text, r.edges);
  fail(0, "invalid graph: " + first_invalid(r, labels, dup_label, slots));
}

}  // namespace

GraphParseError::GraphParseError(std::size_t line, const std::string& detail)
    : std::invalid_argument(format_parse_error(line, detail)),
      line_(line),
      detail_(detail) {}

PortGraph read_port_graph(std::istream& is, const ParseLimits& limits) {
  std::string text;
  for (char chunk[1 << 16];
       is.read(chunk, sizeof chunk) || is.gcount() > 0;) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return from_text(text, limits);
}

PortGraph from_text(const std::string& text, const ParseLimits& limits) {
  const TextRecords r = TextScan(text, limits).run();
  const std::size_t n = r.num_nodes;
  std::vector<Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) labels[v] = static_cast<Label>(v) + 1;
  std::size_t dup_label = kNone;  // labels repeat only after a label line
  if (!r.labels.empty()) {
    for (const auto& [v, label] : r.labels) labels[v] = label;
    Keyed by_label(n);
    for (std::size_t v = 0; v < n; ++v) by_label[v] = {labels[v], v};
    dup_label = first_repeat(by_label);
  }
  const auto reject = [&] { fail_structure(text, r, labels, dup_label); };
  // Phase 2: degree = largest port + 1, prefix-summed into offsets, then
  // one scatter of both endpoints of every record.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const EdgeRecord& e : r.edges) {
    offsets[e.u + 1] = std::max(offsets[e.u + 1], std::uint64_t{e.pu} + 1);
    offsets[e.v + 1] = std::max(offsets[e.v + 1], std::uint64_t{e.pv} + 1);
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  // Degrees that do not sum to 2m mean a hole or a port taken twice; past
  // 2m they could be any size, so nothing is sized by them.
  if (offsets[n] != 2 * r.edges.size()) reject();
  std::vector<Endpoint> endpoints(offsets[n]);
  for (const EdgeRecord& e : r.edges) {
    Endpoint& at_u = endpoints[offsets[e.u] + e.pu];
    Endpoint& at_v = endpoints[offsets[e.v] + e.pv];
    if (at_u.node != kNoNode || at_v.node != kNoNode) reject();
    at_u = Endpoint{e.v, e.pv};
    at_v = Endpoint{e.u, e.pu};
  }
  // 2m slots, 2m endpoints, none twice: no hole. Both sides of every edge
  // were written together, so the port relation is symmetric.
  std::vector<NodeId> seen_by(n, kNoNode);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const NodeId w = endpoints[i].node;
      if (seen_by[w] == v) reject();
      seen_by[w] = v;
    }
  }
  if (dup_label != kNone) reject();
  return PortGraph(std::move(offsets), std::move(endpoints), std::move(labels));
}

}  // namespace oraclesize
