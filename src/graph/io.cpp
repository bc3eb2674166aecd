#include "graph/io.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstring>
#include <initializer_list>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "util/cpus.h"

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

  /// The text after the current line's '\n': the lines next_line() reads
  /// on. Empty if the current line is the last.
  std::string_view rest() const {
    const void* eol =
        std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
    if (eol == nullptr) return {};
    const char* next = static_cast<const char*>(eol) + 1;
    return std::string_view(next, static_cast<std::size_t>(end_ - next));
  }

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

using LabelLines = std::vector<std::pair<NodeId, Label>>;

/// What phase 1 reads off the text: the node count, each edge line as a
/// record and each label line as an assignment, all in line order. The
/// records fill runs of one array: one run from the serial scan, one per
/// chunk from the chunked scan.
struct TextRecords {
  std::size_t num_nodes = 0;
  std::unique_ptr<EdgeRecord[]> store;
  std::vector<std::span<const EdgeRecord>> runs;
  std::size_t num_edges = 0;
  LabelLines labels;
};

/// A text of this many bytes or more is scanned in chunks on several
/// threads; below it a helper thread costs about as much to start as it
/// saves (EXPERIMENTS.md "Graph text on every core").
constexpr std::size_t kChunkedScanBytes = std::size_t{2} << 20;

/// The chunked scan cuts the lines after the header after the first '\n'
/// at or past every kChunkBytes bytes, a pure function of the text. Below
/// 1 MiB, more chunks balance the threads better on texts of 2.5 to 5 MiB
/// (EXPERIMENTS.md "Graph text on every core").
constexpr std::size_t kChunkBytes = std::size_t{1} << 19;

/// Thrown by a chunk's scan at its first bad line. The chunked scan is
/// then dropped and the serial scan finds the text's rejection.
struct ChunkRejected {};

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
                                std::span<const EdgeRecord> edges) {
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
[[gnu::cold]] std::string first_invalid(std::size_t num_nodes,
                                        std::span<const EdgeRecord> edges,
                                        const std::vector<Label>& labels,
                                        std::size_t dup_label,
                                        const Keyed& slots) {
  std::vector<NodeId> seen_by(num_nodes, kNoNode);
  std::size_t i = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
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
      const EdgeRecord& e = edges[slots[j].second];
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

/// Phase 1 over whole lines: each edge line into the next record, each
/// label line into an assignment. Every line-level check runs here, in
/// line order.
class TextScan {
 public:
  /// The serial scan of `text`, from its first line.
  TextScan(std::string_view text, const ParseLimits& limits)
      : text_(text), limits_(limits), in_(text) {}

  /// One chunk's scan: whole lines that follow the header of a graph of
  /// `num_nodes` nodes. A bad line throws ChunkRejected.
  TextScan(std::string_view chunk, std::size_t num_nodes,
           const ParseLimits& limits)
      : text_(chunk),
        limits_(limits),
        in_(chunk),
        chunk_(true),
        seen_header_(true),
        num_nodes_(num_nodes) {}

  /// Reads the lines through the header. Returns the text after the
  /// header's line, or nothing if the text has no header.
  std::optional<std::string_view> through_header() {
    while (!seen_header_) {
      if (!in_.next_line()) return std::nullopt;
      line();
    }
    return in_.rest();
  }

  std::size_t num_nodes() const { return num_nodes_; }

  /// Reads every line not read yet into records from the start of `out`
  /// on and into `labels`; returns the number of records.
  std::size_t scan(std::span<EdgeRecord> out, LabelLines& labels) {
    out_ = out;
    labels_ = &labels;
    while (in_.next_line()) line();
    return records_;
  }

  /// The serial scan's records: every line not read yet.
  TextRecords run() {
    TextRecords r;
    // At most one record per line.
    const std::size_t lines =
        static_cast<std::size_t>(std::count(text_.begin(), text_.end(), '\n')) +
        1;
    r.store = std::make_unique_for_overwrite<EdgeRecord[]>(lines);
    r.num_edges = scan({r.store.get(), lines}, r.labels);
    if (!seen_header_) fail(0, "missing header");
    r.num_nodes = num_nodes_;
    r.runs.emplace_back(r.store.get(), r.num_edges);
    return r;
  }

 private:
  void line() {
    const std::string_view keyword = in_.token();
    if (keyword.empty()) return;  // blank or comment-only line
    if (keyword == "edge") {
      if (!seen_header_) fail_here("edge before header");
      // A node's ports are 0..deg-1 and deg <= n-1 in a simple graph, so a
      // port >= n is malformed.
      const std::uint64_t n = num_nodes_;
      const std::uint64_t u = number("edge endpoint", n, "not a node");
      const std::uint64_t pu = number("edge port", n, "port >= num nodes");
      const std::uint64_t v = number("edge endpoint", n, "not a node");
      const std::uint64_t pv = number("edge port", n, "port >= num nodes");
      if (u == v) fail_here("add_edge: self-loop");
      // Each run is sized for every record its lines can make.
      if (records_ == out_.size()) {
        throw std::logic_error("from_text: record run full");
      }
      out_[records_++] = {static_cast<NodeId>(u), static_cast<Port>(pu),
                          static_cast<NodeId>(v), static_cast<Port>(pv)};
    } else if (keyword == "label") {
      if (!seen_header_) fail_here("label before header");
      const std::uint64_t v = number("label node", num_nodes_, "not a node");
      const std::uint64_t label = number(
          "label value", std::numeric_limits<std::uint64_t>::max(), "");
      labels_->emplace_back(static_cast<NodeId>(v), label);
    } else if (keyword == "portgraph") {
      if (seen_header_) fail_here("duplicate header");
      // Checked before anything is sized by it: `portgraph 4000000000`
      // fails here.
      num_nodes_ = static_cast<std::size_t>(number(
          "node count", static_cast<std::uint64_t>(limits_.max_nodes) + 1,
          "exceeds ParseLimits::max_nodes"));
      seen_header_ = true;
    } else {
      fail_here("unknown keyword '" + std::string(keyword) + "'");
    }
    if (!in_.token().empty()) fail_here("trailing tokens");
  }

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

  /// Rejects the current line, unless a record so far reuses a slot. A
  /// chunk's scan leaves the diagnosis to the serial scan.
  [[gnu::cold]] [[noreturn]] void fail_here(const std::string& detail) {
    if (chunk_) throw ChunkRejected{};
    check_slots(text_, out_.first(records_));
    fail(in_.line(), detail);
  }

  std::string_view text_;
  const ParseLimits& limits_;
  LineCursor in_;
  bool chunk_ = false;
  bool seen_header_ = false;
  std::size_t num_nodes_ = 0;
  std::span<EdgeRecord> out_;
  std::size_t records_ = 0;
  LabelLines* labels_ = nullptr;
};

/// Phase 1 after the header on several threads. `body`, the lines after
/// the header of a graph of `num_nodes` nodes, is cut into chunks. Up to
/// one thread per usable CPU, the caller included, claims work off one
/// counter: first each chunk's line count, then, once the caller has
/// sized one record array by the counts, each chunk's TextScan into its
/// own run of that array. A helper that starts late claims less. Returns
/// nothing if a chunk has a bad line.
std::optional<TextRecords> scan_chunks(std::string_view body,
                                       std::size_t num_nodes,
                                       const ParseLimits& limits) {
  struct Chunk {
    std::string_view lines;
    std::size_t capacity = 0;  // at most one record per line
    std::span<EdgeRecord> out;
    std::size_t records = 0;
    LabelLines labels;
  };
  std::vector<Chunk> chunks;
  while (!body.empty()) {
    const std::size_t eol =
        body.find('\n', std::min(body.size(), kChunkBytes) - 1);
    const std::size_t size =
        eol == std::string_view::npos ? body.size() : eol + 1;
    chunks.emplace_back().lines = body.substr(0, size);
    body.remove_prefix(size);
  }
  const std::size_t count = chunks.size();
  // Claim i < count counts chunk i's lines; claim count + i scans chunk i.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> counted{0};
  std::atomic<bool> sized{false};  // the caller has sized the record array
  std::atomic<bool> rejected{false};
  const auto count_lines = [&](std::size_t& claim) noexcept {
    for (; claim < count; claim = next++) {
      Chunk& c = chunks[claim];
      c.capacity = static_cast<std::size_t>(
                       std::count(c.lines.begin(), c.lines.end(), '\n')) +
                   1;
      if (++counted == count) counted.notify_all();
    }
  };
  const auto scan = [&](std::size_t claim) noexcept {
    try {
      for (; claim < 2 * count && !rejected; claim = next++) {
        Chunk& c = chunks[claim - count];
        c.records = TextScan(c.lines, num_nodes, limits).scan(c.out, c.labels);
      }
    } catch (...) {
      rejected = true;
    }
  };
  TextRecords r;
  r.num_nodes = num_nodes;
  {
    const std::size_t workers = std::min(count, usable_cpus());
    std::vector<std::jthread> helpers;
    helpers.reserve(workers);
    try {
      while (helpers.size() + 1 < workers) {
        helpers.emplace_back([&] {
          std::size_t claim = next++;
          count_lines(claim);
          sized.wait(false);
          scan(claim);
        });
      }
    } catch (const std::system_error&) {
      // A helper that cannot start leaves its share to the others.
    }
    std::size_t claim = next++;
    count_lines(claim);
    for (std::size_t k = counted; k < count; k = counted) counted.wait(k);
    try {
      std::size_t capacity = 0;
      for (const Chunk& c : chunks) capacity += c.capacity;
      r.store = std::make_unique_for_overwrite<EdgeRecord[]>(capacity);
      EdgeRecord* out = r.store.get();
      for (Chunk& c : chunks) {
        c.out = {out, c.capacity};
        out += c.capacity;
      }
    } catch (const std::bad_alloc&) {
      rejected = true;
    }
    sized = true;
    sized.notify_all();
    scan(claim);
  }  // joins the helpers
  if (rejected) return std::nullopt;
  for (const Chunk& c : chunks) {
    r.runs.push_back(c.out.first(c.records));
    r.num_edges += c.records;
    r.labels.insert(r.labels.end(), c.labels.begin(), c.labels.end());
  }
  return r;
}

/// Phase 1. A text of kChunkedScanBytes or more is read through its header
/// by the serial scan and after it by the chunked scan. If a chunk has a
/// bad line, the serial scan reads on from the header instead, so every
/// rejection is the serial scan's.
TextRecords scan_text(std::string_view text, const ParseLimits& limits) {
  TextScan serial(text, limits);
  if (text.size() >= kChunkedScanBytes) {
    if (const auto body = serial.through_header()) {
      if (auto r = scan_chunks(*body, serial.num_nodes(), limits)) {
        return std::move(*r);
      }
    }
  }
  return serial.run();
}

/// Rejects records that passed every line but break a whole-graph check.
[[gnu::cold]] [[noreturn]] void fail_structure(
    std::string_view text, const TextRecords& r,
    const std::vector<Label>& labels, std::size_t dup_label) {
  std::vector<EdgeRecord> edges;  // the runs, joined in line order
  edges.reserve(r.num_edges);
  for (const std::span<const EdgeRecord> run : r.runs) {
    edges.insert(edges.end(), run.begin(), run.end());
  }
  const Keyed slots = check_slots(text, edges);
  fail(0, "invalid graph: " +
              first_invalid(r.num_nodes, edges, labels, dup_label, slots));
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
  const TextRecords r = scan_text(text, limits);
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
  for (const std::span<const EdgeRecord> run : r.runs) {
    for (const EdgeRecord& e : run) {
      offsets[e.u + 1] = std::max(offsets[e.u + 1], std::uint64_t{e.pu} + 1);
      offsets[e.v + 1] = std::max(offsets[e.v + 1], std::uint64_t{e.pv} + 1);
    }
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  // Degrees that do not sum to 2m mean a hole or a port taken twice; past
  // 2m they could be any size, so nothing is sized by them.
  if (offsets[n] != 2 * r.num_edges) reject();
  std::vector<Endpoint> endpoints(offsets[n]);
  for (const std::span<const EdgeRecord> run : r.runs) {
    for (const EdgeRecord& e : run) {
      Endpoint& at_u = endpoints[offsets[e.u] + e.pu];
      Endpoint& at_v = endpoints[offsets[e.v] + e.pv];
      if (at_u.node != kNoNode || at_v.node != kNoNode) reject();
      at_u = Endpoint{e.v, e.pv};
      at_v = Endpoint{e.u, e.pu};
    }
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
