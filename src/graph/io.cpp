#include "graph/io.h"

#include <pthread.h>

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

/// The steps of a parse, in order. The chunked scan counts each chunk's
/// lines, then scans the chunk; phase 2 takes the degrees by record slice,
/// merges them by node range, scatters both endpoints of every record by
/// record slice and checks the rows by node range. A text the one-thread
/// scan read runs phase 2's steps alone on the caller.
enum Step : std::size_t {
  kCount,
  kScan,
  kDegrees,
  kMerge,
  kScatter,
  kCheck,
  kSteps
};

/// The threads of one chunked parse, started once for all of its steps:
/// the caller and up to `threads` - 1 helpers. Each step has `items`
/// items, which every thread claims off one counter in step order (claim
/// s * items + i is item i of step s), so a helper that starts late claims
/// less. The caller opens a step once the one before it is done and it has
/// sized every array the step writes; a thread that claims an item of a
/// step not yet open waits for it. `run(step, item, thread)` does one item
/// and does not throw; thread 0 is the caller.
///
/// The helpers are POSIX threads. A std::thread frees its start state on
/// the new thread, which ties the helper to a malloc arena of its own; on
/// dense_text, whose texts make no other allocation on a helper, that left
/// 4 MB more peak RSS (EXPERIMENTS.md "Graph text phase 2 on every core").
template <class Run>
class Crew {
 public:
  Crew(std::size_t items, std::size_t threads, const Run& run)
      : items_(items), run_(run), helpers_(threads > 1 ? threads - 1 : 0) {
    for (Helper& h : helpers_) {
      h.crew = this;
      h.thread = started_ + 1;
      // A helper that cannot start leaves its share to the others.
      if (pthread_create(&h.id, nullptr, &Crew::start, &h) != 0) break;
      ++started_;
    }
    claim_ = next_++;
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// A helper waiting for a step that is never opened returns, and every
  /// helper is joined.
  ~Crew() {
    open_ = kClosed;
    open_.notify_all();
    for (std::size_t i = 0; i < started_; ++i) {
      pthread_join(helpers_[i].id, nullptr);
    }
  }

  std::size_t threads() const { return started_ + 1; }

  /// Opens step s, takes part in it and returns once all its items are
  /// done.
  void run(Step s) {
    open_ = s + 1;
    open_.notify_all();
    work(s, claim_, 0);
    const std::size_t end = (s + 1) * items_;
    for (std::size_t k = done_; k < end; k = done_) done_.wait(k);
  }

 private:
  static constexpr std::size_t kClosed = kNone;

  /// Does the items of step s from `claim` on, and leaves `claim` at the
  /// thread's first claim past the step.
  void work(std::size_t s, std::size_t& claim, std::size_t thread) {
    const std::size_t end = (s + 1) * items_;
    for (; claim < end; claim = next_++) {
      run_(static_cast<Step>(s), claim - s * items_, thread);
      if (++done_ == end) done_.notify_all();
    }
  }

  struct Helper {
    Crew* crew = nullptr;
    std::size_t thread = 0;
    pthread_t id{};
  };

  static void* start(void* helper) {
    const Helper& h = *static_cast<const Helper*>(helper);
    h.crew->help(h.thread);
    return nullptr;
  }

  void help(std::size_t thread) {
    std::size_t claim = next_++;
    for (std::size_t s = 0; s < kSteps; ++s) {
      if (claim >= (s + 1) * items_) continue;
      for (std::size_t k = open_; k <= s; k = open_) open_.wait(k);
      if (open_ == kClosed) return;
      work(s, claim, thread);
    }
  }

  const std::size_t items_;
  const Run& run_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<std::size_t> open_{0};  // steps 0 .. open_ - 1 are open
  std::size_t claim_ = 0;             // the caller's
  std::vector<Helper> helpers_;       // sized once: each thread holds its own
  std::size_t started_ = 0;
};

/// Each node's label, node + 1 unless a label line set it (the last one
/// wins), and the first node whose label a smaller node also has.
struct Labels {
  std::vector<Label> labels;
  std::size_t dup = kNone;  // labels repeat only after a label line
};

Labels resolve_labels(const TextRecords& r) {
  const std::size_t n = r.num_nodes;
  Labels out{std::vector<Label>(n)};
  for (std::size_t v = 0; v < n; ++v) {
    out.labels[v] = static_cast<Label>(v) + 1;
  }
  if (!r.labels.empty()) {
    for (const auto& [v, label] : r.labels) out.labels[v] = label;
    Keyed by_label(n);
    for (std::size_t v = 0; v < n; ++v) by_label[v] = {out.labels[v], v};
    out.dup = first_repeat(by_label);
  }
  return out;
}

/// The arrays a frozen PortGraph adopts.
struct CsrArrays {
  std::vector<std::uint64_t> offsets;
  std::vector<Endpoint> endpoints;
  std::vector<Label> labels;
};

/// Writes `e` into `slot` with relaxed atomic stores: records in two
/// slices may name one slot, and two threads may write it at once.
void put(Endpoint& slot, Endpoint e) {
  std::atomic_ref(slot.node).store(e.node, std::memory_order_relaxed);
  std::atomic_ref(slot.port).store(e.port, std::memory_order_relaxed);
}

/// Phase 2 on `threads` threads, over the records' runs (the record
/// slices) and as many node ranges: each node's degree is its largest
/// port + 1, the degrees are prefix-summed into CSR offsets, both endpoints
/// of every record are scattered into the CSR, and every row is checked
/// for a vacant slot and for a neighbor met twice. Each thread owns one
/// array of 4 bytes per node: its degrees, then, once they are merged, its
/// seen_by.
class Csr {
 public:
  Csr(const TextRecords& r, std::size_t threads)
      : r_(r),
        n_(r.num_nodes),
        threads_(threads),
        arrays_(std::make_unique_for_overwrite<NodeId[]>(threads * n_)),
        use_(std::make_unique<Use[]>(threads)),
        offsets_(n_ + 1, 0) {}

  /// Item i of phase-2 step s, on thread `thread`.
  void run(Step s, std::size_t i, std::size_t thread) {
    switch (s) {
      case kDegrees:
        degrees(i, thread);
        break;
      case kMerge:
        merge(i);
        break;
      case kScatter:
        scatter(i);
        break;
      case kCheck:
        check(i, thread);
        break;
      default:
        break;
    }
  }

  /// Runs phase 2, each step through `run_step`; false if a whole-graph
  /// check failed.
  template <class RunStep>
  bool build(const RunStep& run_step) {
    run_step(kDegrees);
    run_step(kMerge);
    for (std::size_t v = 0; v < n_; ++v) offsets_[v + 1] += offsets_[v];
    // Degrees that do not sum to 2m mean a hole or a port taken twice; past
    // 2m they could be any size, so nothing is sized by them.
    if (offsets_[n_] != 2 * r_.num_edges) return false;
    endpoints_ = std::vector<Endpoint>(offsets_[n_]);
    run_step(kScatter);
    run_step(kCheck);
    return !failed_;
  }

  CsrArrays take(std::vector<Label> labels) {
    return {std::move(offsets_), std::move(endpoints_), std::move(labels)};
  }

 private:
  enum Use : unsigned char { kUnused, kDegree, kSeenBy };

  /// Thread `thread`'s array, cleared for `use` by the thread's first call
  /// for it.
  NodeId* array(std::size_t thread, Use use) {
    NodeId* a = arrays_.get() + thread * n_;
    if (use_[thread] != use) {
      std::fill_n(a, n_, use == kDegree ? 0 : kNoNode);
      use_[thread] = use;
    }
    return a;
  }

  /// Node range k: [lo, hi).
  std::pair<std::size_t, std::size_t> nodes(std::size_t k) const {
    const std::size_t ranges = r_.runs.size();
    return {n_ * k / ranges, n_ * (k + 1) / ranges};
  }

  void degrees(std::size_t slice, std::size_t thread) {
    NodeId* degree = array(thread, kDegree);
    for (const EdgeRecord& e : r_.runs[slice]) {
      degree[e.u] = std::max(degree[e.u], e.pu + 1);
      degree[e.v] = std::max(degree[e.v], e.pv + 1);
    }
  }

  void merge(std::size_t range) {
    const auto [lo, hi] = nodes(range);
    for (std::size_t t = 0; t < threads_; ++t) {
      if (use_[t] != kDegree) continue;
      const NodeId* degree = arrays_.get() + t * n_;
      for (std::size_t v = lo; v < hi; ++v) {
        offsets_[v + 1] = std::max<std::uint64_t>(offsets_[v + 1], degree[v]);
      }
    }
  }

  void scatter(std::size_t slice) {
    for (const EdgeRecord& e : r_.runs[slice]) {
      put(endpoints_[offsets_[e.u] + e.pu], {e.v, e.pv});
      put(endpoints_[offsets_[e.v] + e.pv], {e.u, e.pu});
    }
  }

  /// 2m endpoints went into 2m slots, so a slot written twice left another
  /// one vacant: no vacant slot means no port taken twice. Both sides of
  /// every edge were written together, so the port relation is symmetric.
  void check(std::size_t range, std::size_t thread) {
    NodeId* seen_by = array(thread, kSeenBy);
    const auto [lo, hi] = nodes(range);
    for (std::size_t v = lo; v < hi && !failed_; ++v) {
      for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const NodeId w = endpoints_[i].node;
        if (w == kNoNode || seen_by[w] == v) {
          failed_ = true;
          return;
        }
        seen_by[w] = static_cast<NodeId>(v);
      }
    }
  }

  const TextRecords& r_;
  const std::size_t n_;
  const std::size_t threads_;
  std::unique_ptr<NodeId[]> arrays_;  // thread t's: [t * n_, (t + 1) * n_)
  std::unique_ptr<Use[]> use_;
  std::vector<std::uint64_t> offsets_;
  std::vector<Endpoint> endpoints_;
  std::atomic<bool> failed_{false};
};

/// Rejects records that passed every line but break a whole-graph check.
[[gnu::cold]] [[noreturn]] void fail_structure(std::string_view text,
                                               const TextRecords& r,
                                               const Labels& labels) {
  std::vector<EdgeRecord> edges;  // the runs, joined in line order
  edges.reserve(r.num_edges);
  for (const std::span<const EdgeRecord> run : r.runs) {
    edges.insert(edges.end(), run.begin(), run.end());
  }
  const Keyed slots = check_slots(text, edges);
  fail(0, "invalid graph: " + first_invalid(r.num_nodes, edges, labels.labels,
                                            labels.dup, slots));
}

/// Both phases after the header on one set of threads. `body`, the lines
/// after the header of a graph of `num_nodes` nodes, is cut into chunks,
/// and each step has one item per chunk: the chunk, its run of records
/// (a record slice) or a node range. Up to one thread per usable CPU, the
/// caller included, runs them, fewer if their phase-2 arrays would not fit
/// in parse_memory_bound. Returns nothing if a chunk has a bad line. A
/// text that breaks a whole-graph check is rejected once the helpers are
/// joined.
std::optional<CsrArrays> parse_chunks(std::string_view text,
                                      std::string_view body,
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
  TextRecords r;
  r.num_nodes = num_nodes;
  std::atomic<bool> rejected{false};
  std::optional<Csr> csr;  // sized once phase 1 is done
  const auto run = [&](Step s, std::size_t i, std::size_t thread) noexcept {
    Chunk& c = chunks[i];
    if (s == kCount) {
      c.capacity = static_cast<std::size_t>(
                       std::count(c.lines.begin(), c.lines.end(), '\n')) +
                   1;
    } else if (s == kScan) {
      if (rejected) return;
      try {
        c.records = TextScan(c.lines, num_nodes, limits).scan(c.out, c.labels);
      } catch (...) {
        rejected = true;
      }
    } else {
      csr->run(s, i, thread);
    }
  };
  Labels labels;
  bool built = false;
  {
    Crew crew(count,
              std::min({count, usable_cpus(),
                        parse_max_threads(num_nodes, text.size())}),
              run);
    crew.run(kCount);
    try {
      std::size_t capacity = 0;
      for (const Chunk& c : chunks) capacity += c.capacity;
      r.store = std::make_unique_for_overwrite<EdgeRecord[]>(capacity);
    } catch (const std::bad_alloc&) {
      return std::nullopt;
    }
    EdgeRecord* out = r.store.get();
    for (Chunk& c : chunks) {
      c.out = {out, c.capacity};
      out += c.capacity;
    }
    crew.run(kScan);
    if (rejected) return std::nullopt;
    for (const Chunk& c : chunks) {
      r.runs.push_back(c.out.first(c.records));
      r.num_edges += c.records;
      r.labels.insert(r.labels.end(), c.labels.begin(), c.labels.end());
    }
    labels = resolve_labels(r);
    csr.emplace(r, crew.threads());
    built = csr->build([&](Step s) { crew.run(s); });
  }  // joins the helpers
  if (!built || labels.dup != kNone) fail_structure(text, r, labels);
  return csr->take(std::move(labels.labels));
}

/// The reader. A text of kChunkedScanBytes or more is read through its
/// header by the one-thread scan and after it by parse_chunks. If a chunk
/// has a bad line, the one-thread scan reads on from the header instead,
/// so every rejection is the one-thread scan's; phase 2 then runs on the
/// caller, as for a smaller text.
CsrArrays parse(const std::string& text, const ParseLimits& limits) {
  TextScan serial(text, limits);
  if (text.size() >= kChunkedScanBytes) {
    if (const auto body = serial.through_header()) {
      if (auto csr = parse_chunks(text, *body, serial.num_nodes(), limits)) {
        return std::move(*csr);
      }
    }
  }
  const TextRecords r = serial.run();
  Labels labels = resolve_labels(r);
  Csr csr(r, 1);
  // One record slice and one node range.
  const bool built = csr.build([&](Step s) { csr.run(s, 0, 0); });
  if (!built || labels.dup != kNone) fail_structure(text, r, labels);
  return csr.take(std::move(labels.labels));
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
  CsrArrays csr = parse(text, limits);
  return PortGraph(std::move(csr.offsets), std::move(csr.endpoints),
                   std::move(csr.labels));
}

}  // namespace oraclesize
