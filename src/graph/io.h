// Plain-text serialization of port-labeled graphs.
//
// Format (line oriented, '#' comments allowed):
//
//   portgraph <num_nodes>
//   label <node> <label>            # optional; defaults to node+1
//   edge <u> <port_u> <v> <port_v>
//
// Round-trips every PortGraph exactly (structure, ports, labels). Used by
// the CLI to pipe networks between tools and by users to persist workloads.
// to_text is canonical: the header, then non-default labels by node, then
// edges in edges() order, each field in decimal. The advice service's
// graph digests hash these bytes, so they must not change.
//
// Reader contract. The reader works in two phases over the text, read in
// place:
//   * phase 1 scans the text once, line by line, into a flat array of edge
//     records and a list of label assignments. Lines end at '\n' only (a
//     final line without '\n' counts), and everything from the first '#'
//     of a line on is a comment. Tokens are separated by the whitespace
//     `operator>>` skips in the classic locale: ' ', '\t', '\n', '\v',
//     '\f', '\r'. Every other byte, NUL and bytes >= 0x80 included,
//     belongs to a token. Every line-level check runs in this phase:
//     keywords, header order, strict numbers (digits only: no sign, no
//     base prefix, no overflow), node counts against ParseLimits, node ids
//     and ports against the node count, self-loops, trailing tokens.
//     A text of 2 MiB or more is scanned on several threads: one thread
//     reads the lines through the header, then the lines after it are cut
//     after the first '\n' at or past every 512 KiB, a pure function of
//     the text, so every host cuts the same chunks. Up to one thread per
//     CPU the process may use, started once for the call (phase 2 runs on
//     the same threads), claims chunks off one counter; each chunk runs
//     the same line checks into its own run of one record array, and the
//     label assignments are joined in chunk order. If any chunk has a bad
//     line, the chunked scan is dropped and the one-thread scan reads on
//     from the header, so every rejection comes from the one-thread scan.
//     A smaller text never leaves it. oracled parses an upload (frames up
//     to 16 MiB) on its connection thread outside its slot gate, so an
//     upload of 2 MiB or more starts these threads beside the requests
//     holding slots;
//   * phase 2 takes each node's degree as its largest port + 1,
//     prefix-sums the degrees into CSR offsets and scatters both endpoints
//     of every record into the CSR arrays, which the returned frozen
//     PortGraph adopts. The whole-graph checks run on these arrays: holes
//     (a vacant slot, or degrees that do not sum to 2m), occupied ports,
//     parallel edges, and distinct labels (only when a label line exists).
//     After a chunked scan, phase 2 runs on the scan's threads, which
//     claim its steps off the same counter: degrees by record slice (a
//     chunk's run) into per-thread arrays, merged by node range; the
//     scatter by record slice; the hole and parallel-edge checks by node
//     range. The caller sizes every array before the threads touch it.
//     The scatter is race-free on any text: records in two slices may
//     name one slot, so it writes with relaxed atomic stores, and since 2m
//     endpoints go into 2m slots, a slot written twice leaves another one
//     vacant, which the hole check catches. A thread whose check fails
//     sets a flag; the caller rejects the text once the threads are
//     joined. A smaller text, or one the one-thread scan read, runs the
//     same steps on the caller alone.
// Every rejection is a GraphParseError carrying the offending line number
// and a fixed diagnostic. When a check fails, a cold path finds the
// rejection a reader applying the lines one at a time would give: an
// occupied port on an earlier line (or on the same line, before its
// trailing tokens) wins over a line's syntax error, and the whole-graph
// checks report in validate_ports' node-by-node order. Nothing the reader
// allocates is sized by a port number, so its memory is O(n + text):
// parse_memory_bound below, of which phase 2's per-thread arrays take a
// share that caps the thread count (parse_max_threads).
// tests/test_graph_io.cpp pins the exact line() and detail() of each
// rejection class, in one chunk and across chunks and slices,
// tests/test_fuzz.cpp feeds the reader mutated files, any byte included,
// tests/test_graph_text_diff.cpp holds it to a sequential reference reader
// over thousands of mutated texts, multi-MiB ones mutated at the chunk
// cuts among them, and tests/test_parse_memory.cpp audits the memory bound.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/port_graph.h"

namespace oraclesize {

/// Caps guarding the parser against resource exhaustion: a one-line file
/// `portgraph 4000000000` must not be able to drive a multi-gigabyte
/// allocation. Ports need no cap of their own: each is below the node
/// count, and no allocation is sized by one.
struct ParseLimits {
  std::size_t max_nodes = std::size_t{1} << 24;
};

/// The bytes the reader requests in all, accepted or rejected, for a text
/// of `text_bytes` bytes whose header declares `num_nodes` nodes: at most
/// 64 per node plus 64 per text byte, plus a constant for diagnostics.
/// tests/test_parse_memory.cpp measures 24 bytes per node on a rejected
/// text of high port numbers and under 2 per text byte on a dense one,
/// scanned on one thread or in chunks, and holds chunked texts that
/// declare millions of nodes to the bound too.
constexpr std::size_t parse_memory_bound(std::size_t num_nodes,
                                         std::size_t text_bytes) {
  return 64 * num_nodes + 64 * text_bytes + 4096;
}

/// The per-thread share of that bound. Each thread of a chunked parse
/// takes an array of 4 bytes per node in phase 2, and the rest of the
/// reader requests at most 36 bytes per node (the labels 8, their sorted
/// copy 16, the offsets 8, the diagnosis's seen_by 4) and 32 per text byte
/// (a 16-byte record per line, twice when a chunk's bad line sends the text
/// to the one-thread scan; an edge line's endpoints and diagnosis take
/// under 5 per byte). A chunked parse starts at most this many threads,
/// the caller included, so the arrays fit in what the bound leaves: 7 or
/// more, whatever the text.
constexpr std::size_t parse_max_threads(std::size_t num_nodes,
                                        std::size_t text_bytes) {
  const std::size_t rest = 36 * num_nodes + 32 * text_bytes + 4096;
  return (parse_memory_bound(num_nodes, text_bytes) - rest) /
         (4 * (num_nodes > 0 ? num_nodes : 1));
}

/// Structured parse failure: the 1-based line of the offending input (0
/// when the failure is about the file as a whole, e.g. a missing header)
/// and the bare diagnostic. Derives from std::invalid_argument so existing
/// catch sites keep working; what() combines both parts.
class GraphParseError : public std::invalid_argument {
 public:
  GraphParseError(std::size_t line, const std::string& detail);

  std::size_t line() const noexcept { return line_; }
  const std::string& detail() const noexcept { return detail_; }

 private:
  std::size_t line_;
  std::string detail_;
};

/// Writes g in the text format above; write_port_graph writes to_text(g).
void write_port_graph(std::ostream& os, const PortGraph& g);
std::string to_text(const PortGraph& g);

/// Parses the text format. Throws GraphParseError (an
/// std::invalid_argument) with line context on any malformed input; never
/// asserts or invokes UB, whatever the bytes. The returned graph is frozen
/// and always satisfies validate_ports (graph/validate.h). from_text reads
/// the string in place; read_port_graph reads the whole stream and calls
/// from_text, so both accept and reject exactly the same texts. A text of
/// 2 MiB or more starts helper threads once for the call, for both phases
/// (see above); each is joined before the call returns or throws.
PortGraph read_port_graph(std::istream& is, const ParseLimits& limits = {});
PortGraph from_text(const std::string& text, const ParseLimits& limits = {});

}  // namespace oraclesize
