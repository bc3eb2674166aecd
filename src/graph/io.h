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
//     and ports against the node count, self-loops, trailing tokens;
//   * phase 2 takes each node's degree as its largest port + 1,
//     prefix-sums the degrees into CSR offsets and scatters both endpoints
//     of every record into the CSR arrays, which the returned frozen
//     PortGraph adopts. The whole-graph checks run on these arrays:
//     occupied ports (a slot written twice), holes (degrees that do not
//     sum to 2m), parallel edges, and distinct labels (only when a label
//     line exists).
// Every rejection is a GraphParseError carrying the offending line number
// and a fixed diagnostic. When a check fails, a cold path finds the
// rejection a reader applying the lines one at a time would give: an
// occupied port on an earlier line (or on the same line, before its
// trailing tokens) wins over a line's syntax error, and the whole-graph
// checks report in validate_ports' node-by-node order. Nothing the reader
// allocates is sized by a port number, so its memory is O(n + text):
// parse_memory_bound below. tests/test_graph_io.cpp pins the exact line()
// and detail() of each rejection class, tests/test_fuzz.cpp feeds the
// reader mutated files, any byte included, tests/test_graph_text_diff.cpp
// holds it to a sequential reference reader over thousands of mutated
// texts, and tests/test_parse_memory.cpp audits the memory bound.
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
/// tests/test_parse_memory.cpp measures 20 bytes per node on a rejected
/// text of high port numbers and under 2 per text byte on a dense one.
constexpr std::size_t parse_memory_bound(std::size_t num_nodes,
                                         std::size_t text_bytes) {
  return 64 * num_nodes + 64 * text_bytes + 4096;
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
/// from_text, so both accept and reject exactly the same texts.
PortGraph read_port_graph(std::istream& is, const ParseLimits& limits = {});
PortGraph from_text(const std::string& text, const ParseLimits& limits = {});

}  // namespace oraclesize
