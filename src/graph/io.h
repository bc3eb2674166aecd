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
// Reader contract. One pass over the text, one line at a time, reading
// the bytes in place:
//   * lines end at '\n' only; a final line without '\n' counts, and
//     everything from the first '#' of a line on is a comment;
//   * tokens are separated by the whitespace `operator>>` skips in the
//     classic locale: ' ', '\t', '\n', '\v', '\f', '\r'. Every other
//     byte, NUL and bytes >= 0x80 included, belongs to a token;
//   * every number is parsed strictly (digits only — no sign, no base
//     prefix, no overflow), resource-exhausting node counts are rejected
//     by ParseLimits BEFORE any allocation, and ports are range-checked
//     before they can drive adjacency growth;
//   * the finished graph is structurally validated (validate_ports: no
//     port holes, symmetric neighbor relation, distinct labels, no
//     parallel edges).
// Every rejection is a GraphParseError carrying the offending line number
// and a fixed diagnostic. tests/test_graph_io.cpp pins the exact line()
// and detail() of each rejection class, and tests/test_fuzz.cpp feeds the
// reader mutated files, any byte included.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/port_graph.h"

namespace oraclesize {

/// Caps guarding the parser against resource exhaustion: a one-line file
/// `portgraph 4000000000` must not be able to drive a multi-gigabyte
/// allocation. Ports need no separate cap — a simple graph's ports are
/// strictly below its node count, and the parser enforces exactly that.
struct ParseLimits {
  std::size_t max_nodes = std::size_t{1} << 24;
};

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
/// the string in place; read_port_graph feeds the lines of std::getline to
/// the same parser, so both accept and reject exactly the same texts.
PortGraph read_port_graph(std::istream& is, const ParseLimits& limits = {});
PortGraph from_text(const std::string& text, const ParseLimits& limits = {});

}  // namespace oraclesize
