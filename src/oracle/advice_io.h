// Plain-text serialization of oracle advice assignments.
//
// Format (line oriented, '#' comments allowed):
//
//   advice <num_nodes>
//   <node> <bits>        # e.g. "3 10110"; omitted nodes hold the empty
//                        # string (the common case: leaves get nothing)
//
// Lets the CLI separate the two halves of the model — `advise` runs the
// oracle (which sees the whole network), `run --advice-file` runs the
// algorithm (which sees only per-node strings) — so users can inspect or
// even hand-edit what the oracle said and watch the scheme react.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bitio/bitstring.h"

namespace oraclesize {

void write_advice(std::ostream& os, const std::vector<BitString>& advice);
std::string advice_to_text(const std::vector<BitString>& advice);

/// Throws std::invalid_argument (with a line number) on malformed input.
/// The node count and node indices are digits only (no sign, no base
/// prefix, no overflow); the count is at most ParseLimits::max_nodes
/// (graph/io.h) and is checked before anything is sized by it.
std::vector<BitString> read_advice(std::istream& is);
std::vector<BitString> advice_from_text(const std::string& text);

}  // namespace oraclesize
