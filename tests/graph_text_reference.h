// Test-only reference reader for the graph text format: the sequential
// reader graph/io.cpp used before it parsed into the CSR in two phases.
// It applies each line to a builder PortGraph as it reads it (add_edge
// checks the line's slots at once), then runs validate_ports and freeze.
// Differential tests hold from_text and read_port_graph to its outcomes:
// the same canonical graph, or the same GraphParseError line and detail.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "graph/io.h"
#include "graph/validate.h"

namespace oraclesize::reference {

[[noreturn]] inline void fail(std::size_t line, const std::string& what) {
  throw GraphParseError(line, what);
}

constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

inline bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

inline std::uint64_t next_number(std::string_view& rest, std::size_t lineno,
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

class LineParser {
 public:
  explicit LineParser(const ParseLimits& limits) : limits_(limits) {}

  void line(std::string_view text) {
    ++lineno_;
    std::string_view rest = text.substr(0, text.find('#'));
    const std::string_view keyword = next_token(rest);
    if (keyword.empty()) return;

    if (keyword == "portgraph") {
      if (seen_header_) fail(lineno_, "duplicate header");
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
      const std::uint64_t label = next_number(
          rest, lineno_, "label value",
          std::numeric_limits<std::uint64_t>::max(), "");
      g_.set_label(static_cast<NodeId>(v), label);
    } else if (keyword == "edge") {
      if (!seen_header_) fail(lineno_, "edge before header");
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
    const std::string invalid = validate_ports(g_);
    if (!invalid.empty()) fail(0, "invalid graph: " + invalid);
    g_.freeze();
    return std::move(g_);
  }

 private:
  const ParseLimits limits_;
  PortGraph g_;
  bool seen_header_ = false;
  std::size_t lineno_ = 0;
};

/// "accept\n" + the canonical text, or "reject line L: detail": what a
/// differential test compares.
inline std::string outcome(const std::function<PortGraph()>& parse) {
  try {
    return "accept\n" + to_text(parse());
  } catch (const GraphParseError& e) {
    return "reject line " + std::to_string(e.line()) + ": " + e.detail();
  }
}

/// Parses `text` one line at a time, splitting lines as std::getline does.
inline PortGraph from_text(const std::string& text,
                           const ParseLimits& limits = {}) {
  LineParser parser(limits);
  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    parser.line(rest.substr(0, eol));
    if (eol == std::string_view::npos) break;
    rest.remove_prefix(eol + 1);
  }
  return parser.finish();
}

}  // namespace oraclesize::reference
