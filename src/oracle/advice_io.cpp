#include "oracle/advice_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "graph/io.h"
#include "util/parse_number.h"

namespace oraclesize {

void write_advice(std::ostream& os, const std::vector<BitString>& advice) {
  os << "advice " << advice.size() << "\n";
  for (std::size_t v = 0; v < advice.size(); ++v) {
    if (!advice[v].empty()) {
      os << v << " " << advice[v].to_string() << "\n";
    }
  }
}

std::string advice_to_text(const std::vector<BitString>& advice) {
  std::ostringstream os;
  write_advice(os, advice);
  return os.str();
}

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "read_advice: line " << line << ": " << what;
  throw std::invalid_argument(os.str());
}

/// `token` as a number below `bound`, strictly (util/parse_number.h).
std::size_t number(std::size_t line, const std::string& token,
                   const char* what, std::size_t bound) {
  std::size_t value = 0;
  try {
    value = parse_number<std::size_t>(token, what);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
  if (value >= bound) fail(line, std::string(what) + " out of range");
  return value;
}

}  // namespace

std::vector<BitString> read_advice(std::istream& is) {
  std::vector<BitString> advice;
  bool seen_header = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) continue;

    if (first == "advice") {
      if (seen_header) fail(lineno, "duplicate header");
      std::string count;
      ls >> count;
      // Checked before anything is sized by it, against the graph reader's
      // cap: `advice 4000000000` fails here.
      advice.assign(number(lineno, count, "node count",
                           ParseLimits{}.max_nodes + 1),
                    BitString{});
      seen_header = true;
      continue;
    }
    if (!seen_header) fail(lineno, "entry before header");
    const std::size_t v = number(lineno, first, "node index", advice.size());
    std::string bits;
    if (!(ls >> bits)) fail(lineno, "missing bit string");
    if (!advice[v].empty()) fail(lineno, "duplicate entry for node");
    try {
      advice[v] = BitString::from_string(bits);
    } catch (const std::exception& e) {
      fail(lineno, e.what());
    }
    if (advice[v].empty()) fail(lineno, "empty bit string entry");
    std::string extra;
    if (ls >> extra) fail(lineno, "trailing tokens");
  }
  if (!seen_header) {
    throw std::invalid_argument("read_advice: missing header");
  }
  return advice;
}

std::vector<BitString> advice_from_text(const std::string& text) {
  std::istringstream is(text);
  return read_advice(is);
}

}  // namespace oraclesize
