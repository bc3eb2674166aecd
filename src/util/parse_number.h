// Strict parsing of the numbers in outside requests: CLI flags and
// arguments, oracled flags, and service frame fields. A field parses to
// exactly the value its text spells, or it is rejected; it never wraps,
// truncates or turns into a NaN on the way in.
//  - An integer is decimal digits only (no sign, space or base prefix) and
//    must fit the destination type.
//  - A real must be finite.
//  - A probability (a fault or Byzantine rate, an advised fraction) is a
//    real in [0, 1].
// A malformed field throws std::invalid_argument("bad <what>: '<text>'");
// a probability outside [0, 1] throws "<what> must be in [0, 1]".
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace oraclesize {

/// Integral T: digits only, within T's range. Floating T: a finite value
/// in std::from_chars syntax (no '+', no leading space, no hex).
template <typename T>
T parse_number(std::string_view text, std::string_view what) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const char* const last = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  bool ok = ec == std::errc{} && ptr == last;
  if constexpr (std::is_integral_v<T>) {
    ok = ok && text.front() != '-';  // from_chars signs a signed T
  } else {
    ok = ok && std::isfinite(value);
  }
  if (!ok) {
    throw std::invalid_argument("bad " + std::string(what) + ": '" +
                                std::string(text) + "'");
  }
  return value;
}

/// A real in [0, 1].
inline double parse_probability(std::string_view text,
                                 std::string_view what) {
  const double p = parse_number<double>(text, what);
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(what) + " must be in [0, 1]");
  }
  return p;
}

}  // namespace oraclesize
