// Memory audit of the graph text reader.
//
// Standalone binary (not gtest: the framework's own allocations would
// pollute the counter). Global operator new is replaced with a shim that
// sums the bytes requested while counting is on. A text may declare big
// port numbers in few bytes: `portgraph 1048576` plus 64 lines
// `edge 2i 1048575 2i+1 1048575` names 128 nodes of degree 2^20 with one
// edge each. The reader must reject it with the exact whole-graph
// diagnosis while requesting no more than parse_memory_bound (graph/io.h)
// in all; a reader that sizes port rows by the port numbers asks for a
// gibibyte. An accepted dense text is held to the same bound.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "graph/complete_star.h"
#include "graph/io.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace oraclesize {
namespace {

/// Parses `text` with counting on; returns the bytes requested and the
/// outcome: "accept" or "line L: detail".
std::size_t count_parse(const std::string& text, std::string& result) {
  g_bytes.store(0);
  g_counting.store(true);
  try {
    (void)from_text(text);
    g_counting.store(false);
    result = "accept";
  } catch (const GraphParseError& e) {
    g_counting.store(false);
    result = "line " + std::to_string(e.line()) + ": " + e.detail();
  }
  return g_bytes.load();
}

bool check(const char* label, const std::string& text, std::size_t n,
           const std::string& expected) {
  std::string result;
  const std::size_t bytes = count_parse(text, result);
  const std::size_t bound = parse_memory_bound(n, text.size());
  const bool ok = bytes <= bound && result == expected;
  std::printf("%-16s n=%zu text=%zu B: requested %zu B, bound %zu B, %s\n",
              label, n, text.size(), bytes, bound, ok ? "ok" : "FAIL");
  if (result != expected) {
    std::printf("  outcome  %s\n  expected %s\n", result.c_str(),
                expected.c_str());
  }
  return ok;
}

int audit() {
  int failures = 0;
  {
    constexpr std::size_t n = std::size_t{1} << 20;
    std::string text = "portgraph " + std::to_string(n) + "\n";
    for (std::size_t i = 0; i < 64; ++i) {
      text += "edge " + std::to_string(2 * i) + " " + std::to_string(n - 1) +
              " " + std::to_string(2 * i + 1) + " " + std::to_string(n - 1) +
              "\n";
    }
    if (!check("high-ports", text, n,
               "line 0: invalid graph: node 0 has a vacant port 0 below "
               "degree 1048576")) {
      ++failures;
    }
  }
  {
    const std::string text = to_text(make_complete_star(256));
    if (!check("complete-256", text, 256, "accept")) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace oraclesize

int main() { return oraclesize::audit(); }
