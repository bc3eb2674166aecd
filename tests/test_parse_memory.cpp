// Memory audit of the graph and advice text readers.
//
// Standalone binary (not gtest: the framework's own allocations would
// pollute the counter). Global operator new is replaced with a shim that
// sums the bytes requested while counting is on, and refuses (counted, then
// std::bad_alloc) any single request past 1 GiB, so a reader that sizes by
// an unchecked field fails by the bytes counted, not by the host's memory.
// A text may declare big port numbers in few bytes: `portgraph 1048576`
// plus 64 lines `edge 2i 1048575 2i+1 1048575` names 128 nodes of degree
// 2^20 with one edge each. The reader must reject it with the exact
// whole-graph diagnosis while requesting no more than parse_memory_bound
// (graph/io.h) in all; a reader that sizes port rows by the port numbers
// asks for a gibibyte. An accepted dense text is held to the same bound,
// and so are four texts of 2 MiB or more, which the reader scans in chunks
// on several threads: one accepted, one with a bad line in its last chunk,
// and two whose header declares millions of nodes their edges never touch,
// one accepted and one rejected by a whole-graph check, where phase 2's
// per-thread arrays (4 bytes per node each) weigh most. Each line prints
// the 16 bytes per edge line a record array takes and those arrays' bytes
// beside the bytes requested, so a second copy of either shows. The advice
// reader must reject `advice 4000000000` before it sizes anything.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "graph/complete_star.h"
#include "graph/io.h"
#include "oracle/advice_io.h"
#include "util/cpus.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};

constexpr std::size_t kRefused = std::size_t{1} << 30;

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (size > kRefused) return nullptr;
  }
  return std::malloc(size ? size : 1);
}

void* counted_new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
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

std::size_t edge_lines(const std::string& text) {
  std::size_t lines = text.starts_with("edge ");
  for (std::size_t at = text.find("\nedge "); at != std::string::npos;
       at = text.find("\nedge ", at + 1)) {
    ++lines;
  }
  return lines;
}

/// The most bytes phase 2's per-thread arrays take for a chunked text: 4
/// per node for each thread the reader may start (the usable CPUs, capped
/// by parse_max_threads); 0 for a text scanned on one thread, which takes
/// one array in place of its seen_by.
std::size_t thread_array_bytes(const std::string& text, std::size_t n) {
  if (text.size() < (std::size_t{2} << 20)) return 0;
  return 4 * n *
         std::min(usable_cpus(), parse_max_threads(n, text.size()));
}

bool check(const char* label, const std::string& text, std::size_t n,
           const std::string& expected) {
  std::string result;
  const std::size_t bytes = count_parse(text, result);
  const std::size_t bound = parse_memory_bound(n, text.size());
  const bool ok = bytes <= bound && result == expected;
  std::printf(
      "%-16s n=%zu text=%zu B: requested %zu B (records %zu B, per-thread "
      "arrays up to %zu B), bound %zu B, %s\n",
      label, n, text.size(), bytes, 16 * edge_lines(text),
      thread_array_bytes(text, n), bound, ok ? "ok" : "FAIL");
  if (result != expected) {
    std::printf("  outcome  %s\n  expected %s\n", result.c_str(),
                expected.c_str());
  }
  return ok;
}

/// An advice header is checked before the advice vector is sized by it, so
/// rejecting `text` on line 1 takes at most `limit` bytes.
bool check_advice(const char* label, const std::string& text,
                  std::size_t limit) {
  std::string result;
  g_bytes.store(0);
  g_counting.store(true);
  try {
    (void)advice_from_text(text);
    result = "accept";
  } catch (const std::invalid_argument& e) {
    result = e.what();
  } catch (const std::bad_alloc&) {
    result = "std::bad_alloc";
  }
  g_counting.store(false);
  const std::size_t bytes = g_bytes.load();
  const bool ok = bytes <= limit && result.starts_with("read_advice: line 1: ");
  std::printf("%-16s requested %zu B, limit %zu B, %s\n  outcome  %s\n",
              label, bytes, limit, ok ? "ok" : "FAIL", result.c_str());
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
  {
    const std::string text = to_text(make_complete_star(512));
    if (!check("complete-512", text, 512, "accept")) ++failures;
    // 130,816 edge lines after the header, so the bad line is line 130,818.
    if (!check("complete-512-bad", text + "edge 1 x 2 1\n", 512,
               "line 130818: bad edge port (expected an unsigned integer, "
               "got 'x')")) {
      ++failures;
    }
    // The same edges under a header of 2^22 nodes: 512 nodes have edges
    // and the other 4,194,048 have degree 0. The rejected text adds a
    // label line, so the labels' sorted copy is requested too, and a
    // second edge between nodes 510 and 511 on their free port 511.
    constexpr std::size_t n = std::size_t{1} << 22;
    const std::string sparse =
        "portgraph " + std::to_string(n) + text.substr(text.find('\n'));
    if (!check("isolated-4M", sparse, n, "accept")) ++failures;
    if (!check("isolated-4M-bad",
               sparse + "label 4194303 99999999999\nedge 510 511 511 511\n", n,
               "line 0: invalid graph: parallel edge between 510 and 511")) {
      ++failures;
    }
  }
  if (!check_advice("advice-4G", "advice 4000000000\n", 4096)) ++failures;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace oraclesize

int main() { return oraclesize::audit(); }
