// The CPU count behind every "0 = automatic" worker default.
#pragma once

#include <sched.h>

#include <cstddef>
#include <thread>

namespace oraclesize {

/// How many CPUs the calling thread may run on: its affinity mask, so a
/// process pinned by taskset or a cpuset starts no more workers than it
/// can run; the hardware thread count where the mask is unreadable.
inline std::size_t usable_cpus() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace oraclesize
