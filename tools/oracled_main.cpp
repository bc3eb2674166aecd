// oracled — the long-running advice service daemon.
//
//   oracled --socket /tmp/oracled.sock [--jobs N] [--cache-budget-bytes B]
//           [--queue-limit N] [--max-frame-bytes N]
//           [--metrics-socket PATH] [--default-deadline-ms T]
//
// Listens for advice-service protocol frames (src/service/protocol.h) on
// the unix socket and serves a Prometheus scrape endpoint on
// <socket>.metrics (or --metrics-socket). Each connection executes its own
// advise and run requests: --jobs of them at once, with up to
// --queue-limit more waiting for a slot in arrival order. Runs until
// SIGINT/SIGTERM or a Shutdown request, then drains gracefully: accepting
// stops, waiting requests finish, responses flush.
//
// Exit code: 0 after a clean drain; 2 on a setup/infrastructure failure
// (bad flags, socket path unusable) — matching the CLI's exit ladder,
// where 2 means the infrastructure (not a task) failed.
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/advice_service.h"
#include "util/parse_number.h"

namespace {

using oraclesize::service::AdviceService;
using oraclesize::service::ServiceConfig;

// Self-pipe: the signal handler may only touch async-signal-safe calls, so
// it writes one byte and a watcher thread performs the actual shutdown.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr << "usage:\n"
            << "  oracled --socket PATH [--jobs N] [--cache-budget-bytes B]\n"
            << "          [--queue-limit N] [--max-frame-bytes N]\n"
            << "          [--metrics-socket PATH] [--default-deadline-ms T]\n"
            << "  --jobs N         requests executing at once (0 = all cores)\n"
            << "  --queue-limit N  requests waiting for a slot\n";
  std::exit(2);
}

/// A numeric flag (util/parse_number.h); a bad one exits 2 with usage.
template <typename T>
T number(const std::string& s, const std::string& what) {
  try {
    return oraclesize::parse_number<T>(s, what);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig config;
  config.socket_path = "/tmp/oracled.sock";
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage("missing value after " + a);
      return args[++i];
    };
    if (a == "--socket") {
      config.socket_path = next();
    } else if (a == "--metrics-socket") {
      config.metrics_socket_path = next();
    } else if (a == "--jobs") {
      config.jobs = number<std::size_t>(next(), "--jobs");
    } else if (a == "--cache-budget-bytes") {
      config.cache_budget_bytes =
          number<std::uint64_t>(next(), "--cache-budget-bytes");
    } else if (a == "--queue-limit") {
      config.queue_limit = number<std::size_t>(next(), "--queue-limit");
    } else if (a == "--max-frame-bytes") {
      config.max_frame_bytes =
          number<std::uint32_t>(next(), "--max-frame-bytes");
    } else if (a == "--default-deadline-ms") {
      config.default_deadline_ms =
          number<std::uint64_t>(next(), "--default-deadline-ms");
    } else if (a == "--help" || a == "-h") {
      usage();
    } else {
      usage("unknown option '" + a + "'");
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "error: pipe(): " << std::strerror(errno) << "\n";
    return 2;
  }

  AdviceService service(config);
  try {
    service.start();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  // A client that vanishes mid-reply must surface as EPIPE, not kill us.
  ::signal(SIGPIPE, SIG_IGN);

  std::thread signal_watcher([&service] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    service.shutdown();
  });

  std::cout << "oracled listening on " << service.config().socket_path
            << " (metrics: " << service.config().metrics_socket_path
            << ", jobs: " << service.config().jobs
            << ", cache budget: " << service.config().cache_budget_bytes
            << " bytes, queue limit: " << service.config().queue_limit
            << ")" << std::endl;

  service.wait();

  // Wake the watcher if the drain came from a Shutdown request instead of
  // a signal, then reap it.
  const char byte = 'q';
  (void)!::write(g_signal_pipe[1], &byte, 1);
  signal_watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  std::cout << "oracled drained cleanly" << std::endl;
  return 0;
}
