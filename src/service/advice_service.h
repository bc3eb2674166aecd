// The long-running advice service: `oracled`'s engine room.
//
// AdviceService turns the library's one-shot pipeline (oracle -> advice ->
// execution -> report) into a daemon that serves traffic. The paper's
// shape maps directly: advice artifacts are the warm state (one advise()
// per distinct (graph, oracle, source), memoized in a byte-budgeted LRU
// AdviceCache), runs are the requests, and oracle bits are the per-request
// cost the metrics report.
//
// Threads:
//  * an ACCEPTOR listening on a unix stream socket, one CONNECTION thread
//    per client speaking the service/protocol.h framing. A connection
//    thread executes the advise and run requests it decodes itself: it
//    resolves advice through the shared AdviceCache (the shared_ptr rides
//    in TrialSpec::advice, so an entry evicted mid-flight stays alive for
//    its holder) and runs through the shared BatchRunner, which executes a
//    one-spec batch inline on the calling thread. The acceptor joins the
//    threads of closed connections before it adds a new one;
//  * a METRICS EXPOSER answering HTTP GETs on <socket>.metrics with the
//    Prometheus text rendition of the service's MetricsRegistry.
//
// Flow control: an advise or run request executes only while it holds one
// of `jobs` execution slots. Slots are granted in arrival order, and a
// freed slot wakes only the thread of the request it is granted to. At
// most queue_limit requests wait for a slot (the next one is answered
// "overloaded" immediately — backpressure, not buffering), every request
// may carry a deadline (checked when its slot is granted: an expired
// request is rejected, never run half-heartedly), and shutdown() drains:
// accepting stops, waiting requests are granted and complete, responses
// flush, then the threads join.
//
// Identity contract: a run answered by the service is field-identical to
// the same TrialSpec executed directly on a BatchRunner — the service adds
// admission and caching around the execution, never inside it.
// ServiceRoundTrip.RunMatchesDirectBatchRunner pins it, and perfbench's
// service_mixed workload compares every run reply it collects with a
// direct BatchRunner run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "core/advice_cache.h"
#include "core/batch_runner.h"
#include "service/graph_store.h"
#include "service/protocol.h"
#include "service/task_catalog.h"
#include "sim/metrics_registry.h"

namespace oraclesize::service {

struct ServiceConfig {
  std::string socket_path;
  /// Unix socket of the HTTP metrics exposer; "" = socket_path + ".metrics".
  std::string metrics_socket_path;
  /// Requests that execute at once (execution slots); 0 = hardware
  /// concurrency.
  std::size_t jobs = 1;
  /// AdviceCache byte budget; 0 = unbounded (no eviction).
  std::uint64_t cache_budget_bytes = 0;
  std::size_t queue_limit = 256;  ///< advise/run requests waiting for a slot
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Applied to requests that carry no deadline_ms of their own; 0 = none.
  std::uint64_t default_deadline_ms = 0;
};

/// One response: the status ladder byte plus a text body.
struct ServiceResponse {
  std::uint8_t status = kStatusError;
  std::string body;
};

class AdviceService {
 public:
  explicit AdviceService(ServiceConfig config);
  ~AdviceService();  // initiates shutdown and joins everything

  AdviceService(const AdviceService&) = delete;
  AdviceService& operator=(const AdviceService&) = delete;

  /// Binds both sockets and launches the threads. Throws
  /// std::runtime_error on any setup failure (nothing is left running).
  void start();

  /// Graceful drain: stop accepting, reject new work, finish queued work,
  /// flush responses, stop the threads. Idempotent; safe from any thread
  /// (including a connection thread serving a Shutdown request).
  void shutdown();

  /// Blocks until shutdown() has been initiated (by a signal handler
  /// thread, a Shutdown request, or a direct call) and every service
  /// thread has been joined. Call from the owning thread only.
  void wait();

  const ServiceConfig& config() const noexcept { return config_; }
  bool started() const noexcept { return started_; }

  // ---- Introspection (tests, bench, the Stats opcode) ----
  AdviceCache::Stats cache_stats() const { return cache_.stats(); }
  std::size_t graphs_resident() const { return store_.size(); }
  std::size_t queue_depth() const;
  /// The document the exposer serves: the registry in Prometheus text
  /// format plus gauge lines for cache bytes/entries, resident graphs,
  /// and queue depth.
  std::string metrics_text() const;

  /// Test/bench seam: holds slot grants so a harness can stage waiting
  /// requests deterministically (fill to the limit for an overload, let a
  /// deadline lapse). resume_dispatching() releases them, and so does
  /// shutdown().
  void pause_dispatching();
  void resume_dispatching();

 private:
  /// One accepted client. Its thread sets fd to -1 and done under conn_mu_
  /// before it closes the descriptor.
  struct Connection {
    std::thread thread;
    int fd = -1;
    bool done = false;
  };

  /// An advise/run request waiting for a slot, on its connection thread's
  /// stack. grant_locked() hands it a slot (or its expiry) and wakes that
  /// thread alone.
  struct SlotWaiter {
    std::condition_variable cv;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point granted;
    std::uint64_t deadline_ms = 0;  ///< 0 = none
    bool woken = false;
    bool expired = false;
  };

  void acceptor_loop();
  void connection_loop(Connection* conn, int fd);
  void exposer_loop();

  /// Handles one decoded request frame on a connection thread.
  ServiceResponse handle_frame(const std::string& payload);
  /// Decodes an advise/run request, waits for its slot, and executes it.
  ServiceResponse execute(bool is_run, const std::string& body);
  /// Hands the free slots to the waiting requests in arrival order.
  void grant_locked();
  /// Resolves a granted request's advice and answers it.
  ServiceResponse serve(bool is_run, const TaskRequest& request,
                        const TaskBinding& binding, RunOptions options,
                        const PortGraph& graph);
  static ServiceResponse error_response(const std::string& message);

  ServiceConfig config_;
  GraphStore store_;
  AdviceCache cache_;
  BatchRunner runner_;
  MetricsRegistry registry_;

  // Instruments, registered before any worker starts (stable references).
  Counter& requests_total_;
  Counter& requests_ping_;
  Counter& requests_upload_;
  Counter& requests_advise_;
  Counter& requests_run_;
  Counter& requests_metrics_;
  Counter& requests_stats_;
  Counter& requests_shutdown_;
  Counter& responses_ok_;
  Counter& responses_task_failed_;
  Counter& responses_error_;
  Counter& rejected_overload_;
  Counter& expired_deadline_;
  Counter& malformed_frames_;
  Counter& connections_total_;
  Counter& cache_hits_;
  Counter& cache_misses_;
  Histogram& request_latency_ns_;
  Histogram& queue_wait_ns_;
  Histogram& batch_lanes_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  int metrics_fd_ = -1;

  // The slot gate: the requests waiting for a slot, in arrival order. A
  // freed slot goes to the front one, and only its thread is woken.
  mutable std::mutex gate_mu_;
  std::deque<SlotWaiter*> waiting_;
  std::size_t slots_held_ = 0;
  bool gate_closed_ = false;
  bool paused_ = false;

  std::mutex conn_mu_;
  std::list<Connection> conns_;

  std::thread acceptor_;
  std::thread exposer_;

  std::mutex join_mu_;
  bool joined_ = false;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool signalled_ = false;  ///< shutdown() has taken its last signalling step
};

}  // namespace oraclesize::service
