#include "service/advice_service.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace oraclesize::service {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

int bind_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path unusable (empty or longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " chars): '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on '" + path + "': " + err);
  }
  return fd;
}

void best_effort_write(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return;
  }
}

}  // namespace

AdviceService::AdviceService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_budget_bytes),
      runner_(config_.jobs),
      requests_total_(registry_.counter("oracled_requests_total")),
      requests_ping_(registry_.counter("oracled_requests_ping")),
      requests_upload_(registry_.counter("oracled_requests_upload")),
      requests_advise_(registry_.counter("oracled_requests_advise")),
      requests_run_(registry_.counter("oracled_requests_run")),
      requests_metrics_(registry_.counter("oracled_requests_metrics")),
      requests_stats_(registry_.counter("oracled_requests_stats")),
      requests_shutdown_(registry_.counter("oracled_requests_shutdown")),
      responses_ok_(registry_.counter("oracled_responses_ok")),
      responses_task_failed_(registry_.counter("oracled_responses_task_failed")),
      responses_error_(registry_.counter("oracled_responses_error")),
      rejected_overload_(registry_.counter("oracled_rejected_overload")),
      expired_deadline_(registry_.counter("oracled_expired_deadline")),
      malformed_frames_(registry_.counter("oracled_malformed_frames")),
      connections_total_(registry_.counter("oracled_connections_total")),
      cache_hits_(registry_.counter("oracled_advice_cache_hits")),
      cache_misses_(registry_.counter("oracled_advice_cache_misses")),
      request_latency_ns_(registry_.histogram("oracled_request_latency_ns")),
      queue_wait_ns_(registry_.histogram("oracled_queue_wait_ns")),
      batch_lanes_(registry_.histogram("oracled_batch_lanes")) {
  if (config_.metrics_socket_path.empty()) {
    config_.metrics_socket_path = config_.socket_path + ".metrics";
  }
}

AdviceService::~AdviceService() {
  shutdown();
  wait();
}

void AdviceService::start() {
  if (started_) throw std::runtime_error("service already started");
  listen_fd_ = bind_unix_listener(config_.socket_path);
  try {
    metrics_fd_ = bind_unix_listener(config_.metrics_socket_path);
  } catch (...) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw;
  }
  started_ = true;
  acceptor_ = std::thread(&AdviceService::acceptor_loop, this);
  exposer_ = std::thread(&AdviceService::exposer_loop, this);
}

void AdviceService::shutdown() {
  if (stopping_.exchange(true)) return;  // someone else is already draining
  if (started_) {
    // Stop accepting: accept() on the acceptor thread fails immediately.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::shutdown(metrics_fd_, SHUT_RDWR);
    {
      // Close the gate (new requests answer "draining"); it grants even
      // while paused, so the waiting requests drain.
      std::lock_guard<std::mutex> lock(gate_mu_);
      gate_closed_ = true;
      grant_locked();
    }
    {
      // Unblock idle connection threads. SHUT_RD only: a thread mid-reply
      // still flushes its response before it sees the EOF.
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (const Connection& conn : conns_) {
        if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
      }
    }
  }
  {
    // Only now may wait() join: a connection thread it joined before the
    // SHUT_RD above could stay blocked in read() forever.
    std::lock_guard<std::mutex> lock(stop_mu_);
    signalled_ = true;
  }
  stop_cv_.notify_all();
}

void AdviceService::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [&] { return signalled_; });
  }
  std::lock_guard<std::mutex> lock(join_mu_);
  if (joined_) return;
  joined_ = true;
  if (acceptor_.joinable()) acceptor_.join();
  // With the acceptor gone nothing adds to or erases from conns_.
  for (Connection& conn : conns_) conn.thread.join();
  conns_.clear();
  if (exposer_.joinable()) exposer_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_fd_ >= 0) ::close(metrics_fd_);
  listen_fd_ = -1;
  metrics_fd_ = -1;
  if (started_) {
    ::unlink(config_.socket_path.c_str());
    ::unlink(config_.metrics_socket_path.c_str());
  }
}

std::size_t AdviceService::queue_depth() const {
  std::lock_guard<std::mutex> lock(gate_mu_);
  return waiting_.size();
}

void AdviceService::pause_dispatching() {
  std::lock_guard<std::mutex> lock(gate_mu_);
  paused_ = true;
}

void AdviceService::resume_dispatching() {
  std::lock_guard<std::mutex> lock(gate_mu_);
  paused_ = false;
  grant_locked();
}

std::string AdviceService::metrics_text() const {
  std::ostringstream out;
  registry_.snapshot().write_prometheus(out);
  const AdviceCache::Stats cs = cache_.stats();
  out << "# TYPE oracled_advice_cache_bytes gauge\n"
      << "oracled_advice_cache_bytes " << cs.bytes << '\n'
      << "# TYPE oracled_advice_cache_entries gauge\n"
      << "oracled_advice_cache_entries " << cs.entries << '\n'
      << "# TYPE oracled_advice_cache_evictions counter\n"
      << "oracled_advice_cache_evictions " << cs.evictions << '\n'
      << "# TYPE oracled_graphs_resident gauge\n"
      << "oracled_graphs_resident " << store_.size() << '\n'
      << "# TYPE oracled_queue_depth gauge\n"
      << "oracled_queue_depth " << queue_depth() << '\n';
  return out.str();
}

void AdviceService::acceptor_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or a hard error: stop accepting)
    }
    connections_total_.add();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    // Join the threads of closed connections, so they do not pile up
    // until shutdown.
    conns_.remove_if([](Connection& conn) {
      if (conn.done) conn.thread.join();
      return conn.done;
    });
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    conn.thread =
        std::thread(&AdviceService::connection_loop, this, &conn, fd);
  }
}

void AdviceService::connection_loop(Connection* conn, int fd) {
  std::string payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(fd, payload, config_.max_frame_bytes);
    } catch (const FrameError& e) {
      // Framing violation: one best-effort error frame, then hang up —
      // the stream position is unrecoverable after a bad prefix.
      malformed_frames_.add();
      responses_error_.add();
      std::string reply(1, static_cast<char>(kStatusError));
      reply += "error=";
      reply += e.what();
      reply += '\n';
      try {
        write_frame(fd, reply);
      } catch (const FrameError&) {
      }
      break;
    }
    if (!got) break;  // clean EOF

    requests_total_.add();
    const std::uint8_t opcode = static_cast<std::uint8_t>(payload[0]);
    ServiceResponse response;
    if (opcode == kOpShutdown) {
      requests_shutdown_.add();
      response = ServiceResponse{kStatusOk, "draining=1\n"};
    } else {
      response = handle_frame(payload);
    }
    switch (response.status) {
      case kStatusOk:
        responses_ok_.add();
        break;
      case kStatusTaskFailed:
        responses_task_failed_.add();
        break;
      default:
        responses_error_.add();
        break;
    }
    std::string reply(1, static_cast<char>(response.status));
    reply += response.body;
    try {
      write_frame(fd, reply);
    } catch (const FrameError&) {
      break;
    }
    // The drain starts only after the acknowledgment is on the wire.
    if (opcode == kOpShutdown) shutdown();
  }
  {
    // shutdown() signals conn->fd, so it must not name a descriptor
    // number the process may reuse once this one is closed.
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn->fd = -1;
    conn->done = true;
  }
  ::close(fd);
}

ServiceResponse AdviceService::error_response(const std::string& message) {
  std::string body;
  append_kv(body, "error", message);
  return ServiceResponse{kStatusError, std::move(body)};
}

ServiceResponse AdviceService::handle_frame(const std::string& payload) {
  const std::uint8_t opcode = static_cast<std::uint8_t>(payload[0]);
  const std::string body = payload.substr(1);
  switch (opcode) {
    case kOpPing: {
      requests_ping_.add();
      std::string out;
      append_kv(out, "service", "oracled");
      append_kv(out, "protocol", std::uint64_t{1});
      return ServiceResponse{kStatusOk, std::move(out)};
    }
    case kOpUpload: {
      requests_upload_.add();
      try {
        const GraphStore::Inserted ins = store_.insert(body, ParseLimits{});
        std::string out;
        append_kv(out, "digest", ins.digest);
        append_kv(out, "nodes",
                  static_cast<std::uint64_t>(ins.graph->num_nodes()));
        append_kv(out, "fresh", static_cast<std::uint64_t>(ins.fresh));
        return ServiceResponse{kStatusOk, std::move(out)};
      } catch (const std::invalid_argument& e) {
        return error_response(std::string("bad network: ") + e.what());
      }
    }
    case kOpAdvise:
      requests_advise_.add();
      return execute(/*is_run=*/false, body);
    case kOpRun:
      requests_run_.add();
      return execute(/*is_run=*/true, body);
    case kOpMetrics:
      requests_metrics_.add();
      return ServiceResponse{kStatusOk, metrics_text()};
    case kOpStats: {
      requests_stats_.add();
      const AdviceCache::Stats cs = cache_.stats();
      std::string out;
      append_kv(out, "cache_entries", static_cast<std::uint64_t>(cs.entries));
      append_kv(out, "cache_hits", static_cast<std::uint64_t>(cs.hits));
      append_kv(out, "cache_misses", static_cast<std::uint64_t>(cs.misses));
      append_kv(out, "cache_bytes", cs.bytes);
      append_kv(out, "cache_evictions",
                static_cast<std::uint64_t>(cs.evictions));
      append_kv(out, "cache_budget_bytes", cache_.byte_budget());
      append_kv(out, "graphs", static_cast<std::uint64_t>(store_.size()));
      append_kv(out, "queue_depth",
                static_cast<std::uint64_t>(queue_depth()));
      append_kv(out, "queue_limit",
                static_cast<std::uint64_t>(config_.queue_limit));
      append_kv(out, "jobs", static_cast<std::uint64_t>(runner_.jobs()));
      return ServiceResponse{kStatusOk, std::move(out)};
    }
    default:
      return error_response("unknown opcode " + std::to_string(opcode));
  }
}

ServiceResponse AdviceService::execute(bool is_run, const std::string& body) {
  TaskRequest request;
  TaskBinding binding;
  RunOptions options;
  try {
    request = parse_task_request(parse_kv(body));
    binding = bind_task(request);  // reject unknown tasks/trees up front
    if (is_run) options = run_options_for(request);
  } catch (const std::invalid_argument& e) {
    return error_response(e.what());
  }
  const std::shared_ptr<const PortGraph> graph = store_.find(request.digest);
  if (!graph) return error_response("unknown digest " + request.digest);
  if (request.source >= graph->num_nodes()) {
    return error_response("source out of range");
  }

  SlotWaiter waiter;
  waiter.admitted = Clock::now();
  waiter.deadline_ms =
      request.deadline_ms ? request.deadline_ms : config_.default_deadline_ms;
  {
    std::unique_lock<std::mutex> lock(gate_mu_);
    if (gate_closed_) return error_response("draining");
    if (waiting_.size() >= config_.queue_limit) {
      rejected_overload_.add();
      return error_response("overloaded: " +
                            std::to_string(config_.queue_limit) +
                            " requests already queued");
    }
    waiting_.push_back(&waiter);
    grant_locked();
    waiter.cv.wait(lock, [&] { return waiter.woken; });
  }

  ServiceResponse response;
  if (waiter.expired) {
    expired_deadline_.add();
    response = error_response(
        "deadline expired after " +
        std::to_string(ns_between(waiter.admitted, waiter.granted) /
                       1'000'000) +
        " ms in queue");
  } else {
    queue_wait_ns_.observe(ns_between(waiter.admitted, waiter.granted));
    response = serve(is_run, request, binding, std::move(options), *graph);
    std::lock_guard<std::mutex> lock(gate_mu_);
    --slots_held_;
    grant_locked();
  }
  request_latency_ns_.observe(ns_between(waiter.admitted, Clock::now()));
  return response;
}

void AdviceService::grant_locked() {
  while (!waiting_.empty() && slots_held_ < runner_.jobs() &&
         (gate_closed_ || !paused_)) {
    SlotWaiter& waiter = *waiting_.front();
    waiting_.pop_front();
    waiter.granted = Clock::now();
    // An expired request gives its turn up without taking the slot.
    waiter.expired = waiter.deadline_ms &&
                     waiter.granted - waiter.admitted >
                         std::chrono::milliseconds(waiter.deadline_ms);
    if (!waiter.expired) batch_lanes_.observe(++slots_held_);
    // Notify under gate_mu_: once it is released the waiter may see woken,
    // return, and take its condition variable with it.
    waiter.woken = true;
    waiter.cv.notify_one();
  }
}

ServiceResponse AdviceService::serve(bool is_run, const TaskRequest& request,
                                     const TaskBinding& binding,
                                     RunOptions options,
                                     const PortGraph& graph) {
  // The lookup's shared_ptr pins the advice for this request even if a
  // concurrent lookup evicts the entry.
  AdviceCache::Lookup lookup;
  try {
    lookup = cache_.lookup(graph, *binding.oracle, request.source);
  } catch (const std::exception& e) {
    return error_response(std::string("advise failed: ") + e.what());
  }
  (lookup.hit ? cache_hits_ : cache_misses_).add();
  std::string out;
  if (!is_run) {
    const std::vector<BitString>& advice = *lookup.advice;
    append_kv(out, "oracle", binding.oracle->name());
    append_kv(out, "algorithm", binding.algorithm->name());
    append_kv(out, "oracle_bits", oracle_size_bits(advice));
    append_kv(out, "max_advice_bits", max_advice_bits(advice));
    append_kv(out, "cached", static_cast<std::uint64_t>(lookup.hit));
    append_kv(out, "advise_ns", lookup.advise_ns);
    append_kv(out, "nodes", static_cast<std::uint64_t>(graph.num_nodes()));
    return ServiceResponse{kStatusOk, std::move(out)};
  }

  // BatchRunner runs a one-spec batch inline on this thread, on the same
  // code path as a direct run, and isolates a trial that throws.
  const std::vector<TaskReport> reports = runner_.run(
      {TrialSpec(&graph, request.source, binding.oracle.get(),
                 binding.algorithm, std::move(options), lookup.advice)});
  const TaskReport& report = reports.front();
  if (report.failed()) return error_response(report.error);
  append_kv(out, "status", to_string(report.run.status));
  append_kv(out, "oracle", report.oracle_name);
  append_kv(out, "algorithm", report.algorithm_name);
  append_kv(out, "oracle_bits", report.oracle_bits);
  append_kv(out, "max_advice_bits", report.max_advice_bits);
  append_kv(out, "advice_cached",
            static_cast<std::uint64_t>(report.advice_cached));
  append_kv(out, "attempts", std::uint64_t{report.attempts});
  append_kv(out, "messages_total", report.run.metrics.messages_total);
  append_kv(out, "bits_sent", report.run.metrics.bits_sent);
  append_kv(out, "deliveries", report.run.metrics.deliveries);
  append_kv(out, "completion_key",
            std::to_string(report.run.metrics.completion_key));
  append_kv(out, "queue_depth_peak", report.run.metrics.queue_depth_peak);
  append_kv(out, "informed",
            static_cast<std::uint64_t>(report.run.informed_count()));
  append_kv(out, "nodes", static_cast<std::uint64_t>(graph.num_nodes()));
  append_kv(out, "all_informed",
            static_cast<std::uint64_t>(report.run.all_informed));
  if (!report.run.violation.empty()) {
    append_kv(out, "violation", report.run.violation);
  }
  append_kv(out, "run_ns", report.run_ns);
  return ServiceResponse{report.ok() ? kStatusOk : kStatusTaskFailed,
                         std::move(out)};
}

void AdviceService::exposer_loop() {
  for (;;) {
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Drain whatever request line the scraper sends (if any), then answer.
    // The exposer serves exactly one document, so the request is not
    // parsed — curl, Prometheus, and a bare connect-and-read all work.
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 200) > 0) {
      char buf[1024];
      (void)!::read(fd, buf, sizeof buf);
    }
    const std::string body = metrics_text();
    std::string reply =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    best_effort_write(fd, reply);
    ::close(fd);
  }
}

}  // namespace oraclesize::service
