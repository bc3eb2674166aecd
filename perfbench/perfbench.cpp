// perfbench: the end-to-end benchmark program (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--quick] [--expect-digest HEX] [--spans FILE]
//
// Every workload starts from graph text: set-up generates the graphs with
// the library's builders from the seed and serializes them with to_text;
// the measured phase sees only that text (and, for service_mixed, request
// bytes). The untraced run (--trace 0) measures the end-to-end metrics; the
// traced run (--trace 1) replays the same work split into the public calls
// of each layer, records one span per call, and reports the per-layer
// metrics. Both runs check every output and hash each pass's deterministic
// trial fields into a digest, which must equal --expect-digest when given.
//
// The last stdout line is one JSON object: correct, attempted, failed, the
// digest, build type and compiler, the first failures, supporting counts
// ("detail"), and the metrics of the chosen mode. perfbench/run.py turns it
// into the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/advice_cache.h"
#include "core/batch_runner.h"
#include "core/broadcast_b.h"
#include "core/flooding.h"
#include "core/runner.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/io.h"
#include "graph/light_tree.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "service/advice_service.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/task_catalog.h"
#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"
#include "sim/sharded_engine.h"
#include "util/rng.h"

namespace {

using namespace oraclesize;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Geometric mean of each kind's median: the workload's typical latency,
/// robust to which input kinds a run happened to sample more often. Each
/// kind's sample count and median land in `detail`.
double typical_latency(const std::map<std::string, std::vector<double>>& by_kind,
                       std::map<std::string, double>& detail) {
  double log_sum = 0.0;
  std::size_t kinds = 0;
  for (const auto& [kind, samples] : by_kind) {
    if (samples.empty()) continue;
    detail["latency." + kind + ".samples"] = static_cast<double>(samples.size());
    detail["latency." + kind + ".p50_ms"] = median(samples);
    detail["latency." + kind + ".p90_ms"] = quantile(samples, 0.9);
    log_sum += std::log(median(samples));
    ++kinds;
  }
  return kinds ? std::exp(log_sum / static_cast<double>(kinds)) : 0.0;
}

// ---------------------------------------------------------------------------
// Output digest: FNV-1a 64 over every trial's deterministic fields.
// ---------------------------------------------------------------------------

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add_trial(std::uint64_t oracle_bits, const RunResult& run) {
    add(oracle_bits);
    add(run.metrics.messages_total);
    add(run.metrics.bits_sent);
    add(static_cast<std::uint64_t>(run.metrics.completion_key));
    add(static_cast<std::uint64_t>(run.status));
  }
  std::string hex() const { return service::digest_hex(h); }
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span, job id. Kept in memory, written out
// at the end, and reduced to per-layer self times (a span's duration minus
// its children's). The layer is the name up to the first '.'.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name, int parent, std::uint64_t job) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), t, t, parent, job});
    return static_cast<int>(spans_.size() - 1);
  }
  /// One client request, timed by the caller: a "job" root and one `name`
  /// child over the same interval, recorded under a single lock.
  void request(std::string name, std::uint64_t job, Clock::time_point t0,
               Clock::time_point t1) {
    const std::int64_t a = ns_since_origin(t0), b = ns_since_origin(t1);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{"job", a, b, -1, job});
    spans_.push_back(
        Span{std::move(name), a, b, static_cast<int>(spans_.size() - 1), job});
  }
  void end(int id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
  }
  /// A child span whose duration the program measured itself (for example
  /// TaskReport::run_ns inside a BatchRunner call), anchored at the parent's
  /// start.
  void derived(std::string name, int parent, std::uint64_t job,
               std::int64_t duration_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t t0 = spans_[static_cast<std::size_t>(parent)].t0;
    spans_.push_back(Span{std::move(name), t0, t0 + duration_ns, parent, job});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, in ms, over every span whose root is a "job".
  std::map<std::string, double> layer_self_ms() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += dur_ms(s);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (root_name(i) != "job") continue;
      const std::string& n = spans_[i].name;
      out[n.substr(0, n.find('.'))] += dur_ms(spans_[i]) - child[i];
    }
    return out;
  }

  /// Summed duration of the spans with this exact name.
  double total_ms(const std::string& name) const {
    double ms = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) ms += dur_ms(s);
    }
    return ms;
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.t0 << ",\"end_ns\":" << s.t1
          << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}";
    }
    out << "\n]\n";
  }

 private:
  static double dur_ms(const Span& s) {
    return static_cast<double>(s.t1 - s.t0) / 1e6;
  }
  std::string root_name(std::size_t i) const {
    while (spans_[i].parent >= 0) i = static_cast<std::size_t>(spans_[i].parent);
    return spans_[i].name;
  }
  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t now_ns() const { return ns_since_origin(Clock::now()); }

  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* t, std::string name, int parent, std::uint64_t job)
      : t_(t), id_(t ? t->begin(std::move(name), parent, job) : -1) {}
  ~Scope() { close(); }
  void close() {
    if (t_ && !closed_) t_->end(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
  bool closed_ = false;
};

/// Cost of one call of `record(probe, i)`, which records spans on a probe
/// tracer, timed over 10000 calls: what tracing adds, measured directly.
template <typename F>
double record_cost_ms(F&& record) {
  Tracer probe;
  const std::size_t n = 10000;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) record(probe, i);
  return ms_since(t0) / static_cast<double>(n);
}

/// The trace summary every traced run reports: each layer's self time as a
/// share of the summed job wall, the job wall and the job time no layer
/// claims, per pass.
void report_self_times(const Tracer& tracer, double passes,
                       std::map<std::string, double>& m) {
  const auto self = tracer.layer_self_ms();
  double job_wall = 0.0;
  for (const Span& s : tracer.spans()) {
    if (s.name == "job") job_wall += static_cast<double>(s.t1 - s.t0) / 1e6;
  }
  for (const char* layer : {"graph", "oracle", "core", "sim", "service"}) {
    auto it = self.find(layer);
    m[std::string(layer) + ".self_share"] =
        it == self.end() || job_wall <= 0 ? 0.0 : it->second / job_wall;
  }
  m["trace.job_wall_ms"] = job_wall / passes;
  m["trace.unattributed_ms"] = (self.count("job") ? self.at("job") : 0.0) / passes;
}

// ---------------------------------------------------------------------------
// Shared run state: counts, failures, metrics.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string expect_digest;
  std::string spans_path;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::string digest;               ///< digest of the first measured pass
  std::map<std::string, double> metrics;
  /// Per-layer metrics (names or name prefixes up to a '.') the workload
  /// reads as 0 by design, mostly the layers it bypasses. run.py fills the
  /// ones not printed with 0 and requires every other per-layer metric
  /// except failure counters to be non-zero.
  std::vector<std::string> zero_by_design;
  /// Supporting counts written to the result file: sample counts behind
  /// each latency, and per-phase, per-kind request accounting.
  std::map<std::string, double> detail;

  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Every pass over a workload's inputs hashes to the same digest: the
/// first pass's, which must equal the recorded one when given.
void check_digest(Outcome& out, const Options& opt, const std::string& digest,
                  std::uint64_t ops) {
  if (out.digest.empty()) {
    out.digest = digest;
  } else if (digest != out.digest) {
    out.fail("pass digest " + digest + " differs from first pass " + out.digest,
             ops);
    return;
  }
  if (!opt.expect_digest.empty() && digest != opt.expect_digest) {
    out.fail("digest " + digest + " differs from recorded " + opt.expect_digest,
             ops);
  }
}

enum class Expect { kAny, kCompleted, kWakeupExact, kBroadcastBound };

/// The paper's invariants on one fault-free trial (Theorem 2.1: wakeup in
/// exactly n-1 messages with no violation; Theorem 3.1: Broadcast B in at
/// most 3(n-1) messages). kAny only rejects infrastructure failures.
void check_trial(Outcome& out, const std::string& where, const RunResult& run,
                 const std::string& error, std::size_t n, Expect expect) {
  if (!error.empty()) {
    out.fail(where + ": trial threw: " + error);
    return;
  }
  if (expect == Expect::kAny) return;
  if (run.status != RunStatus::kCompleted || !run.violation.empty()) {
    out.fail(where + ": status " + to_string(run.status) + " " + run.violation);
    return;
  }
  const std::uint64_t m = run.metrics.messages_total;
  if (expect == Expect::kWakeupExact && m != n - 1) {
    out.fail(where + ": wakeup sent " + std::to_string(m) + " messages, n-1 = " +
             std::to_string(n - 1));
  }
  if (expect == Expect::kBroadcastBound && m > 3 * (n - 1)) {
    out.fail(where + ": broadcast sent " + std::to_string(m) +
             " messages, 3(n-1) = " + std::to_string(3 * (n - 1)));
  }
}

Expect expect_for(const Algorithm* algorithm, bool fault_free) {
  if (!fault_free) return Expect::kAny;
  if (algorithm->name() == "wakeup-tree") return Expect::kWakeupExact;
  if (algorithm->name() == "broadcast-B") return Expect::kBroadcastBound;
  return Expect::kCompleted;
}

// The algorithms and oracles every batch workload draws from.
struct Schemes {
  TreeWakeupOracle wakeup_oracle;
  LightBroadcastOracle broadcast_oracle;
  NullOracle null_oracle;
  WakeupTreeAlgorithm wakeup;
  BroadcastBAlgorithm broadcast;
  FloodingAlgorithm flooding;
};

/// One trial of a text job, described independently of any parsed graph so
/// the untraced and traced runs can bind it to their own parse.
struct Trial {
  NodeId source = 0;
  const Oracle* oracle = nullptr;
  const Algorithm* algorithm = nullptr;
  RunOptions options;

  bool fault_free() const {
    return !options.fault.enabled() && !options.adversary.enabled();
  }
  /// BatchRunner switches wakeup enforcement on for wakeup algorithms; the
  /// traced run calls the engines directly and must do the same.
  RunOptions engine_options() const {
    RunOptions o = options;
    if (algorithm->is_wakeup()) o.enforce_wakeup = true;
    return o;
  }
};

/// One unit of a batch workload: a graph text and the trials run on it.
/// trials[0] is submitted alone (as the CLI `run` does) and sets the
/// text-to-report latency; the rest follow as one batch.
struct TextJob {
  std::string kind;
  std::string text;
  std::size_t nodes = 0;
  std::vector<Trial> trials;
};

// Per-layer accumulators for the traced run.
struct LayerStats {
  std::map<std::string, std::vector<double>> samples;  ///< mean over samples
  std::map<std::string, double> sums;                  ///< summed per run

  void add(const std::string& k, double v) { samples[k].push_back(v); }
  void sum(const std::string& k, double v) { sums[k] += v; }
  double avg(const std::string& k) const {
    auto it = samples.find(k);
    return it == samples.end() ? 0.0 : mean(it->second);
  }
  double total(const std::string& k) const {
    auto it = sums.find(k);
    return it == sums.end() ? 0.0 : it->second;
  }
};

// ---------------------------------------------------------------------------
// Batch workloads: dense_text, seed_sweep, large_sharded.
// ---------------------------------------------------------------------------

class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;

  /// Generates the graphs from the seed and serializes them (set-up).
  virtual std::vector<TextJob> make_jobs(std::uint64_t seed, bool quick) = 0;
  virtual BatchRunner runner() const = 0;
  /// The per-layer metrics this workload reads as 0 (Outcome::zero_by_design).
  virtual std::vector<std::string> zero_by_design() const = 0;

  /// Untraced pass over every job: graph text -> reports, as a user runs it.
  /// Returns the pass digest; records latencies per job kind.
  std::string run_pass(const std::vector<TextJob>& jobs, Outcome& out,
                       std::map<std::string, std::vector<double>>& latency,
                       std::uint64_t& trials, LayerStats* layers) {
    const BatchRunner batch = runner();
    Digest digest;
    for (const TextJob& job : jobs) {
      const auto t0 = Clock::now();
      const PortGraph g = from_text(job.text);
      std::vector<TaskReport> reports;
      for (int part = 0; part < 2; ++part) {
        std::vector<TrialSpec> specs;
        const std::size_t lo = part == 0 ? 0 : 1;
        const std::size_t hi = part == 0 ? 1 : job.trials.size();
        for (std::size_t i = lo; i < hi; ++i) {
          const Trial& t = job.trials[i];
          specs.emplace_back(&g, t.source, t.oracle, t.algorithm, t.options);
        }
        if (specs.empty()) continue;
        BatchStats stats;
        const auto b0 = Clock::now();
        std::vector<TaskReport> part_reports =
            batch.run(specs, layers ? &stats : nullptr);
        if (layers) record_batch(*layers, stats, ms_since(b0), specs.size());
        if (part == 0) latency[job.kind].push_back(ms_since(t0));
        for (TaskReport& r : part_reports) reports.push_back(std::move(r));
      }
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const Trial& t = job.trials[i];
        check_trial(out, job.kind + " trial " + std::to_string(i), reports[i].run,
                    reports[i].error, job.nodes, expect_for(t.algorithm, t.fault_free()));
        digest.add_trial(reports[i].oracle_bits, reports[i].run);
        if (layers) on_report(*layers, reports[i]);
      }
      trials += reports.size();
      out.attempted += reports.size();
    }
    return digest.hex();
  }

  /// Layer-split pass: the same trials, one public call of a layer at a
  /// time, one span per call when `tracer` is set. Adds the summed wall of
  /// the jobs to `job_ms`; the off-job probes (light tree, serial engine
  /// baseline) run only when traced.
  virtual std::string traced_pass(const std::vector<TextJob>& jobs,
                                  Outcome& out, Tracer* tracer,
                                  LayerStats& layers, std::uint64_t& job_id,
                                  double& job_ms) = 0;

 protected:
  static void record_batch(LayerStats& layers, const BatchStats& s, double ms,
                           std::size_t specs) {
    layers.add("core.batch_ms", ms);
    layers.sum("core.cache.specs", static_cast<double>(specs));
    layers.sum("core.cache.hits", static_cast<double>(s.cache_hits));
    layers.sum("core.cache.unique_advice", static_cast<double>(s.unique_advice));
    layers.sum("core.batch.failed", static_cast<double>(s.failed));
    layers.sum("core.batch.retries", static_cast<double>(s.retries));
    layers.sum("sim.lockstep.families", static_cast<double>(s.seed_families));
    layers.sum("sim.lockstep.batched", static_cast<double>(s.batched_lanes));
    layers.sum("sim.lockstep.shared", static_cast<double>(s.lockstep_shared));
  }
  static void on_report(LayerStats& layers, const TaskReport& r) {
    layers.sum("oracle.bits", static_cast<double>(r.oracle_bits));
  }
};

/// Binds a job's trials to one parsed graph and advice vectors.
struct AdviceTable {
  std::map<std::pair<std::string, NodeId>, std::shared_ptr<const std::vector<BitString>>> table;

  /// Advises every distinct (oracle, source) key once, in trial order, one
  /// oracle.advise span per key.
  void fill(const PortGraph& g, const TextJob& job, Tracer* tracer, int parent,
            std::uint64_t jid, LayerStats& layers) {
    for (const Trial& t : job.trials) {
      const auto key = std::make_pair(t.oracle->name(), t.source);
      if (table.count(key)) continue;
      const auto a0 = Clock::now();
      Scope s(tracer, "oracle.advise", parent, jid);
      table[key] = std::make_shared<const std::vector<BitString>>(
          t.oracle->advise(g, t.source));
      s.close();
      layers.add("oracle.advise_ms", ms_since(a0));
    }
  }
  const std::shared_ptr<const std::vector<BitString>>& at(const Trial& t) const {
    return table.at(std::make_pair(t.oracle->name(), t.source));
  }
};

/// Checks and hashes the results of a traced pass that called the engines
/// directly, pricing each trial's oracle bits from its advice.
void finish_job(const TextJob& job, const std::vector<RunResult>& results,
                const AdviceTable& advice, Outcome& out, LayerStats& layers,
                Digest& digest) {
  for (std::size_t k = 0; k < results.size(); ++k) {
    const Trial& t = job.trials[k];
    check_trial(out, job.kind + " trial " + std::to_string(k), results[k], "",
                job.nodes, expect_for(t.algorithm, t.fault_free()));
    const std::uint64_t bits = oracle_size_bits(*advice.at(t));
    digest.add_trial(bits, results[k]);
    layers.sum("oracle.bits", static_cast<double>(bits));
  }
  out.attempted += results.size();
}

void record_engine(LayerStats& layers, const RunResult& r, double ms) {
  layers.add("sim.run_ms", ms);
  layers.sum("sim.engine_ms", ms);
  layers.sum("sim.deliveries", static_cast<double>(r.metrics.deliveries));
  layers.sum("sim.messages", static_cast<double>(r.metrics.messages_total));
}

/// Light-tree probe, off the job's critical path: Claim 3.1's bound
/// sum of #2(w(e)) <= 4n is checked on the probe's result.
void light_tree_probe(const PortGraph& g, NodeId source, Tracer* tracer,
                      std::uint64_t jid, LayerStats& layers, Outcome& out,
                      const std::string& kind) {
  const auto t0 = Clock::now();
  Scope s(tracer, "graph.light_tree", -1, jid);
  const LightTreeResult lt = light_tree(g, source);
  s.close();
  layers.add("graph.light_tree_ms", ms_since(t0));
  layers.add("graph.light_tree_phases", static_cast<double>(lt.phases.size()));
  if (lt.contribution > 4 * g.num_nodes()) {
    out.fail(kind + ": light tree sum #2 = " + std::to_string(lt.contribution) +
             " exceeds 4n = " + std::to_string(4 * g.num_nodes()));
  }
}

PortGraph parse_traced(const TextJob& job, Tracer* tracer, int parent,
                       std::uint64_t jid, LayerStats& layers) {
  const auto t0 = Clock::now();
  Scope s(tracer, "graph.parse", parent, jid);
  PortGraph g = from_text(job.text);
  s.close();
  const double ms = ms_since(t0);
  layers.add("graph.parse_ms", ms);
  layers.sum("graph.parse_bytes", static_cast<double>(job.text.size()));
  layers.sum("graph.parse_total_ms", ms);
  return g;
}

// dense_text: dense graph text, many distinct broadcast sources per text.
// Parse and light-tree advise dominate; the engine and the cache do not.
class DenseText final : public BatchWorkload {
 public:
  std::vector<TextJob> make_jobs(std::uint64_t seed, bool quick) override {
    Rng rng(mix64(seed ^ 0xde45e7e47ULL));
    const std::size_t s = quick ? 4 : kSources;
    std::vector<std::pair<std::string, PortGraph>> graphs;
    if (quick) {
      graphs.emplace_back("complete", make_complete_star(48));
      graphs.emplace_back("bipartite", make_complete_bipartite(24, 24));
      graphs.emplace_back("gnp", make_random_connected(48, 0.5, rng));
    } else {
      graphs.emplace_back("complete-1024", make_complete_star(1024));
      graphs.emplace_back("bipartite-512", make_complete_bipartite(512, 512));
      graphs.emplace_back("gnp-1024", make_random_connected(1024, 0.5, rng));
      graphs.emplace_back("complete-1448", make_complete_star(1448));
    }
    std::vector<TextJob> jobs;
    for (auto& [kind, g0] : graphs) {
      const PortGraph g = shuffle_ports(g0, rng);
      TextJob job;
      job.kind = kind;
      job.text = to_text(g);
      job.nodes = g.num_nodes();
      for (std::size_t src : rng.sample_without_replacement(g.num_nodes(), s)) {
        job.trials.push_back(Trial{static_cast<NodeId>(src), &schemes_.broadcast_oracle,
                                   &schemes_.broadcast, RunOptions{}});
      }
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  BatchRunner runner() const override { return BatchRunner(2); }

  /// Distinct sources: the advice cache only misses and no two trials form
  /// a seed family.
  std::vector<std::string> zero_by_design() const override {
    return {"core.cache.hit_rate", "sim.lockstep", "sim.shard", "service"};
  }

  std::string traced_pass(const std::vector<TextJob>& jobs, Outcome& out,
                          Tracer* tracer, LayerStats& layers,
                          std::uint64_t& job_id, double& job_ms) override {
    const BatchRunner serial(1);
    Digest digest;
    for (const TextJob& job : jobs) {
      const std::uint64_t jid = job_id++;
      const auto j0 = Clock::now();
      Scope root(tracer, "job", -1, jid);
      const PortGraph g = parse_traced(job, tracer, root.id(), jid, layers);
      AdviceTable advice;
      advice.fill(g, job, tracer, root.id(), jid, layers);
      std::vector<TrialSpec> specs;
      for (const Trial& t : job.trials) {
        specs.emplace_back(&g, t.source, t.oracle, t.algorithm, t.options,
                           advice.at(t));
      }
      Scope batch(tracer, "core.batch", root.id(), jid);
      const std::vector<TaskReport> reports = serial.run(specs);
      batch.close();
      std::int64_t run_ns = 0;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const TaskReport& r = reports[i];
        run_ns += static_cast<std::int64_t>(r.run_ns);
        record_engine(layers, r.run, static_cast<double>(r.run_ns) / 1e6);
        check_trial(out, job.kind + " trial " + std::to_string(i), r.run, r.error,
                    job.nodes, expect_for(job.trials[i].algorithm, true));
        digest.add_trial(r.oracle_bits, r.run);
        on_report(layers, r);
      }
      // The engine time inside the serial batch call, as BatchRunner
      // measured it around each ExecutionContext::run.
      if (tracer) tracer->derived("sim.run", batch.id(), jid, run_ns);
      root.close();
      job_ms += ms_since(j0);
      if (tracer) {
        light_tree_probe(g, job.trials[0].source, tracer, jid, layers, out, job.kind);
      }
      out.attempted += reports.size();
    }
    return digest.hex();
  }

 private:
  static constexpr std::size_t kSources = 48;
  Schemes schemes_;
};

// seed_sweep: sparse texts, each with an E13-style fault matrix on seed
// families. The lockstep pass and scalar replays dominate.
class SeedSweep final : public BatchWorkload {
 public:
  std::vector<TextJob> make_jobs(std::uint64_t seed, bool quick) override {
    Rng rng(mix64(seed ^ 0x5eed5eedULL));
    const std::size_t n = quick ? 64 : 4096;
    const std::size_t side = quick ? 8 : 64;
    const int dim = quick ? 6 : 12;
    const std::size_t lanes = quick ? 3 : kLanes;
    std::vector<std::pair<std::string, PortGraph>> graphs;
    graphs.emplace_back("random", make_random_connected_sparse(n, 3 * n, rng));
    graphs.emplace_back("grid", make_grid(side, side));
    graphs.emplace_back("tree", make_random_tree(n, rng));
    graphs.emplace_back("hypercube", make_hypercube(dim));
    struct Cell {
      const Oracle* oracle;
      const Algorithm* algorithm;
      SchedulerKind scheduler;
    };
    const Cell cells[] = {
        {&schemes_.wakeup_oracle, &schemes_.wakeup, SchedulerKind::kSynchronous},
        {&schemes_.broadcast_oracle, &schemes_.broadcast, SchedulerKind::kAsyncRandom},
        {&schemes_.null_oracle, &schemes_.flooding, SchedulerKind::kAsyncLifo},
    };
    std::vector<TextJob> jobs;
    for (auto& [kind, g0] : graphs) {
      const PortGraph g = shuffle_ports(g0, rng);
      TextJob job;
      job.kind = kind;
      job.text = to_text(g);
      job.nodes = g.num_nodes();
      // Several sources per text, so a run averages over many divergence
      // patterns instead of hanging on one seed's.
      const auto sources = rng.sample_without_replacement(g.num_nodes(), kSources);
      // trials[0]: fault-free wakeup, the text-to-report probe.
      job.trials.push_back(Trial{static_cast<NodeId>(sources[0]), cells[0].oracle,
                                 cells[0].algorithm, {}});
      for (const std::size_t src : sources) {
        const NodeId source = static_cast<NodeId>(src);
        const std::uint64_t base = rng.next_u64() >> 1;
        for (const Cell& cell : cells) {
          for (int mode = 0; mode < 3; ++mode) {
            for (std::size_t r = 0; r < lanes; ++r) {
              RunOptions o;
              o.scheduler = cell.scheduler;
              o.seed = base + r;
              o.fault.seed = base + 7919 * (r + 1);
              if (mode == 1) o.fault.drop = 1e-3;
              if (mode == 2) {
                o.fault.crash = 1e-3;
                o.fault.max_crash_key = 8;
              }
              job.trials.push_back(Trial{source, cell.oracle, cell.algorithm, o});
            }
          }
        }
        // One Byzantine cell: ineligible for the lockstep pass, runs scalar.
        for (std::size_t r = 0; r < kByzLanes; ++r) {
          RunOptions o;
          o.seed = base + r;
          o.adversary.seed = base + 104729 * (r + 1);
          o.adversary.byz_nodes = 2;
          job.trials.push_back(
              Trial{source, &schemes_.broadcast_oracle, &schemes_.broadcast, o});
        }
      }
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  BatchRunner runner() const override { return BatchRunner(2); }

  /// The layer-split pass calls the engines directly, so no core span.
  std::vector<std::string> zero_by_design() const override {
    return {"graph.light_tree_ms", "graph.light_tree_phases",
            "core.self_share", "sim.shard", "service"};
  }

  std::string traced_pass(const std::vector<TextJob>& jobs, Outcome& out,
                          Tracer* tracer, LayerStats& layers,
                          std::uint64_t& job_id, double& job_ms) override {
    Digest digest;
    SeedBatchExecutionContext ctx;
    for (const TextJob& job : jobs) {
      const std::uint64_t jid = job_id++;
      const auto j0 = Clock::now();
      Scope root(tracer, "job", -1, jid);
      const PortGraph g = parse_traced(job, tracer, root.id(), jid, layers);
      AdviceTable advice;
      advice.fill(g, job, tracer, root.id(), jid, layers);
      std::vector<RunResult> results(job.trials.size());
      {
        // trials[0] alone, on the scalar engine, as BatchRunner runs it.
        const Trial& t = job.trials[0];
        const auto t0 = Clock::now();
        Scope s(tracer, "sim.run", root.id(), jid);
        results[0] = ctx.scalar().run(g, t.source, *advice.at(t), *t.algorithm,
                                      t.engine_options());
        s.close();
        record_engine(layers, results[0], ms_since(t0));
      }
      // Seed families: consecutive trials equal up to their two seeds.
      std::size_t i = 1;
      while (i < job.trials.size()) {
        std::size_t j = i + 1;
        const auto same_family = [&](const Trial& a, const Trial& b) {
          RunOptions x = a.options, y = b.options;
          x.seed = y.seed = 0;
          x.fault.seed = y.fault.seed = 0;
          return a.source == b.source && a.algorithm == b.algorithm &&
                 x.fault == y.fault &&
                 x.adversary == y.adversary && x.scheduler == y.scheduler;
        };
        while (j < job.trials.size() && same_family(job.trials[i], job.trials[j])) ++j;
        run_family(g, job, i, j, advice, ctx, tracer, root.id(), jid, layers,
                   results);
        i = j;
      }
      root.close();
      job_ms += ms_since(j0);
      finish_job(job, results, advice, out, layers, digest);
    }
    return digest.hex();
  }

 private:
  void run_family(const PortGraph& g, const TextJob& job, std::size_t lo,
                  std::size_t hi, const AdviceTable& advice,
                  SeedBatchExecutionContext& ctx, Tracer* tracer, int parent,
                  std::uint64_t jid, LayerStats& layers,
                  std::vector<RunResult>& results) {
    const Trial& first = job.trials[lo];
    const RunOptions base = first.engine_options();
    std::vector<SeedBatchExecutionContext::Lane> lanes;
    for (std::size_t k = lo; k < hi; ++k) {
      lanes.push_back({job.trials[k].options.seed, job.trials[k].options.fault.seed});
    }
    std::vector<SeedBatchExecutionContext::LaneDisposition> disp;
    const auto p0 = Clock::now();
    Scope pass(tracer, "sim.lockstep.pass", parent, jid);
    ctx.run_lockstep(g, first.source, *advice.at(first), *first.algorithm, base,
                     lanes, disp);
    pass.close();
    const double pass_ms = ms_since(p0);
    layers.sum("sim.lockstep.pass_ms", pass_ms);
    layers.sum("sim.engine_ms", pass_ms);
    const SeedBatchStats stats = ctx.last_stats();
    layers.sum("sim.lockstep.families", 1);
    layers.sum("sim.lockstep.batched", stats.lanes);
    layers.sum("sim.lockstep.shared", stats.shared);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (disp[k] == SeedBatchExecutionContext::LaneDisposition::kShared) {
        results[lo + k] = ctx.lane_result(k);
        const RunResult& r = results[lo + k];
        layers.sum("sim.deliveries", static_cast<double>(r.metrics.deliveries));
        layers.sum("sim.messages", static_cast<double>(r.metrics.messages_total));
        continue;
      }
      RunOptions o = base;
      o.seed = lanes[k].seed;
      o.fault.seed = lanes[k].fault_seed;
      const auto r0 = Clock::now();
      Scope s(tracer, "sim.lockstep.replay", parent, jid);
      results[lo + k] = ctx.scalar().run(g, first.source, *advice.at(first),
                                         *first.algorithm, o);
      s.close();
      const double ms = ms_since(r0);
      layers.sum("sim.lockstep.replay_ms", ms);
      record_engine(layers, results[lo + k], ms);
    }
  }

  static constexpr std::size_t kSources = 3;
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kByzLanes = 4;
  Schemes schemes_;
};

// large_sharded: two n=262144 texts run on the sharded engine at 4 shards.
// Grid is barrier-bound (about a thousand narrow epochs); random-sparse has
// a few wide epochs.
class LargeSharded final : public BatchWorkload {
 public:
  explicit LargeSharded(bool quick) : quick_(quick) {}

  std::vector<TextJob> make_jobs(std::uint64_t seed, bool quick) override {
    Rng rng(mix64(seed ^ 0x5a4ded0ULL));
    const std::size_t side = quick ? 32 : 512;
    const std::size_t n = side * side;
    std::vector<std::pair<std::string, PortGraph>> graphs;
    graphs.emplace_back("grid", make_grid(side, side));
    graphs.emplace_back("random", make_random_connected_sparse(n, n / 2, rng));
    std::vector<TextJob> jobs;
    for (auto& [kind, g0] : graphs) {
      const PortGraph g = shuffle_ports(g0, rng);
      TextJob job;
      job.kind = kind;
      job.text = to_text(g);
      job.nodes = g.num_nodes();
      // The grid source is a corner: eccentricity 2(side-1), the full
      // thousand narrow epochs at every seed.
      const NodeId source =
          kind == "grid" ? 0 : static_cast<NodeId>(rng.below(g.num_nodes()));
      const std::uint64_t base = rng.next_u64() >> 1;
      const std::pair<const Oracle*, const Algorithm*> tasks[] = {
          {&schemes_.wakeup_oracle, &schemes_.wakeup},
          {&schemes_.broadcast_oracle, &schemes_.broadcast},
          {&schemes_.null_oracle, &schemes_.flooding},
      };
      // Per task: one fault-free trial and one with rare extra delays (every
      // message still arrives, so the work is the same at every seed), all
      // on the synchronous scheduler (fifo/lifo epochs hold one event).
      for (const auto& [oracle, algorithm] : tasks) {
        for (int lane = 0; lane < 2; ++lane) {
          RunOptions o;
          if (lane == 1) {
            o.fault.delay = 1e-3;
            o.fault.max_extra_delay = 2;
            o.fault.seed = base + 31;
          }
          job.trials.push_back(Trial{source, oracle, algorithm, o});
        }
      }
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  BatchRunner runner() const override {
    return BatchRunner(2, true, RetryPolicy{},
                       ShardPolicy{kShards, quick_ ? 256u : 65536u});
  }

  /// Each task's two trials differ in their fault plan, so no seed family;
  /// the layer-split pass calls the engines directly, so no core span.
  std::vector<std::string> zero_by_design() const override {
    return {"graph.light_tree_ms", "graph.light_tree_phases",
            "core.self_share", "sim.lockstep", "service"};
  }

  std::string traced_pass(const std::vector<TextJob>& jobs, Outcome& out,
                          Tracer* tracer, LayerStats& layers,
                          std::uint64_t& job_id, double& job_ms) override {
    Digest digest;
    ShardedExecutionContext sharded(kShards);
    ExecutionContext serial;
    for (const TextJob& job : jobs) {
      const std::uint64_t jid = job_id++;
      const auto j0 = Clock::now();
      Scope root(tracer, "job", -1, jid);
      const PortGraph g = parse_traced(job, tracer, root.id(), jid, layers);
      AdviceTable advice;
      advice.fill(g, job, tracer, root.id(), jid, layers);
      std::vector<RunResult> results;
      std::vector<ShardedRunStats> stats;
      for (const Trial& t : job.trials) {
        const auto t0 = Clock::now();
        Scope s(tracer, "sim.shard.run", root.id(), jid);
        results.push_back(sharded.run(g, t.source, *advice.at(t), *t.algorithm,
                                      t.engine_options()));
        s.close();
        const double ms = ms_since(t0);
        stats.push_back(sharded.last_stats());
        record_engine(layers, results.back(), ms);
        const std::string p = "sim.shard." + job.kind + ".";
        layers.sum(p + "run_ms", ms);
        layers.sum(p + "epochs", static_cast<double>(stats.back().epochs));
        layers.sum(p + "cross_msgs",
                   static_cast<double>(stats.back().cross_shard_messages));
        layers.sum(p + "fell_back", stats.back().fell_back ? 1.0 : 0.0);
        layers.sum(p + "runs", 1);
      }
      root.close();
      job_ms += ms_since(j0);
      // The single-thread baseline, off the critical path: the sharded
      // RunResult must equal ExecutionContext::run's.
      for (std::size_t k = 0; tracer && k < job.trials.size(); ++k) {
        const Trial& t = job.trials[k];
        const auto t0 = Clock::now();
        Scope s(tracer, "sim.serial", -1, jid);
        const RunResult base = serial.run(g, t.source, *advice.at(t),
                                          *t.algorithm, t.engine_options());
        s.close();
        layers.sum("sim.shard." + job.kind + ".serial_ms", ms_since(t0));
        if (!(base == results[k])) {
          out.fail(job.kind + " trial " + std::to_string(k) +
                   ": sharded RunResult differs from the serial engine's");
        }
      }
      finish_job(job, results, advice, out, layers, digest);
    }
    return digest.hex();
  }

 private:
  static constexpr std::uint32_t kShards = 4;
  bool quick_;
  Schemes schemes_;
};

/// Set-up is repeated and its median reported, so work moved into set-up
/// shows in setup_s: at least `min_repeats` times, and on until the repeats
/// together take kSetupBudgetS, so a short set-up is the median of many.
constexpr std::size_t kSetupMin = 3;
constexpr double kSetupBudgetS = 1.0;

template <typename F>
double median_setup_s(bool quick, std::size_t min_repeats, F&& setup_once) {
  const double budget_s = quick ? kSetupBudgetS / 20 : kSetupBudgetS;
  std::vector<double> setups;
  double total = 0.0;
  while (setups.size() < min_repeats || total < budget_s) {
    const auto t0 = Clock::now();
    setup_once();
    setups.push_back(seconds_since(t0));
    total += setups.back();
  }
  return median(setups);
}

/// Pins the calling thread to the next of the CPUs it may use on each
/// next(), in turn, and gives it all of them back when destroyed. On a
/// shared host one CPU can run a single thread a third slower than another
/// for minutes, so a single-threaded set-up timed on whichever CPU the
/// process landed on reads two ways from run to run; rotating its repeats
/// over the CPUs makes setup_s their median over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }
  std::size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

void run_batch(BatchWorkload& w, const Options& opt, Outcome& out) {
  std::vector<TextJob> jobs;
  double setup_s = 0.0;
  {
    // Set-up starts no threads, so pinning it leaves the measured phase's
    // threads free to use every CPU.
    CpuRotation cpus;
    setup_s = median_setup_s(opt.quick, std::max(kSetupMin, cpus.size()), [&] {
      cpus.next();
      jobs.clear();
      jobs = w.make_jobs(opt.seed, opt.quick);
    });
  }

  std::map<std::string, std::vector<double>> latency;
  std::uint64_t trials = 0;
  if (!opt.trace) {
    // Whole passes until the time is up, so every run measures the same
    // mix; throughput is the median pass's, robust to a stalled pass.
    std::vector<double> pass_rates;
    const auto t0 = Clock::now();
    do {
      const auto p0 = Clock::now();
      const std::uint64_t before = trials;
      const std::string digest = w.run_pass(jobs, out, latency, trials, nullptr);
      check_digest(out, opt, digest, trials - before);
      pass_rates.push_back(static_cast<double>(trials - before) / seconds_since(p0));
    } while (seconds_since(t0) < opt.seconds);
    out.detail["passes"] = static_cast<double>(pass_rates.size());
    out.detail["pass_rate.min"] = quantile(pass_rates, 0.0);
    out.detail["pass_rate.max"] = quantile(pass_rates, 1.0);
    out.metrics["setup_s"] = setup_s;
    out.metrics["throughput_per_s"] = median(pass_rates);
    out.metrics["latency_ms"] = typical_latency(latency, out.detail);
    return;
  }

  // Traced run: one BatchRunner pass for its accounting (BatchStats), then
  // the layer-split passes until the time is up, in turn without and with
  // a tracer (which goes first alternates). The tracing overhead is the
  // median job wall of the traced passes minus that of the untraced ones:
  // the same serial calls, with and without spans.
  LayerStats layers;
  check_digest(out, opt, w.run_pass(jobs, out, latency, trials, &layers), trials);
  LayerStats traced, untraced;
  Tracer tracer;
  std::uint64_t job_id = 0;
  std::vector<double> job_ms[2];
  const auto t0 = Clock::now();
  for (bool traced_first = false;; traced_first = !traced_first) {
    Tracer* order[2] = {nullptr, &tracer};
    if (traced_first) std::swap(order[0], order[1]);
    for (Tracer* t : order) {
      const std::uint64_t before = out.attempted;
      double ms = 0.0;
      const std::string digest =
          w.traced_pass(jobs, out, t, t ? traced : untraced, job_id, ms);
      check_digest(out, opt, digest, out.attempted - before);
      job_ms[t != nullptr].push_back(ms);
    }
    if (seconds_since(t0) >= opt.seconds) break;
  }
  const double passes = static_cast<double>(job_ms[1].size());
  out.detail["trace.passes"] = passes;
  out.detail["trace.untraced_job_ms_p50"] = median(job_ms[0]);
  out.detail["trace.traced_job_ms_p50"] = median(job_ms[1]);
  // The spans' own cost per pass, beside trace.overhead_ms, which also
  // carries the pass-to-pass noise of the host.
  out.detail["trace.span_cost_ms"] =
      record_cost_ms([](Tracer& probe, std::size_t i) {
        probe.end(probe.begin("sim.run", -1, i));
      }) * static_cast<double>(tracer.spans().size()) / passes;

  out.zero_by_design = w.zero_by_design();
  auto& m = out.metrics;
  report_self_times(tracer, passes, m);
  m["trace.overhead_ms"] = median(job_ms[1]) - median(job_ms[0]);
  m["graph.parse_ms"] = traced.avg("graph.parse_ms");
  m["graph.parse_mb_per_s"] =
      traced.total("graph.parse_total_ms") > 0
          ? traced.total("graph.parse_bytes") / 1e6 /
                (traced.total("graph.parse_total_ms") / 1e3)
          : 0.0;
  m["graph.light_tree_ms"] = traced.avg("graph.light_tree_ms");
  m["graph.light_tree_phases"] = traced.avg("graph.light_tree_phases");
  m["oracle.advise_ms"] = traced.avg("oracle.advise_ms");
  m["oracle.advise_share"] =
      m["trace.job_wall_ms"] > 0
          ? tracer.total_ms("oracle.advise") / (m["trace.job_wall_ms"] * passes)
          : 0.0;
  m["oracle.bits"] = traced.total("oracle.bits") / passes;
  m["core.batch_ms"] = layers.avg("core.batch_ms");
  const double specs = layers.total("core.cache.specs");
  m["core.cache.hit_rate"] = specs > 0 ? layers.total("core.cache.hits") / specs : 0.0;
  m["core.cache.unique_advice"] = layers.total("core.cache.unique_advice");
  m["core.batch.failed"] = layers.total("core.batch.failed");
  m["core.batch.retries"] = layers.total("core.batch.retries");
  m["sim.run_ms"] = traced.avg("sim.run_ms");
  m["sim.deliveries_per_s"] =
      traced.total("sim.engine_ms") > 0
          ? traced.total("sim.deliveries") / (traced.total("sim.engine_ms") / 1e3)
          : 0.0;
  m["sim.messages"] = traced.total("sim.messages") / passes;
  m["sim.lockstep.pass_ms"] = traced.total("sim.lockstep.pass_ms") / passes;
  m["sim.lockstep.replay_ms"] = traced.total("sim.lockstep.replay_ms") / passes;
  const double batched = layers.total("sim.lockstep.batched");
  m["sim.lockstep.shared_ratio"] =
      batched > 0 ? layers.total("sim.lockstep.shared") / batched : 0.0;
  m["sim.lockstep.families"] = layers.total("sim.lockstep.families");
  for (const char* fam : {"grid", "random"}) {
    const std::string p = std::string("sim.shard.") + fam + ".";
    const double runs = traced.total(p + "runs");
    const double run_ms = traced.total(p + "run_ms");
    const double serial_ms = traced.total(p + "serial_ms");
    const double epochs = traced.total(p + "epochs");
    m[p + "run_ms"] = runs > 0 ? run_ms / runs : 0.0;
    m[p + "serial_ms"] = runs > 0 ? serial_ms / runs : 0.0;
    m[p + "speedup"] = run_ms > 0 ? serial_ms / run_ms : 0.0;
    m[p + "epochs"] = runs > 0 ? epochs / runs : 0.0;
    m[p + "us_per_epoch"] = epochs > 0 ? 1e3 * run_ms / epochs : 0.0;
    m[p + "cross_msgs"] = runs > 0 ? traced.total(p + "cross_msgs") / runs : 0.0;
    m[p + "fell_back"] = traced.total(p + "fell_back");
  }
  if (!opt.spans_path.empty()) {
    std::ofstream f(opt.spans_path);
    tracer.write_json(f);
  }
}

// ---------------------------------------------------------------------------
// service_mixed: an in-process AdviceService driven over its unix socket.
// ---------------------------------------------------------------------------

/// Requests per second of the open-loop phase: about a seventh of the
/// closed-loop rate measured on a 4-core host (README.md), so the open loop
/// stays below saturation when a shared host runs 3x slower.
constexpr double kOpenLoopRate = 500.0;

class ServiceMixed {
 public:
  enum Kind { kRun = 0, kAdvise = 1, kUpload = 2 };
  static constexpr const char* kKindNames[] = {"run", "advise", "upload"};

  void run(const Options& opt, Outcome& out) {
    quick_ = opt.quick;
    const double setup_s = median_setup_s(opt.quick, kSetupMin, [&] {
      stop();
      setup(opt.seed, out);
    });
    check_digest(out, opt, reference_digest_, hot_.size());

    Tracer tracer;
    Tracer* t = opt.trace ? &tracer : nullptr;
    const double open_s = opt.seconds / 2;
    Phase open = drive(/*open_loop=*/true, open_s, t, out);
    Phase closed = drive(/*open_loop=*/false, opt.seconds - open_s, t, out);
    const AdviceCache::Stats cache = service_->cache_stats();
    const std::string scrape = service_->metrics_text();
    stop();

    // Per phase and kind: requests sent, succeeded, failed and rejected,
    // and the kind's share of the summed request time (busy_share), the
    // measure the request mix is sized by (kAdviseShare, kUploadShare).
    for (const auto& [name, ph] : {std::pair{"open", &open}, {"closed", &closed}}) {
      double busy_ms[3] = {}, all_ms = 0.0;
      for (int k = 0; k < 3; ++k) {
        for (double ms : ph->service_ms[k]) busy_ms[k] += ms;
        all_ms += busy_ms[k];
      }
      for (int k = 0; k < 3; ++k) {
        const std::string p = std::string(name) + "." + kKindNames[k] + ".";
        out.detail[p + "sent"] = static_cast<double>(ph->sent[k]);
        out.detail[p + "ok"] = static_cast<double>(ph->ok[k]);
        out.detail[p + "failed"] = static_cast<double>(ph->failed[k]);
        out.detail[p + "rejected"] = static_cast<double>(ph->rejected[k]);
        out.detail[p + "busy_share"] = all_ms > 0 ? busy_ms[k] / all_ms : 0.0;
      }
    }
    // Advice-cache hit rate of the run requests' lookups (warm-up
    // included): a run reply does not say whether its advice was cached.
    const double advise_sent = static_cast<double>(open.sent[kAdvise] + closed.sent[kAdvise]);
    const double advise_hits = static_cast<double>(open.advise_hits + closed.advise_hits);
    out.detail["service.run_lookup_hit_rate"] =
        (static_cast<double>(cache.hits) - advise_hits) /
        std::max(1.0, static_cast<double>(cache.hits + cache.misses) - advise_sent);
    out.detail["service.advise_hits"] = advise_hits;

    auto& m = out.metrics;
    if (!opt.trace) {
      m["setup_s"] = setup_s;
      m["throughput_per_s"] = closed.rate_per_s();
      std::map<std::string, std::vector<double>> by_kind;
      for (int k = 0; k < 3; ++k) by_kind[kKindNames[k]] = open.latency_ms[k];
      m["latency_ms"] = typical_latency(by_kind, out.detail);
      return;
    }
    // Every request is one client-side span pair over the same interval:
    // the service is the only layer this workload reaches from outside.
    out.zero_by_design = {"graph", "oracle", "core", "sim", "trace.unattributed_ms"};
    std::vector<double> all, run_lat;
    for (int k = 0; k < 3; ++k) {
      all.insert(all.end(), open.latency_ms[k].begin(), open.latency_ms[k].end());
    }
    run_lat = open.latency_ms[kRun];
    m["service.request_us_p99"] = 1e3 * quantile(all, 0.99);
    m["service.run_request_us_p99"] = 1e3 * quantile(run_lat, 0.99);
    m["service.upload_ms"] = mean(open.service_ms[kUpload]);
    m["service.advise_miss_ms"] = mean(open.advise_miss_ms);
    m["service.run_us_p50"] = 1e3 * median(open.service_ms[kRun]);
    m["service.generator_late_ms_p99"] = quantile(open.late_ms, 0.99);
    m["service.decode_us"] = decode_probe(t);
    m["service.queue_wait_us_p50"] = prom_quantile(scrape, "oracled_queue_wait_ns", 0.5) / 1e3;
    m["service.queue_wait_us_p99"] = prom_quantile(scrape, "oracled_queue_wait_ns", 0.99) / 1e3;
    m["service.batch_lanes_mean"] = prom_value(scrape, "oracled_batch_lanes_sum") /
                                    std::max(1.0, prom_value(scrape, "oracled_batch_lanes_count"));
    m["service.cache.hit_rate"] =
        cache.hits + cache.misses > 0
            ? static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses)
            : 0.0;
    m["service.cache.evictions"] = static_cast<double>(cache.evictions);
    m["service.rejected"] = prom_value(scrape, "oracled_rejected_overload") +
                            prom_value(scrape, "oracled_expired_deadline");
    report_self_times(tracer, 1.0, m);
    m["trace.overhead_ms"] = trace_overhead_ms(tracer);
    if (!opt.spans_path.empty()) {
      std::ofstream f(opt.spans_path);
      tracer.write_json(f);
    }
  }

  ServiceMixed() = default;
  ServiceMixed(const ServiceMixed&) = delete;
  ServiceMixed& operator=(const ServiceMixed&) = delete;
  ~ServiceMixed() { stop(); }

 private:
  struct Request {
    Kind kind = kRun;
    std::size_t index = 0;  ///< hot spec, fresh advise key, or upload text
  };
  struct HotSpec {
    service::TaskRequest req;
    std::size_t graph = 0;
    std::map<std::string, std::string> want;  ///< direct BatchRunner fields
  };
  struct Phase {
    std::uint64_t sent[3] = {}, ok[3] = {}, failed[3] = {}, rejected[3] = {};
    std::vector<double> latency_ms[3];  ///< from due time (open loop)
    std::vector<double> service_ms[3];  ///< from send time
    std::vector<double> advise_miss_ms; ///< advise requests the cache missed
    std::uint64_t advise_hits = 0;      ///< advise requests the cache served
    std::vector<double> late_ms;        ///< send time minus due time
    std::vector<double> done_s;         ///< completion times since start
    double wall_s = 0.0;

    /// Median completions per second over the phase's whole windows:
    /// robust to a stall in any one window.
    double rate_per_s() const {
      const double window = 0.5;
      std::vector<double> counts(static_cast<std::size_t>(wall_s / window), 0.0);
      for (double t : done_s) {
        const auto w = static_cast<std::size_t>(t / window);
        if (w < counts.size()) counts[w] += 1.0;
      }
      return median(counts) / window;
    }
  };

  static std::map<std::string, std::string> identity_fields(
      const TaskReport& r) {
    return {{"status", to_string(r.run.status)},
            {"oracle_bits", std::to_string(r.oracle_bits)},
            {"max_advice_bits", std::to_string(r.max_advice_bits)},
            {"messages_total", std::to_string(r.run.metrics.messages_total)},
            {"bits_sent", std::to_string(r.run.metrics.bits_sent)},
            {"deliveries", std::to_string(r.run.metrics.deliveries)},
            {"completion_key", std::to_string(r.run.metrics.completion_key)},
            {"informed", std::to_string(r.run.informed_count())}};
  }

  void setup(std::uint64_t seed, Outcome& out) {
    Rng rng(mix64(seed ^ 0x5e7f1ceULL));
    const std::size_t n = quick_ ? 64 : 512;
    const std::size_t side = quick_ ? 8 : 23;
    // The hot set: resident graphs every run request names.
    graphs_.clear();
    graphs_.push_back(shuffle_ports(make_grid(side, side), rng));
    graphs_.push_back(shuffle_ports(make_random_tree(n, rng), rng));
    graphs_.push_back(shuffle_ports(make_random_connected_sparse(n, 2 * n, rng), rng));
    graphs_.push_back(shuffle_ports(make_hypercube(quick_ ? 6 : 9), rng));
    texts_.clear();
    for (const PortGraph& g : graphs_) texts_.push_back(to_text(g));
    // Fresh uploads: distinct sparse graphs, canonical text.
    uploads_.clear();
    for (std::size_t i = 0; i < (quick_ ? 4 : kUploadPool); ++i) {
      uploads_.push_back(to_text(
          make_random_connected_sparse(2 * n, 2 * n, rng)));
    }

    // Hot run specs and their direct-execution references.
    // Listed graph-fastest, then task, scheduler and source, so that every
    // popularity tier mixes graph and task costs the same way at any seed.
    hot_.clear();
    std::vector<std::vector<NodeId>> hot_sources(graphs_.size());
    for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
      for (std::size_t s : rng.sample_without_replacement(graphs_[gi].num_nodes(), 2)) {
        hot_sources[gi].push_back(static_cast<NodeId>(s));
      }
    }
    for (std::size_t si = 0; si < 2; ++si) {
      for (const char* sched : {"sync", "fifo", "random"}) {
        for (const char* task : {"wakeup", "broadcast", "flooding"}) {
          for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
            HotSpec h;
            h.graph = gi;
            h.req.task = task;
            h.req.source = hot_sources[gi][si];
            h.req.scheduler = sched;
            h.req.seed = 1 + rng.below(1000);
            hot_.push_back(h);
          }
        }
      }
    }
    Digest digest;
    std::uint64_t hot_bytes = 0;
    {
      BatchRunner direct(2);
      std::vector<service::TaskBinding> bindings;
      std::vector<TrialSpec> specs;
      for (const HotSpec& h : hot_) bindings.push_back(service::bind_task(h.req));
      for (std::size_t i = 0; i < hot_.size(); ++i) {
        specs.emplace_back(&graphs_[hot_[i].graph], hot_[i].req.source,
                           bindings[i].oracle.get(), bindings[i].algorithm,
                           service::run_options_for(hot_[i].req));
      }
      const std::vector<TaskReport> reports = direct.run(specs);
      for (std::size_t i = 0; i < reports.size(); ++i) {
        hot_[i].want = identity_fields(reports[i]);
        digest.add_trial(reports[i].oracle_bits, reports[i].run);
        if (reports[i].failed()) out.fail("reference run threw: " + reports[i].error);
      }
      // The hot set's advice footprint, one entry per (graph, oracle, source).
      AdviceCache sizing;
      for (std::size_t i = 0; i < hot_.size(); ++i) {
        const auto l = sizing.lookup(graphs_[hot_[i].graph], *bindings[i].oracle,
                                     hot_[i].req.source);
        if (!l.hit) hot_bytes += AdviceCache::advice_bytes(*l.advice);
      }
    }
    reference_digest_ = digest.hex();

    // Fresh advise keys: broadcast advice for sources outside the hot set.
    fresh_.clear();
    for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
      for (NodeId v = 0; v < graphs_[gi].num_nodes(); ++v) {
        const auto& hs = hot_sources[gi];
        if (std::find(hs.begin(), hs.end(), v) == hs.end()) fresh_.push_back({gi, v});
      }
    }
    rng.shuffle(fresh_);

    // The request sequence both phases draw from, and the open-loop
    // arrival times (Poisson at kOpenLoopRate). Run requests pick hot specs
    // with Zipf(1) popularity, so the LRU keeps the hottest resident.
    std::vector<double> cdf;
    double acc = 0.0;
    for (std::size_t i = 0; i < hot_.size(); ++i) {
      acc += 1.0 / static_cast<double>(i + 1);
      cdf.push_back(acc);
    }
    const std::size_t total = quick_ ? 4000 : 400000;
    sequence_.clear();
    std::size_t next_fresh = 0, next_upload = 0;
    for (std::size_t i = 0; i < total; ++i) {
      // Each phase opens with an upload and an advise request, so even the
      // shortest run measures every kind.
      const std::size_t at = i % (total / 2);
      const double u = at == 0 ? 0.0 : at == 1 ? kUploadShare : rng.unit();
      Request r;
      if (u < kUploadShare) {
        r = {kUpload, next_upload++ % uploads_.size()};
      } else if (u < kUploadShare + kAdviseShare) {
        r = {kAdvise, next_fresh++ % fresh_.size()};
      } else {
        const double x = rng.unit() * acc;
        const std::size_t k = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
        r = {kRun, std::min(k, hot_.size() - 1)};
      }
      sequence_.push_back(r);
    }
    due_s_.clear();
    double t = 0.0;
    const double rate = quick_ ? kOpenLoopRate / 8 : kOpenLoopRate;
    for (std::size_t i = 0; i < total; ++i) {
      t += -std::log(1.0 - rng.unit()) / rate;
      due_s_.push_back(t);
    }

    // Start the service with an LRU budget below the hot set, upload the
    // hot graphs, and warm every hot spec once.
    socket_path_ = ".perfbench-out/svc-" + std::to_string(::getpid()) + ".sock";
    service::ServiceConfig config;
    config.socket_path = socket_path_;
    config.jobs = 2;
    config.cache_budget_bytes = std::max<std::uint64_t>(1, hot_bytes * 3 / 4);
    config.queue_limit = 256;
    service_ = std::make_unique<service::AdviceService>(config);
    service_->start();
    service::ServiceClient client(socket_path_);
    digests_.clear();
    for (const std::string& text : texts_) {
      const auto reply = client.upload(text);
      if (!reply.ok()) out.fail("hot upload failed: " + reply.body);
      digests_.push_back(reply.field("digest"));
    }
    for (HotSpec& h : hot_) {
      h.req.digest = digests_[h.graph];
      const auto reply = client.run(h.req);
      check_run(reply, h, out);
    }
  }

  void stop() {
    if (!service_) return;
    service_->shutdown();
    service_->wait();
    service_.reset();
  }

  bool check_run(const service::ServiceClient::Reply& reply, const HotSpec& h,
                 Outcome& out) {
    for (const auto& [key, value] : h.want) {
      if (reply.field(key) != value) {
        out.fail("run reply " + key + "=" + reply.field(key) +
                 " differs from direct BatchRunner " + value);
        return false;
      }
    }
    return true;
  }

  /// Sends one request on `client`; returns false if it failed. `cached`
  /// tells whether an advise request was served from the advice cache.
  bool send(service::ServiceClient& client, const Request& r, Phase& ph,
            std::mutex& mu, Outcome& out, bool& cached) {
    service::ServiceClient::Reply reply;
    service::TaskRequest advise;
    if (r.kind == kRun) {
      reply = client.run(hot_[r.index].req);
    } else if (r.kind == kAdvise) {
      advise.task = "broadcast";
      advise.digest = digests_[fresh_[r.index].first];
      advise.source = fresh_[r.index].second;
      reply = client.advise(advise);
    } else {
      reply = client.upload(uploads_[r.index]);
    }
    cached = r.kind == kAdvise && reply.field("cached") == "1";
    std::lock_guard<std::mutex> lock(mu);
    if (reply.status == service::kStatusError) {
      if (reply.field("error").rfind("overloaded", 0) == 0) ++ph.rejected[r.kind];
      out.fail(std::string(kKindNames[r.kind]) + " failed: " + reply.field("error"));
      return false;
    }
    if (r.kind == kRun) return check_run(reply, hot_[r.index], out);
    if (r.kind == kUpload &&
        reply.field("digest") !=
            service::digest_hex(service::fnv1a64(uploads_[r.index]))) {
      out.fail("upload digest " + reply.field("digest") + " is not the text's");
      return false;
    }
    return true;
  }

  /// Drives the service from kConnections client threads. Open loop: each
  /// request is sent at its Poisson due time (or as soon as a connection
  /// frees up) and timed from it. Closed loop: each connection sends its
  /// next request as soon as the previous reply arrives.
  Phase drive(bool open_loop, double seconds, Tracer* tracer, Outcome& out) {
    Phase ph;
    std::mutex mu;
    std::atomic<std::size_t> next{open_loop ? 0 : sequence_.size() / 2};
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(seconds);
    std::vector<std::thread> pool;
    for (int c = 0; c < kConnections; ++c) {
      pool.emplace_back([&, c] {
        try {
          service::ServiceClient client(socket_path_);
          for (;;) {
            const std::size_t i = next.fetch_add(1) % sequence_.size();
            Clock::time_point due = Clock::now();
            if (open_loop) {
              due = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due_s_[i] - due_s_[0]));
              if (due >= end) break;
              std::this_thread::sleep_until(due);
            } else if (due >= end) {
              break;
            }
            const Request& r = sequence_[i];
            const auto s0 = Clock::now();
            bool cached = false;
            const bool ok = send(client, r, ph, mu, out, cached);
            const auto s1 = Clock::now();
            if (tracer) {
              tracer->request(std::string("service.") + kKindNames[r.kind], i,
                              s0, s1);
            }
            const double from_due =
                std::chrono::duration<double, std::milli>(s1 - due).count();
            const double from_send =
                std::chrono::duration<double, std::milli>(s1 - s0).count();
            std::lock_guard<std::mutex> lock(mu);
            ++ph.sent[r.kind];
            ++out.attempted;
            if (ok) {
              ++ph.ok[r.kind];
              ph.done_s.push_back(std::chrono::duration<double>(s1 - t0).count());
            } else {
              ++ph.failed[r.kind];
            }
            ph.latency_ms[r.kind].push_back(from_due);
            ph.service_ms[r.kind].push_back(from_send);
            if (r.kind == kAdvise) {
              if (cached) {
                ++ph.advise_hits;
              } else {
                ph.advise_miss_ms.push_back(from_send);
              }
            }
            if (open_loop) {
              ph.late_ms.push_back(
                  std::chrono::duration<double, std::milli>(s0 - due).count());
            }
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          ++out.attempted;
          out.fail(std::string("connection ") + std::to_string(c) + ": " + e.what());
        }
      });
    }
    for (std::thread& t : pool) t.join();
    ph.wall_s = seconds_since(t0);
    return ph;
  }

  /// parse_kv + parse_task_request + bind_task over the workload's own run
  /// bodies, timed directly: the service's decode step without the socket.
  double decode_probe(Tracer* tracer) {
    std::vector<std::string> bodies;
    for (const HotSpec& h : hot_) bodies.push_back(service::encode_task_request(h.req, true));
    const std::size_t rounds = quick_ ? 10 : 200;
    Scope span(tracer, "service.decode_probe", -1, 0);
    const auto t0 = Clock::now();
    std::size_t sink = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const std::string& body : bodies) {
        const service::TaskRequest req = service::parse_task_request(service::parse_kv(body));
        sink += service::bind_task(req).algorithm != nullptr;
      }
    }
    const double us = 1e6 * seconds_since(t0) /
                      static_cast<double>(rounds * bodies.size());
    return sink ? us : 0.0;
  }

  /// Cost of recording every request's spans, measured directly.
  static double trace_overhead_ms(const Tracer& traced) {
    const double per_request_ms = record_cost_ms([](Tracer& probe, std::size_t i) {
      const auto s0 = Clock::now();
      probe.request("service.run", i, s0, Clock::now());
    });
    std::size_t requests = 0;
    for (const Span& s : traced.spans()) requests += s.name == "job";
    return per_request_ms * static_cast<double>(requests);
  }

  static double prom_value(const std::string& text, const std::string& name) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
    }
    return 0.0;
  }

  /// Upper bucket edge holding the q-quantile of a Prometheus histogram.
  static double prom_quantile(const std::string& text, const std::string& name,
                              double q) {
    const double count = prom_value(text, name + "_count");
    if (count <= 0) return 0.0;
    std::istringstream in(text);
    std::string line;
    const std::string prefix = name + "_bucket{le=\"";
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) != 0) continue;
      const std::size_t close = line.find('"', prefix.size());
      const std::string le = line.substr(prefix.size(), close - prefix.size());
      const double cumulative = std::stod(line.substr(line.rfind(' ') + 1));
      if (le != "+Inf" && cumulative >= q * count) return std::stod(le);
    }
    return 0.0;
  }

  static constexpr int kConnections = 4;
  static constexpr std::size_t kUploadPool = 32;
  // The request mix, sized by each kind's share of the summed request time
  // (detail *.busy_share, README.md): advise misses take about a tenth and
  // uploads about a twentieth, while run lookups still hit the advice cache
  // about 80% of the time. At a quarter advise share misses took a fifth of
  // the time, but the run hit rate fell to 0.68 and the median latency
  // swung between the hit and miss modes from run to run.
  static constexpr double kUploadShare = 0.02;
  static constexpr double kAdviseShare = 0.10;

  bool quick_ = false;
  std::vector<PortGraph> graphs_;
  std::vector<std::string> texts_;
  std::vector<std::string> uploads_;
  std::vector<std::string> digests_;
  std::vector<HotSpec> hot_;
  std::vector<std::pair<std::size_t, NodeId>> fresh_;
  std::vector<Request> sequence_;
  std::vector<double> due_s_;
  std::string reference_digest_;
  std::string socket_path_;
  std::unique_ptr<service::AdviceService> service_;
};

// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

int usage() {
  std::cerr << "usage: perfbench --workload dense_text|seed_sweep|large_sharded|"
               "service_mixed --seed N --seconds S --trace 0|1 [--quick] "
               "[--expect-digest HEX] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--expect-digest" && has) {
      opt.expect_digest = argv[++i];
    } else if (a == "--spans" && has) {
      opt.spans_path = argv[++i];
    } else {
      return usage();
    }
  }

  ::mkdir(".perfbench-out", 0755);  // service socket directory
  Outcome out;
  try {
    if (opt.workload == "dense_text") {
      DenseText w;
      run_batch(w, opt, out);
    } else if (opt.workload == "seed_sweep") {
      SeedSweep w;
      run_batch(w, opt, out);
    } else if (opt.workload == "large_sharded") {
      LargeSharded w(opt.quick);
      run_batch(w, opt, out);
    } else if (opt.workload == "service_mixed") {
      ServiceMixed w;
      w.run(opt, out);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    out.fail(std::string("uncaught: ") + e.what());
    if (out.attempted == 0) out.attempted = 1;
  }

  if (!opt.trace) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    out.metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  for (const std::string& e : out.errors) std::cerr << "[perfbench] FAIL " << e << "\n";
  std::cout.precision(12);
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"digest\": \"" << out.digest << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << json_escape(out.errors[i]) << '"';
  }
  std::cout << "], \"zero_by_design\": [";
  for (std::size_t i = 0; i < out.zero_by_design.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << out.zero_by_design[i] << '"';
  }
  std::cout << "]";
  for (const auto& [key, values] : {std::pair{"detail", &out.detail},
                                    {"metrics", &out.metrics}}) {
    std::cout << ", \"" << key << "\": {";
    bool first = true;
    for (const auto& [name, value] : *values) {
      std::cout << (first ? "" : ", ") << '"' << name << "\": " << value;
      first = false;
    }
    std::cout << "}";
  }
  std::cout << "}" << std::endl;
  return out.failed == 0 ? 0 : 1;
}
