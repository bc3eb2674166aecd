#include "core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/execution_context.h"
#include "sim/seed_batch_engine.h"
#include "sim/sharded_engine.h"
#include "util/cpus.h"

namespace oraclesize {

SeedFamilyKey seed_family_key(const TrialSpec& spec) {
  SeedFamilyKey key{spec.graph,
                    spec.source,
                    spec.oracle != nullptr ? spec.oracle->name() : "",
                    spec.algorithm,
                    spec.advice.get(),
                    spec.options};
  key.options.seed = 0;
  key.options.fault.seed = 0;
  return key;
}

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Per-spec advice resolved by the pre-pass (or carried by the spec), with
/// its size priced once. A null pointer means "advise inside the trial"
/// (cache off).
struct PreparedAdvice {
  PreparedAdvice() = default;
  PreparedAdvice(AdvicePtr advice_in, std::uint64_t advise_ns_in,
                 bool cached_in)
      : advice(std::move(advice_in)),
        advise_ns(advise_ns_in),
        cached(cached_in),
        oracle_bits(oracle_size_bits(*advice)),
        max_advice_bits(oraclesize::max_advice_bits(*advice)) {}

  AdvicePtr advice;
  std::uint64_t advise_ns = 0;
  bool cached = false;
  std::uint64_t oracle_bits = 0;
  std::uint64_t max_advice_bits = 0;
};

/// Extracts a human-readable message from a captured exception.
std::string what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// The report a trial gets when its execution threw: named like a normal
/// report, no valid RunResult, status kCrashed, the exception text captured.
TaskReport error_report(const TrialSpec& spec, std::string what) {
  TaskReport report;
  report.oracle_name = spec.oracle->name();
  report.algorithm_name = spec.algorithm->name();
  report.error = std::move(what);
  report.run.status = RunStatus::kCrashed;
  return report;
}

/// The batch-wide instrument set, registered once before workers start so
/// the recording path is pure relaxed-atomic adds (no registry lookups).
struct TrialMetrics {
  explicit TrialMetrics(MetricsRegistry& reg)
      : trials(reg.counter("trials")),
        completed(reg.counter("trials_completed")),
        task_failed(reg.counter("trials_task_failed")),
        timeout(reg.counter("trials_timeout")),
        budget_exhausted(reg.counter("trials_budget_exhausted")),
        crashed(reg.counter("trials_crashed")),
        byzantine_detected(reg.counter("trials_byzantine_detected")),
        messages_total(reg.counter("messages_total")),
        messages_source(reg.counter("messages_source")),
        messages_hello(reg.counter("messages_hello")),
        messages_control(reg.counter("messages_control")),
        bits_on_wire(reg.counter("bits_on_wire")),
        deliveries(reg.counter("deliveries")),
        faults_dropped(reg.counter("faults_dropped")),
        faults_duplicated(reg.counter("faults_duplicated")),
        faults_delayed(reg.counter("faults_delayed")),
        faults_crashed_nodes(reg.counter("faults_crashed_nodes")),
        faults_dead_deliveries(reg.counter("faults_dead_deliveries")),
        faults_advice_flips(reg.counter("faults_advice_bits_flipped")),
        byz_lying_nodes(reg.counter("byz_lying_nodes")),
        byz_forged(reg.counter("byz_forged")),
        byz_equivocated(reg.counter("byz_equivocated")),
        byz_replayed(reg.counter("byz_replayed")),
        byz_structured_lies(reg.counter("byz_structured_lies")),
        byz_advice_lies(reg.counter("byz_advice_lies")),
        sharded_trials(reg.counter("sharded_trials")),
        sharded_epochs(reg.counter("sharded_epochs")),
        cross_shard_messages(reg.counter("cross_shard_messages")),
        messages_per_trial(reg.histogram("messages_per_trial")),
        queue_depth_peak(reg.histogram("queue_depth_peak")),
        wakeup_latency(reg.histogram("wakeup_latency")) {
    for (std::size_t r = 1; r < kFallbackReasons; ++r) {
      sharded_fallbacks[r] = &reg.counter(
          std::string("sharded_fallback_") +
          to_string(static_cast<FallbackReason>(r)));
    }
  }

  /// Folds one trial's FINAL report in. Called by the worker that owns the
  /// trial; every recorded value is deterministic in the spec (counts and
  /// scheduler keys — never the timing fields).
  void observe(const TaskReport& report) {
    trials.add();
    switch (report.run.status) {
      case RunStatus::kCompleted: completed.add(); break;
      case RunStatus::kTaskFailed: task_failed.add(); break;
      case RunStatus::kTimeout: timeout.add(); break;
      case RunStatus::kBudgetExhausted: budget_exhausted.add(); break;
      case RunStatus::kCrashed: crashed.add(); break;
      case RunStatus::kByzantineDetected: byzantine_detected.add(); break;
    }
    if (report.failed()) return;  // crashed trials carry no valid run
    const Metrics& m = report.run.metrics;
    messages_total.add(m.messages_total);
    messages_source.add(m.messages_source);
    messages_hello.add(m.messages_hello);
    messages_control.add(m.messages_control);
    bits_on_wire.add(m.bits_sent);
    deliveries.add(m.deliveries);
    const FaultCounters& f = report.run.faults;
    faults_dropped.add(f.dropped);
    faults_duplicated.add(f.duplicated);
    faults_delayed.add(f.delayed);
    faults_crashed_nodes.add(f.crashed_nodes);
    faults_dead_deliveries.add(f.dead_deliveries);
    faults_advice_flips.add(f.advice_bits_flipped);
    const AdversaryCounters& a = report.run.adversary;
    byz_lying_nodes.add(a.lying_nodes);
    byz_forged.add(a.forged);
    byz_equivocated.add(a.equivocated);
    byz_replayed.add(a.replayed);
    byz_structured_lies.add(a.structured_lies);
    byz_advice_lies.add(a.advice_lies);
    if (report.shards > 1) {
      sharded_trials.add();
      sharded_epochs.add(report.epochs);
      cross_shard_messages.add(report.cross_shard_messages);
    }
    if (report.fallback != FallbackReason::kNone) {
      sharded_fallbacks[static_cast<std::size_t>(report.fallback)]->add();
    }
    messages_per_trial.observe(m.messages_total);
    queue_depth_peak.observe(m.queue_depth_peak);
    for (const std::int64_t at : report.run.informed_at) {
      if (at == RunResult::kNeverInformed) continue;
      wakeup_latency.observe(static_cast<std::uint64_t>(at));
    }
  }

  Counter& trials;
  Counter& completed;
  Counter& task_failed;
  Counter& timeout;
  Counter& budget_exhausted;
  Counter& crashed;
  Counter& byzantine_detected;
  Counter& messages_total;
  Counter& messages_source;
  Counter& messages_hello;
  Counter& messages_control;
  Counter& bits_on_wire;
  Counter& deliveries;
  Counter& faults_dropped;
  Counter& faults_duplicated;
  Counter& faults_delayed;
  Counter& faults_crashed_nodes;
  Counter& faults_dead_deliveries;
  Counter& faults_advice_flips;
  Counter& byz_lying_nodes;
  Counter& byz_forged;
  Counter& byz_equivocated;
  Counter& byz_replayed;
  Counter& byz_structured_lies;
  Counter& byz_advice_lies;
  Counter& sharded_trials;
  Counter& sharded_epochs;
  Counter& cross_shard_messages;
  /// sharded_fallback_<reason>, indexed by FallbackReason (kNone unused).
  Counter* sharded_fallbacks[kFallbackReasons] = {};
  Histogram& messages_per_trial;
  Histogram& queue_depth_peak;
  Histogram& wakeup_latency;
};

/// Executes one trial on whichever engine the caller hands in: `sharded`
/// non-null routes the run through the sharded intra-run engine (and copies
/// its per-run stats into the report), otherwise `context` runs it
/// single-threaded. Both produce bit-identical RunResults.
TaskReport run_trial(const TrialSpec& spec, const PreparedAdvice& prep,
                     ExecutionContext* context,
                     ShardedExecutionContext* sharded) {
  TaskReport report;
  report.oracle_name = spec.oracle->name();
  report.algorithm_name = spec.algorithm->name();

  AdvicePtr advice = prep.advice;
  if (advice) {
    report.advise_ns = prep.advise_ns;
    report.advice_cached = prep.cached;
    report.oracle_bits = prep.oracle_bits;
    report.max_advice_bits = prep.max_advice_bits;
  } else {
    const auto started = std::chrono::steady_clock::now();
    advice = std::make_shared<const std::vector<BitString>>(
        spec.oracle->advise(*spec.graph, spec.source));
    report.advise_ns = elapsed_ns(started);
    report.oracle_bits = oracle_size_bits(*advice);
    report.max_advice_bits = max_advice_bits(*advice);
  }

  RunOptions options = spec.options;
  if (spec.algorithm->is_wakeup()) options.enforce_wakeup = true;
  const auto started = std::chrono::steady_clock::now();
  if (sharded != nullptr) {
    report.run = sharded->run(*spec.graph, spec.source, *advice,
                              *spec.algorithm, options);
    const ShardedRunStats& st = sharded->last_stats();
    // A fallback replay executed single-threaded; report it as such.
    report.shards = st.fell_back ? 1 : st.shards;
    report.epochs = st.epochs;
    report.cross_shard_messages = st.cross_shard_messages;
    report.fallback = st.fallback;
  } else {
    report.run = context->run(*spec.graph, spec.source, *advice,
                              *spec.algorithm, options);
  }
  report.run_ns = elapsed_ns(started);
  report.wall_ns = report.advise_ns + report.run_ns;
  return report;
}

/// A retry shifts both seeds by the 64-bit golden-ratio constant.
constexpr std::uint64_t kReseedStride = 0x9e3779b97f4a7c15ULL;

/// Per-worker state of a pool that needs none.
struct Stateless {};

/// Runs body(k, state) for every k in [0, count), claimed off one atomic
/// counter by min(workers, count) threads (inline when that is one). Each
/// thread owns one default-constructed State for all of its calls.
template <typename State, typename Body>
void run_pool(std::size_t count, std::size_t workers, const Body& body) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    State state;
    for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
         k < count; k = next.fetch_add(1, std::memory_order_relaxed)) {
      body(k, state);
    }
  };
  const std::size_t threads = std::min(workers, count);
  if (threads <= 1) {
    drain();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(drain);
  for (std::thread& t : pool) t.join();
}

}  // namespace

BatchRunner::BatchRunner(std::size_t jobs, bool advice_cache,
                         RetryPolicy retry, ShardPolicy shard)
    : jobs_(jobs), advice_cache_(advice_cache), retry_(retry), shard_(shard) {
  if (jobs_ == 0) jobs_ = usable_cpus();
}

std::vector<TaskReport> BatchRunner::run(const std::vector<TrialSpec>& specs,
                                         BatchStats* stats) const {
  return run_impl(specs, stats, nullptr);
}

std::vector<TaskReport> BatchRunner::run_rethrow(
    const std::vector<TrialSpec>& specs, BatchStats* stats) const {
  std::vector<std::exception_ptr> errors;
  std::vector<TaskReport> results = run_impl(specs, stats, &errors);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

std::vector<TaskReport> BatchRunner::run_impl(
    const std::vector<TrialSpec>& specs, BatchStats* stats,
    std::vector<std::exception_ptr>* eptrs_out) const {
  for (const TrialSpec& spec : specs) {
    if (spec.graph == nullptr || spec.oracle == nullptr ||
        spec.algorithm == nullptr) {
      throw std::invalid_argument(
          "BatchRunner: spec with null graph/oracle/algorithm");
    }
  }

  std::vector<TaskReport> results(specs.size());
  std::vector<PreparedAdvice> prepared(specs.size());
  std::vector<std::exception_ptr> errors(specs.size());
  BatchStats batch_stats;

  // Specs carrying their own advice never hit the oracle.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].advice) {
      prepared[i] = PreparedAdvice{specs[i].advice, 0, true};
      ++batch_stats.cache_hits;
    }
  }

  if (advice_cache_) {
    // Pre-pass: group by (graph, oracle name), then by source. Each group
    // prepares its oracle for its graph once, then advises each distinct
    // source once from that Advisor. Map order makes every owner (the
    // lowest spec index of a source, which reports its advise cost; the
    // lowest of a whole group, which adds the prepare cost) deterministic.
    struct Group {
      std::size_t owner = 0;
      std::map<NodeId, std::vector<std::size_t>> sources;
      std::unique_ptr<const Advisor> advisor;
      std::exception_ptr error;
      std::uint64_t prepare_ns = 0;
    };
    using Key = std::pair<const PortGraph*, std::string>;
    std::map<Key, Group> groups;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].advice) continue;
      const auto [it, fresh] =
          groups.try_emplace(Key{specs[i].graph, specs[i].oracle->name()});
      if (fresh) it->second.owner = i;
      it->second.sources[specs[i].source].push_back(i);
    }
    struct SourceWork {
      const Group* group;
      const std::vector<std::size_t>* indices;
      std::uint64_t advise_ns = 0;
    };
    std::vector<Group*> prep_work;
    std::vector<SourceWork> work;
    for (auto& [key, group] : groups) {
      prep_work.push_back(&group);
      for (const auto& [source, indices] : group.sources) {
        work.push_back(SourceWork{&group, &indices});
      }
    }
    // Largest graphs first: a giant advise landing on the pool last would
    // serialize the tail of the pre-pass behind one worker. Scheduling
    // order affects wall-clock only — owners, advice values, and cost
    // attribution are fixed per group — and the stable sort over the
    // deterministic map order keeps it reproducible.
    auto edges_of = [&](const Group* group) {
      return specs[group->owner].graph->num_edges();
    };
    std::stable_sort(prep_work.begin(), prep_work.end(),
                     [&](const Group* a, const Group* b) {
                       return edges_of(a) > edges_of(b);
                     });
    std::stable_sort(work.begin(), work.end(),
                     [&](const SourceWork& a, const SourceWork& b) {
                       return edges_of(a.group) > edges_of(b.group);
                     });

    run_pool<Stateless>(prep_work.size(), jobs_, [&](std::size_t k,
                                                     Stateless&) {
      Group& group = *prep_work[k];
      const TrialSpec& spec = specs[group.owner];
      try {
        const auto started = std::chrono::steady_clock::now();
        group.advisor = spec.oracle->prepare(*spec.graph);
        group.prepare_ns = elapsed_ns(started);
      } catch (...) {
        group.error = std::current_exception();
      }
    });
    run_pool<Stateless>(work.size(), jobs_, [&](std::size_t k, Stateless&) {
      SourceWork& item = work[k];
      const std::vector<std::size_t>& indices = *item.indices;
      try {
        if (item.group->error) std::rethrow_exception(item.group->error);
        const auto started = std::chrono::steady_clock::now();
        auto advice = std::make_shared<const std::vector<BitString>>(
            item.group->advisor->advise(specs[indices.front()].source));
        item.advise_ns = elapsed_ns(started);
        prepared[indices.front()] =
            PreparedAdvice(std::move(advice), item.advise_ns, false);
        for (std::size_t j = 1; j < indices.size(); ++j) {
          prepared[indices[j]] = prepared[indices.front()];
          prepared[indices[j]].advise_ns = 0;
          prepared[indices[j]].cached = true;
        }
      } catch (...) {
        // The uncached path would have thrown in every one of these
        // trials; record the failure for each so rethrow order (lowest
        // spec index) is unchanged.
        for (std::size_t idx : indices) {
          errors[idx] = std::current_exception();
        }
      }
    });

    for (const SourceWork& item : work) {
      batch_stats.advise_ns += item.advise_ns;
      batch_stats.cache_hits += item.indices->size() - 1;
    }
    batch_stats.unique_advice = work.size();
    for (const auto& [key, group] : groups) {
      batch_stats.advise_ns += group.prepare_ns;
      PreparedAdvice& owner = prepared[group.owner];
      if (owner.advice) owner.advise_ns += group.prepare_ns;
    }
  }

  // Metric aggregation is opt-in via the stats out-param: instruments are
  // registered here (under the registry mutex), workers record with relaxed
  // atomic adds only, and the snapshot is taken after the join.
  MetricsRegistry registry;
  std::optional<TrialMetrics> trial_metrics;
  if (stats != nullptr) trial_metrics.emplace(registry);

  // Units. Trials big enough for intra-run sharding are split off first.
  // Of the rest, two or more lockstep-eligible specs with equal family keys
  // and resolved advice (shared advice is what a lockstep pass amortizes,
  // so with the cache off every trial stays single) form one family unit;
  // every other spec is a single unit. Units are a pure function of the
  // specs, so they — like every result — are jobs-invariant. Families come
  // first (the batch's biggest chunks: one landing on the pool last would
  // serialize the tail behind one worker), then singles in spec order.
  std::vector<std::size_t> sharded_work;
  std::vector<std::vector<std::size_t>> units;
  {
    std::map<SeedFamilyKey, std::vector<std::size_t>> families;
    std::vector<std::size_t> singles;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (shard_.enabled() &&
          specs[i].graph->num_nodes() >= shard_.min_nodes) {
        sharded_work.push_back(i);
      } else if (prepared[i].advice && !errors[i] &&
                 SeedBatchExecutionContext::lockstep_eligible(
                     specs[i].options)) {
        families[seed_family_key(specs[i])].push_back(i);
      } else {
        singles.push_back(i);
      }
    }
    for (auto& [key, members] : families) {
      if (members.size() < 2) {
        singles.push_back(members.front());
        continue;
      }
      ++batch_stats.seed_families;
      batch_stats.batched_lanes += members.size();
      units.push_back(std::move(members));
    }
    std::sort(singles.begin(), singles.end());
    for (const std::size_t i : singles) units.push_back({i});
  }

  // Per spec: its final attempt was served by a shared lockstep pass.
  std::vector<char> shared_final(specs.size(), 0);

  // The one unit loop, fault-isolated with bounded, deterministically
  // re-seeded retry. Each round a family takes one lockstep pass over its
  // pending lanes; every lane the pass does not serve (and every lane of a
  // single) runs run_trial on the worker's engine, or on `sharded` for
  // ShardPolicy trials. A transient outcome re-seeds its lane and queues
  // it for the next round. Only the worker that owns a unit touches its
  // members' slots, so nothing beyond the join synchronizes them.
  auto run_unit = [&](const std::vector<std::size_t>& members,
                      SeedBatchExecutionContext* engine,
                      ShardedExecutionContext* sharded) {
    struct Lane {
      std::size_t spec;
      std::uint32_t attempt;
      std::uint64_t seed;
      std::uint64_t fault_seed;
    };
    std::vector<Lane> pending;
    pending.reserve(members.size());
    for (const std::size_t i : members) {
      if (errors[i]) {
        // The advise() pre-pass already failed this spec; advise failures
        // are deterministic in the spec, so retrying cannot help.
        results[i] = error_report(specs[i], what_of(errors[i]));
        if (trial_metrics) trial_metrics->observe(results[i]);
        continue;
      }
      pending.push_back(
          {i, 0, specs[i].options.seed, specs[i].options.fault.seed});
    }
    const bool family = members.size() > 1;
    const TrialSpec& proto = specs[members.front()];
    std::vector<SeedBatchExecutionContext::Lane> lanes;
    std::vector<SeedBatchExecutionContext::LaneDisposition> disp;
    std::vector<Lane> next;
    while (!pending.empty()) {
      std::uint64_t shared_ns = 0;
      if (family) {
        lanes.clear();
        for (const Lane& lane : pending) {
          lanes.push_back({lane.seed, lane.fault_seed});
        }
        RunOptions base = proto.options;
        if (proto.algorithm->is_wakeup()) base.enforce_wakeup = true;
        const auto started = std::chrono::steady_clock::now();
        try {
          engine->run_lockstep(*proto.graph, proto.source,
                               *prepared[members.front()].advice,
                               *proto.algorithm, base, lanes, disp);
        } catch (const std::invalid_argument&) {
          // A precondition error (advice size, source range): every lane
          // replays and reports it exactly as a single would.
          disp.assign(pending.size(),
                      SeedBatchExecutionContext::LaneDisposition::kReplay);
        }
        const std::size_t shared_count = static_cast<std::size_t>(
            std::count(disp.begin(), disp.end(),
                       SeedBatchExecutionContext::LaneDisposition::kShared));
        // Shared lanes split the pass's wall clock evenly — timing is the
        // one field outside the bit-identity contract, and an even split
        // keeps batch totals comparable with the scalar path.
        if (shared_count > 0) shared_ns = elapsed_ns(started) / shared_count;
      }
      next.clear();
      for (std::size_t j = 0; j < pending.size(); ++j) {
        const Lane& lane = pending[j];
        const std::size_t i = lane.spec;
        const bool lane_shared =
            family &&
            disp[j] == SeedBatchExecutionContext::LaneDisposition::kShared;
        TaskReport report;
        if (lane_shared) {
          report.oracle_name = specs[i].oracle->name();
          report.algorithm_name = specs[i].algorithm->name();
          report.advise_ns = prepared[i].advise_ns;
          report.advice_cached = prepared[i].cached;
          report.oracle_bits = prepared[i].oracle_bits;
          report.max_advice_bits = prepared[i].max_advice_bits;
          // Per-lane materialization: under counter-keyed seeded
          // schedulers the key-valued fields differ per scheduler-seed
          // class; for everything else this is a plain copy of the shared
          // result.
          report.run = engine->lane_result(j);
          report.run_ns = shared_ns;
          report.wall_ns = report.advise_ns + report.run_ns;
        } else {
          TrialSpec attempt_spec = specs[i];
          attempt_spec.options.seed = lane.seed;
          attempt_spec.options.fault.seed = lane.fault_seed;
          try {
            report = run_trial(attempt_spec, prepared[i],
                               engine != nullptr ? &engine->scalar() : nullptr,
                               sharded);
          } catch (...) {
            errors[i] = std::current_exception();
            report = error_report(specs[i], what_of(errors[i]));
          }
        }
        report.attempts = lane.attempt + 1;
        const bool transient =
            report.failed() || report.run.status == RunStatus::kTimeout ||
            report.run.status == RunStatus::kBudgetExhausted ||
            (retry_.retry_task_failures &&
             report.run.status == RunStatus::kTaskFailed);
        if (transient && lane.attempt < retry_.max_retries) {
          // Re-seed both randomness domains so the next attempt explores a
          // different schedule/fault draw yet stays a pure function of the
          // spec and the attempt number.
          next.push_back({i, lane.attempt + 1, lane.seed + kReseedStride,
                          lane.fault_seed + kReseedStride});
          continue;
        }
        if (!report.failed()) errors[i] = nullptr;  // a retry recovered
        shared_final[i] = lane_shared;
        results[i] = std::move(report);
        if (trial_metrics) trial_metrics->observe(results[i]);
      }
      pending.swap(next);
    }
  };

  // Sharded trials run one at a time BEFORE the pool starts — the sharded
  // engine wants every core to itself — and largest first (stable by spec
  // index, mirroring the advise pre-pass), so the most expensive run is
  // never the one the batch tail waits on. Result slots are fixed by spec
  // index, so the reordering is invisible in the returned vector.
  if (!sharded_work.empty()) {
    std::stable_sort(sharded_work.begin(), sharded_work.end(),
                     [&](std::size_t a, std::size_t b) {
                       return specs[a].graph->num_edges() >
                              specs[b].graph->num_edges();
                     });
    ShardedExecutionContext sharded(shard_.shards);
    for (const std::size_t i : sharded_work) run_unit({i}, nullptr, &sharded);
  }
  run_pool<SeedBatchExecutionContext>(
      units.size(), jobs_,
      [&](std::size_t u, SeedBatchExecutionContext& engine) {
        run_unit(units[u], &engine, nullptr);
      });

  // All remaining accounting reads final per-trial reports, so it can run
  // serially after the join (no atomics needed).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (results[i].failed()) ++batch_stats.failed;
    batch_stats.retries += results[i].attempts - 1;
    batch_stats.lockstep_shared += shared_final[i];
    if (!advice_cache_ && !specs[i].advice && !results[i].failed()) {
      // Per-trial advise: fold the (last attempt's) cost into the batch
      // accounting so cache on/off totals stay comparable.
      batch_stats.advise_ns += results[i].advise_ns;
      ++batch_stats.unique_advice;
    }
  }

  if (stats != nullptr) {
    // Batch-level accounting joins the snapshot as plain counters so one
    // JSON object carries everything.
    registry.counter("retries").add(batch_stats.retries);
    registry.counter("advice_cache_hits").add(batch_stats.cache_hits);
    registry.counter("advice_unique").add(batch_stats.unique_advice);
    registry.counter("seed_families").add(batch_stats.seed_families);
    registry.counter("batched_lanes").add(batch_stats.batched_lanes);
    registry.counter("lockstep_shared_lanes").add(batch_stats.lockstep_shared);
    batch_stats.metrics = registry.snapshot();
  }

  if (eptrs_out != nullptr) *eptrs_out = std::move(errors);
  if (stats != nullptr) *stats = batch_stats;
  return results;
}

}  // namespace oraclesize
