// Batched, parallel trial execution: the experiment-scale entry point.
//
// A TrialSpec names everything one execution needs — network, source,
// oracle, algorithm, run options — without owning any of it. BatchRunner
// takes a vector of specs and plays them on a pool of worker threads, one
// reusable engine per worker (a SeedBatchExecutionContext, whose scalar()
// ExecutionContext runs every trial a lockstep pass does not serve), so a
// sweep of thousands of trials performs no per-trial setup allocation
// beyond what the trials themselves demand.
//
// Advice memoization: before any trial runs, BatchRunner groups the batch
// by (graph, oracle name), then by source. Each group runs the oracle's
// per-graph stage ONCE (Oracle::prepare), one pool pass over the groups,
// then advises each distinct source ONCE from that Advisor, one pool pass
// over the sources. Trials then share immutable
// `shared_ptr<const vector<BitString>>` advice, with its size priced once.
// Repeat-heavy sweeps thus pay each advise exactly once instead of once
// per trial, and many-source sweeps pay each graph's preparation once.
// This pre-pass is the only way a trial gets advice it does not carry.
// `advice_cache = false` shares none of the advice it computes: each spec
// without TrialSpec::advice is a group of its own (one prepare and one
// advise per spec), so such specs form no seed family.
//
// Units: the specs alone decide how each trial runs. Two or more
// lockstep-eligible specs with equal seed_family_key and one shared advice
// object form one FAMILY unit; every other spec is a single unit, so a
// one-spec batch (run_task, an oracled request) never forms a family. Each
// round a family takes one lockstep pass (sim/seed_batch_engine.h) over its
// pending lanes; every other lane (a lane the pass could not serve, or a
// single) runs scalar on its worker's engine, or on the sharded engine
// when ShardPolicy claims the trial. A transient outcome re-seeds its lane
// and queues it for the next round, so retries re-batch. Both routes give
// bit-identical reports, so nothing switches families off.
//
// Determinism contract: every trial is an independent, deterministic
// function of its spec, and results are returned IN SPEC ORDER. The
// RunResult for a given spec is bit-identical to what the single-trial
// path (run_task / run_execution) produces, regardless of the worker
// count and of whether the advice cache is on — only the timing fields
// (wall_ns, advise_ns, run_ns) vary between runs. Advice-cache
// attribution is deterministic too: the FIRST spec (lowest index) of a
// (graph, oracle, source) reports the advise cost, and the first of a
// (graph, oracle) adds the prepare cost; later duplicates report
// advice_cached = true. tests/test_batch_runner.cpp and
// tests/test_advice_cache.cpp enforce all of this.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/advice_cache.h"
#include "core/runner.h"
#include "sim/metrics_registry.h"

namespace oraclesize {

/// One trial: run `algorithm` with `oracle`'s advice on `graph` from
/// `source` under `options`. Pointers are non-owning and must outlive the
/// BatchRunner::run call. As in run_task, wakeup enforcement is switched
/// on automatically when the algorithm reports is_wakeup().
struct TrialSpec {
  TrialSpec() = default;
  TrialSpec(const PortGraph* graph_in, NodeId source_in,
            const Oracle* oracle_in, const Algorithm* algorithm_in,
            RunOptions options_in = {}, AdvicePtr advice_in = nullptr)
      : graph(graph_in),
        source(source_in),
        oracle(oracle_in),
        algorithm(algorithm_in),
        options(std::move(options_in)),
        advice(std::move(advice_in)) {}

  const PortGraph* graph = nullptr;
  NodeId source = 0;
  const Oracle* oracle = nullptr;
  const Algorithm* algorithm = nullptr;
  RunOptions options;
  /// Optional precomputed advice (one BitString per node). When set, the
  /// oracle is never asked to advise for this trial — it still names the
  /// report and prices the oracle_bits fields. Size must match the graph.
  AdvicePtr advice;
};

/// Everything that must match for two TrialSpecs to be seed-family peers:
/// the full spec identity minus the two randomness seeds (options.seed and
/// options.fault.seed, zeroed in `options`). Two specs with equal keys run
/// the same (graph, source, oracle, algorithm, advice, options) and differ
/// at most in which seeds they draw: exactly the shape the seed-batched
/// lockstep executor (sim/seed_batch_engine.h) collapses into one pass.
/// Identity is by pointer for the graph/algorithm/advice (keys are
/// meaningful within one batch, not across processes) and by name for the
/// oracle, matching the advise pre-pass key so family peers always share
/// one cached advice artifact. The adversary seed stays in the key: lanes
/// with different adversary seeds face different colluding sets.
struct SeedFamilyKey {
  const PortGraph* graph = nullptr;
  NodeId source = 0;
  std::string oracle;
  const Algorithm* algorithm = nullptr;
  const void* advice = nullptr;  ///< TrialSpec::advice identity (may be null)
  RunOptions options;            ///< with seed and fault.seed zeroed

  friend bool operator==(const SeedFamilyKey&,
                         const SeedFamilyKey&) = default;
  friend auto operator<=>(const SeedFamilyKey&,
                          const SeedFamilyKey&) = default;
};

/// The spec's seed-family identity. Pure in the spec; see SeedFamilyKey.
SeedFamilyKey seed_family_key(const TrialSpec& spec);

/// Aggregate accounting of one BatchRunner::run call.
struct BatchStats {
  std::size_t unique_advice = 0;  ///< distinct advice vectors computed
  /// Specs served precomputed advice (batch duplicates + TrialSpec::advice).
  std::size_t cache_hits = 0;
  std::uint64_t advise_ns = 0;  ///< total time inside prepare and advise
  std::size_t failed = 0;   ///< trials that ended with TaskReport::failed()
  std::size_t retries = 0;  ///< extra attempts consumed across the batch
  /// Seed-family collapsing (sim/seed_batch_engine.h): families routed
  /// through the batched context, the trials they covered, and how many of
  /// those trials' final attempts were served by a shared lockstep pass
  /// (the rest replayed scalar inside the family unit).
  std::size_t seed_families = 0;
  std::size_t batched_lanes = 0;
  std::size_t lockstep_shared = 0;
  /// Named cross-trial aggregates (sim/metrics_registry.h): trial outcomes,
  /// messages by kind, bits on wire, fault impact, and the queue-depth /
  /// per-node-wakeup-latency histograms. Recorded lock-free by the workers
  /// (relaxed atomic adds) and snapshotted after they join. Every recorded
  /// quantity is deterministic in the specs, so the snapshot is
  /// bit-identical for any jobs() — tests/test_metrics.cpp pins this.
  /// Populated only when a BatchStats out-param is passed; runs without one
  /// skip all metric recording.
  MetricsSnapshot metrics;
};

/// Bounded retry for transient trial outcomes. A trial is retried (up to
/// `max_retries` extra attempts) when its attempt threw, timed out, or
/// exhausted a budget — and, with `retry_task_failures`, when the scheme
/// failed the task (useful under fault injection, where a different fault
/// seed can succeed). Each retry RE-SEEDS deterministically: attempt `a`
/// runs with scheduler and fault seeds shifted by `a` times the 64-bit
/// golden-ratio constant, so a retried batch is still a pure function of
/// its specs. Because only the two seeds shift, a retried attempt stays in
/// its spec's seed family (seed_family_key is seed-blind): family units
/// re-batch their pending retries into fresh lockstep passes.
struct RetryPolicy {
  std::uint32_t max_retries = 0;  ///< 0 = retry disabled
  bool retry_task_failures = false;
};

/// Opt-in intra-run sharding (sim/sharded_engine.h) for oversized trials.
/// Trials whose graph has at least `min_nodes` nodes are taken OFF the
/// trial-level pool and run one at a time — largest first — on a sharded
/// engine that dedicates `shards` workers to each such run; everything else
/// still fans out across trials. Results stay bit-identical either way
/// (the sharded engine's determinism contract), so the policy is purely a
/// wall-clock decision: point min_nodes at the size where one trial
/// dominates the batch. min_nodes = 0 (the default) disables sharding.
struct ShardPolicy {
  std::uint32_t shards = 0;   ///< workers per sharded run; 0 = usable CPUs
  std::size_t min_nodes = 0;  ///< graphs at/above this run sharded; 0 = off

  bool enabled() const noexcept { return min_nodes > 0 && shards != 1; }
};

class BatchRunner {
 public:
  /// `jobs` = number of worker threads; 0 picks one per usable CPU
  /// (util/cpus.h).
  /// `advice_cache = false` gives every spec its own advice (see the file
  /// comment); results are bit-identical either way. No production caller
  /// passes false. The parameter stays because perfbench/perfbench.cpp
  /// passes it, and perfbench's sources are the benchmark's fixed
  /// definition: dropping it is a benchmark revision.
  /// `retry` bounds re-execution of transient trial failures.
  /// `shard` routes oversized trials through the sharded intra-run engine.
  explicit BatchRunner(std::size_t jobs = 0, bool advice_cache = true,
                       RetryPolicy retry = {}, ShardPolicy shard = {});

  std::size_t jobs() const noexcept { return jobs_; }
  bool advice_cache() const noexcept { return advice_cache_; }
  const RetryPolicy& retry() const noexcept { return retry_; }
  const ShardPolicy& shard() const noexcept { return shard_; }

  /// Executes every spec and returns one TaskReport per spec, in spec
  /// order. Throws std::invalid_argument on a null graph/oracle/algorithm
  /// before any trial runs. Trials are FAULT-ISOLATED: a trial (or its
  /// advise() pre-pass) that throws becomes a TaskReport with failed() set
  /// and the exception text in `error`, and every other trial still runs —
  /// a poisoned oracle cannot abort a campaign. When `stats` is non-null
  /// it receives the batch's accounting, including failure/retry counts.
  std::vector<TaskReport> run(const std::vector<TrialSpec>& specs,
                              BatchStats* stats = nullptr) const;

  /// Like run(), but restores the legacy abort contract: if any trial
  /// failed, the lowest-index trial's original exception is rethrown after
  /// the whole batch has drained (deterministic for any jobs()). The
  /// single-trial path (run_task) uses this to keep throwing typed
  /// exceptions at its callers.
  std::vector<TaskReport> run_rethrow(const std::vector<TrialSpec>& specs,
                                      BatchStats* stats = nullptr) const;

 private:
  std::vector<TaskReport> run_impl(const std::vector<TrialSpec>& specs,
                                   BatchStats* stats,
                                   std::vector<std::exception_ptr>* eptrs) const;

  std::size_t jobs_;
  bool advice_cache_;
  RetryPolicy retry_;
  ShardPolicy shard_;
};

}  // namespace oraclesize
