#include "core/batch_runner.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "core/broadcast_b.h"
#include "core/flooding.h"
#include "core/wakeup.h"
#include "graph/builders.h"
#include "graph/complete_star.h"
#include "oracle/light_broadcast_oracle.h"
#include "oracle/tree_wakeup_oracle.h"
#include "oracle/trivial_oracles.h"
#include "sim/engine.h"
#include "trace_helpers.h"

namespace oraclesize {
namespace {

// The E1/E4 workload shapes at test-friendly sizes.
std::vector<PortGraph> test_workloads() {
  std::vector<PortGraph> graphs;
  Rng rng(0xbeefcafeULL);
  graphs.push_back(make_complete_star(128));
  graphs.push_back(make_random_connected(256, 8.0 / 256.0, rng));
  graphs.push_back(make_grid(16, 16));
  graphs.push_back(make_random_tree(256, rng));
  return graphs;
}

constexpr SchedulerKind kAllSchedulers[] = {
    SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
    SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
    SchedulerKind::kAsyncLinkFifo,
};

// The determinism contract: identical RunResults for jobs=1 vs jobs=8 on
// the E1 (wakeup) and E4 (broadcast) workloads under all five schedulers.
TEST(BatchRunner, DeterministicAcrossJobCounts) {
  const auto graphs = test_workloads();
  const TreeWakeupOracle wakeup_oracle;
  const WakeupTreeAlgorithm wakeup;
  const LightBroadcastOracle light_oracle;
  const BroadcastBAlgorithm broadcast;

  std::vector<TrialSpec> specs;
  for (const PortGraph& g : graphs) {
    for (SchedulerKind sched : kAllSchedulers) {
      RunOptions opts;
      opts.scheduler = sched;
      opts.seed = 42;
      opts.anonymous = true;
      specs.push_back(TrialSpec{&g, 0, &wakeup_oracle, &wakeup, opts});
      specs.push_back(TrialSpec{&g, 0, &light_oracle, &broadcast, opts});
    }
  }

  const auto serial = BatchRunner(1).run(specs);
  const auto parallel = BatchRunner(8).run(specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(serial[i].ok()) << i;
    EXPECT_EQ(serial[i].run, parallel[i].run) << i;
    EXPECT_EQ(serial[i].oracle_bits, parallel[i].oracle_bits) << i;
    EXPECT_EQ(serial[i].oracle_name, parallel[i].oracle_name) << i;
  }
}

// For a fixed TrialSpec, BatchRunner output is bit-identical to the
// single-trial engine path, whatever the worker count.
TEST(BatchRunner, MatchesSingleTrialEngine) {
  Rng rng(7);
  const PortGraph g = make_random_connected(200, 0.06, rng);
  const LightBroadcastOracle oracle;
  const BroadcastBAlgorithm algorithm;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 99;

  const auto advice = oracle.advise(g, 5);
  const auto direct = with_trace(
      [&](const RunOptions& o) {
        return run_execution(g, 5, advice, algorithm, o);
      },
      opts);

  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const auto batched = with_trace(
        [&](const RunOptions& o) {
          return BatchRunner(jobs).run(
              {TrialSpec{&g, 5, &oracle, &algorithm, o}});
        },
        opts);
    ASSERT_EQ(batched.first.size(), 1u);
    EXPECT_EQ(batched.first[0].run, direct.first) << "jobs=" << jobs;
    EXPECT_EQ(batched.second, direct.second) << "jobs=" << jobs;
  }
}

TEST(BatchRunner, RunTaskIsAThinWrapper) {
  const PortGraph g = make_grid(8, 8);
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm algorithm;
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncLifo;

  const TaskReport via_task = run_task(g, 3, oracle, algorithm, opts);
  const auto via_batch =
      BatchRunner(2).run({TrialSpec{&g, 3, &oracle, &algorithm, opts}});
  EXPECT_EQ(via_task.run, via_batch[0].run);
  EXPECT_EQ(via_task.oracle_bits, via_batch[0].oracle_bits);
}

TEST(BatchRunner, ResultsStayInSpecOrder) {
  // Distinguishable graphs: trial i runs on a path of i+2 nodes, so the
  // result size identifies which spec produced it.
  std::vector<PortGraph> graphs;
  for (std::size_t i = 0; i < 32; ++i) graphs.push_back(make_path(i + 2));
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  std::vector<TrialSpec> specs;
  for (const PortGraph& g : graphs) {
    specs.push_back(TrialSpec{&g, 0, &oracle, &algorithm, RunOptions{}});
  }
  const auto reports = BatchRunner(8).run(specs);
  ASSERT_EQ(reports.size(), specs.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].run.informed.size(), i + 2) << i;
    EXPECT_TRUE(reports[i].ok()) << i;
  }
}

TEST(BatchRunner, EnforcesWakeupAutomatically) {
  // BroadcastB transmits spontaneously; run as a wakeup algorithm it would
  // violate. WakeupTree must keep enforce_wakeup on through the batch path.
  const PortGraph g = make_path(6);
  const TreeWakeupOracle oracle;
  const WakeupTreeAlgorithm wakeup;
  const auto reports =
      BatchRunner(1).run({TrialSpec{&g, 0, &oracle, &wakeup, RunOptions{}}});
  EXPECT_TRUE(reports[0].ok());
  EXPECT_TRUE(reports[0].run.violation.empty());
}

TEST(BatchRunner, NullSpecPointersThrow) {
  const PortGraph g = make_path(3);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  EXPECT_THROW(
      BatchRunner(1).run({TrialSpec{nullptr, 0, &oracle, &algorithm, {}}}),
      std::invalid_argument);
  EXPECT_THROW(
      BatchRunner(1).run({TrialSpec{&g, 0, nullptr, &algorithm, {}}}),
      std::invalid_argument);
  EXPECT_THROW(BatchRunner(1).run({TrialSpec{&g, 0, &oracle, nullptr, {}}}),
               std::invalid_argument);
}

TEST(BatchRunner, BadSourceIsIsolatedToItsTrial) {
  const PortGraph g = make_path(4);
  const NullOracle oracle;
  const FloodingAlgorithm algorithm;
  std::vector<TrialSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(TrialSpec{&g, 0, &oracle, &algorithm, RunOptions{}});
  }
  specs[3].source = 999;  // out of range -> the engine throws
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchStats stats;
    const auto reports = BatchRunner(jobs).run(specs, &stats);
    ASSERT_EQ(reports.size(), specs.size()) << "jobs=" << jobs;
    EXPECT_EQ(stats.failed, 1u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i == 3) {
        EXPECT_TRUE(reports[i].failed());
        EXPECT_FALSE(reports[i].ok());
        EXPECT_EQ(reports[i].run.status, RunStatus::kCrashed);
        EXPECT_NE(reports[i].error.find("bad source"), std::string::npos)
            << reports[i].error;
      } else {
        EXPECT_FALSE(reports[i].failed()) << i;
        EXPECT_TRUE(reports[i].ok()) << i;
      }
    }
  }
  // The single-trial convenience path keeps the legacy typed-throw contract.
  EXPECT_THROW(run_task(g, 999, oracle, algorithm), std::invalid_argument);
  EXPECT_THROW(BatchRunner(1).run_rethrow(specs), std::invalid_argument);
}

TEST(BatchRunner, EmptyBatchIsEmpty) {
  EXPECT_TRUE(BatchRunner(4).run({}).empty());
}

TEST(BatchRunner, ZeroJobsPicksHardwareConcurrency) {
  EXPECT_GE(BatchRunner(0).jobs(), 1u);
  EXPECT_EQ(BatchRunner(3).jobs(), 3u);
}

// ---- the advise pre-pass: one prepare per (graph, oracle) ------------------

/// Wraps an oracle and counts its per-graph and per-source calls. Its
/// prepare throws for `poisoned`, as a disconnected graph would.
class PreparingOracle final : public Oracle {
 public:
  explicit PreparingOracle(const Oracle& inner,
                           const PortGraph* poisoned = nullptr)
      : inner_(inner), poisoned_(poisoned) {}

  std::vector<BitString> advise(const PortGraph& g,
                                NodeId source) const override {
    return inner_.advise(g, source);
  }
  std::unique_ptr<const Advisor> prepare(const PortGraph& g) const override {
    count(prepares_, &g, 0);
    if (&g == poisoned_) throw std::runtime_error("prepare: poisoned graph");
    return std::make_unique<Counting>(*this, g, inner_.prepare(g));
  }
  std::string name() const override { return inner_.name(); }

  std::size_t prepares(const PortGraph& g) const { return read(prepares_, &g, 0); }
  std::size_t advises(const PortGraph& g, NodeId s) const {
    return read(advises_, &g, s);
  }
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    prepares_.clear();
    advises_.clear();
  }

 private:
  using Calls = std::map<std::pair<const PortGraph*, NodeId>, std::size_t>;
  class Counting final : public Advisor {
   public:
    Counting(const PreparingOracle& owner, const PortGraph& g,
             std::unique_ptr<const Advisor> inner)
        : owner_(owner), g_(g), inner_(std::move(inner)) {}
    std::vector<BitString> advise(NodeId source) const override {
      owner_.count(owner_.advises_, &g_, source);
      return inner_->advise(source);
    }

   private:
    const PreparingOracle& owner_;
    const PortGraph& g_;
    std::unique_ptr<const Advisor> inner_;
  };

  void count(Calls& calls, const PortGraph* g, NodeId s) const {
    const std::lock_guard<std::mutex> lock(mu_);
    ++calls[{g, s}];
  }
  std::size_t read(const Calls& calls, const PortGraph* g, NodeId s) const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = calls.find({g, s});
    return it == calls.end() ? 0 : it->second;
  }

  const Oracle& inner_;
  const PortGraph* poisoned_;
  mutable std::mutex mu_;
  mutable Calls prepares_;
  mutable Calls advises_;
};

constexpr NodeId kGroupSources[] = {0, 3, 7, 11, 5};

/// Two graphs x two oracles x five sources, each source asked for twice,
/// interleaved so that no group's specs are contiguous.
struct GroupedBatch {
  GroupedBatch()
      : light(light_inner), tree(tree_inner) {
    Rng rng(12);
    graphs.push_back(shuffle_ports(make_complete_star(48), rng));
    graphs.push_back(make_random_connected(40, 0.2, rng));
    for (int round = 0; round < 2; ++round) {
      for (const NodeId s : kGroupSources) {
        for (const PortGraph& g : graphs) {
          specs.push_back(TrialSpec{&g, s, &light, &broadcast, RunOptions{}});
          specs.push_back(TrialSpec{&g, s, &tree, &wakeup, RunOptions{}});
        }
      }
    }
  }

  std::vector<PortGraph> graphs;
  const LightBroadcastOracle light_inner;
  const TreeWakeupOracle tree_inner;
  PreparingOracle light;
  PreparingOracle tree;
  const BroadcastBAlgorithm broadcast;
  const WakeupTreeAlgorithm wakeup;
  std::vector<TrialSpec> specs;
};

TEST(BatchRunner, PreparesOncePerGraphAndOracle) {
  GroupedBatch batch;
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    batch.light.reset();
    batch.tree.reset();
    const auto reports = BatchRunner(jobs).run(batch.specs);
    for (const PortGraph& g : batch.graphs) {
      for (const PreparingOracle* o : {&batch.light, &batch.tree}) {
        EXPECT_EQ(o->prepares(g), 1u) << o->name() << " jobs=" << jobs;
        for (const NodeId s : kGroupSources) {
          EXPECT_EQ(o->advises(g, s), 1u)
              << o->name() << " source " << s << " jobs=" << jobs;
        }
      }
    }
    for (const TaskReport& r : reports) EXPECT_TRUE(r.ok());
  }
}

TEST(BatchRunner, GroupedAdviceIdenticalAtEveryJobCount) {
  GroupedBatch batch;
  BatchStats serial_stats;
  const auto serial = BatchRunner(1).run(batch.specs, &serial_stats);
  EXPECT_EQ(serial_stats.unique_advice, 20u);
  EXPECT_EQ(serial_stats.cache_hits, 20u);
  for (std::size_t i = 0; i < batch.specs.size(); ++i) {
    const TrialSpec& spec = batch.specs[i];
    const auto fresh = spec.oracle->advise(*spec.graph, spec.source);
    EXPECT_EQ(serial[i].oracle_bits, oracle_size_bits(fresh)) << i;
    EXPECT_EQ(serial[i].max_advice_bits, max_advice_bits(fresh)) << i;
  }
  for (const std::size_t jobs : {2u, 4u}) {
    BatchStats stats;
    const auto reports = BatchRunner(jobs).run(batch.specs, &stats);
    ASSERT_EQ(reports.size(), serial.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].run, serial[i].run) << i << " jobs=" << jobs;
      EXPECT_EQ(reports[i].oracle_bits, serial[i].oracle_bits) << i;
      EXPECT_EQ(reports[i].max_advice_bits, serial[i].max_advice_bits) << i;
      EXPECT_EQ(reports[i].advice_cached, serial[i].advice_cached) << i;
    }
    EXPECT_EQ(stats.unique_advice, serial_stats.unique_advice);
    EXPECT_EQ(stats.cache_hits, serial_stats.cache_hits);
    EXPECT_EQ(stats.failed, serial_stats.failed);
    EXPECT_EQ(stats.seed_families, serial_stats.seed_families);
    EXPECT_EQ(stats.batched_lanes, serial_stats.batched_lanes);
    EXPECT_EQ(stats.lockstep_shared, serial_stats.lockstep_shared);
    EXPECT_EQ(stats.metrics, serial_stats.metrics) << "jobs=" << jobs;
  }
}

TEST(BatchRunner, PrepareCostGoesToTheGroupOwner) {
  GroupedBatch batch;
  for (const std::size_t jobs : {1u, 4u}) {
    BatchStats stats;
    const auto reports = BatchRunner(jobs).run(batch.specs, &stats);
    // The lowest index of each (graph, oracle, source) reports a cost; the
    // lowest of each (graph, oracle) adds its prepare cost to it.
    std::map<std::tuple<const PortGraph*, const Oracle*, NodeId>, std::size_t>
        owner;
    std::uint64_t reported = 0;
    for (std::size_t i = 0; i < batch.specs.size(); ++i) {
      const TrialSpec& spec = batch.specs[i];
      const bool first =
          owner.emplace(std::make_tuple(spec.graph, spec.oracle, spec.source), i)
              .second;
      EXPECT_EQ(reports[i].advice_cached, !first) << i << " jobs=" << jobs;
      if (!first) {
        EXPECT_EQ(reports[i].advise_ns, 0u) << i;
      }
      reported += reports[i].advise_ns;
    }
    EXPECT_EQ(owner.size(), stats.unique_advice);
    // Every nanosecond the pre-pass spent, prepare included, lands on
    // exactly one report.
    EXPECT_EQ(reported, stats.advise_ns) << "jobs=" << jobs;
  }
}

TEST(BatchRunner, ThrowingPrepareFailsOnlyItsGroup) {
  Rng rng(13);
  const PortGraph good = make_random_connected(30, 0.2, rng);
  const PortGraph bad = make_grid(5, 6);
  const LightBroadcastOracle light_inner;
  const NullOracle null_inner;
  const PreparingOracle light(light_inner, &bad);
  const PreparingOracle null(null_inner);
  const BroadcastBAlgorithm broadcast;
  const FloodingAlgorithm flooding;
  std::vector<TrialSpec> specs;
  for (const NodeId s : {NodeId{4}, NodeId{1}, NodeId{4}}) {
    specs.push_back(TrialSpec{&good, s, &light, &broadcast, RunOptions{}});
    specs.push_back(TrialSpec{&bad, s, &light, &broadcast, RunOptions{}});
    specs.push_back(TrialSpec{&bad, s, &null, &flooding, RunOptions{}});
  }
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    BatchStats stats;
    const auto reports = BatchRunner(jobs).run(specs, &stats);
    ASSERT_EQ(reports.size(), specs.size());
    EXPECT_EQ(stats.failed, 3u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool poisoned = specs[i].graph == &bad && specs[i].oracle == &light;
      EXPECT_EQ(reports[i].failed(), poisoned) << i << " jobs=" << jobs;
      if (poisoned) {
        EXPECT_EQ(reports[i].run.status, RunStatus::kCrashed);
        EXPECT_NE(reports[i].error.find("poisoned graph"), std::string::npos)
            << reports[i].error;
      } else {
        EXPECT_TRUE(reports[i].ok()) << i << " jobs=" << jobs;
      }
    }
  }
  // One prepare per call for the poisoned group, two sources or not.
  EXPECT_EQ(light.prepares(bad), 3u);
  EXPECT_EQ(light.prepares(good), 3u);
  EXPECT_EQ(null.prepares(bad), 3u);
  EXPECT_THROW(BatchRunner(2).run_rethrow(specs), std::runtime_error);
}

}  // namespace
}  // namespace oraclesize
