#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include "graph/builders.h"
#include "sim/engine.h"

namespace oraclesize {
namespace {

// Sends payloads 1..k down port 0 at start; the receiver records whether
// they arrived in send order (output() == 1) or scrambled (0).
class Burst final : public Algorithm {
 public:
  explicit Burst(std::uint64_t k) : k_(k) {}

  class Sender final : public NodeBehavior {
   public:
    explicit Sender(std::uint64_t k) : k_(k) {}
    void on_start(const NodeInput& input, std::vector<Send>& out) override {
      if (!input.is_source) return;
      for (std::uint64_t i = 1; i <= k_; ++i) {
        out.push_back(Send{Message::control(i), 0});
      }
    }
    void on_receive(const NodeInput&, const Message& msg, Port,
                    std::vector<Send>&) override {
      if (msg.payload != next_) ordered_ = false;
      ++next_;
    }
    std::uint64_t output() const override { return ordered_ ? 1 : 0; }

   private:
    std::uint64_t k_;
    std::uint64_t next_ = 1;
    bool ordered_ = true;
  };

  std::unique_ptr<NodeBehavior> make_behavior(
      const NodeInput&) const override {
    return std::make_unique<Sender>(k_);
  }
  std::string name() const override { return "burst"; }

 private:
  std::uint64_t k_;
};

TEST(Scheduler, LinkFifoPreservesPerLinkOrder) {
  const PortGraph g = make_path(2);
  const std::vector<BitString> advice(2);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncLinkFifo;
    opts.seed = seed;
    opts.max_delay = 32;
    const RunResult r = run_execution(g, 0, advice, Burst(20), opts);
    EXPECT_EQ(r.outputs[1], 1u) << "seed " << seed;
  }
}

TEST(Scheduler, AsyncRandomDoesReorderSomewhere) {
  // Sanity that the previous test is non-vacuous: plain async-random with
  // large jitter scrambles at least one of the same seeds.
  const PortGraph g = make_path(2);
  const std::vector<BitString> advice(2);
  std::size_t scrambled = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncRandom;
    opts.seed = seed;
    opts.max_delay = 32;
    const RunResult r = run_execution(g, 0, advice, Burst(20), opts);
    scrambled += (r.outputs[1] == 0) ? 1 : 0;
  }
  EXPECT_GT(scrambled, 0u);
}

TEST(Scheduler, SynchronousDeliversRoundByRound) {
  Scheduler s(SchedulerKind::kSynchronous, 1, 16);
  EXPECT_EQ(s.delivery_key(0, 0, 0), 1);
  EXPECT_EQ(s.delivery_key(5, 1, 0), 6);
}

TEST(Scheduler, LifoKeysDescend) {
  Scheduler s(SchedulerKind::kAsyncLifo, 1, 16);
  const auto k0 = s.delivery_key(0, 0, 0);
  const auto k1 = s.delivery_key(0, 1, 0);
  EXPECT_GT(k0, k1);  // later sends get smaller keys -> delivered first
}

TEST(Scheduler, FifoKeysAscend) {
  Scheduler s(SchedulerKind::kAsyncFifo, 1, 16);
  EXPECT_LT(s.delivery_key(0, 0, 0), s.delivery_key(0, 1, 0));
}

// Regression pin for the flat (vector-indexed) link clock that replaced
// the unordered_map: interleaved draws on several links must each stay
// strictly monotone, and the clamp must still enforce candidate >
// previous. reset() sizes the clock table up front — the hot path no
// longer grows it on demand.
TEST(Scheduler, LinkFifoFlatClockInterleavedLinksStayFifo) {
  Scheduler s(SchedulerKind::kAsyncLinkFifo, 11, 16);
  s.reset(SchedulerKind::kAsyncLinkFifo, 11, 16, /*num_links=*/2000);
  const std::uint64_t links[] = {0, 7, 3, 1024, 7, 0, 3, 1024};
  std::int64_t last[2000] = {};
  std::uint64_t seq = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t link : links) {
      const std::int64_t k = s.delivery_key(0, seq++, link);
      EXPECT_GT(k, last[link]) << "link " << link << " seq " << seq;
      last[link] = k;
    }
  }
}

// A multi-port sender under kAsyncLinkFifo: every outgoing link preserves
// send order independently (the per-link FIFO semantics the engine's
// prefix-summed link ids must uphold), and the execution is seed-stable.
TEST(Scheduler, LinkFifoPerLinkOrderOnMultiPortSender) {
  // Source (center of a star) sends payloads 1..k down EVERY port; each
  // leaf checks its own arrivals are in order.
  class MultiBurst final : public Algorithm {
   public:
    explicit MultiBurst(std::uint64_t k) : k_(k) {}
    class Behavior final : public NodeBehavior {
     public:
      explicit Behavior(std::uint64_t k) : k_(k) {}
      void on_start(const NodeInput& input, std::vector<Send>& out) override {
        if (!input.is_source) return;
        for (std::uint64_t i = 1; i <= k_; ++i) {
          for (Port p = 0; p < input.degree; ++p) {
            out.push_back(Send{Message::control(i), p});
          }
        }
      }
      void on_receive(const NodeInput&, const Message& msg, Port,
                      std::vector<Send>&) override {
        if (msg.payload != next_) ordered_ = false;
        ++next_;
      }
      std::uint64_t output() const override { return ordered_ ? 1 : 0; }

     private:
      std::uint64_t k_;
      std::uint64_t next_ = 1;
      bool ordered_ = true;
    };
    std::unique_ptr<NodeBehavior> make_behavior(
        const NodeInput&) const override {
      return std::make_unique<Behavior>(k_);
    }
    std::string name() const override { return "multi-burst"; }

   private:
    std::uint64_t k_;
  };

  const PortGraph g = make_star(9);  // center 0, eight leaves
  const std::vector<BitString> advice(g.num_nodes());
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    RunOptions opts;
    opts.scheduler = SchedulerKind::kAsyncLinkFifo;
    opts.seed = seed;
    opts.max_delay = 32;
    const RunResult r = run_execution(g, 0, advice, MultiBurst(15), opts);
    for (NodeId leaf = 1; leaf < g.num_nodes(); ++leaf) {
      EXPECT_EQ(r.outputs[leaf], 1u) << "seed " << seed << " leaf " << leaf;
    }
    // Seed determinism of the flat clock: same seed, same execution.
    const RunResult again = run_execution(g, 0, advice, MultiBurst(15), opts);
    EXPECT_EQ(r, again) << "seed " << seed;
  }
}

TEST(Scheduler, LinkFifoKeysMonotonePerLink) {
  Scheduler s(SchedulerKind::kAsyncLinkFifo, 7, 64);
  s.reset(SchedulerKind::kAsyncLinkFifo, 7, 64, /*num_links=*/64);
  std::int64_t prev = -1;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const std::int64_t k = s.delivery_key(0, seq, /*link=*/42);
    EXPECT_GT(k, prev);
    prev = k;
  }
}

TEST(Scheduler, AsyncRandomDelayBounded) {
  Scheduler s(SchedulerKind::kAsyncRandom, 3, 8);
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const std::int64_t k = s.delivery_key(10, seq, 0);
    EXPECT_GE(k, 11);
    EXPECT_LE(k, 18);
  }
}

// The pure schedulers' one key switch is what delivery_key answers, so the
// engines and the seed-batch pass key messages identically.
TEST(Scheduler, PureKeyMatchesDeliveryKey) {
  for (SchedulerKind kind :
       {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
        SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo}) {
    Scheduler s(kind, 31, 12);
    for (std::uint64_t seq = 0; seq < 40; ++seq) {
      const std::uint64_t link = seq * 7 % 11;
      EXPECT_EQ(s.delivery_key(3, seq, link),
                Scheduler::pure_key(kind, 3, seq, link, 31, 12))
          << to_string(kind) << " seq " << seq;
    }
  }
}

TEST(Scheduler, Names) {
  EXPECT_STREQ(to_string(SchedulerKind::kSynchronous), "sync");
  EXPECT_STREQ(to_string(SchedulerKind::kAsyncLinkFifo), "async-link-fifo");
}

// The counter-keyed contract: a message's key is a pure function of
// (seed, seq, link) — draw ORDER must not matter. Interrogate the same
// (seq, link) pairs in two different orders and expect identical keys.
TEST(SchedulerKeyingTest, CounterKeysAreDrawOrderInvariant) {
  Scheduler a(SchedulerKind::kAsyncRandom, 42, 16);
  Scheduler b(SchedulerKind::kAsyncRandom, 42, 16);
  std::int64_t forward[8];
  for (std::uint64_t i = 0; i < 8; ++i) {
    forward[i] = a.delivery_key(5, i, i % 3);
  }
  for (std::uint64_t i = 8; i-- > 0;) {
    EXPECT_EQ(b.delivery_key(5, i, i % 3), forward[i]) << "seq " << i;
  }
}

// delivery_key must agree with the prekey/decide split the
// seed-batch executor uses (one hash per message, one mix per lane).
TEST(SchedulerKeyingTest, PrekeySplitMatchesDeliveryKey) {
  const std::uint64_t seed = 1234567;
  Scheduler s(SchedulerKind::kAsyncRandom, seed, 32);
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    const std::uint64_t link = seq * 17 % 23;
    const std::int64_t direct = s.delivery_key(9, seq, link);
    const std::uint64_t prekey = Scheduler::delivery_prekey(seq, link);
    const std::int64_t split =
        9 + 1 +
        static_cast<std::int64_t>(Scheduler::counter_delay(seed, prekey, 32));
    EXPECT_EQ(direct, split) << "seq " << seq;
  }
}

// Counter keys honor the delay bound and change with the seed.
TEST(SchedulerKeyingTest, CounterKeysBoundedAndSeedSensitive) {
  Scheduler a(SchedulerKind::kAsyncRandom, 3, 8);
  Scheduler b(SchedulerKind::kAsyncRandom, 4, 8);
  std::size_t differing = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const std::int64_t ka = a.delivery_key(10, seq, 0);
    EXPECT_GE(ka, 11);
    EXPECT_LE(ka, 18);
    differing += (ka != b.delivery_key(10, seq, 0)) ? 1 : 0;
  }
  EXPECT_GT(differing, 0u);
}

// Counter-keyed link-fifo still clamps per link: monotone per link at any
// seed, and deterministic across schedulers armed identically.
TEST(SchedulerKeyingTest, CounterLinkFifoClampsPerLink) {
  Scheduler s(SchedulerKind::kAsyncLinkFifo, 21, 16);
  s.reset(SchedulerKind::kAsyncLinkFifo, 21, 16, /*num_links=*/4);
  Scheduler t(SchedulerKind::kAsyncLinkFifo, 21, 16);
  t.reset(SchedulerKind::kAsyncLinkFifo, 21, 16, /*num_links=*/4);
  std::int64_t last[4] = {-1, -1, -1, -1};
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const std::uint64_t link = seq % 4;
    const std::int64_t k = s.delivery_key(0, seq, link);
    EXPECT_GT(k, last[link]) << "seq " << seq;
    EXPECT_EQ(k, t.delivery_key(0, seq, link));
    last[link] = k;
  }
}

}  // namespace
}  // namespace oraclesize
