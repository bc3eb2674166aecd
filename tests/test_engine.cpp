#include "sim/engine.h"

#include <gtest/gtest.h>

#include "graph/builders.h"
#include "graph/complete_star.h"
#include "graph/validate.h"
#include "trace_helpers.h"

namespace oraclesize {
namespace {

// A controllable test algorithm: the source sends a kControl message on all
// ports at start; every node relays once on all other ports upon receipt.
// With spontaneous=true, non-source nodes also emit one message at start
// (to exercise the wakeup enforcement path).
class TestFlood final : public Algorithm {
 public:
  explicit TestFlood(bool spontaneous = false) : spontaneous_(spontaneous) {}

  class Behavior final : public NodeBehavior {
   public:
    explicit Behavior(bool spontaneous) : spontaneous_(spontaneous) {}
    void on_start(const NodeInput& input, std::vector<Send>& out) override {
      if (input.is_source || spontaneous_) {
        for (Port p = 0; p < input.degree; ++p) {
          out.push_back(Send{input.is_source ? Message::source()
                                             : Message::control(1),
                             p});
        }
      }
    }
    void on_receive(const NodeInput& input, const Message& msg, Port from,
                    std::vector<Send>& out) override {
      if (msg.kind != MsgKind::kSource || relayed_) return;
      relayed_ = true;
      for (Port p = 0; p < input.degree; ++p) {
        if (p != from) out.push_back(Send{Message::source(), p});
      }
    }

   private:
    bool spontaneous_;
    bool relayed_ = false;
  };

  std::unique_ptr<NodeBehavior> make_behavior(
      const NodeInput&) const override {
    return std::make_unique<Behavior>(spontaneous_);
  }
  std::string name() const override { return "test-flood"; }

 private:
  bool spontaneous_;
};

// Sends on an out-of-range port.
class BadPortAlgorithm final : public Algorithm {
 public:
  class Behavior final : public NodeBehavior {
   public:
    void on_start(const NodeInput& input, std::vector<Send>& out) override {
      if (!input.is_source) return;
      out.push_back(Send{Message::control(0), static_cast<Port>(input.degree)});
    }
    void on_receive(const NodeInput&, const Message&, Port,
                    std::vector<Send>&) override {}
  };
  std::unique_ptr<NodeBehavior> make_behavior(
      const NodeInput&) const override {
    return std::make_unique<Behavior>();
  }
  std::string name() const override { return "bad-port"; }
};

// Two nodes ping-pong forever: exercises the message budget valve.
class PingPong final : public Algorithm {
 public:
  class Behavior final : public NodeBehavior {
   public:
    void on_start(const NodeInput& input, std::vector<Send>& out) override {
      if (!input.is_source) return;
      out.push_back(Send{Message::source(), 0});
    }
    void on_receive(const NodeInput&, const Message&, Port from,
                    std::vector<Send>& out) override {
      out.push_back(Send{Message::source(), from});
    }
  };
  std::unique_ptr<NodeBehavior> make_behavior(
      const NodeInput&) const override {
    return std::make_unique<Behavior>();
  }
  std::string name() const override { return "ping-pong"; }
};

std::vector<BitString> no_advice(const PortGraph& g) {
  return std::vector<BitString>(g.num_nodes());
}

// A run with its transmissions recorded (trace_helpers.h).
auto traced_execution(const PortGraph& g, NodeId source,
                      const Algorithm& algorithm, const RunOptions& opts) {
  return with_trace(
      [&](const RunOptions& o) {
        return run_execution(g, source, no_advice(g), algorithm, o);
      },
      opts);
}

TEST(Engine, FloodInformsEveryone) {
  const PortGraph g = make_grid(4, 5);
  const RunResult r =
      run_execution(g, 0, no_advice(g), TestFlood(), RunOptions{});
  EXPECT_TRUE(r.all_informed);
  EXPECT_TRUE(r.violation.empty());
  EXPECT_EQ(r.informed_count(), g.num_nodes());
  // Flooding sends deg(source) + sum over others (deg-1) messages.
  std::uint64_t expected = g.degree(0);
  for (NodeId v = 1; v < g.num_nodes(); ++v) expected += g.degree(v) - 1;
  EXPECT_EQ(r.metrics.messages_total, expected);
}

TEST(Engine, CompletionKeyIsEccentricityPlusOneUnderSync) {
  const PortGraph g = make_path(6);
  const RunResult r =
      run_execution(g, 0, no_advice(g), TestFlood(), RunOptions{});
  // Synchronous rounds: node i hears M at round i; last delivery key = 5
  // plus the final relay's delivery at key 6 (delivered to node 4's
  // neighbor; the path end relays nothing further, but its predecessor's
  // send arrives).
  EXPECT_GE(r.metrics.completion_key, 5);
}

TEST(Engine, AllSchedulersInformEveryone) {
  Rng rng(21);
  const PortGraph g = make_random_connected(40, 0.1, rng);
  for (SchedulerKind kind :
       {SchedulerKind::kSynchronous, SchedulerKind::kAsyncRandom,
        SchedulerKind::kAsyncFifo, SchedulerKind::kAsyncLifo,
        SchedulerKind::kAsyncLinkFifo}) {
    RunOptions opts;
    opts.scheduler = kind;
    opts.seed = 99;
    const RunResult r = run_execution(g, 3, no_advice(g), TestFlood(), opts);
    EXPECT_TRUE(r.all_informed) << to_string(kind);
    EXPECT_TRUE(r.violation.empty()) << to_string(kind);
  }
}

TEST(Engine, AsyncRandomIsSeedDeterministic) {
  Rng rng(22);
  const PortGraph g = make_random_connected(30, 0.15, rng);
  RunOptions opts;
  opts.scheduler = SchedulerKind::kAsyncRandom;
  opts.seed = 1234;
  const auto [a, a_sends] = traced_execution(g, 0, TestFlood(), opts);
  const auto [b, b_sends] = traced_execution(g, 0, TestFlood(), opts);
  ASSERT_EQ(a_sends.size(), b_sends.size());
  for (std::size_t i = 0; i < a_sends.size(); ++i) {
    EXPECT_EQ(a_sends[i].node, b_sends[i].node);
    EXPECT_EQ(a_sends[i].port, b_sends[i].port);
  }
}

TEST(Engine, WakeupEnforcementFlagsSpontaneousSenders) {
  const PortGraph g = make_path(4);
  RunOptions opts;
  opts.enforce_wakeup = true;
  const RunResult r =
      run_execution(g, 0, no_advice(g), TestFlood(/*spontaneous=*/true), opts);
  EXPECT_FALSE(r.violation.empty());
  EXPECT_NE(r.violation.find("wakeup violation"), std::string::npos);
}

TEST(Engine, WakeupEnforcementAllowsCleanFlood) {
  const PortGraph g = make_path(4);
  RunOptions opts;
  opts.enforce_wakeup = true;
  const RunResult r =
      run_execution(g, 0, no_advice(g), TestFlood(/*spontaneous=*/false),
                    opts);
  EXPECT_TRUE(r.violation.empty());
  EXPECT_TRUE(r.all_informed);
}

TEST(Engine, SpontaneousControlTrafficDoesNotInform) {
  // Without wakeup enforcement, uninformed nodes may send; their messages
  // must not inform receivers (sender was not informed at send time).
  const PortGraph g = make_path(3);
  const auto [r, sends] =
      traced_execution(g, 0, TestFlood(/*spontaneous=*/true), RunOptions{});
  EXPECT_TRUE(r.all_informed);  // the real flood still completes
  for (const TraceEvent& s : sends) {
    if (s.msg == MsgKind::kControl) {
      EXPECT_FALSE(s.flag);
    }
  }
}

TEST(Engine, InvalidPortIsReported) {
  const PortGraph g = make_path(3);
  const RunResult r =
      run_execution(g, 0, no_advice(g), BadPortAlgorithm(), RunOptions{});
  EXPECT_NE(r.violation.find("invalid send"), std::string::npos);
}

TEST(Engine, MessageBudgetStopsRunaways) {
  const PortGraph g = make_path(2);
  RunOptions opts;
  opts.max_messages = 100;
  const RunResult r =
      run_execution(g, 0, no_advice(g), PingPong(), opts);
  EXPECT_NE(r.violation.find("message budget"), std::string::npos);
  // Invariant: the budget is checked BEFORE a send is counted, so a run
  // never reports more messages than it was allowed — even the violating
  // send stays out of the metrics.
  EXPECT_EQ(r.metrics.messages_total, opts.max_messages);
  std::uint64_t sends = 0;
  for (std::uint64_t s : r.sends_by_node) sends += s;
  EXPECT_EQ(sends, r.metrics.messages_total);
}

TEST(Engine, MessageBudgetNeverOvershoots) {
  // Sweep budgets: metrics.messages_total <= max_messages must hold for
  // every budget, including ones that cut the run off mid-flood.
  const PortGraph g = make_complete_star(16);
  for (std::uint64_t budget : {1u, 7u, 50u, 1000u}) {
    RunOptions opts;
    opts.max_messages = budget;
    const RunResult r =
        run_execution(g, 0, no_advice(g), TestFlood(), opts);
    EXPECT_LE(r.metrics.messages_total, budget) << "budget " << budget;
  }
}

TEST(Engine, AnonymousModeHidesIds) {
  // An algorithm that leaks id into behavior: sends id as payload.
  class IdLeak final : public Algorithm {
   public:
    class Behavior final : public NodeBehavior {
     public:
      void on_start(const NodeInput& input, std::vector<Send>& out) override {
        if (!input.is_source) return;
        out.push_back(Send{Message::control(input.id), 0});
      }
      void on_receive(const NodeInput&, const Message&, Port,
                      std::vector<Send>&) override {}
    };
    std::unique_ptr<NodeBehavior> make_behavior(
        const NodeInput&) const override {
      return std::make_unique<Behavior>();
    }
    std::string name() const override { return "id-leak"; }
  };

  const PortGraph g = make_path(2);
  RunOptions opts;
  opts.anonymous = true;
  const RunResult r = traced_execution(g, 0, IdLeak(), opts).first;
  EXPECT_EQ(r.metrics.bits_sent, 2u);  // payload 0 carries no bits
}

TEST(Engine, AdviceSizeMismatchThrows) {
  const PortGraph g = make_path(3);
  const std::vector<BitString> advice(2);
  EXPECT_THROW(run_execution(g, 0, advice, TestFlood(), RunOptions{}),
               std::invalid_argument);
}

TEST(Engine, BadSourceThrows) {
  const PortGraph g = make_path(3);
  EXPECT_THROW(run_execution(g, 9, no_advice(g), TestFlood(), RunOptions{}),
               std::invalid_argument);
}

TEST(Engine, SingleNodeNetworkIsTriviallyDone) {
  const PortGraph g = make_path(1);
  const RunResult r =
      run_execution(g, 0, no_advice(g), TestFlood(), RunOptions{});
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(Engine, TraceRecordsEveryMessage) {
  const PortGraph g = make_star(6);
  const auto [r, sends] = traced_execution(g, 0, TestFlood(), RunOptions{});
  EXPECT_EQ(sends.size(), r.metrics.messages_total);
  for (const TraceEvent& s : sends) {
    EXPECT_LT(s.node, g.num_nodes());
    EXPECT_LT(s.port, g.degree(s.node));
    EXPECT_EQ(s.peer, g.neighbor(s.node, s.port).node);
  }
}


TEST(Engine, InformedAtMatchesBfsDepthUnderSync) {
  // Synchronous flooding informs each node exactly at its BFS distance
  // from the source: the time metric in its purest form.
  Rng rng(55);
  const PortGraph g = make_random_connected(50, 0.1, rng);
  const RunResult r =
      run_execution(g, 7, no_advice(g), TestFlood(), RunOptions{});
  ASSERT_TRUE(r.all_informed);
  const auto dist = bfs_distances(g, 7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(r.informed_at[v], static_cast<std::int64_t>(dist[v])) << v;
  }
}

TEST(Engine, InformedAtNeverForUnreached) {
  // A silent algorithm leaves everyone but the source uninformed forever.
  class Silent final : public Algorithm {
   public:
    class Behavior final : public NodeBehavior {
     public:
      void on_start(const NodeInput&, std::vector<Send>&) override {}
      void on_receive(const NodeInput&, const Message&, Port,
                      std::vector<Send>&) override {}
    };
    std::unique_ptr<NodeBehavior> make_behavior(
        const NodeInput&) const override {
      return std::make_unique<Behavior>();
    }
    std::string name() const override { return "silent"; }
  };
  const PortGraph g = make_path(4);
  const RunResult r = run_execution(g, 0, no_advice(g), Silent(),
                                    RunOptions{});
  EXPECT_EQ(r.informed_at[0], 0);
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_EQ(r.informed_at[v], RunResult::kNeverInformed);
  }
}

TEST(Engine, UnfrozenGraphThrows) {
  // Engines read link ids and delivery targets straight from the CSR, so a
  // builder-state graph is rejected at run entry.
  PortGraph g(3);
  g.add_edge_auto(0, 1);
  g.add_edge_auto(1, 2);
  ASSERT_FALSE(g.frozen());
  EXPECT_THROW(run_execution(g, 0, no_advice(g), TestFlood(), RunOptions{}),
               std::invalid_argument);
  g.freeze();
  const RunResult r =
      run_execution(g, 0, no_advice(g), TestFlood(), RunOptions{});
  EXPECT_TRUE(r.all_informed);
}

}  // namespace
}  // namespace oraclesize
