// Tests for the network substrate: delivery semantics, loss models,
// bounded buffer, and delay models.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "des/simulation.hpp"
#include "net/delay_model.hpp"
#include "net/loss_model.hpp"
#include "net/network.hpp"

namespace probemon::net {
namespace {

class Recorder final : public INetworkClient {
 public:
  void on_message(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

Message probe(NodeId from, NodeId to, std::uint64_t cycle = 1) {
  Message m;
  m.kind = MessageKind::kProbe;
  m.from = from;
  m.to = to;
  m.cycle = cycle;
  return m;
}

TEST(Network, DeliversWithDelayBounds) {
  des::Simulation sim(1);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(0.5), make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  EXPECT_TRUE(net.send(probe(ida, idb)));
  sim.run_until(0.4);
  EXPECT_TRUE(b.received.empty());
  sim.run_until(0.6);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, ida);
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Network, AttachAssignsDistinctIds) {
  des::Simulation sim(1);
  auto net = Network::make_paper_default(sim.scheduler(), sim.rng());
  Recorder a, b, c;
  const NodeId ids[] = {net->attach(a), net->attach(b), net->attach(c)};
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[1], ids[2]);
  EXPECT_EQ(net->node_count(), 3u);
}

TEST(Network, DetachedDestinationDropsQuietly) {
  des::Simulation sim(1);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(0.1), make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  net.send(probe(ida, idb));
  net.detach(idb);
  sim.run_until(1.0);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.counters().dropped_unknown, 1u);
  EXPECT_EQ(net.counters().delivered, 0u);
}

TEST(Network, DestinationAttachedInFlightReceives) {
  // A message to the next id, sent before that node exists, reaches it
  // when it attaches before the delivery time: the client resolved at
  // send (none) is stale once the topology changed.
  des::Simulation sim(1);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(0.1), make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId next = ida + 1;
  EXPECT_TRUE(net.send(probe(ida, next)));
  sim.run_until(0.05);
  EXPECT_EQ(net.attach(b), next);
  sim.run_until(1.0);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, ida);
  EXPECT_EQ(net.counters().delivered, 1u);
  EXPECT_EQ(net.counters().dropped_unknown, 0u);
}

TEST(Network, InvalidEndpointsThrow) {
  des::Simulation sim(1);
  auto net = Network::make_paper_default(sim.scheduler(), sim.rng());
  Recorder a;
  const NodeId ida = net->attach(a);
  EXPECT_THROW(net->send(probe(kInvalidNode, ida)), std::logic_error);
  EXPECT_THROW(net->send(probe(ida, kInvalidNode)), std::logic_error);
}

TEST(Network, BufferOverflowDrops) {
  des::Simulation sim(1);
  NetworkConfig config;
  config.buffer_capacity = 5;
  Network net(sim.scheduler(), sim.rng(), config, make_constant_delay(10.0),
              make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  for (int i = 0; i < 8; ++i) net.send(probe(ida, idb));
  EXPECT_EQ(net.in_flight(), 5u);
  EXPECT_EQ(net.counters().dropped_overflow, 3u);
  sim.run_until(20.0);
  EXPECT_EQ(b.received.size(), 5u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(Network, OccupancyIsTimeWeighted) {
  des::Simulation sim(1);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(1.0), make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  net.send(probe(ida, idb));  // in flight during [0, 1)
  sim.run_until(10.0);
  EXPECT_NEAR(net.mean_buffer_occupancy(10.0), 0.1, 1e-9);
  EXPECT_EQ(net.max_buffer_occupancy(), 1.0);
}

TEST(Network, LossModelDropsStatistically) {
  des::Simulation sim(2);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(0.001), make_bernoulli_loss(0.25));
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    net.send(probe(ida, idb));
    sim.run_until(sim.now() + 0.01);
  }
  const double loss_rate =
      static_cast<double>(net.counters().dropped_loss) / n;
  EXPECT_NEAR(loss_rate, 0.25, 0.02);
  EXPECT_EQ(net.counters().delivered + net.counters().dropped_loss,
            static_cast<std::uint64_t>(n));
}

TEST(Network, NoDuplicateDelivery) {
  des::Simulation sim(3);
  auto net = Network::make_paper_default(sim.scheduler(), sim.rng());
  Recorder a, b;
  const NodeId ida = net->attach(a);
  const NodeId idb = net->attach(b);
  for (std::uint64_t i = 0; i < 500; ++i) {
    net->send(probe(ida, idb, i));
  }
  sim.run_until(10.0);
  ASSERT_EQ(b.received.size(), 500u);
  std::set<std::uint64_t> cycles;
  for (const auto& m : b.received) cycles.insert(m.cycle);
  EXPECT_EQ(cycles.size(), 500u);
}

TEST(Network, OutageDropsDuringWindowOnly) {
  des::Simulation sim(4);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(0.001), make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  net.schedule_outage(1.0, 2.0);
  auto send_at = [&](double t) {
    sim.at(t, [&] { net.send(probe(ida, idb)); });
  };
  send_at(0.5);   // before: delivered
  send_at(1.5);   // during: dropped
  send_at(2.5);   // after: delivered
  sim.run_until(5.0);
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(net.counters().dropped_outage, 1u);
}

TEST(Network, OutageDoesNotKillInFlightMessages) {
  des::Simulation sim(5);
  Network net(sim.scheduler(), sim.rng(), NetworkConfig{},
              make_constant_delay(1.0), make_no_loss());
  Recorder a, b;
  const NodeId ida = net.attach(a);
  const NodeId idb = net.attach(b);
  net.send(probe(ida, idb));  // delivery at t=1, inside the outage
  net.schedule_outage(0.5, 2.0);
  sim.run_until(3.0);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, OutageValidation) {
  des::Simulation sim(6);
  auto net = Network::make_paper_default(sim.scheduler(), sim.rng());
  EXPECT_THROW(net->schedule_outage(2.0, 1.0), std::logic_error);
  sim.run_until(5.0);
  EXPECT_THROW(net->schedule_outage(1.0, 2.0), std::logic_error);  // past
}

TEST(DelayModel, ThreeModeStaysInBands) {
  util::Rng rng(4);
  auto model = ThreeModeDelay::paper_default();
  for (int i = 0; i < 10000; ++i) {
    const double d = model.sample(rng);
    ASSERT_GE(d, 0.00005);
    ASSERT_LE(d, model.max_delay());
  }
  // One-way delay must keep the paper's timeout calibration valid:
  // 2 * RTT_max <= TOF - compute_max = 0.002.
  EXPECT_LE(4 * model.max_delay(), 0.002 + 1e-12);
}

TEST(DelayModel, ThreeModeUsesAllThreeModes) {
  util::Rng rng(5);
  auto model = ThreeModeDelay::paper_default();
  int fast = 0, medium = 0, slow = 0;
  for (int i = 0; i < 30000; ++i) {
    const double d = model.sample(rng);
    if (d < 0.00015) {
      ++fast;
    } else if (d < 0.0003) {
      ++medium;
    } else {
      ++slow;
    }
  }
  // Uniform mode choice: roughly a third each.
  EXPECT_NEAR(fast / 30000.0, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(medium / 30000.0, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(slow / 30000.0, 1.0 / 3.0, 0.02);
}

TEST(DelayModel, ThreeModeValidatesBandOrdering) {
  using Band = ThreeModeDelay::Band;
  EXPECT_THROW(ThreeModeDelay(Band{0.0, 0.5}, Band{0.0, 0.4}, Band{0.0, 0.6}),
               std::invalid_argument);
  EXPECT_THROW(ThreeModeDelay(Band{-0.1, 0.1}, Band{0.1, 0.2}, Band{0.2, 0.3}),
               std::invalid_argument);
}

TEST(DelayModel, DistributionDelayClampsToRange) {
  util::Rng rng(6);
  DistributionDelay model(util::make_normal(0.0, 1.0), 0.5);
  for (int i = 0; i < 10000; ++i) {
    const double d = model.sample(rng);
    ASSERT_GE(d, 0.0);
    ASSERT_LE(d, 0.5);
  }
}

TEST(LossModel, BernoulliFrequency) {
  util::Rng rng(7);
  BernoulliLoss loss(0.1);
  int lost = 0;
  for (int i = 0; i < 100000; ++i) lost += loss.lose(rng) ? 1 : 0;
  EXPECT_NEAR(lost / 100000.0, 0.1, 0.01);
}

TEST(LossModel, BernoulliValidatesProbability) {
  EXPECT_THROW(BernoulliLoss(-0.1), std::invalid_argument);
  EXPECT_THROW(BernoulliLoss(1.1), std::invalid_argument);
}

TEST(LossModel, GilbertElliottMatchesSteadyState) {
  util::Rng rng(8);
  GilbertElliottLoss loss(0.05, 0.25, 0.01, 0.5);
  int lost = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) lost += loss.lose(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / n, loss.steady_state_loss(), 0.01);
}

TEST(LossModel, GilbertElliottIsBursty) {
  // Mean loss-run length must exceed the iid model's at equal loss rate.
  util::Rng rng(9);
  GilbertElliottLoss ge(0.02, 0.2, 0.0, 0.9);
  const double rate = ge.steady_state_loss();
  auto mean_run = [&](auto& model) {
    int runs = 0, losses = 0;
    bool in_run = false;
    for (int i = 0; i < 300000; ++i) {
      if (model.lose(rng)) {
        ++losses;
        if (!in_run) {
          ++runs;
          in_run = true;
        }
      } else {
        in_run = false;
      }
    }
    return runs ? static_cast<double>(losses) / runs : 0.0;
  };
  BernoulliLoss iid(rate);
  const double ge_run = mean_run(ge);
  const double iid_run = mean_run(iid);
  EXPECT_GT(ge_run, 1.5 * iid_run);
}

TEST(Message, DescribeIsInformative) {
  Message m = probe(3, 4, 17);
  const std::string text = m.describe();
  EXPECT_NE(text.find("probe"), std::string::npos);
  EXPECT_NE(text.find("3->4"), std::string::npos);
  EXPECT_NE(text.find("17"), std::string::npos);
}

}  // namespace
}  // namespace probemon::net
