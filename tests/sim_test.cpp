// Unit tests for the discrete-event simulator: ordering, determinism,
// links, latency, error handling.

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace identxx::sim {
namespace {

/// Test node that records arrivals.
class RecorderNode : public Node {
 public:
  explicit RecorderNode(std::string name) : name_(std::move(name)) {}

  void on_packet(const net::Packet& packet, PortId in_port) override {
    arrivals.push_back({simulator()->now(), in_port, packet});
  }
  [[nodiscard]] std::string name() const override { return name_; }

  struct Arrival {
    SimTime time;
    PortId port;
    net::Packet packet;
  };
  std::vector<Arrival> arrivals;

 private:
  std::string name_;
};

net::Packet test_packet(std::size_t payload_bytes = 0) {
  return net::make_tcp_packet(
      net::MacAddress::for_node(1), net::MacAddress::for_node(2),
      *net::Ipv4Address::parse("10.0.0.1"), *net::Ipv4Address::parse("10.0.0.2"),
      1000, 80, std::string(payload_bytes, 'p'));
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(100, [&] {
    EXPECT_THROW(sim.schedule_at(50, [] {}), SimError);
  });
  sim.run();
}

TEST(Simulator, RunWithDeadlineStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(200, [&] { ++fired; });
  sim.run(150);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, DeliversPacketOverLink) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
  sim.connect(a, 1, b, 1, /*latency=*/1000, /*bandwidth=*/0);
  sim.send(a, 1, test_packet());
  sim.run();
  auto& node_b = dynamic_cast<RecorderNode&>(sim.node(b));
  ASSERT_EQ(node_b.arrivals.size(), 1u);
  EXPECT_EQ(node_b.arrivals[0].time, 1000);
  EXPECT_EQ(node_b.arrivals[0].port, 1);
  EXPECT_EQ(sim.stats().packets_delivered, 1u);
}

TEST(Simulator, SerializationDelayScalesWithSize) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
  // 1 Gbps, zero propagation latency.
  sim.connect(a, 1, b, 1, 0, 1'000'000'000ULL);
  sim.send(a, 1, test_packet(0));
  sim.send(a, 1, test_packet(1000));
  sim.run();
  auto& node_b = dynamic_cast<RecorderNode&>(sim.node(b));
  ASSERT_EQ(node_b.arrivals.size(), 2u);
  // The 1000-byte-payload packet takes ~8us longer at 1 Gbps.
  EXPECT_GT(node_b.arrivals[1].time, node_b.arrivals[0].time + 7000);
}

TEST(Simulator, LinksAreBidirectional) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
  sim.connect(a, 1, b, 2, 10, 0);
  sim.send(b, 2, test_packet());
  sim.run();
  auto& node_a = dynamic_cast<RecorderNode&>(sim.node(a));
  ASSERT_EQ(node_a.arrivals.size(), 1u);
  EXPECT_EQ(node_a.arrivals[0].port, 1);
}

TEST(Simulator, SendOnUnwiredPortIsCountedDrop) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  sim.send(a, 1, test_packet());
  sim.run();
  EXPECT_EQ(sim.stats().packets_dropped_no_link, 1u);
  EXPECT_EQ(sim.stats().packets_delivered, 0u);
}

TEST(Simulator, ConnectValidation) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
  EXPECT_THROW(sim.connect(a, 0, b, 1), SimError);       // port 0 reserved
  EXPECT_THROW(sim.connect(a, 1, 99, 1), SimError);      // unknown node
  EXPECT_THROW(sim.connect(a, 1, b, 1, -5), SimError);   // negative latency
  sim.connect(a, 1, b, 1);
  EXPECT_THROW(sim.connect(a, 1, b, 2), SimError);       // port already wired
}

TEST(Simulator, LinkAtReportsWiring) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
  sim.connect(a, 3, b, 4, 42, 0);
  const LinkEnd* link = sim.link_at(a, 3);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->peer, b);
  EXPECT_EQ(link->peer_port, 4);
  EXPECT_EQ(link->latency, 42);
  EXPECT_EQ(sim.link_at(a, 9), nullptr);
}

TEST(Simulator, DeliveryTracerObservesEveryDelivery) {
  Simulator sim;
  const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
  const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
  sim.connect(a, 1, b, 2, 100, 0);
  struct Trace {
    SimTime when;
    NodeId from, to;
    PortId from_port, to_port;
  };
  std::vector<Trace> traces;
  sim.set_delivery_tracer([&](SimTime when, NodeId from, PortId from_port,
                              NodeId to, PortId to_port, const net::Packet&) {
    traces.push_back({when, from, to, from_port, to_port});
  });
  sim.send(a, 1, test_packet());
  sim.send(b, 2, test_packet());
  sim.run();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].from, a);
  EXPECT_EQ(traces[0].to, b);
  EXPECT_EQ(traces[0].from_port, 1);
  EXPECT_EQ(traces[0].to_port, 2);
  EXPECT_EQ(traces[0].when, 100);
  EXPECT_EQ(traces[1].from, b);
  EXPECT_EQ(traces[1].to, a);
}

TEST(Simulator, DeterministicReplay) {
  // Two identical runs produce identical arrival sequences.
  const auto run_once = [] {
    Simulator sim;
    const NodeId a = sim.add_node(std::make_unique<RecorderNode>("a"));
    const NodeId b = sim.add_node(std::make_unique<RecorderNode>("b"));
    sim.connect(a, 1, b, 1, 100, 1'000'000'000ULL);
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(i * 7, [&sim, a, i] {
        sim.send(a, 1, test_packet(static_cast<std::size_t>(i % 13) * 10));
      });
    }
    sim.run();
    std::vector<SimTime> times;
    for (const auto& arrival :
         dynamic_cast<RecorderNode&>(sim.node(b)).arrivals) {
      times.push_back(arrival.time);
    }
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace identxx::sim
