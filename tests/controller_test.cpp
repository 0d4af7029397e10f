// Unit tests for the controller layer: .control file assembly (§3.4),
// baseline controllers (vanilla ACL semantics, Ethane), revocation,
// flow-usage accounting, query interception, flow-entry expiry
// behaviour, and the ident++ controller's windowed response memos.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "controller/windowed_memo.hpp"
#include "core/network.hpp"
#include "identxx/keys.hpp"
#include "pf/control_files.hpp"
#include "util/error.hpp"

namespace identxx {
namespace {

using core::FlowHandle;
using core::Network;

// ---------------------------------------------------------------- files

TEST(ControlFiles, SortedAndConcatenated) {
  // Out-of-order input; 99- must end up last so its block wins.
  pf::Ruleset rs = pf::load_control_files({
      {"99-footer.control", "block all\n"},
      {"00-header.control", "table <lan> { 10.0.0.0/8 }\npass all\n"},
  });
  ASSERT_EQ(rs.rules.size(), 2u);
  EXPECT_EQ(rs.rules[0].action, pf::RuleAction::kPass);
  EXPECT_EQ(rs.rules[0].source_label, "00-header.control");
  EXPECT_EQ(rs.rules[1].action, pf::RuleAction::kBlock);
  EXPECT_EQ(rs.rules[1].source_label, "99-footer.control");
  EXPECT_TRUE(rs.tables.contains("lan"));
}

TEST(ControlFiles, LaterFilesSeeEarlierDefinitions) {
  // 50-skype.control uses tables/macros defined in 00-local-header.
  pf::Ruleset rs = pf::load_control_files({
      {"50-app.control", "pass from <lan> to any with member(@src[name], $apps)\n"},
      {"00-defs.control", "table <lan> { 10.0.0.0/8 }\napps = \"{ a b }\"\n"},
  });
  ASSERT_EQ(rs.rules.size(), 1u);
}

TEST(ControlFiles, NonControlExtensionIgnored) {
  pf::Ruleset rs = pf::load_control_files({
      {"readme.txt", "this is not policy at all ((("},
      {"10-rules.control", "block all\n"},
  });
  EXPECT_EQ(rs.rules.size(), 1u);
}

TEST(ControlFiles, ErrorNamesTheFile) {
  try {
    (void)pf::load_control_files({{"30-bad.control", "pass from ((("}});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("30-bad.control"), std::string::npos);
  }
}

TEST(ControlFiles, InstallControllerFromFiles) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller_files({
      {"99-deny.control", "block from any to any port 23\n"},
      {"00-allow.control", "pass all\n"},
  });
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle ok = net.start_flow(client, pid, "10.0.0.2", 80);
  const FlowHandle telnet = net.start_flow(client, pid, "10.0.0.2", 23);
  net.run();
  EXPECT_TRUE(net.flow_delivered(ok));
  EXPECT_FALSE(net.flow_delivered(telnet));
  EXPECT_EQ(controller.stats().flows_blocked, 1u);
}

// ---------------------------------------------------------------- vanilla

struct VanillaFixture : ::testing::Test {
  VanillaFixture() {
    s1 = net.add_switch("s1");
    client = &net.add_host("client", "10.0.0.1");
    server = &net.add_host("server", "192.168.1.1");
    net.link(*client, s1);
    net.link(*server, s1);
    fw = &net.install_vanilla_firewall(false);
    client->add_user("u", "users");
    pid = client->launch("u", "/bin/x");
  }

  Network net;
  sim::NodeId s1{};
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  ctrl::VanillaFirewall* fw = nullptr;
  int pid = 0;
};

TEST_F(VanillaFixture, DefaultDenyBlocks) {
  const FlowHandle h = net.start_flow(*client, pid, "192.168.1.1", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
  EXPECT_EQ(fw->stats().flows_blocked, 1u);
}

TEST_F(VanillaFixture, FirstMatchWins) {
  ctrl::VanillaFirewall::AclRule deny;
  deny.dst = *net::Cidr::parse("192.168.1.1/32");
  deny.allow = false;
  fw->add_rule(deny);
  ctrl::VanillaFirewall::AclRule allow;  // broader allow AFTER the deny
  allow.allow = true;
  fw->add_rule(allow);
  const FlowHandle h = net.start_flow(*client, pid, "192.168.1.1", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));  // first match (deny) won
}

TEST_F(VanillaFixture, PortRangeRule) {
  ctrl::VanillaFirewall::AclRule allow;
  allow.dst_port_low = 8000;
  allow.dst_port_high = 8100;
  allow.allow = true;
  fw->add_rule(allow);
  const FlowHandle in_range = net.start_flow(*client, pid, "192.168.1.1", 8050);
  const FlowHandle out_of_range =
      net.start_flow(*client, pid, "192.168.1.1", 8200);
  net.run();
  EXPECT_TRUE(net.flow_delivered(in_range));
  EXPECT_FALSE(net.flow_delivered(out_of_range));
}

TEST_F(VanillaFixture, ProtocolSelector) {
  ctrl::VanillaFirewall::AclRule allow_udp;
  allow_udp.proto = net::IpProto::kUdp;
  allow_udp.allow = true;
  fw->add_rule(allow_udp);
  const FlowHandle udp =
      net.start_flow(*client, pid, "192.168.1.1", 53, net::IpProto::kUdp);
  const FlowHandle tcp =
      net.start_flow(*client, pid, "192.168.1.1", 53, net::IpProto::kTcp);
  net.run();
  EXPECT_TRUE(net.flow_delivered(udp));
  EXPECT_FALSE(net.flow_delivered(tcp));
}

TEST_F(VanillaFixture, StatefulReverseAllowed) {
  ctrl::VanillaFirewall::AclRule allow;
  allow.src = *net::Cidr::parse("10.0.0.0/8");
  allow.allow = true;
  fw->add_rule(allow);
  const FlowHandle h = net.start_flow(*client, pid, "192.168.1.1", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  // Reverse direction matches no ACL rule but is allowed by the state
  // table: the server's reply reaches the client.
  server->send_flow_packet(h.flow.reversed(), "SYN-ACK",
                           net::TcpFlags::kSyn | net::TcpFlags::kAck);
  net.run();
  EXPECT_EQ(client->stats().flow_payloads_received, 1u);
  // An unrelated reverse-direction flow (no prior state) stays blocked.
  net::FiveTuple fresh = h.flow.reversed();
  fresh.src_port = 9999;
  server->send_flow_packet(fresh, "unsolicited");
  net.run();
  EXPECT_EQ(client->stats().flow_payloads_received, 1u);
}

// ---------------------------------------------------------------- learning

TEST(LearningSwitch, LearnsFloodsAndInstalls) {
  openflow::Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<openflow::Switch>("s1"));
  auto h1_ptr = std::make_unique<host::Host>(
      "h1", *net::Ipv4Address::parse("10.0.0.1"), net::MacAddress::for_node(1));
  auto h2_ptr = std::make_unique<host::Host>(
      "h2", *net::Ipv4Address::parse("10.0.0.2"), net::MacAddress::for_node(2));
  host::Host* h1 = h1_ptr.get();
  host::Host* h2 = h2_ptr.get();
  const auto h1_id = topo.add_host(std::move(h1_ptr));
  const auto h2_id = topo.add_host(std::move(h2_ptr));
  topo.link(h1_id, s1);
  topo.link(h2_id, s1);
  ctrl::LearningSwitchController controller(&topo);
  controller.adopt_switch(s1);

  const auto send = [&](host::Host* from, host::Host* to, std::uint16_t sport) {
    topo.simulator().send(
        from->id(), 1,
        net::make_tcp_packet(from->mac(), to->mac(), from->ip(), to->ip(),
                             sport, 9999, "payload", net::TcpFlags::kPsh));
    topo.simulator().run();
  };

  // 1: h1 -> h2: dst unknown, flooded; h1's MAC learned.
  send(h1, h2, 1000);
  EXPECT_EQ(controller.stats().floods, 1u);
  EXPECT_EQ(controller.stats().macs_learned, 1u);
  EXPECT_EQ(h2->stats().flow_payloads_received, 1u);

  // 2: h2 -> h1: h1 known, entry installed and packet forwarded.
  send(h2, h1, 2000);
  EXPECT_EQ(controller.stats().entries_installed, 1u);
  EXPECT_EQ(h1->stats().flow_payloads_received, 1u);

  // 3: h1 -> h2 again: h2 now known too.
  send(h1, h2, 1001);
  EXPECT_EQ(controller.stats().entries_installed, 2u);

  // 4: traffic in both directions now rides installed entries.
  const auto packet_ins = controller.stats().packet_ins;
  send(h1, h2, 1002);
  send(h2, h1, 2001);
  EXPECT_EQ(controller.stats().packet_ins, packet_ins);
  EXPECT_EQ(h2->stats().flow_payloads_received, 3u);
  EXPECT_EQ(h1->stats().flow_payloads_received, 2u);
}

// ---------------------------------------------------------------- usage

TEST(FlowUsageAccounting, CountersAggregateAcrossPath) {
  Network net;
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(s1, s2);
  net.link(server, s2);
  auto& controller = net.install_controller("pass all\n");
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80, net::IpProto::kTcp, "one");
  net.run();
  client.send_flow_packet(h.flow, "two", net::TcpFlags::kPsh);
  client.send_flow_packet(h.flow, "three", net::TcpFlags::kPsh);
  net.run();

  const auto usage = controller.flow_usage();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].flow, h.flow);
  // The first packet was released via packet-out at s1 (bypassing its
  // table) but matched s2's freshly installed entry; the two follow-ups
  // matched on both switches.  The per-flow maximum across switches — the
  // true packet count — is therefore 3.
  EXPECT_EQ(usage[0].packets, 3u);
  EXPECT_GT(usage[0].bytes, 0u);
}

TEST(Revocation, RevokeIfTargetsOnlyMatchingFlows) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& a = net.add_host("a", "10.0.0.1");
  auto& b = net.add_host("b", "10.0.0.2");
  auto& server = net.add_host("server", "10.0.0.3");
  net.link(a, s1);
  net.link(b, s1);
  net.link(server, s1);
  auto& controller = net.install_controller("pass all\n");
  a.add_user("u", "users");
  b.add_user("u", "users");
  const int pa = a.launch("u", "/bin/x");
  const int pb = b.launch("u", "/bin/x");
  const FlowHandle fa = net.start_flow(a, pa, "10.0.0.3", 80);
  const FlowHandle fb = net.start_flow(b, pb, "10.0.0.3", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(fa));
  ASSERT_TRUE(net.flow_delivered(fb));

  // Revoke only host a's flows.
  const std::size_t removed = controller.revoke_if(
      [&a](const net::FiveTuple& flow) { return flow.src_ip == a.ip(); });
  EXPECT_GE(removed, 1u);

  const auto packet_ins = controller.stats().packet_ins;
  // b's next packet rides its surviving entry; a's packet re-decides.
  b.send_flow_packet(fb.flow, "still cached", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().packet_ins, packet_ins);
  a.send_flow_packet(fa.flow, "re-decide", net::TcpFlags::kPsh);
  net.run();
  EXPECT_GT(controller.stats().packet_ins, packet_ins);
}

// ---------------------------------------------------------------- expiry

TEST(FlowExpiry, IdleEntryExpiresAndFlowRedecides) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.flow_idle_timeout = 10 * sim::kMillisecond;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  const auto flows_before = controller.stats().flows_seen;

  // Let the entry idle out, then send another packet: it must re-trigger
  // the full decision (packet-in, queries).
  net.simulator().schedule_after(
      100 * sim::kMillisecond, [&client, flow = h.flow] {
        client.send_flow_packet(flow, "later", net::TcpFlags::kPsh);
      });
  net.run();
  EXPECT_EQ(controller.stats().flows_seen, flows_before + 1);
  EXPECT_GE(controller.stats().flows_expired, 1u);
  EXPECT_EQ(net.host("server").stats().flow_payloads_received, 2u);
}

// ---------------------------------------------------------------- intercept

TEST(QueryInterception, ControllerAnswersOnBehalfOfHost) {
  // §3.4: "To respond to an intercepted query on behalf of an end-host,
  // the controller spoofs the IP address of the end-host, sends a response
  // itself, but does not forward the query."
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& asker = net.add_host("asker", "10.0.0.1");
  auto& target = net.add_host("target", "10.0.0.2");
  net.link(asker, s1);
  net.link(target, s1);
  auto& controller = net.install_controller("pass all\n");
  controller.set_query_interceptor(
      [&target](const proto::Query& query, net::Ipv4Address target_ip)
          -> std::optional<proto::Response> {
        if (target_ip != target.ip()) return std::nullopt;
        proto::Response response;
        response.proto = query.proto;
        response.src_port = query.src_port;
        response.dst_port = query.dst_port;
        proto::Section section;
        section.add(proto::keys::kUserId, "proxied-identity");
        response.append_section(section);
        return response;
      });

  asker.add_user("u", "users");
  const int pid = asker.launch("u", "/bin/x");
  const auto ident_flow = asker.connect_flow(pid, target.ip(), proto::kIdentPort);
  proto::Query query;
  query.proto = net::IpProto::kTcp;
  query.src_port = 1111;
  query.dst_port = 2222;
  asker.send_flow_packet(ident_flow, query.serialize(),
                         net::TcpFlags::kPsh | net::TcpFlags::kAck);
  net.run();

  // The target's daemon never saw the query...
  EXPECT_EQ(target.stats().ident_queries_received, 0u);
  // ...but the asker got an answer "from" the target's address.
  bool answered = false;
  for (const auto& packet : asker.delivered()) {
    if (packet.tcp && packet.tcp->src_port == proto::kIdentPort) {
      EXPECT_EQ(packet.ip.src, target.ip());  // spoofed
      const proto::ResponseDict dict(
          proto::Response::parse(packet.payload_text()));
      EXPECT_EQ(*dict.latest(proto::keys::kUserId), "proxied-identity");
      answered = true;
    }
  }
  EXPECT_TRUE(answered);
  EXPECT_GE(controller.stats().queries_proxied, 1u);
}

// ---------------------------------------------------------------- memos

constexpr sim::SimTime kWindow = ctrl::IdentxxController::kAugmentWindow;

TEST(WindowedMemo, WindowBoundaryIsExclusive) {
  ctrl::WindowedMemo<int> memo(kWindow);
  memo.record(7, 100);
  EXPECT_TRUE(memo.contains(7, 100));
  EXPECT_TRUE(memo.contains(7, 100 + kWindow - 1));
  EXPECT_FALSE(memo.contains(7, 100 + kWindow));
  EXPECT_FALSE(memo.contains(8, 100));
}

TEST(WindowedMemo, RefreshedKeyOutlivesItsStaleEntry) {
  const sim::SimTime t0 = 5 * sim::kMillisecond;
  const sim::SimTime refresh = t0 + 600 * sim::kMillisecond;
  ctrl::WindowedMemo<int> memo(kWindow);
  memo.record(1, t0);
  memo.record(1, refresh);
  // This record pops (t0, 1) from the expiry queue; key 1 was refreshed
  // since, so it must stay.
  memo.record(2, t0 + kWindow + 100 * sim::kMillisecond);
  EXPECT_TRUE(memo.contains(1, t0 + 1200 * sim::kMillisecond));
  EXPECT_EQ(memo.size(), 2u);
  memo.record(3, refresh + kWindow);
  EXPECT_FALSE(memo.contains(1, refresh + kWindow));
  EXPECT_EQ(memo.size(), 2u);
}

/// Taps an ident++ controller's observer stream: the first punted ident++
/// response (with its arrival time), the instants responses were consumed
/// into pending flows and augmented, and an optional one-shot action run
/// just after the next query goes out.
struct ResponseTap : ctrl::AdmissionObserver {
  explicit ResponseTap(sim::Simulator& simulator) : sim(simulator) {}

  void on_packet_in(const openflow::PacketIn& msg) override {
    if (!first_punt && msg.packet.src_port() == proto::kIdentPort) {
      first_punt.emplace(sim.now(), msg);
    }
  }
  void on_response_received(net::Ipv4Address) override {
    consumed.push_back(sim.now());
  }
  // A transiting response reports received-then-forwarded at one instant:
  // it was not consumed.
  void on_transit_forwarded(const net::FiveTuple&) override {
    if (!consumed.empty() && consumed.back() == sim.now()) consumed.pop_back();
  }
  void on_response_augmented(const net::FiveTuple&) override {
    augmented.push_back(sim.now());
  }
  void on_query_sent(const net::FiveTuple&, net::Ipv4Address) override {
    if (after_next_query) {
      sim.schedule_after(1, std::exchange(after_next_query, {}));
    }
  }

  sim::Simulator& sim;
  std::optional<std::pair<sim::SimTime, openflow::PacketIn>> first_punt;
  std::vector<sim::SimTime> consumed;
  std::vector<sim::SimTime> augmented;
  std::function<void()> after_next_query;
};

ResponseTap& tap(ctrl::IdentxxController& controller, Network& net) {
  auto owned = std::make_unique<ResponseTap>(net.simulator());
  ResponseTap& ref = *owned;
  controller.add_observer(std::move(owned));
  return ref;
}

/// Records in `times` (ascending) within the window ending at the last.
std::size_t in_last_window(const std::vector<sim::SimTime>& times) {
  std::size_t n = 0;
  for (const sim::SimTime t : times) n += t > times.back() - kWindow ? 1 : 0;
  return n;
}

/// Deliver `msg` to `controller` again at `at`: a byte-identical copy of
/// an earlier punt, as a duplicating control channel would.
void redeliver_at(Network& net, ctrl::IdentxxController& controller,
                  const openflow::PacketIn& msg, sim::SimTime at) {
  net.simulator().schedule_at(at, [&controller, msg] {
    controller.on_packet_in(msg);
  });
  net.run();
}

TEST(ResponseMemo, DedupesTwentyThousandResponsesWithExactWindow) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);
  server.add_user("www", "daemons");
  server.listen(server.launch("www", "/usr/sbin/httpd"), 80);
  auto& controller = net.install_controller("pass all\n");
  ResponseTap& seen = tap(controller, net);

  // 10 000 flows (20 000 consumed responses), all inside one window.
  constexpr int kClients = 8;
  constexpr int kFlowsPerClient = 1250;
  for (int c = 0; c < kClients; ++c) {
    auto& client = net.add_host("c" + std::to_string(c),
                                "10.0.0." + std::to_string(c + 1));
    net.link(client, s1);
    client.add_user("u", "users");
    const int pid = client.launch("u", "/bin/x");
    for (int f = 0; f < kFlowsPerClient; ++f) {
      net.start_flow(client, pid, "10.0.1.1", 80);
    }
  }
  net.run();
  const std::uint64_t responses = 2ULL * kClients * kFlowsPerClient;
  ASSERT_EQ(controller.stats().flows_allowed, responses / 2);
  ASSERT_EQ(seen.consumed.size(), responses);
  ASSERT_LT(seen.consumed.back() - seen.consumed.front(), kWindow);
  EXPECT_EQ(controller.response_memo_size(), responses);
  EXPECT_EQ(controller.stats().duplicate_responses, 0u);

  // A channel duplicate of the very first response, one tick before its
  // window closes: deduped, not forwarded on.
  const auto [t0, first] = *seen.first_punt;
  const std::uint64_t forwarded = controller.stats().ident_transit_forwarded;
  redeliver_at(net, controller, first, t0 + kWindow - 1);
  EXPECT_EQ(controller.stats().duplicate_responses, 1u);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, forwarded);

  // The same bytes exactly one window later are a fresh transit.
  redeliver_at(net, controller, first, t0 + kWindow);
  EXPECT_EQ(controller.stats().duplicate_responses, 1u);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, forwarded + 1);
}

TEST(ResponseMemo, RefreshedResponseIsNotExpiredByItsFirstRecord) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(client, s1);
  net.link(server, s1);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  server.add_user("www", "daemons");
  server.listen(server.launch("www", "/usr/sbin/httpd"), 80);
  auto& controller = net.install_controller("pass all\n");
  ResponseTap& seen = tap(controller, net);

  // t0: the flow's first response (key K) is consumed.
  const FlowHandle h = net.start_flow(client, pid, "10.0.1.1", 80);
  net.run();
  ASSERT_EQ(seen.consumed.size(), 2u);
  const auto [t0, k] = *seen.first_punt;
  ASSERT_EQ(seen.consumed.front(), t0);

  // t0 + 0.6 s: the flow re-admits, and a late copy of K fills its fresh
  // context before the daemon's new answer does — K is consumed again.
  const sim::SimTime refresh_at = t0 + 600 * sim::kMillisecond;
  sim::SimTime refreshed = -1;
  net.simulator().schedule_at(refresh_at, [&] {
    controller.revoke_all();
    seen.after_next_query = [&] {
      refreshed = net.simulator().now();
      controller.on_packet_in(k);
    };
    client.send_flow_packet(h.flow);
  });
  net.run();
  ASSERT_EQ(seen.consumed.size(), 4u);
  ASSERT_EQ(seen.consumed[2], refreshed);
  ASSERT_EQ(controller.stats().duplicate_responses, 1u);  // the daemon's

  // t0 + 1.1 s: an unrelated consumption expires K's first record.
  net.simulator().schedule_at(t0 + 1100 * sim::kMillisecond, [&] {
    net.start_flow(client, pid, "10.0.1.1", 80);
  });
  net.run();
  ASSERT_EQ(seen.consumed.size(), 6u);

  // t0 + 1.2 s: K is still within the window of its refresh.
  const std::uint64_t forwarded = controller.stats().ident_transit_forwarded;
  redeliver_at(net, controller, k, refreshed + 600 * sim::kMillisecond);
  EXPECT_EQ(controller.stats().duplicate_responses, 2u);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, forwarded);
  // ...until the refresh's own window closes.
  redeliver_at(net, controller, k, refreshed + kWindow);
  EXPECT_EQ(controller.stats().duplicate_responses, 2u);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, forwarded + 1);
}

TEST(ResponseMemo, BothMemosStayBoundedUnderSteadyTraffic) {
  // Two domains: B augments responses transiting it (§4), A and B both
  // consume responses to their own queries.
  Network net;
  const auto sA = net.add_switch("sA");
  const auto sB = net.add_switch("sB");
  auto& client = net.add_host("client", "10.1.0.1");
  auto& server = net.add_host("server", "10.2.0.1");
  net.link(client, sA);
  net.link(sA, sB);
  net.link(server, sB);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  server.add_user("www", "daemons");
  server.listen(server.launch("www", "/usr/sbin/httpd"), 80);
  auto& ctrlA = net.install_domain_controller("pass all\n", {sA});
  auto& ctrlB = net.install_domain_controller("pass all\n", {sB});
  ctrlB.set_response_augmenter(
      [](const proto::Response&, const net::FiveTuple&)
          -> std::optional<proto::Section> {
        proto::Section section;
        section.add(proto::keys::kNetwork, "branchB");
        return section;
      });
  ResponseTap& seenA = tap(ctrlA, net);
  ResponseTap& seenB = tap(ctrlB, net);

  // A new flow every 20 ms for 3.5 windows.
  for (sim::SimTime at = 0; at < 3500 * sim::kMillisecond;
       at += 20 * sim::kMillisecond) {
    net.simulator().schedule_at(at, [&] {
      net.start_flow(client, pid, "10.2.0.1", 80);
    });
  }
  net.run();
  ASSERT_EQ(ctrlA.stats().flows_allowed, 175u);

  const auto check = [](std::size_t size,
                         const std::vector<sim::SimTime>& records) {
    ASSERT_GT(records.back() - records.front(), 3 * kWindow);
    EXPECT_LE(size, in_last_window(records));
    EXPECT_LT(size, records.size());
  };
  check(ctrlA.response_memo_size(), seenA.consumed);
  check(ctrlB.response_memo_size(), seenB.consumed);
  check(ctrlB.augment_memo_size(), seenB.augmented);
  EXPECT_EQ(ctrlA.augment_memo_size(), 0u);
}

// ---------------------------------------------------------------- misc

TEST(NetworkFacade, HostLookupAndValidation) {
  Network net;
  EXPECT_THROW((void)net.add_host("h", "not-an-ip"), Error);
  const auto s1 = net.add_switch("s1");
  auto& h = net.add_host("h", "10.0.0.1");
  net.link(h, s1);
  EXPECT_EQ(&net.host("h"), &h);
  EXPECT_THROW((void)net.host("nope"), Error);
  EXPECT_THROW((void)net.add_host("h", "10.0.0.2"), Error);  // dup name
  EXPECT_THROW((void)net.host(s1), Error);                   // not a host
}

TEST(NetworkFacade, StartFlowValidatesIp) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& h = net.add_host("h", "10.0.0.1");
  net.link(h, s1);
  h.add_user("u", "users");
  const int pid = h.launch("u", "/bin/x");
  EXPECT_THROW((void)net.start_flow(h, pid, "bogus", 80), Error);
}

}  // namespace
}  // namespace identxx
