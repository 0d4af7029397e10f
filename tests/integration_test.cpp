// End-to-end integration tests on the simulated OpenFlow network:
//
//  * the Figure 1 flow-setup sequence (packet-in -> ident++ queries ->
//    policy -> path install -> delivery),
//  * decision caching in switch flow tables,
//  * the paper's application scenarios: Fig 2 (skype), Figs 4/5 (research
//    delegation), Figs 6/7 (trust delegation via "Secur"), Fig 8
//    (Conficker), §4 network collaboration and incremental deployment.

#include <gtest/gtest.h>

#include "core/network.hpp"
#include "crypto/schnorr.hpp"
#include "identxx/keys.hpp"

namespace identxx {
namespace {

using core::FlowHandle;
using core::Network;

/// Convenience: a host with one user and one running app, daemon configured
/// with an @app block built from the given pairs.
int launch_app(host::Host& h, const std::string& user, const std::string& group,
               const std::string& exe, const proto::KeyValueList& pairs = {}) {
  h.add_user(user, group);
  const int pid = h.launch(user, exe);
  if (!pairs.empty()) {
    proto::DaemonConfig config;
    proto::AppConfig app;
    app.exe_path = exe;
    app.pairs = pairs;
    config.apps.push_back(app);
    h.daemon().add_config(proto::ConfigTrust::kSystem, config);
  }
  return pid;
}

// ---------------------------------------------------------------- Figure 1

struct Fig1Fixture : ::testing::Test {
  // client -- s1 -- server, default-deny except client->server:80 for
  // user alice.
  static constexpr char kPolicy[] =
      "block all\n"
      "pass from any to any port 80 with eq(@src[userID], alice)\n";

  Fig1Fixture() {
    s1 = net.add_switch("s1");
    client = &net.add_host("client", "10.0.0.1");
    server = &net.add_host("server", "10.0.0.2");
    net.link(*client, s1);
    net.link(*server, s1);
    controller = &net.install_controller(kPolicy);
    client_pid = launch_app(*client, "alice", "users", "/usr/bin/curl");
    server_pid = launch_app(*server, "www", "daemons", "/usr/sbin/httpd");
    server->listen(server_pid, 80);
  }

  Network net;
  sim::NodeId s1{};
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  ctrl::IdentxxController* controller = nullptr;
  int client_pid = 0;
  int server_pid = 0;
};

TEST_F(Fig1Fixture, FlowSetupSequence) {
  const FlowHandle h = net.start_flow(*client, client_pid, "10.0.0.2", 80);
  net.run();

  // Step 5: the packet reached its destination.
  EXPECT_TRUE(net.flow_delivered(h));
  // Step 3: both ends were queried and answered.
  EXPECT_EQ(controller->stats().queries_sent, 2u);
  EXPECT_EQ(controller->stats().responses_received, 2u);
  EXPECT_EQ(controller->stats().query_timeouts, 0u);
  // Step 4: entries installed along the path.
  EXPECT_EQ(controller->stats().flows_allowed, 1u);
  EXPECT_GE(controller->stats().entries_installed, 1u);
  // The audit log identified the principal, not just the 5-tuple.
  ASSERT_EQ(controller->audit_log().size(), 1u);
  EXPECT_EQ(controller->audit_log()[0].src_user, "alice");
  EXPECT_TRUE(controller->audit_log()[0].allowed);
  EXPECT_GT(controller->audit_log()[0].setup_latency, 0);
}

TEST_F(Fig1Fixture, WrongUserIsBlocked) {
  client->add_user("mallory", "users");
  const int pid = client->launch("mallory", "/usr/bin/curl");
  const FlowHandle h = net.start_flow(*client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
  EXPECT_EQ(controller->stats().flows_blocked, 1u);
  ASSERT_EQ(controller->audit_log().size(), 1u);
  EXPECT_EQ(controller->audit_log()[0].src_user, "mallory");
  EXPECT_FALSE(controller->audit_log()[0].allowed);
}

TEST_F(Fig1Fixture, SecondPacketUsesCachedEntry) {
  const FlowHandle h = net.start_flow(*client, client_pid, "10.0.0.2", 80);
  net.run();
  const auto queries_before = controller->stats().queries_sent;
  const auto packet_ins_before = controller->stats().packet_ins;
  // Another packet of the same flow: served from the flow table.
  client->send_flow_packet(h.flow, "again", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller->stats().queries_sent, queries_before);
  EXPECT_EQ(controller->stats().packet_ins, packet_ins_before);
  const auto& dst = net.host("server");
  EXPECT_EQ(dst.stats().flow_payloads_received, 2u);
}

TEST_F(Fig1Fixture, BlockedFlowCachedAsDrop) {
  client->add_user("mallory", "users");
  const int pid = client->launch("mallory", "/usr/bin/curl");
  const FlowHandle h = net.start_flow(*client, pid, "10.0.0.2", 80);
  net.run();
  const auto packet_ins_before = controller->stats().packet_ins;
  client->send_flow_packet(h.flow, "retry");
  net.run();
  // The retry died at the switch's drop entry, not at the controller.
  EXPECT_EQ(controller->stats().packet_ins, packet_ins_before);
  EXPECT_FALSE(net.flow_delivered(h));
}

TEST_F(Fig1Fixture, RevocationForcesReDecision) {
  const FlowHandle h = net.start_flow(*client, client_pid, "10.0.0.2", 80);
  net.run();
  EXPECT_GT(controller->revoke_all(), 0u);
  // Flip policy to default-deny-everything, then retry the same flow.
  controller->set_policy(pf::parse("block all\n", "revised"));
  client->send_flow_packet(h.flow, "after-revoke");
  net.run();
  EXPECT_EQ(controller->stats().flows_blocked, 1u);
  EXPECT_EQ(net.host("server").stats().flow_payloads_received, 1u);
}

TEST_F(Fig1Fixture, UnknownDestinationTimesOutAndBlocks) {
  // Flow to an IP with no registered host: the dst query cannot be sent,
  // the src answers, and the default-deny policy blocks (no userID match
  // needed here — policy requires dst port 80 and alice, which holds, so
  // use a stricter policy instead).
  controller->set_policy(pf::parse(
      "block all\npass from any to any with eq(@dst[userID], www)\n", "t"));
  const FlowHandle h = net.start_flow(*client, client_pid, "99.99.99.99", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
  EXPECT_EQ(controller->stats().flows_blocked, 1u);
}

TEST_F(Fig1Fixture, DaemonlessHostTimesOut) {
  server->set_daemon_enabled(false);
  const FlowHandle h = net.start_flow(*client, client_pid, "10.0.0.2", 80);
  net.run();
  // The dst query goes unanswered; decision happens at the timeout with
  // src-only information.  Policy only needs @src so the flow still passes.
  EXPECT_EQ(controller->stats().query_timeouts, 1u);
  EXPECT_TRUE(net.flow_delivered(h));
  ASSERT_EQ(controller->audit_log().size(), 1u);
  EXPECT_TRUE(controller->audit_log()[0].timed_out);
}

// ---------------------------------------------------------------- paths

TEST(MultiSwitch, EntriesInstalledAlongFullPath) {
  Network net;
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  const auto s3 = net.add_switch("s3");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(s1, s2);
  net.link(s2, s3);
  net.link(server, s3);
  auto& controller = net.install_controller("pass all\n");
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  (void)launch_app(server, "www", "daemons", "/bin/srv");

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  // One entry per switch on the path (plus 2 intercept rules per switch).
  EXPECT_EQ(controller.stats().entries_installed, 3u);
  for (const auto sw : {s1, s2, s3}) {
    EXPECT_EQ(net.switch_at(sw).table().size(), 3u) << "switch " << sw;
  }
  // Only the first switch saw a packet-in for the flow itself; the flow's
  // released packet traversed s2/s3 on installed entries.  (s3 punts exactly
  // one packet: the server daemon's ident++ response, by design.)
  EXPECT_EQ(controller.stats().flows_seen, 1u);
  EXPECT_EQ(net.switch_at(s2).stats().packets_to_controller, 0u);
  EXPECT_EQ(net.switch_at(s3).stats().packets_to_controller, 1u);
}

TEST(MultiSwitch, IngressOnlyAblationReAsksPerSwitch) {
  Network net;
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(s1, s2);
  net.link(server, s2);
  ctrl::ControllerConfig config;
  config.install_full_path = false;  // DESIGN.md §6 ablation
  auto& controller = net.install_controller("pass all\n", config);
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  (void)launch_app(server, "www", "daemons", "/bin/srv");

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  // s2 also had to punt the flow's first packet.
  EXPECT_GE(net.switch_at(s2).stats().packets_to_controller, 1u);
  EXPECT_GE(controller.stats().flows_seen, 2u);
}

TEST(MultiSwitch, KeepStateInstallsReversePath) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller(
      "block all\npass from any to any port 80 keep state\n");
  const int client_pid = launch_app(client, "alice", "users", "/bin/app");
  const int server_pid = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(server_pid, 80);

  const FlowHandle h = net.start_flow(client, client_pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  const auto packet_ins = controller.stats().packet_ins;
  // Server replies on the reverse flow; with keep state it must not cause
  // a new packet-in (the reverse entry is already installed).
  server.connect_flow(server_pid, client.ip(), h.flow.src_port);  // socket
  server.send_flow_packet(h.flow.reversed(), "SYN-ACK",
                          net::TcpFlags::kSyn | net::TcpFlags::kAck);
  net.run();
  EXPECT_EQ(controller.stats().packet_ins, packet_ins);
  EXPECT_EQ(client.stats().flow_payloads_received, 1u);
}

// ---------------------------------------------------------------- Fig 2

struct SkypeFixture : ::testing::Test {
  static constexpr char kFig2Policy[] = R"(
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
allowed = "{ http ssh }"
block all
pass from <int_hosts> to !<int_hosts> keep state
pass from <int_hosts> to <int_hosts> \
  with member(@src[name], $allowed) keep state
table <skype_update> { 123.123.123.0/24 }
pass all with eq(@src[name], skype) with eq(@dst[name], skype)
pass from any to <skype_update> port 80 with eq(@src[name], skype) keep state
block all with eq(@src[name], skype) with lt(@src[version], 200)
block from any to <server> with eq(@src[name], skype)
)";

  SkypeFixture() {
    s1 = net.add_switch("s1");
    a = &net.add_host("a", "192.168.0.10");
    b = &net.add_host("b", "192.168.0.11");
    update = &net.add_host("update", "123.123.123.5");
    net.link(*a, s1);
    net.link(*b, s1);
    net.link(*update, s1);
    controller = &net.install_controller(kFig2Policy);
    (void)launch_app(*update, "www", "daemons", "/bin/updatesrv");
  }

  int launch_skype(host::Host& h, const char* version) {
    return launch_app(h, "user-" + h.name(), "users", "/usr/bin/skype",
                      {{"name", "skype"}, {"version", version}});
  }

  Network net;
  sim::NodeId s1{};
  host::Host* a = nullptr;
  host::Host* b = nullptr;
  host::Host* update = nullptr;
  ctrl::IdentxxController* controller = nullptr;
};

TEST_F(SkypeFixture, SkypeToSkypeAllowed) {
  const int pid_a = launch_skype(*a, "210");
  const int pid_b = launch_skype(*b, "210");
  b->listen(pid_b, 5555);
  const FlowHandle h = net.start_flow(*a, pid_a, "192.168.0.11", 5555);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
}

TEST_F(SkypeFixture, SkypeToNonSkypeBlocked) {
  const int pid_a = launch_skype(*a, "210");
  const int pid_b = launch_app(*b, "user-b", "users", "/usr/bin/nc",
                               {{"name", "nc"}});
  b->listen(pid_b, 5555);
  const FlowHandle h = net.start_flow(*a, pid_a, "192.168.0.11", 5555);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
}

TEST_F(SkypeFixture, OldSkypeBlockedEvenForUpdate) {
  const int pid = launch_skype(*a, "190");
  const FlowHandle h = net.start_flow(*a, pid, "123.123.123.5", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
}

TEST_F(SkypeFixture, CurrentSkypeMayFetchUpdates) {
  const int pid = launch_skype(*a, "210");
  const FlowHandle h = net.start_flow(*a, pid, "123.123.123.5", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
}

TEST_F(SkypeFixture, ApprovedAppBetweenInternalHosts) {
  const int pid = launch_app(*a, "user-a", "users", "/usr/bin/ssh",
                             {{"name", "ssh"}});
  const int pid_b = launch_app(*b, "user-b", "users", "/usr/sbin/sshd",
                               {{"name", "sshd"}});
  b->listen(pid_b, 22);
  const FlowHandle h = net.start_flow(*a, pid, "192.168.0.11", 22);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
}

TEST_F(SkypeFixture, UnapprovedAppBetweenInternalHostsBlocked) {
  const int pid = launch_app(*a, "user-a", "users", "/usr/bin/dropbox",
                             {{"name", "dropbox"}});
  const int pid_b = launch_app(*b, "user-b", "users", "/usr/bin/dropbox",
                               {{"name", "dropbox"}});
  b->listen(pid_b, 17500);
  const FlowHandle h = net.start_flow(*a, pid, "192.168.0.11", 17500);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
}

// ---------------------------------------------------------------- Fig 4/5

TEST(ResearchDelegation, SignedRequirementsGateTraffic) {
  // Figures 4 and 5: researchers may run any app on research machines as
  // long as the app's *signed* requirements admit the flow and the target
  // is not a production machine.
  const crypto::PrivateKey research_key = crypto::PrivateKey::from_seed(
      "research-group-key");

  Network net;
  const auto s1 = net.add_switch("s1");
  auto& rm1 = net.add_host("rm1", "10.1.0.1");
  auto& rm2 = net.add_host("rm2", "10.1.0.2");
  auto& prod = net.add_host("prod", "10.2.0.1");
  net.link(rm1, s1);
  net.link(rm2, s1);
  net.link(prod, s1);

  const std::string policy =
      "table <research-machines> { 10.1.0.0/16 }\n"
      "table <production-machines> { 10.2.0.0/16 }\n"
      "dict <pubkeys> { research : " + research_key.public_key().to_hex() +
      " }\n"
      "block all\n"
      "pass from <research-machines> \\\n"
      "  with member(@src[groupID], research) \\\n"
      "  to !<production-machines> \\\n"
      "  with member(@dst[groupID], research) \\\n"
      "  with allowed(@dst[requirements]) \\\n"
      "  with verify(@dst[req-sig], @pubkeys[research], \\\n"
      "    @dst[exe-hash], @dst[app-name], @dst[requirements])\n";
  auto& controller = net.install_controller(policy);

  // The research app only talks to other research apps (Fig 4).
  const std::string requirements =
      "block all pass all with eq(@src[name], research-app) "
      "with eq(@dst[name], research-app)";
  const std::string exe = "/usr/bin/research-app";
  const std::string exe_hash = host::Host::image_hash(exe, "");
  const crypto::Signature sig = research_key.sign(
      proto::signed_message({exe_hash, "research-app", requirements}));
  const proto::KeyValueList app_pairs = {
      {"name", "research-app"},
      {"requirements", requirements},
      {"req-sig", sig.to_hex()},
  };

  const int pid1 = launch_app(rm1, "alice", "research", exe, app_pairs);
  const int pid2 = launch_app(rm2, "bob", "research", exe, app_pairs);
  rm2.listen(pid2, 9000);

  // research-app -> research-app on research machines: allowed.
  const FlowHandle ok = net.start_flow(rm1, pid1, "10.1.0.2", 9000);
  net.run();
  EXPECT_TRUE(net.flow_delivered(ok));
  EXPECT_EQ(controller.stats().flows_allowed, 1u);

  // Same app, but to a production machine: blocked by the admin's coarse
  // policy even though the signed requirements would permit it.
  const int pid_prod = launch_app(prod, "ops", "research", exe, app_pairs);
  prod.listen(pid_prod, 9000);
  const FlowHandle bad = net.start_flow(rm1, pid1, "10.2.0.1", 9000);
  net.run();
  EXPECT_FALSE(net.flow_delivered(bad));
}

TEST(ResearchDelegation, TamperedRequirementsRejected) {
  const crypto::PrivateKey research_key =
      crypto::PrivateKey::from_seed("research-group-key");
  const crypto::PrivateKey attacker_key =
      crypto::PrivateKey::from_seed("attacker");

  Network net;
  const auto s1 = net.add_switch("s1");
  auto& rm1 = net.add_host("rm1", "10.1.0.1");
  auto& rm2 = net.add_host("rm2", "10.1.0.2");
  net.link(rm1, s1);
  net.link(rm2, s1);
  const std::string policy =
      "table <research-machines> { 10.1.0.0/16 }\n"
      "dict <pubkeys> { research : " + research_key.public_key().to_hex() +
      " }\n"
      "block all\n"
      "pass from <research-machines> to any \\\n"
      "  with allowed(@dst[requirements]) \\\n"
      "  with verify(@dst[req-sig], @pubkeys[research], \\\n"
      "    @dst[exe-hash], @dst[app-name], @dst[requirements])\n";
  net.install_controller(policy);

  const std::string exe = "/usr/bin/research-app";
  const std::string exe_hash = host::Host::image_hash(exe, "");
  // Signed by the WRONG key: the attacker cannot mint requirements.
  const std::string requirements = "pass all";
  const crypto::Signature forged = attacker_key.sign(
      proto::signed_message({exe_hash, "research-app", requirements}));
  const proto::KeyValueList pairs = {{"name", "research-app"},
                                     {"app-name", "research-app"},
                                     {"requirements", requirements},
                                     {"req-sig", forged.to_hex()}};
  const int pid1 = launch_app(rm1, "alice", "research", exe, pairs);
  const int pid2 = launch_app(rm2, "bob", "research", exe, pairs);
  rm2.listen(pid2, 9000);
  const FlowHandle h = net.start_flow(rm1, pid1, "10.1.0.2", 9000);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
}

// ---------------------------------------------------------------- Fig 6/7

TEST(TrustDelegation, SecurApprovedAppAllowed) {
  // Figures 6 and 7: any application is allowed as long as it carries
  // rules signed by the third-party security company "Secur" and the flow
  // conforms to those rules.
  const crypto::PrivateKey secur = crypto::PrivateKey::from_seed("Secur Inc");

  Network net;
  const auto s1 = net.add_switch("s1");
  auto& desk = net.add_host("desk", "10.0.0.1");
  auto& mail = net.add_host("mail", "10.0.0.2");
  net.link(desk, s1);
  net.link(mail, s1);

  const std::string policy =
      "dict <pubkeys> { Secur : " + secur.public_key().to_hex() + " }\n"
      "block all\n"
      "pass from any \\\n"
      "  with eq(@src[rule-maker], Secur) \\\n"
      "  with allowed(@src[requirements]) \\\n"
      "  with verify(@src[req-sig], @pubkeys[Secur], \\\n"
      "    @src[exe-hash], @src[app-name], @src[requirements]) \\\n"
      "  to any\n";
  net.install_controller(policy);

  // Fig 6: thunderbird may only talk to email servers.
  const std::string exe = "/usr/bin/thunderbird";
  const std::string exe_hash = host::Host::image_hash(exe, "");
  const std::string requirements =
      "block all pass from any with eq(@src[name], thunderbird) "
      "to any with eq(@dst[type], email-server)";
  const crypto::Signature sig = secur.sign(
      proto::signed_message({exe_hash, "thunderbird", requirements}));
  const proto::KeyValueList tb_pairs = {{"name", "thunderbird"},
                                        {"type", "email-client"},
                                        {"rule-maker", "Secur"},
                                        {"requirements", requirements},
                                        {"req-sig", sig.to_hex()}};
  const int tb = launch_app(desk, "alice", "users", exe, tb_pairs);
  const int smtpd = launch_app(mail, "smtp", "daemons", "/usr/sbin/smtpd",
                               {{"name", "smtpd"}, {"type", "email-server"}});
  mail.listen(smtpd, 25);

  const FlowHandle ok = net.start_flow(desk, tb, "10.0.0.2", 25);
  net.run();
  EXPECT_TRUE(net.flow_delivered(ok));
}

TEST(TrustDelegation, SecurRulesConstrainTheApp) {
  // thunderbird trying to reach a non-email server is blocked by Secur's
  // own rules even though the signature verifies.
  const crypto::PrivateKey secur = crypto::PrivateKey::from_seed("Secur Inc");

  Network net;
  const auto s1 = net.add_switch("s1");
  auto& desk = net.add_host("desk", "10.0.0.1");
  auto& web = net.add_host("web", "10.0.0.3");
  net.link(desk, s1);
  net.link(web, s1);
  const std::string policy =
      "dict <pubkeys> { Secur : " + secur.public_key().to_hex() + " }\n"
      "block all\n"
      "pass from any \\\n"
      "  with eq(@src[rule-maker], Secur) \\\n"
      "  with allowed(@src[requirements]) \\\n"
      "  with verify(@src[req-sig], @pubkeys[Secur], \\\n"
      "    @src[exe-hash], @src[app-name], @src[requirements]) \\\n"
      "  to any\n";
  net.install_controller(policy);

  const std::string exe = "/usr/bin/thunderbird";
  const std::string exe_hash = host::Host::image_hash(exe, "");
  const std::string requirements =
      "block all pass from any with eq(@src[name], thunderbird) "
      "to any with eq(@dst[type], email-server)";
  const crypto::Signature sig = secur.sign(
      proto::signed_message({exe_hash, "thunderbird", requirements}));
  const int tb = launch_app(desk, "alice", "users", exe,
                            {{"name", "thunderbird"},
                             {"rule-maker", "Secur"},
                             {"requirements", requirements},
                             {"req-sig", sig.to_hex()}});
  const int httpd = launch_app(web, "www", "daemons", "/usr/sbin/httpd",
                               {{"name", "httpd"}, {"type", "web-server"}});
  web.listen(httpd, 80);
  const FlowHandle h = net.start_flow(desk, tb, "10.0.0.3", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
}

// ---------------------------------------------------------------- Fig 8

TEST(ConfickerMitigation, PatchGateEndToEnd) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& ws = net.add_host("workstation", "192.168.0.10");
  auto& srv_patched = net.add_host("patched", "192.168.0.20");
  auto& srv_unpatched = net.add_host("unpatched", "192.168.0.21");
  net.link(ws, s1);
  net.link(srv_patched, s1);
  net.link(srv_unpatched, s1);
  net.install_controller(R"(
table <lan> { 192.168.0.0/24 }
block all
pass from <lan> with eq(@src[userID], system) \
  to <lan> with eq(@dst[userID], system) \
  with eq(@dst[name], Server) \
  with includes(@dst[os-patch], MS08-067)
)");

  const int client = launch_app(ws, "system", "system", "/win/svchost.exe");
  const int s_ok = launch_app(srv_patched, "system", "system",
                              "/win/services.exe", {{"name", "Server"}});
  srv_patched.daemon().add_host_fact(proto::keys::kOsPatch,
                                     "MS08-001 MS08-067");
  srv_patched.listen(s_ok, 445);
  const int s_bad = launch_app(srv_unpatched, "system", "system",
                               "/win/services.exe", {{"name", "Server"}});
  srv_unpatched.daemon().add_host_fact(proto::keys::kOsPatch, "MS08-001");
  srv_unpatched.listen(s_bad, 445);

  const FlowHandle ok = net.start_flow(ws, client, "192.168.0.20", 445);
  const FlowHandle blocked = net.start_flow(ws, client, "192.168.0.21", 445);
  net.run();
  EXPECT_TRUE(net.flow_delivered(ok));
  EXPECT_FALSE(net.flow_delivered(blocked));
}

// ---------------------------------------------------------------- §4 collab

TEST(BranchCollaboration, RemoteControllerAugmentsResponses) {
  // Two branches, each with its own switch + controller.  Branch B's
  // controller appends a signed section to responses transiting its domain;
  // branch A's policy requires that endorsement chain.
  Network net;
  const auto sA = net.add_switch("sA");
  const auto sB = net.add_switch("sB");
  auto& clientA = net.add_host("clientA", "10.1.0.1");
  auto& serverB = net.add_host("serverB", "10.2.0.1");
  net.link(clientA, sA);
  net.link(sA, sB);
  net.link(serverB, sB);

  ctrl::ControllerConfig confA;
  confA.name = "branchA";
  auto& ctrlA = net.install_domain_controller(
      "block all\n"
      "pass from any to any with eq(@dst[network], branchB)\n",
      {sA}, confA);
  ctrl::ControllerConfig confB;
  confB.name = "branchB";
  auto& ctrlB = net.install_domain_controller("pass all\n", {sB}, confB);

  // B vouches for responses leaving its network (§4: the controller
  // modifies responses to queries and adds rules/identity).
  ctrlB.set_response_augmenter(
      [](const proto::Response&, const net::FiveTuple&)
          -> std::optional<proto::Section> {
        proto::Section section;
        section.add(proto::keys::kNetwork, "branchB");
        return section;
      });

  const int pid = launch_app(clientA, "alice", "users", "/bin/app");
  const int srv = launch_app(serverB, "www", "daemons", "/bin/srv");
  serverB.listen(srv, 80);

  const FlowHandle h = net.start_flow(clientA, pid, "10.2.0.1", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  EXPECT_GE(ctrlB.stats().responses_augmented, 1u);
  EXPECT_GE(ctrlB.stats().ident_transit_forwarded, 1u);
  ASSERT_GE(ctrlA.audit_log().size(), 1u);
  EXPECT_TRUE(ctrlA.audit_log().back().allowed);
}

TEST(BranchCollaboration, MultiHopResponseAugmentedOncePerWindow) {
  // B's domain is three switches deep: serverB's answer to A's query is
  // punted to B at every hop but augmented only once.  The same 5-tuple
  // re-admitted a window later (port reuse) is augmented again.
  Network net;
  const auto sA = net.add_switch("sA");
  const auto sB1 = net.add_switch("sB1");
  const auto sB2 = net.add_switch("sB2");
  const auto sB3 = net.add_switch("sB3");
  auto& clientA = net.add_host("clientA", "10.1.0.1");
  auto& serverB = net.add_host("serverB", "10.2.0.1");
  net.link(clientA, sA);
  net.link(sA, sB1);
  net.link(sB1, sB2);
  net.link(sB2, sB3);
  net.link(serverB, sB3);
  auto& ctrlA = net.install_domain_controller(
      "block all\n"
      "pass from any to any with eq(@dst[network], branchB)\n",
      {sA});
  auto& ctrlB = net.install_domain_controller("pass all\n", {sB1, sB2, sB3});
  ctrlB.set_response_augmenter(
      [](const proto::Response&, const net::FiveTuple&)
          -> std::optional<proto::Section> {
        proto::Section section;
        section.add(proto::keys::kNetwork, "branchB");
        return section;
      });
  const int pid = launch_app(clientA, "alice", "users", "/bin/app");
  const int srv = launch_app(serverB, "www", "daemons", "/bin/srv");
  serverB.listen(srv, 80);

  const FlowHandle h = net.start_flow(clientA, pid, "10.2.0.1", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  EXPECT_EQ(ctrlB.stats().responses_augmented, 1u);
  EXPECT_EQ(ctrlB.stats().ident_transit_forwarded, 3u);

  net.simulator().schedule_at(
      ctrl::IdentxxController::kAugmentWindow + 500 * sim::kMillisecond, [&] {
        ctrlA.revoke_all();
        ctrlB.revoke_all();
        clientA.send_flow_packet(h.flow);
      });
  net.run();
  EXPECT_EQ(ctrlB.stats().responses_augmented, 2u);
  EXPECT_EQ(ctrlB.stats().ident_transit_forwarded, 6u);
  ASSERT_EQ(ctrlA.audit_log().size(), 2u);
  EXPECT_EQ(ctrlA.audit_log().back().flow, h.flow);
  EXPECT_TRUE(ctrlA.audit_log().back().allowed);
}

TEST(BranchCollaboration, WithoutEndorsementBlocked) {
  // Same setup but B does not augment: A's policy fails.
  Network net;
  const auto sA = net.add_switch("sA");
  const auto sB = net.add_switch("sB");
  auto& clientA = net.add_host("clientA", "10.1.0.1");
  auto& serverB = net.add_host("serverB", "10.2.0.1");
  net.link(clientA, sA);
  net.link(sA, sB);
  net.link(serverB, sB);
  auto& ctrlA = net.install_domain_controller(
      "block all\n"
      "pass from any to any with eq(@dst[network], branchB)\n",
      {sA});
  net.install_domain_controller("pass all\n", {sB});
  const int pid = launch_app(clientA, "alice", "users", "/bin/app");
  const int srv = launch_app(serverB, "www", "daemons", "/bin/srv");
  serverB.listen(srv, 80);
  const FlowHandle h = net.start_flow(clientA, pid, "10.2.0.1", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
  EXPECT_EQ(ctrlA.stats().flows_blocked, 1u);
}

// ---------------------------------------------------------------- §4 incr.

TEST(IncrementalDeployment, ProxyAnswersForDaemonlessHost) {
  // Controllers can answer queries on behalf of end-hosts that do not run
  // ident++ ("incremental benefit", §4).
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& legacy = net.add_host("legacy", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(legacy, s1);
  net.link(server, s1);
  auto& controller = net.install_controller(
      "block all\npass from any to any with eq(@src[userID], printer)\n");
  legacy.set_daemon_enabled(false);  // no ident++ on the legacy box
  proto::Section proxy;
  proxy.add(proto::keys::kUserId, "printer");
  controller.set_proxy_response(legacy.ip(), proxy);

  legacy.add_user("any", "any");
  const int pid = legacy.launch("any", "/firmware/print");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 631);
  const FlowHandle h = net.start_flow(legacy, pid, "10.0.0.2", 631);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  EXPECT_GE(controller.stats().queries_proxied, 1u);
}

TEST(IncrementalDeployment, HostsOnlyModeStillServesIdentity) {
  // If only end-hosts implement ident++ (no controller interception), a
  // server can query the daemon directly to distinguish users (§4).
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  net.install_controller("pass all\n");  // permissive network
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  (void)pid;
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 80);
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  // The server-side application now queries the client's daemon itself.
  const net::FiveTuple ident_flow =
      server.connect_flow(srv, client.ip(), proto::kIdentPort);
  proto::Query query;
  query.proto = h.flow.proto;
  query.src_port = h.flow.src_port;
  query.dst_port = h.flow.dst_port;
  query.keys = {proto::keys::kUserId};
  server.send_flow_packet(ident_flow, query.serialize(),
                          net::TcpFlags::kPsh | net::TcpFlags::kAck);
  net.run();
  // The daemon's answer lands back at the server as a delivered payload.
  bool got_answer = false;
  for (const auto& packet : server.delivered()) {
    if (packet.tcp && packet.tcp->src_port == proto::kIdentPort) {
      const auto response = proto::Response::parse(packet.payload_text());
      const proto::ResponseDict dict(response);
      EXPECT_EQ(*dict.latest(proto::keys::kUserId), "alice");
      got_answer = true;
    }
  }
  EXPECT_TRUE(got_answer);
}

// ---------------------------------------------------------------- extras

TEST(LogRules, LoggedDecisionsAreFlaggedInAudit) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller(
      "block all\n"
      "pass from any to any port 80\n"
      "pass log from any to any port 22\n");
  const int pid = launch_app(client, "u", "users", "/bin/x");
  (void)launch_app(server, "www", "daemons", "/bin/srv");

  const FlowHandle web = net.start_flow(client, pid, "10.0.0.2", 80);
  const FlowHandle ssh = net.start_flow(client, pid, "10.0.0.2", 22);
  net.run();
  EXPECT_TRUE(net.flow_delivered(web));
  EXPECT_TRUE(net.flow_delivered(ssh));
  ASSERT_EQ(controller.audit_log().size(), 2u);
  EXPECT_EQ(controller.stats().flows_logged, 1u);
  bool found_logged = false;
  for (const auto& record : controller.audit_log()) {
    if (record.flow.dst_port == 22) {
      EXPECT_TRUE(record.logged);
      found_logged = true;
    } else {
      EXPECT_FALSE(record.logged);
    }
  }
  EXPECT_TRUE(found_logged);
}

TEST(UdpFlows, FullStackDecision) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  net.install_controller(
      "block all\n"
      "pass proto udp from any to any port dns with eq(@src[userID], alice)\n");
  const int pid = launch_app(client, "alice", "users", "/usr/bin/dig");
  const int srv = launch_app(server, "named", "daemons", "/usr/sbin/named");
  server.listen(srv, 53, net::IpProto::kUdp);

  const FlowHandle udp =
      net.start_flow(client, pid, "10.0.0.2", 53, net::IpProto::kUdp, "query");
  net.run();
  EXPECT_TRUE(net.flow_delivered(udp));
  // Same port over TCP: blocked by the proto clause.
  const FlowHandle tcp =
      net.start_flow(client, pid, "10.0.0.2", 53, net::IpProto::kTcp, "query");
  net.run();
  EXPECT_FALSE(net.flow_delivered(tcp));
}

TEST(Robustness, HostileIdentPayloadsDoNotCrashController) {
  // An attacker sprays garbage at TCP 783 in both directions; the
  // controller must survive and keep deciding real flows.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& attacker = net.add_host("attacker", "10.0.0.66");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(attacker, s1);
  net.link(client, s1);
  net.link(server, s1);
  net.install_controller(
      "block all\npass from 10.0.0.1 to any port 80\n");
  attacker.add_user("eve", "users");
  const int evil = attacker.launch("eve", "/bin/evil");
  const int pid = launch_app(client, "alice", "users", "/bin/x");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 80);

  const char* garbage[] = {"", "\n\n\n", "tcp", "tcp a b\n",
                           "not even close ::: }{",
                           "tcp 1 2\nkey without colon\n"};
  for (const char* payload : garbage) {
    // Toward a daemon (query direction)...
    auto f1 = attacker.connect_flow(evil, server.ip(), proto::kIdentPort);
    attacker.send_flow_packet(f1, payload, net::TcpFlags::kPsh);
    // ...and from a fake daemon (response direction).
    net::FiveTuple f2{attacker.ip(), client.ip(), net::IpProto::kTcp,
                      proto::kIdentPort, 12345};
    attacker.send_flow_packet(f2, payload, net::TcpFlags::kPsh);
  }
  net.run();

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
}

TEST(TcpHandshake, KeepStateLetsSynAckReturnWithoutNewDecision) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller(
      "block all\npass from any to any port 80 keep state\n");
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 80);
  server.set_auto_accept(true);

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  // The SYN arrived and the SYN-ACK came back over the keep-state reverse
  // entries without a second controller decision.
  EXPECT_TRUE(net.flow_delivered(h));
  EXPECT_EQ(client.stats().flow_payloads_received, 1u);  // the SYN-ACK
  EXPECT_EQ(controller.stats().flows_seen, 1u);
  // The server can now resolve the connected socket for later queries.
  const auto owner = server.resolve(h.flow.reversed(), false);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->user_id, "www");
}

TEST(TcpHandshake, StatelessPolicyEvaluatesSynAckAsNewFlow) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  // Stateless: forward direction to port 80 only; the SYN-ACK (sport 80)
  // is a distinct flow and must face the policy itself — and gets blocked.
  auto& controller = net.install_controller(
      "block all\npass from any to any port 80\n");
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 80);
  server.set_auto_accept(true);

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  EXPECT_EQ(client.stats().flow_payloads_received, 0u);  // SYN-ACK blocked
  EXPECT_EQ(controller.stats().flows_seen, 2u);          // both directions
  EXPECT_EQ(controller.stats().flows_blocked, 1u);
}

TEST(DecisionCache, ServesRepeatPacketInsWithoutRequerying) {
  // With install_full_path off, the flow's first packet misses at every
  // switch; the decision cache turns the later misses into cache hits
  // instead of fresh daemon queries.
  Network net;
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(s1, s2);
  net.link(server, s2);
  ctrl::ControllerConfig config;
  config.install_full_path = false;
  config.decision_cache_ttl = 1 * sim::kSecond;
  auto& controller = net.install_controller("pass all\n", config);
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 80);

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  // Exactly one query pair despite two packet-ins (one per switch).
  EXPECT_EQ(controller.stats().queries_sent, 2u);
  EXPECT_GE(controller.stats().decision_cache_hits, 1u);
}

TEST(DecisionCache, ExpiresAfterTtl) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.decision_cache_ttl = 10 * sim::kMillisecond;
  config.flow_idle_timeout = 1 * sim::kMillisecond;  // entries die fast
  auto& controller = net.install_controller("pass all\n", config);
  const int pid = launch_app(client, "alice", "users", "/bin/app");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  server.listen(srv, 80);

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  const auto queries_after_first = controller.stats().queries_sent;

  // Long after both the entry and the cached decision lapsed: full
  // re-decision, with fresh queries.
  net.simulator().schedule_after(
      500 * sim::kMillisecond, [&client, flow = h.flow] {
        client.send_flow_packet(flow, "later", net::TcpFlags::kPsh);
      });
  net.run();
  EXPECT_GT(controller.stats().queries_sent, queries_after_first);
}

TEST(Concurrency, ManySimultaneousFlowsDecideIndependently) {
  // 24 flows from 3 clients launched in the same instant; every decision
  // must match the per-flow attributes with no cross-talk in the pending
  // table.
  Network net;
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  net.link(s1, s2);
  std::vector<host::Host*> clients;
  for (int i = 0; i < 3; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(10 + i));
    net.link(c, s1);
    clients.push_back(&c);
  }
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s2);
  net.install_controller(
      "block all\npass from any to any with eq(@src[userID], alice)\n");
  const int srv = launch_app(server, "www", "daemons", "/bin/srv");
  for (std::uint16_t port = 8000; port < 8008; ++port) server.listen(srv, port);

  struct Expectation {
    FlowHandle handle;
    bool should_pass;
  };
  std::vector<Expectation> expectations;
  for (auto* c : clients) {
    c->add_user("alice", "users");
    c->add_user("bob", "users");
    const int alice_pid = c->launch("alice", "/bin/x");
    const int bob_pid = c->launch("bob", "/bin/x");
    for (std::uint16_t port = 8000; port < 8004; ++port) {
      expectations.push_back(
          {net.start_flow(*c, alice_pid, "10.0.1.1", port), true});
      expectations.push_back(
          {net.start_flow(*c, bob_pid, "10.0.1.1", port), false});
    }
  }
  net.run();
  for (const auto& [handle, should_pass] : expectations) {
    EXPECT_EQ(net.flow_delivered(handle), should_pass)
        << handle.flow.to_string();
  }
}

}  // namespace
}  // namespace identxx
