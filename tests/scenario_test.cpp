// Tests for the scenario description engine (core/scenario.hpp): parsing,
// semantic validation, end-to-end execution, and expectation checking.

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "util/error.hpp"

namespace identxx::core {
namespace {

constexpr char kMinimal[] = R"(
switch s1
host client 10.0.0.1 s1
host server 10.0.0.2 s1
user client alice staff
user server www daemons
launch c1 client alice /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
block all
pass from any to any port 80 with eq(@src[userID], alice)
policy end
flow f1 c1 10.0.0.2 80
expect f1 delivered
)";

TEST(ScenarioParse, MinimalCounts) {
  const Scenario scenario = Scenario::parse(kMinimal);
  EXPECT_EQ(scenario.switch_count(), 1u);
  EXPECT_EQ(scenario.host_count(), 2u);
  EXPECT_EQ(scenario.flow_count(), 1u);
  EXPECT_NE(scenario.policy().find("block all"), std::string::npos);
}

TEST(ScenarioParse, CommentsAndQuotes) {
  const Scenario scenario = Scenario::parse(
      "switch s1 # trailing comment\n"
      "host h 10.0.0.1 s1\n"
      "user h u g\n"
      "hostfact h os-patch \"MS08-001 MS08-067\"\n"
      "policy begin\npass all\npolicy end\n");
  EXPECT_EQ(scenario.host_count(), 1u);
}

TEST(ScenarioParse, Errors) {
  EXPECT_THROW((void)Scenario::parse("frobnicate x\n"), ParseError);
  EXPECT_THROW((void)Scenario::parse("switch\n"), ParseError);
  EXPECT_THROW((void)Scenario::parse("policy begin\npass all\n"), ParseError);
  EXPECT_THROW((void)Scenario::parse("flow f1 c1 10.0.0.2 0\n"), ParseError);
  EXPECT_THROW((void)Scenario::parse("flow f1 c1 10.0.0.2 80 sctp\n"),
               ParseError);
  EXPECT_THROW((void)Scenario::parse("expect f1 maybe\n"), ParseError);
  EXPECT_THROW((void)Scenario::parse("hostfact h key \"unterminated\n"),
               ParseError);
}

TEST(ScenarioRun, MinimalEndToEnd) {
  const Scenario scenario = Scenario::parse(kMinimal);
  const ScenarioResult result = scenario.run();
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_TRUE(result.flows[0].delivered);
  EXPECT_TRUE(result.flows[0].matches_expectation());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.controller_stats.flows_allowed, 1u);
  ASSERT_EQ(result.audit_log.size(), 1u);
  EXPECT_EQ(result.audit_log[0].src_user, "alice");
}

TEST(ScenarioRun, FailedExpectationReported) {
  std::string text = kMinimal;
  text += "expect f1 blocked\n";  // overrides: now wrong
  const ScenarioResult result = Scenario::parse(text).run();
  EXPECT_FALSE(result.ok());
}

TEST(ScenarioRun, SemanticErrors) {
  EXPECT_THROW((void)Scenario::parse("host h 10.0.0.1 ghost\n").run(), Error);
  EXPECT_THROW(
      (void)Scenario::parse("switch s1\nhost h 10.0.0.1 s1\n"
                            "user h u g\nlaunch a h u /bin/x\n"
                            "flow f1 ghost 10.0.0.2 80\n")
          .run(),
      Error);
  EXPECT_THROW(
      (void)Scenario::parse("switch s1\nswitch s1\n").run(), Error);
}

TEST(ScenarioRun, MultiSwitchWithAppIdentity) {
  const ScenarioResult result = Scenario::parse(R"(
switch s1
switch s2
link s1 s2 500
host a 10.0.0.1 s1
host b 10.0.0.2 s2
user a u staff
user b www daemons
launch good a u /usr/bin/approved
launch bad a u /usr/bin/other
launch srv b www /bin/srv
appconfig a /usr/bin/approved name=approved
appconfig a /usr/bin/other name=other
listen srv 443
policy begin
block all
pass from any to any with eq(@src[name], approved)
policy end
flow f-good good 10.0.0.2 443
flow f-bad  bad  10.0.0.2 443
expect f-good delivered
expect f-bad  blocked
)")
                                      .run();
  EXPECT_TRUE(result.ok());
}

TEST(ScenarioRun, SignedDelegationViaSignedapp) {
  // Figs 4+5 expressible purely in the scenario language: signedapp signs
  // the requirements, $pubkey() expands in the policy.
  const ScenarioResult result = Scenario::parse(R"SCN(
switch s1
host a 10.1.0.1 s1
host b 10.1.0.2 s1
user a alice research
user b bob research
launch app1 a alice /usr/bin/app
launch app2 b bob /usr/bin/app
signedapp a /usr/bin/app app grp-key "block all pass all with eq(@src[name], app)"
signedapp b /usr/bin/app app grp-key "block all pass all with eq(@src[name], app)"
listen app2 9000
policy begin
dict <pubkeys> { grp : $pubkey(grp-key) }
block all
pass from any to any \
  with allowed(@dst[requirements]) \
  with verify(@dst[req-sig], @pubkeys[grp], \
    @dst[exe-hash], @dst[app-name], @dst[requirements])
policy end
flow f1 app1 10.1.0.2 9000
expect f1 delivered
)SCN")
                                      .run();
  EXPECT_TRUE(result.ok()) << "signed delegation scenario failed";
}

TEST(ScenarioRun, WrongKeySeedFailsVerification) {
  const ScenarioResult result = Scenario::parse(R"SCN(
switch s1
host a 10.1.0.1 s1
host b 10.1.0.2 s1
user a alice research
user b bob research
launch app1 a alice /usr/bin/app
launch app2 b bob /usr/bin/app
signedapp b /usr/bin/app app attacker-key "pass all"
listen app2 9000
policy begin
dict <pubkeys> { grp : $pubkey(grp-key) }
block all
pass from any to any \
  with allowed(@dst[requirements]) \
  with verify(@dst[req-sig], @pubkeys[grp], \
    @dst[exe-hash], @dst[app-name], @dst[requirements])
policy end
flow f1 app1 10.1.0.2 9000
expect f1 blocked
)SCN")
                                      .run();
  EXPECT_TRUE(result.ok());
}

TEST(ScenarioRun, MultipathRepinReordersInFlightPackets) {
  // Two equal-cost (by hops) paths with very different latencies; mid-run
  // `control set_multipath` events re-pin the flow's ECMP choice.  A
  // re-pin from the slow leg to the fast one lets late packets overtake
  // the ones still in flight — the receiver's sequence stamps count them.
  const ScenarioResult result = Scenario::parse(R"(
switch s1
switch s2
switch s3
switch s4
link s1 s2 5
link s2 s4 5
link s1 s3 400
link s3 s4 400
host client 10.0.0.1 s1
host server 10.0.0.2 s4
user client alice staff
user server www daemons
launch c1 client alice /usr/bin/curl
launch h1 server www /usr/sbin/httpd
listen h1 80
policy begin
pass all
policy end
flow f1 c1 10.0.0.2 80
traffic f1 cbr packets=64 rate=100000
control 300 set_multipath 2 1
control 500 set_multipath 2 2
control 700 set_multipath 2 3
expect f1 delivered
)")
                                      .run();
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.flows.size(), 1u);
  const ScenarioFlowResult& flow = result.flows[0];
  EXPECT_TRUE(flow.delivered);
  EXPECT_EQ(flow.packets_sent, 64u);
  EXPECT_EQ(flow.packets_delivered, 64u);
  EXPECT_GT(flow.packets_reordered, 0u);
  EXPECT_LT(flow.packets_reordered, flow.packets_delivered);
}

TEST(ScenarioRun, SinglePathFlowsNeverReorder) {
  // The default single-path/unbounded-queue configuration is FIFO end to
  // end: the reorder counter must stay zero.
  const ScenarioResult result = Scenario::parse(kMinimal).run();
  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_EQ(result.flows[0].packets_reordered, 0u);
}

TEST(ScenarioRun, UdpFlows) {
  const ScenarioResult result = Scenario::parse(R"(
switch s1
host a 10.0.0.1 s1
host b 10.0.0.2 s1
user a u staff
user b www daemons
launch dig a u /usr/bin/dig
launch named b www /usr/sbin/named
listen named 53 udp
policy begin
block all
pass proto udp from any to any port dns
policy end
flow f1 dig 10.0.0.2 53 udp
flow f2 dig 10.0.0.2 53 tcp
expect f1 delivered
expect f2 blocked
)")
                                      .run();
  EXPECT_TRUE(result.ok());
}

// ---------------------------------------------------------------- flags

/// Feed `args` through parse_scenario_flag the way the tools do; returns
/// the positional arguments it declined.
std::vector<std::string_view> parse_flags(
    const std::vector<std::string_view>& args, ScenarioOptions& options) {
  std::vector<std::string_view> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!parse_scenario_flag(args, i, options)) positional.push_back(args[i]);
  }
  return positional;
}

TEST(ScenarioFlags, EverySharedFlagSetsItsOption) {
  ScenarioOptions options;
  const auto positional = parse_flags(
      {"--shards", "4", "--seed", "77", "--src-only", "--traffic",
       "cbr,packets=8", "--k-paths", "3", "--link-bw", "100",
       "--queue-depth", "16", "--chan-loss", "0.25", "--chan-dup", "1",
       "--chan-delay-us", "40", "--max-retries", "2", "--retry-jitter-us",
       "5", "--degraded-ttl-us", "700", "--probe-delay-us", "9",
       "file.scn"},
      options);
  EXPECT_EQ(positional, std::vector<std::string_view>{"file.scn"});
  EXPECT_EQ(options.shards, 4u);
  EXPECT_EQ(options.seed, 77u);
  EXPECT_FALSE(options.config.query_both_ends);
  EXPECT_EQ(options.traffic, "cbr,packets=8");
  EXPECT_EQ(options.k_paths, 3u);
  EXPECT_EQ(options.link_bandwidth_bps, 100'000'000u);
  EXPECT_EQ(options.queue_depth, 16u);
  EXPECT_DOUBLE_EQ(options.chan_loss, 0.25);
  EXPECT_DOUBLE_EQ(options.chan_dup, 1.0);
  EXPECT_EQ(options.chan_delay, 40 * sim::kMicrosecond);
  EXPECT_EQ(options.config.max_query_retries, 2u);
  EXPECT_EQ(options.config.retry_jitter, 5 * sim::kMicrosecond);
  EXPECT_EQ(options.config.degraded_cover_ttl, 700 * sim::kMicrosecond);
  EXPECT_EQ(options.config.readmission_probe_delay, 9 * sim::kMicrosecond);
}

TEST(ScenarioFlags, RejectsBadInput) {
  const std::vector<std::vector<std::string_view>> bad = {
      {"--k-paths"},                // missing value
      {"--chan-delay-us"},          // missing value
      {"--chan-loss", "1.5"},       // probability above 1
      {"--chan-dup", "-0.1"},       // probability below 0
      {"--chan-loss", "nan"},       // not a probability
      {"--chan-loss", "0.5x"},      // trailing junk
      {"--k-paths", "0"},           // at least one path
      {"--shards", "two"},          // not a number
      {"--shards", "0"},            // at least one admission domain
      {"--bogus"},                  // unknown flag
      {"--workers", "2"},           // a tool's own flag, not a shared one
  };
  for (const auto& args : bad) {
    SCOPED_TRACE(std::string(args[0]));
    ScenarioOptions options;
    EXPECT_THROW((void)parse_flags(args, options), ParseError);
  }
}

}  // namespace
}  // namespace identxx::core
