// Sharded admission domains (DESIGN.md §10): ShardMap consistency, the
// multi-lane simulator's worker-count-invariant determinism, ScenarioResult
// equality across shard/worker counts, cross-shard revocation ordering
// (a revoke_all / set_policy racing in-flight admissions must never leave
// a stale cover or decision-cache entry in any domain), and per-shard
// cookie namespacing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <string>

#include "controller/shard_map.hpp"
#include "controller/sharded_controller.hpp"
#include "core/network.hpp"
#include "core/scenario.hpp"
#include "sim/worker_pool.hpp"

namespace identxx {
namespace {

using core::Network;
using core::Scenario;
using core::ScenarioOptions;

[[nodiscard]] net::FiveTuple make_flow(std::uint32_t src, std::uint32_t dst,
                                       std::uint16_t src_port,
                                       std::uint16_t dst_port) {
  net::FiveTuple flow;
  flow.src_ip = net::Ipv4Address{src};
  flow.dst_ip = net::Ipv4Address{dst};
  flow.proto = net::IpProto::kTcp;
  flow.src_port = src_port;
  flow.dst_port = dst_port;
  return flow;
}

/// Entries a controller installed (cookie != 0) on `sw`.
[[nodiscard]] std::size_t installed_entries(Network& net, sim::NodeId sw) {
  std::size_t count = 0;
  for (const auto& entry : net.switch_at(sw).table().entries()) {
    if (entry.cookie != 0) ++count;
  }
  return count;
}

// ---------------------------------------------------------------- ShardMap

TEST(ShardMapTest, BothDirectionsHashToTheSameShard) {
  ctrl::ShardMap map(4);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto flow = make_flow(0x0a000001u + i, 0x0a010001u + (i * 7),
                                static_cast<std::uint16_t>(30000 + i), 80);
    EXPECT_EQ(map.shard_of(flow), map.shard_of(flow.reversed()))
        << "flow " << flow.to_string();
    EXPECT_LT(map.shard_of(flow), 4u);
  }
}

TEST(ShardMapTest, SpreadsFlowsAcrossShards) {
  ctrl::ShardMap map(4);
  std::vector<std::size_t> buckets(4, 0);
  for (std::uint32_t i = 0; i < 400; ++i) {
    ++buckets[map.shard_of(make_flow(0x0a000001u + i, 0x0a010001u,
                                     static_cast<std::uint16_t>(20000 + i),
                                     80))];
  }
  for (const std::size_t count : buckets) {
    EXPECT_GT(count, 40u);  // roughly uniform; far from degenerate
  }
}

TEST(ShardMapTest, EndpointPinOverridesHashBothDirections) {
  ctrl::ShardMap map(4);
  const auto server = *net::Ipv4Address::parse("10.0.1.1");
  map.pin_endpoint(server, 2);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto flow = make_flow(0x0a000001u + i, server.value(),
                                static_cast<std::uint16_t>(20000 + i), 80);
    EXPECT_EQ(map.shard_of(flow), 2u);
    EXPECT_EQ(map.shard_of(flow.reversed()), 2u);
  }
}

TEST(ShardMapTest, CookieTagRoundTrips) {
  const std::uint64_t cookie = (std::uint64_t{3} << 48) | 12345;
  EXPECT_EQ(ctrl::ShardMap::cookie_shard_tag(cookie), 3u);
  EXPECT_EQ(ctrl::ShardMap::cookie_shard_tag(12345), 0u);
}

// ----------------------------------------------------------- simulator lanes

/// Shard-lane events schedule their "commits" back onto the global lane;
/// the committed order must be canonical (lane-major, FIFO within a lane)
/// and identical at any worker count.
std::vector<int> run_lane_commits(std::uint32_t workers) {
  sim::Simulator sim;
  sim.configure_shard_lanes(4);
  sim.set_workers(workers);
  std::vector<int> commits;
  for (int lane = 1; lane <= 4; ++lane) {
    for (int k = 0; k < 3; ++k) {
      sim.schedule_on(static_cast<sim::LaneId>(lane), 10,
                      [&sim, &commits, lane, k] {
                        sim.schedule_on(sim::kGlobalLane, sim.now(),
                                        [&commits, lane, k] {
                                          commits.push_back(lane * 10 + k);
                                        });
                      });
    }
  }
  sim.run();
  return commits;
}

TEST(SimulatorLanes, CommitOrderIsWorkerCountInvariant) {
  const std::vector<int> expected{10, 11, 12, 20, 21, 22,
                                  30, 31, 32, 40, 41, 42};
  EXPECT_EQ(run_lane_commits(1), expected);
  EXPECT_EQ(run_lane_commits(4), expected);
  EXPECT_EQ(run_lane_commits(sim::WorkerPool::hardware_workers()), expected);
}

TEST(SimulatorLanes, ShardEventsInheritTheirLane) {
  sim::Simulator sim;
  sim.configure_shard_lanes(2);
  sim.set_workers(2);
  std::vector<int> order;
  // A shard event's plain schedule_after stays on its lane; the follow-up
  // can still message the global lane.  Lane 2's first-wave event fires
  // with lane 1's, then the inherited second-wave events, all at t=5.
  sim.schedule_on(1, 5, [&] {
    sim.schedule_after(0, [&] {
      sim.schedule_on(sim::kGlobalLane, sim.now(), [&] { order.push_back(11); });
    });
  });
  sim.schedule_on(2, 5, [&] {
    sim.schedule_on(sim::kGlobalLane, sim.now(), [&] { order.push_back(20); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{20, 11}));
  EXPECT_EQ(sim.now(), 5);
  EXPECT_TRUE(sim.idle());
}

/// Leaves the canonical (ascending) shard-lane order untouched.
class IdentityController final : public sim::ScheduleController {
 public:
  void plan_wave(sim::SimTime /*when*/,
                 std::vector<sim::LaneId>& /*order*/) override {}
  void on_access(sim::LaneId /*origin*/,
                 const sim::LaneAccess& /*access*/) override {}
};

/// Runs every wave's shard lanes in descending order.
class ReversingController final : public sim::ScheduleController {
 public:
  void plan_wave(sim::SimTime /*when*/,
                 std::vector<sim::LaneId>& order) override {
    std::reverse(order.begin(), order.end());
  }
  void on_access(sim::LaneId /*origin*/,
                 const sim::LaneAccess& /*access*/) override {}
};

struct LaneRunConfig {
  std::uint32_t workers = 1;
  sim::ScheduleController* controller = nullptr;
  bool fault_merge_arrival_order = false;
};

void apply(sim::Simulator& sim, const LaneRunConfig& config) {
  sim.set_workers(config.workers);
  sim.set_schedule_controller(config.controller);
  sim.set_fault_merge_arrival_order(config.fault_merge_arrival_order);
}

/// Global-only, shard-only and mixed waves plus same-instant follow-ups,
/// with a deadline that splits the run.  Returns {run() total,
/// stats().events_executed, callbacks fired}.
std::array<std::uint64_t, 3> run_accounting(const LaneRunConfig& config) {
  sim::Simulator sim;
  sim.configure_shard_lanes(3);
  apply(sim, config);
  std::atomic<std::uint64_t> fired{0};
  const auto fire = [&fired] { fired.fetch_add(1, std::memory_order_relaxed); };
  // t=1: two global-only waves (a same-instant global follow-up).
  sim.schedule_on(sim::kGlobalLane, 1, fire);
  sim.schedule_on(sim::kGlobalLane, 1, [&] {
    fire();
    sim.schedule_after(0, fire);
  });
  // t=2: a shard-only wave on all three lanes, then a mixed wave from the
  // same-instant follow-ups (lane 2 onto itself, lane 3 onto global).
  sim.schedule_on(1, 2, fire);
  sim.schedule_on(2, 2, [&] {
    fire();
    sim.schedule_after(0, fire);
  });
  sim.schedule_on(3, 2, [&] {
    fire();
    sim.schedule_on(sim::kGlobalLane, sim.now(), fire);
  });
  // t=3: a mixed wave whose global event feeds lane 2 at the same instant.
  sim.schedule_on(sim::kGlobalLane, 3, [&] {
    fire();
    sim.schedule_on(2, sim.now(), fire);
  });
  sim.schedule_on(1, 3, fire);
  sim.schedule_on(3, 3, fire);
  // t=4: past the first deadline.
  sim.schedule_on(sim::kGlobalLane, 4, fire);
  sim.schedule_on(1, 4, fire);

  const std::uint64_t first = sim.run(3);
  EXPECT_EQ(first, 12u);
  EXPECT_EQ(sim.now(), 3);
  const std::uint64_t total = first + sim.run();
  EXPECT_TRUE(sim.idle());
  return {total, sim.stats().events_executed, fired.load()};
}

TEST(SimulatorLanes, WavesCountAllEvents) {
  IdentityController identity;
  const std::array<std::uint64_t, 3> expected{14, 14, 14};
  EXPECT_EQ(run_accounting({.workers = 1}), expected);
  EXPECT_EQ(run_accounting({.workers = 4}), expected);
  EXPECT_EQ(run_accounting({.workers = 4, .controller = &identity}),
            expected);
}

/// Same-instant cross-lane ordering.  Global-lane events append to the
/// global trace; shard events append to their own lane's trace (lane-local,
/// so race-free on pool threads) together with the number of global events
/// that ran before them.
std::string run_same_instant(const LaneRunConfig& config) {
  sim::Simulator sim;
  sim.configure_shard_lanes(2);
  apply(sim, config);
  std::vector<std::string> global;
  std::array<std::vector<std::string>, 3> lane;
  const auto on_global = [&](std::string name) {
    return [&global, name = std::move(name)] { global.push_back(name); };
  };
  const auto note = [&](sim::LaneId id, const std::string& name) {
    lane[id].push_back(name + "/g" + std::to_string(global.size()));
  };
  // Shard event B is queued at t=1 before global event C: the global lane
  // runs first, so B sees C.  B then schedules at `now` onto its own lane,
  // onto the other shard lane and onto the global lane.  What C schedules
  // at `now` runs in the next wave, after this wave's shard events.
  sim.schedule_on(1, 1, [&] {
    note(1, "B");
    sim.schedule_after(0, [&] {
      note(1, "B.self");
      sim.schedule_on(sim::kGlobalLane, sim.now(), on_global("B.self.commit"));
    });
    sim.schedule_on(2, sim.now(), [&] {
      note(2, "B.other");
      sim.schedule_on(sim::kGlobalLane, sim.now(), on_global("B.other.commit"));
    });
    sim.schedule_on(sim::kGlobalLane, sim.now(), on_global("B.commit"));
  });
  sim.schedule_on(sim::kGlobalLane, 1, [&] {
    global.push_back("C");
    sim.schedule_after(0, on_global("C.next"));
    sim.schedule_on(2, sim.now(), [&] { note(2, "C.lane2"); });
  });
  sim.schedule_on(2, 1, [&] {
    note(2, "D");
    sim.schedule_on(sim::kGlobalLane, sim.now(), on_global("D.commit"));
  });
  sim.run();
  EXPECT_EQ(sim.now(), 1);

  std::string trace;
  for (const auto& name : global) trace += name + " ";
  for (sim::LaneId id = 1; id < lane.size(); ++id) {
    trace += (id == 1 ? "| lane" : " | lane") + std::to_string(id) + ":";
    for (const auto& name : lane[id]) trace += " " + name;
  }
  return trace;
}

TEST(SimulatorLanes, SameInstantCrossLaneOrderIsPinned) {
  const std::string expected =
      "C C.next B.commit D.commit B.self.commit B.other.commit "
      "| lane1: B/g1 B.self/g4 | lane2: D/g1 C.lane2/g4 B.other/g4";
  IdentityController identity;
  ReversingController reversing;
  EXPECT_EQ(run_same_instant({.workers = 1}), expected);
  EXPECT_EQ(run_same_instant({.workers = 4}), expected);
  EXPECT_EQ(run_same_instant({.workers = 1, .controller = &identity}),
            expected);
  EXPECT_EQ(run_same_instant({.workers = 1, .controller = &reversing}),
            expected);
  // The injected arrival-order merge is visible only when the controller
  // permutes the lanes: D's commit then lands before B's.
  EXPECT_EQ(run_same_instant({.workers = 1,
                              .controller = &identity,
                              .fault_merge_arrival_order = true}),
            expected);
  EXPECT_EQ(run_same_instant({.workers = 1,
                              .controller = &reversing,
                              .fault_merge_arrival_order = true}),
            "C C.next D.commit B.commit B.other.commit B.self.commit "
            "| lane1: B/g1 B.self/g4 | lane2: D/g1 C.lane2/g4 B.other/g4");
}

// ------------------------------------------------------ scenario invariance

constexpr const char* kScenario = R"(
seed 7
switch s1
switch s2
link s1 s2
host c1 10.0.0.1 s1
host c2 10.0.0.2 s1
host c3 10.0.0.3 s2
host c4 10.0.0.4 s2
host srv 10.0.1.1 s2
user c1 alice staff
user c2 bob staff
user c3 alice staff
user c4 mallory users
user srv www daemons
launch l1 c1 alice /usr/bin/curl
launch l2 c2 bob /usr/bin/curl
launch l3 c3 alice /usr/bin/curl
launch l4 c4 mallory /usr/bin/nc
launch ls srv www /usr/sbin/httpd
listen ls 80
policy begin
block all
pass from any to any port 80 with eq(@src[userID], alice)
policy end
flow f1 l1 10.0.1.1 80
flow f2 l2 10.0.1.1 80
flow f3 l3 10.0.1.1 80
flow f4 l4 10.0.1.1 80
expect f1 delivered
expect f2 blocked
expect f3 delivered
expect f4 blocked
)";

TEST(ShardedScenario, ResultInvariantAcrossShardAndWorkerCounts) {
  const Scenario scenario = Scenario::parse(kScenario);

  ScenarioOptions one_shard;  // shards = 1: the single controller
  const auto base = scenario.run(one_shard);
  EXPECT_TRUE(base.ok());
  ASSERT_EQ(base.flows.size(), 4u);
  ASSERT_EQ(base.domain_stats.size(), 1u);

  for (const std::uint32_t shards : {1u, 4u}) {
    for (const std::uint32_t workers :
         {1u, sim::WorkerPool::hardware_workers()}) {
      ScenarioOptions options;
      options.shards = shards;
      options.workers = workers;
      const auto result = scenario.run(options);
      EXPECT_TRUE(result.equivalent_to(base))
          << "shards=" << shards << " workers=" << workers;
      ASSERT_EQ(result.domain_stats.size(), shards);
      // The per-domain breakdown re-aggregates to the single-domain
      // totals.
      ctrl::ControllerStats sum;
      for (const auto& stats : result.domain_stats) sum.accumulate(stats);
      EXPECT_EQ(sum, base.controller_stats);
    }
  }
}

TEST(ShardedScenario, ResultInvariantWithBatchedEval) {
  // Batched PF evaluation (DESIGN.md §11) is a pure optimization: runs
  // whose decide_many batches go through evaluate_batch are equivalent_to
  // each other at any shard count.  Serial-vs-batched verdict identity is
  // pf_batch_test's BatchDifferential.
  const Scenario scenario = Scenario::parse(kScenario);
  const auto base = scenario.run(ScenarioOptions{});
  EXPECT_TRUE(base.ok());

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    ScenarioOptions options;
    options.shards = shards;
    const auto result = scenario.run(options);
    EXPECT_TRUE(result.ok()) << "shards=" << shards;
    EXPECT_TRUE(result.equivalent_to(base)) << "shards=" << shards;
  }
}

TEST(ShardedScenario, IdenticalSeedsReplayIdentically) {
  const Scenario scenario = Scenario::parse(kScenario);
  ScenarioOptions a;
  a.shards = 4;
  a.workers = 2;
  a.seed = 99;  // overrides the file's `seed 7`
  const auto first = scenario.run(a);
  const auto second = scenario.run(a);
  EXPECT_TRUE(first.equivalent_to(second));

  ScenarioOptions b = a;
  b.shards = 1;
  EXPECT_TRUE(scenario.run(b).equivalent_to(first));
}

// ------------------------------------------------------- per-wave batching

/// PolicyDecisionEngine that records the size of every decide_many batch.
class BatchRecordingEngine final : public ctrl::PolicyDecisionEngine {
 public:
  using PolicyDecisionEngine::PolicyDecisionEngine;

  std::vector<ctrl::AdmissionDecision> decide_many(
      const std::vector<const ctrl::AdmissionContext*>& batch) override {
    batch_sizes.push_back(batch.size());
    return PolicyDecisionEngine::decide_many(batch);
  }

  std::vector<std::size_t> batch_sizes;
};

struct BurstRun {
  std::vector<std::size_t> batch_sizes;
  std::vector<bool> delivered;
  std::vector<ctrl::DecisionRecord> audit;
  ctrl::ControllerStats stats;
};

/// Eight clients on one switch open a flow each at t=0; every flow's
/// responses arrive at one instant.  Decided by the classic inline
/// controller, or by a one-domain sharded controller.
BurstRun run_burst(bool sharded) {
  constexpr const char* kPolicy =
      "block all\n"
      "pass from any to any port 80 with eq(@src[userID], alice)\n";
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);
  std::vector<host::Host*> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(&net.add_host("c" + std::to_string(i),
                                    "10.0.0." + std::to_string(i + 1)));
    net.link(*clients.back(), s1);
  }
  auto engine =
      std::make_unique<BatchRecordingEngine>(pf::parse(kPolicy, "burst"));
  BatchRecordingEngine* recorder = engine.get();
  BurstRun run;
  ctrl::IdentxxController& decider =
      sharded ? net.install_sharded_controller(kPolicy, 1).domain(0)
              : net.install_controller(kPolicy);
  decider.replace_engine(std::move(engine));
  server.add_user("www", "daemons");
  server.listen(server.launch("www", "/usr/sbin/httpd"), 80);
  std::vector<core::FlowHandle> handles;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i]->add_user(i % 2 == 0 ? "alice" : "bob", "staff");
    const int pid = clients[i]->launch(i % 2 == 0 ? "alice" : "bob",
                                       "/usr/bin/curl");
    handles.push_back(net.start_flow(*clients[i], pid, "10.0.1.1", 80));
  }
  net.run();

  run.batch_sizes = recorder->batch_sizes;
  for (const auto& handle : handles) {
    run.delivered.push_back(net.flow_delivered(handle));
  }
  // The domain's own log is in commit order, like the classic one.
  run.audit.assign(decider.audit_log().begin(), decider.audit_log().end());
  run.stats = decider.stats();
  return run;
}

TEST(PerWaveBatch, SameInstantFlowsDecideInOneDecideMany) {
  // Classic: each response decides its flow inline, one batch of one per
  // flow.  One sharded domain: all eight flows become ready in one wave
  // and decide in ONE decide_many on the shard lane, with the same
  // verdicts, audit log and stats.
  const BurstRun classic = run_burst(false);
  const BurstRun sharded = run_burst(true);
  EXPECT_EQ(classic.batch_sizes, std::vector<std::size_t>(8, 1));
  EXPECT_EQ(sharded.batch_sizes, (std::vector<std::size_t>{8}));
  EXPECT_EQ(sharded.delivered, classic.delivered);
  EXPECT_EQ(std::count(classic.delivered.begin(), classic.delivered.end(),
                       true),
            4);
  ASSERT_EQ(classic.audit.size(), 8u);
  EXPECT_EQ(sharded.audit, classic.audit);
  EXPECT_EQ(sharded.stats, classic.stats);
}

// --------------------------------------------------------------- partition

TEST(ShardedNetwork, FlowsPartitionAcrossDomainsAndAggregate) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);
  auto& sharded = net.install_sharded_controller(
      "block all\npass from any to any port 80\n", 4, 2);
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  constexpr int kClients = 12;
  std::vector<core::FlowHandle> handles;
  std::vector<std::uint32_t> expected_shard;
  for (int i = 0; i < kClients; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(i + 1));
    net.link(c, s1);
    c.add_user("u", "users");
    const int pid = c.launch("u", "/bin/x");
    handles.push_back(net.start_flow(c, pid, "10.0.1.1", 80));
    expected_shard.push_back(sharded.shard_map().shard_of(handles.back().flow));
  }
  net.run();

  std::vector<std::uint64_t> per_domain(4, 0);
  for (const std::uint32_t shard : expected_shard) ++per_domain[shard];
  std::uint64_t total = 0;
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(sharded.domain(d).stats().flows_seen, per_domain[d])
        << "domain " << d;
    total += sharded.domain(d).stats().flows_seen;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(sharded.aggregated_stats().flows_seen,
            static_cast<std::uint64_t>(kClients));
  for (const auto& handle : handles) {
    EXPECT_TRUE(net.flow_delivered(handle));
  }
}

// ------------------------------------------------- revocation vs in-flight

/// Observer hook: runs a callback on the first daemon response, i.e. in
/// the same global-lane event that dispatches the decision to the shard
/// lane — the window where control operations race in-flight admissions.
class OnResponseHook : public ctrl::AdmissionObserver {
 public:
  explicit OnResponseHook(std::function<void()> fn) : fn_(std::move(fn)) {}
  void on_response_received(net::Ipv4Address) override {
    if (fn_) {
      auto fn = std::move(fn_);
      fn_ = nullptr;
      fn();
    }
  }

 private:
  std::function<void()> fn_;
};

struct RaceRig {
  explicit RaceRig(const char* policy, bool aggregate = true) {
    s1 = net.add_switch("s1");
    client = &net.add_host("client", "10.0.0.1");
    server = &net.add_host("server", "10.0.1.1");
    net.link(*client, s1);
    net.link(*server, s1);
    ctrl::ControllerConfig config;
    config.aggregate_installs = aggregate;
    config.query_both_ends = false;  // decide on the single src response
    config.decision_cache_ttl = 60 * sim::kSecond;
    sharded = &net.install_sharded_controller(policy, 2, 2, config);
    client->add_user("alice", "staff");
    pid = client->launch("alice", "/usr/bin/curl");
    server->add_user("www", "daemons");
    const int srv = server->launch("www", "/usr/sbin/httpd");
    server->listen(srv, 80);
  }

  Network net;
  sim::NodeId s1 = sim::kInvalidNode;
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  ctrl::ShardedAdmissionController* sharded = nullptr;
  int pid = 0;
};

TEST(ShardedRevocation, RevokeAllRacingInFlightAdmissionLeavesNoStaleState) {
  RaceRig rig("block all\npass from any to any port 80\n");
  const auto handle = rig.net.start_flow(*rig.client, rig.pid, "10.0.1.1", 80);
  const std::uint32_t shard = rig.sharded->shard_map().shard_of(handle.flow);
  auto& domain = rig.sharded->domain(shard);
  sim::Simulator& sim = rig.net.simulator();

  // Fire revoke_all between the decision dispatch and its commit: the
  // response event (wave 1) schedules L1 (wave 2), which schedules the
  // revoke (wave 3, ahead of the commit staged from wave 2's shard phase).
  std::size_t removed_during_race = 1;  // sentinel: revoke observed nothing
  domain.add_observer(std::make_unique<OnResponseHook>([&] {
    sim.schedule_at(sim.now(), [&] {
      sim.schedule_at(sim.now(), [&] {
        removed_during_race = rig.sharded->revoke_all();
      });
    });
  }));
  rig.net.run();

  // The revocation saw no installed entries (the decision had not
  // committed yet) — and the re-decided commit still admits the flow
  // under the unchanged policy, with fresh (post-revocation) state only.
  EXPECT_EQ(removed_during_race, 0u);
  EXPECT_TRUE(rig.net.flow_delivered(handle));
  EXPECT_GT(installed_entries(rig.net, rig.s1), 0u);
  EXPECT_GT(domain.stats().flows_allowed, 0u);
}

TEST(ShardedRevocation, PolicySwapRacingInFlightAdmissionBlocksAndLeavesNoCover) {
  RaceRig rig("block all\npass from any to any port 80\n");
  const auto handle = rig.net.start_flow(*rig.client, rig.pid, "10.0.1.1", 80);
  const std::uint32_t shard = rig.sharded->shard_map().shard_of(handle.flow);
  auto& domain = rig.sharded->domain(shard);
  sim::Simulator& sim = rig.net.simulator();

  // Swap to block-all between dispatch and commit.  The in-flight verdict
  // (pass, with a rule cover) was computed under the old policy; the
  // commit must discard it, re-decide, and neither install the stale
  // cover nor cache the stale allow.
  domain.add_observer(std::make_unique<OnResponseHook>([&] {
    sim.schedule_at(sim.now(), [&] {
      sim.schedule_at(sim.now(), [&] {
        rig.sharded->set_policy(pf::parse("block all\n", "swap"));
      });
    });
  }));
  rig.net.run();

  EXPECT_FALSE(rig.net.flow_delivered(handle));
  // No allow entry (aggregate or exact) anywhere; at most the re-decided
  // drop entry remains.
  for (const auto& entry : rig.net.switch_at(rig.s1).table().entries()) {
    if (entry.cookie == 0) continue;  // intercept boot rules
    EXPECT_TRUE(std::holds_alternative<openflow::DropAction>(entry.action))
        << "stale allow entry survived the policy swap";
  }
  // The decision cache must not re-admit the flow either: a repeat packet
  // re-decides (or hits a cached *block*), and is never delivered.
  rig.client->send_flow_packet(handle.flow, "retry");
  rig.net.run();
  EXPECT_FALSE(rig.net.flow_delivered(handle));
}

TEST(ShardedRevocation, CompromisedFrontEndFloodsLikeAStandaloneController) {
  // §5.1 parity: a compromised sharded controller must disable all
  // protection exactly like a compromised standalone controller —
  // everything floods, and daemon responses are never consumed into
  // decisions.
  RaceRig rig("block all\n");  // policy would block everything when honest
  rig.sharded->set_compromised(true);
  const auto handle = rig.net.start_flow(*rig.client, rig.pid, "10.0.1.1", 80);
  rig.net.run();
  EXPECT_TRUE(rig.net.flow_delivered(handle));  // protection is gone
  for (std::uint32_t d = 0; d < rig.sharded->shard_count(); ++d) {
    EXPECT_EQ(rig.sharded->domain(d).stats().responses_received, 0u);
    EXPECT_EQ(rig.sharded->domain(d).stats().flows_blocked, 0u);
  }
}

// --------------------------------------------------------- cookie namespace

TEST(CookieNamespace, DomainsRevokeOnlyTheirOwnEntries) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);
  auto& sharded = net.install_sharded_controller(
      "block all\npass from any to any port 80\n", 2, 1);
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  // Start flows until both domains own at least one admitted flow.
  std::vector<core::FlowHandle> handles;
  std::vector<std::uint32_t> shards;
  for (int i = 0; i < 8; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(i + 1));
    net.link(c, s1);
    c.add_user("u", "users");
    const int pid = c.launch("u", "/bin/x");
    handles.push_back(net.start_flow(c, pid, "10.0.1.1", 80));
    shards.push_back(sharded.shard_map().shard_of(handles.back().flow));
  }
  net.run();
  ASSERT_TRUE(std::find(shards.begin(), shards.end(), 0u) != shards.end());
  ASSERT_TRUE(std::find(shards.begin(), shards.end(), 1u) != shards.end());

  const auto entries_with_tag = [&](std::uint32_t tag) {
    std::size_t count = 0;
    for (const auto& entry : net.switch_at(s1).table().entries()) {
      if (ctrl::ShardMap::cookie_shard_tag(entry.cookie) == tag) ++count;
    }
    return count;
  };
  const std::size_t d0_before = entries_with_tag(1);  // domain 0 => tag 1
  const std::size_t d1_before = entries_with_tag(2);  // domain 1 => tag 2
  ASSERT_GT(d0_before, 0u);
  ASSERT_GT(d1_before, 0u);

  const std::size_t removed = sharded.domain(0).revoke_all();
  EXPECT_EQ(removed, d0_before);
  EXPECT_EQ(entries_with_tag(1), 0u);
  EXPECT_EQ(entries_with_tag(2), d1_before);  // sibling untouched

  // Front-end revoke_all clears the rest.
  EXPECT_EQ(sharded.revoke_all(), d1_before);
  EXPECT_EQ(entries_with_tag(2), 0u);
  EXPECT_EQ(sharded.installed_flow_count(), 0u);
}

}  // namespace
}  // namespace identxx
