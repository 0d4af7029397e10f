// Batched PF evaluation (DESIGN.md §11): evaluate_batch must be
// observationally identical to serial evaluate() — same verdicts, same
// matched-rule pointers, PolicyError at the same places — while sharing
// prefilter probes and hoisted `with` predicates across the batch.  The
// centerpiece is a randomized differential sweep against the serial
// oracle; targeted tests pin down the edges (quick, negation, unknown
// tables/functions, memo scoping, OpenFlow-only keys).

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <vector>

#include "crypto/schnorr.hpp"
#include "crypto/verifier.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/eval.hpp"
#include "pf/parser.hpp"
#include "util/error.hpp"

namespace identxx::pf {
namespace {

net::FiveTuple flow(const char* src, const char* dst, std::uint16_t dport = 80,
                    std::uint16_t sport = 40000,
                    net::IpProto proto = net::IpProto::kTcp) {
  return net::FiveTuple{*net::Ipv4Address::parse(src),
                        *net::Ipv4Address::parse(dst), proto, sport, dport};
}

struct StatsDelta {
  std::uint64_t evaluations = 0;
  std::uint64_t rules_scanned = 0;
  std::uint64_t functions_called = 0;
  std::uint64_t prefilter_skips = 0;
  std::uint64_t hoist_memo_hits = 0;
};

StatsDelta delta(const EngineStats& after, const EngineStats& before) {
  return StatsDelta{after.evaluations - before.evaluations,
                    after.rules_scanned - before.rules_scanned,
                    after.functions_called - before.functions_called,
                    after.prefilter_skips - before.prefilter_skips,
                    after.hoist_memo_hits - before.hoist_memo_hits};
}

/// Serial oracle, then batch, on the SAME engine (so matched-rule pointers
/// are comparable), asserting verdict identity and the cross-mode stats
/// invariants.
void expect_batch_matches_serial(const PolicyEngine& engine,
                                 const std::vector<FlowContext>& batch,
                                 const char* label) {
  const EngineStats s0 = engine.stats();
  std::vector<Verdict> serial;
  serial.reserve(batch.size());
  for (const FlowContext& ctx : batch) serial.push_back(engine.evaluate(ctx));
  const EngineStats s1 = engine.stats();
  const std::vector<Verdict> batched =
      engine.evaluate_batch(std::span<const FlowContext>(batch));
  const EngineStats s2 = engine.stats();

  ASSERT_EQ(serial.size(), batched.size()) << label;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].action, batched[i].action) << label << " flow " << i;
    EXPECT_EQ(serial[i].keep_state, batched[i].keep_state)
        << label << " flow " << i;
    EXPECT_EQ(serial[i].quick, batched[i].quick) << label << " flow " << i;
    EXPECT_EQ(serial[i].log, batched[i].log) << label << " flow " << i;
    EXPECT_EQ(serial[i].rule, batched[i].rule)
        << label << " flow " << i << ": matched-rule pointer diverged";
  }

  const StatsDelta ds = delta(s1, s0);
  const StatsDelta db = delta(s2, s1);
  EXPECT_EQ(ds.evaluations, batch.size()) << label;
  EXPECT_EQ(db.evaluations, batch.size()) << label;
  // Every rule visit serial makes is either made by the batch path or
  // provably elided by a static prefilter; every function call is either
  // made or answered from the hoist memo.
  EXPECT_EQ(ds.rules_scanned, db.rules_scanned + db.prefilter_skips) << label;
  EXPECT_EQ(ds.functions_called, db.functions_called + db.hoist_memo_hits)
      << label;
  EXPECT_EQ(ds.prefilter_skips, 0u) << label;
  EXPECT_EQ(ds.hoist_memo_hits, 0u) << label;
}

// ------------------------------------------------------------ differential

/// Randomized policy over a fixed vocabulary of tables, dicts, ports and
/// predicates — quick/negation/tables/lists/withs all in play.
std::string random_policy(std::mt19937_64& rng, const std::string& key_hex) {
  auto pick = [&rng](std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % options.size()));
    return std::string(*it);
  };
  auto chance = [&rng](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };

  std::string policy =
      "table <lan> { 10.0.0.0/8 192.168.1.0/24 }\n"
      "table <dmz> { 172.16.0.0/12 }\n"
      "dict <pubkeys> { vendor : " + key_hex + " }\n"
      "dict <limits> { maxver : 300 }\n"
      "apps = \"{ curl ssh skype }\"\n"
      "block all\n";
  const std::size_t rules = 4 + rng() % 16;
  for (std::size_t i = 0; i < rules; ++i) {
    std::string rule = chance(50) ? "pass" : "block";
    if (chance(15)) rule += " quick";
    if (chance(10)) rule += " log";
    const std::string host = pick({"any", "10.0.0.0/8", "192.168.1.0/24",
                                   "<lan>", "<dmz>", "{ 10.0.1.0/24 <dmz> }"});
    rule += " from ";
    if (chance(15) && host != "any") rule += "!";
    rule += host;
    if (chance(40)) rule += " port " + pick({"80", "443", "1024:2047", "8000:8007"});
    rule += " to " + pick({"any", "10.0.2.0/24", "<lan>"});
    if (chance(40)) rule += " port " + pick({"80", "22", "8080"});
    if (chance(30)) rule += " proto " + pick({"tcp", "udp"});
    const std::size_t withs = rng() % 3;
    for (std::size_t w = 0; w < withs; ++w) {
      switch (rng() % 6) {
        case 0:
          rule += " with " + pick({"eq", "gt", "lt", "gte", "lte"}) +
                  "(@src[version], " + std::to_string(100 + rng() % 300) + ")";
          break;
        case 1:
          rule += " with member(@src[name], $apps)";
          break;
        case 2:
          rule += " with includes(*@src[tags], " + pick({"trusted", "lab"}) + ")";
          break;
        case 3:
          rule += " with lte(@src[version], @limits[maxver])";
          break;
        case 4:
          rule += " with verify(@src[sig], @pubkeys[vendor], @src[name], "
                  "@src[version])";
          break;
        default:
          rule += " with allowed(@src[requirements])";
          break;
      }
    }
    if (chance(10)) rule += " keep state";
    policy += rule + "\n";
  }
  return policy;
}

proto::Response make_response(const crypto::PrivateKey& key,
                              const std::string& name,
                              const std::string& version,
                              const std::string& tags) {
  proto::Response r;
  proto::Section s;
  s.add("name", name);
  s.add("version", version);
  s.add("tags", tags);
  s.add("sig", key.sign(proto::signed_message({name, version})).to_hex());
  s.add("requirements", "block all pass from 10.0.0.0/8 to any");
  r.append_section(s);
  return r;
}

TEST(BatchDifferential, RandomRulesetsAndBatchesMatchSerialOracle) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("batch-test");
  const std::string key_hex = key.public_key().to_hex();
  // A small pool of shared attestations (the hoisting target) plus
  // per-flow variants.
  const std::vector<proto::Response> shared = {
      make_response(key, "curl", "210", "trusted,prod"),
      make_response(key, "skype", "150", "lab"),
  };
  const char* ips[] = {"10.0.0.5",    "10.0.1.9",   "10.0.2.7",
                       "192.168.1.4", "172.16.3.2", "8.8.8.8"};
  const std::uint16_t ports[] = {80, 443, 22, 8080, 1025, 8004, 40000};

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);
    const std::string policy = random_policy(rng, key_hex);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + policy);
    const PolicyEngine engine(parse(policy, "diff"));

    std::vector<FlowContext> batch;
    const std::size_t flows = 8 + rng() % 48;
    for (std::size_t i = 0; i < flows; ++i) {
      FlowContext ctx;
      ctx.flow = flow(ips[rng() % 6], ips[rng() % 6], ports[rng() % 7],
                      ports[rng() % 7],
                      (rng() % 3) ? net::IpProto::kTcp : net::IpProto::kUdp);
      const std::size_t r = rng() % 4;
      if (r < 2) {
        ctx.src = proto::ResponseDict(shared[r]);  // shared attestation
      } else if (r == 2) {
        ctx.src = proto::ResponseDict(
            make_response(key, "nc", std::to_string(100 + i), ""));
      }  // r == 3: no response at all
      if (rng() % 2) ctx.dst = proto::ResponseDict(shared[0]);
      if (rng() % 4 == 0) {
        net::TenTuple of;
        of.in_port = static_cast<std::uint16_t>(1 + rng() % 4);
        ctx.openflow = of;
      }
      // Duplicate some contexts outright: a deadline batch routinely
      // carries repeat packet-ins of the same flow.
      batch.push_back(ctx);
      if (rng() % 5 == 0) batch.push_back(ctx);
    }
    expect_batch_matches_serial(engine, batch, "differential");
  }
}

// ---------------------------------------------------------------- targeted

TEST(BatchEval, QuickAndLastMatchParity) {
  const PolicyEngine engine(parse(
      "block all\n"
      "pass from 10.0.0.0/8 to any port 80\n"
      "block quick from 10.0.0.0/16 to any\n"
      "pass from 10.0.0.0/8 to any\n",
      "test"));
  std::vector<FlowContext> batch;
  for (const char* src : {"10.0.0.1", "10.1.0.1", "9.9.9.9", "10.0.0.1"}) {
    FlowContext ctx;
    ctx.flow = flow(src, "10.0.2.2");
    batch.push_back(ctx);
  }
  expect_batch_matches_serial(engine, batch, "quick");
}

TEST(BatchEval, NegatedAndListEndpointsParity) {
  const PolicyEngine engine(parse(
      "table <lan> { 10.0.0.0/8 }\n"
      "block all\n"
      "pass from !<lan> to any port 80\n"
      "block from { 10.0.1.0/24 <lan> } to any port 22\n"
      "pass from !8.8.8.0/24 to any port 22\n",
      "test"));
  std::vector<FlowContext> batch;
  for (const char* src : {"10.0.0.1", "8.8.8.8", "1.2.3.4"}) {
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{22}}) {
      FlowContext ctx;
      ctx.flow = flow(src, "10.0.2.2", port);
      batch.push_back(ctx);
    }
  }
  expect_batch_matches_serial(engine, batch, "negation");
}

TEST(BatchEval, SharedAttestationVerifiesOncePerBatch) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("hoist");
  const PolicyEngine engine(parse(
      "dict <pubkeys> { vendor : " + key.public_key().to_hex() + " }\n"
      "block all\n"
      "pass all with verify(@src[sig], @pubkeys[vendor], @src[name], "
      "@src[version])\n",
      "test"));
  const proto::Response attestation = make_response(key, "curl", "210", "");
  std::vector<FlowContext> batch;
  for (int i = 0; i < 16; ++i) {
    FlowContext ctx;
    ctx.flow = flow("10.0.0.1", "10.0.2.2", static_cast<std::uint16_t>(80 + i));
    ctx.src = proto::ResponseDict(attestation);
    batch.push_back(ctx);
  }
  const EngineStats before = engine.stats();
  const auto verdicts = engine.evaluate_batch(std::span<const FlowContext>(batch));
  const EngineStats after = engine.stats();
  for (const Verdict& v : verdicts) EXPECT_TRUE(v.allowed());
  // 16 distinct 5-tuples, one attestation: verify() runs once, 15 memo hits.
  EXPECT_EQ(after.functions_called - before.functions_called, 1u);
  EXPECT_EQ(after.hoist_memo_hits - before.hoist_memo_hits, 15u);
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.batch_flows - before.batch_flows, 16u);
}

TEST(BatchEval, PrePassGathersOnlyVerifyCallsTheirGatesAdmit) {
  // One verify() rule per vendor, each gated by eq(@src[vendor], vN): a
  // flow reaches only its own vendor's verify, so the batch pre-pass must
  // hand the preparer one attestation per flow, not one per vendor.
  constexpr int kVendors = 16;
  std::vector<crypto::PrivateKey> keys;
  std::string policy = "dict <pubkeys> {";
  for (int k = 0; k < kVendors; ++k) {
    keys.push_back(crypto::PrivateKey::from_seed("vendor-" + std::to_string(k)));
    policy += (k == 0 ? " v" : ", v") + std::to_string(k) + " : " +
              keys.back().public_key().to_hex();
  }
  policy += " }\nblock all\n";
  for (int k = 0; k < kVendors; ++k) {
    const std::string v = "v" + std::to_string(k);
    policy += "pass all with eq(@src[vendor], " + v + ") with verify(@src[sig], "
              "@pubkeys[" + v + "], @src[name], @src[version])\n";
  }
  const auto attested = [&keys](int vendor, const char* src) {
    proto::Section s;
    s.add("name", "curl");
    s.add("version", "210");
    s.add("vendor", "v" + std::to_string(vendor));
    s.add("sig", keys[static_cast<std::size_t>(vendor)]
                     .sign(proto::signed_message({"curl", "210"}))
                     .to_hex());
    proto::Response r;
    r.append_section(s);
    FlowContext ctx;
    ctx.flow = flow(src, "10.0.2.2");
    ctx.src = proto::ResponseDict(r);
    return ctx;
  };
  const std::vector<FlowContext> batch = {attested(3, "10.0.0.1"),
                                          attested(11, "10.0.0.2")};

  const PolicyEngine engine(parse(policy, "test"));
  const crypto::SchnorrVerifier& verifier = *engine.registry().verifier();
  const crypto::SchnorrVerifier::Stats before = verifier.stats();
  const auto verdicts = engine.evaluate_batch(std::span<const FlowContext>(batch));
  const crypto::SchnorrVerifier::Stats after = verifier.stats();
  for (const Verdict& v : verdicts) EXPECT_TRUE(v.allowed());
  EXPECT_EQ(after.memo_misses - before.memo_misses, 2u);
  EXPECT_EQ(after.batch_rejects - before.batch_rejects, 0u);
  expect_batch_matches_serial(engine, batch, "vendor-gated verify");
}

TEST(BatchEval, AllowedIsNeverHoisted) {
  // allowed() evaluates delegated rules against the current flow, so two
  // flows sharing the delegated text must still run it twice.
  const PolicyEngine engine(parse(
      "block all\npass all with allowed(@src[requirements])\n", "test"));
  proto::Response r;
  proto::Section s;
  s.add("requirements", "block all pass from 10.0.0.0/8 to any");
  r.append_section(s);
  std::vector<FlowContext> batch;
  for (const char* src : {"10.0.0.1", "9.9.9.9"}) {
    FlowContext ctx;
    ctx.flow = flow(src, "10.0.2.2");
    ctx.src = proto::ResponseDict(r);
    batch.push_back(ctx);
  }
  const EngineStats before = engine.stats();
  const auto verdicts = engine.evaluate_batch(std::span<const FlowContext>(batch));
  const EngineStats after = engine.stats();
  EXPECT_TRUE(verdicts[0].allowed());   // 10.0.0.1 passes the delegated rule
  EXPECT_FALSE(verdicts[1].allowed());  // 9.9.9.9 does not
  EXPECT_EQ(after.functions_called - before.functions_called, 2u);
  EXPECT_EQ(after.hoist_memo_hits - before.hoist_memo_hits, 0u);
}

TEST(BatchEval, OptInFlowInvariantUserFunctionIsHoisted) {
  FunctionRegistry registry = FunctionRegistry::with_builtins();
  int calls = 0;
  registry.register_function(
      "expensive",
      [&calls](const EvalContext&, const FuncCall&,
               const std::vector<Value>&) {
        ++calls;
        return true;
      },
      /*flow_invariant=*/true);
  const PolicyEngine engine(parse("block all\npass all with expensive(x)\n",
                                  "test"),
                            std::move(registry));
  std::vector<FlowContext> batch;
  for (const char* src : {"10.0.0.1", "10.0.0.2", "10.0.0.3"}) {
    FlowContext ctx;
    ctx.flow = flow(src, "10.0.2.2");
    batch.push_back(ctx);
  }
  const auto verdicts = engine.evaluate_batch(std::span<const FlowContext>(batch));
  for (const Verdict& v : verdicts) EXPECT_TRUE(v.allowed());
  EXPECT_EQ(calls, 1);  // literal args: one call, two memo hits

  // Without the opt-in the same function runs per flow.
  FunctionRegistry fresh = FunctionRegistry::with_builtins();
  int uncached = 0;
  fresh.register_function("expensive",
                          [&uncached](const EvalContext&, const FuncCall&,
                                      const std::vector<Value>&) {
                            ++uncached;
                            return true;
                          });
  const PolicyEngine engine2(parse("block all\npass all with expensive(x)\n",
                                   "test"),
                             std::move(fresh));
  (void)engine2.evaluate_batch(std::span<const FlowContext>(batch));
  EXPECT_EQ(uncached, 3);
}

TEST(BatchEval, UnknownTableThrowsExactlyLikeSerial) {
  // <nosuch> parses fine; serial evaluation throws PolicyError only when a
  // flow's scan actually visits the endpoint.  The batch path must not
  // throw at compile time and must throw at evaluation time.
  const PolicyEngine engine(parse(
      "block all\npass from <nosuch> to any\n", "test"));
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "10.0.2.2");
  EXPECT_THROW((void)engine.evaluate(ctx), PolicyError);
  const std::vector<FlowContext> batch{ctx};
  EXPECT_THROW((void)engine.evaluate_batch(std::span<const FlowContext>(batch)),
               PolicyError);
}

TEST(BatchEval, UnknownFunctionThrowsOnlyWhenReached) {
  const PolicyEngine engine(parse(
      "block all\npass from 10.0.0.0/8 to any with nosuch(x)\n", "test"));
  // A flow the prefilter excludes never reaches the call — no throw,
  // matching serial (endpoint mismatch short-circuits before the withs).
  FlowContext miss;
  miss.flow = flow("9.9.9.9", "10.0.2.2");
  const std::vector<FlowContext> misses{miss};
  EXPECT_NO_THROW({ EXPECT_FALSE(engine.evaluate(miss).allowed()); });
  EXPECT_NO_THROW((void)engine.evaluate_batch(
      std::span<const FlowContext>(misses)));
  // A flow that matches the endpoints reaches the call and throws, in
  // both modes.
  FlowContext hit;
  hit.flow = flow("10.0.0.1", "10.0.2.2");
  EXPECT_THROW((void)engine.evaluate(hit), PolicyError);
  const std::vector<FlowContext> hits{hit};
  EXPECT_THROW((void)engine.evaluate_batch(std::span<const FlowContext>(hits)),
               PolicyError);
}

TEST(BatchEval, OpenFlowOnlyKeysStayUndefinedWithoutTenTuple) {
  const PolicyEngine engine(parse(
      "block all\npass all with eq(@flow[in_port], 3)\n", "test"));
  FlowContext without;
  without.flow = flow("10.0.0.1", "10.0.2.2");
  FlowContext with = without;
  net::TenTuple of;
  of.in_port = 3;
  with.openflow = of;
  const std::vector<FlowContext> batch{without, with};
  const auto verdicts = engine.evaluate_batch(std::span<const FlowContext>(batch));
  EXPECT_FALSE(verdicts[0].allowed());  // Undefined -> predicate false
  EXPECT_TRUE(verdicts[1].allowed());
  expect_batch_matches_serial(engine, batch, "openflow-only keys");
}

TEST(BatchEval, EmptyBatch) {
  const PolicyEngine engine(parse("block all\n", "test"));
  const std::vector<FlowContext> batch;
  EXPECT_TRUE(
      engine.evaluate_batch(std::span<const FlowContext>(batch)).empty());
}

}  // namespace
}  // namespace identxx::pf
