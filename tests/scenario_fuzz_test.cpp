// Seeded scenario fuzzer (DESIGN.md §10/§13): generate hundreds of random
// but well-formed scenario programs — random topologies, flow sets, traffic
// models, and mid-run control-plane churn, plain and raced — and check
// that the one-shard run (the paper's single controller) and every
// multi-shard run produce equivalent_to-equal results.  Any failure prints
// the seed and the generated program so the case can be replayed directly
// with identxx_sim / identxx_mc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace identxx {
namespace {

using core::Scenario;
using core::ScenarioOptions;
using core::ScenarioResult;

/// Deterministically generates one well-formed scenario program per seed.
/// Names are drawn from fixed-size pools so identity payload sizes stay
/// bounded; every flow references a declared launch and a listening port
/// roughly 3/4 of the time (closed-port flows exercise the block path).
class ScenarioGenerator {
 public:
  /// `raced_` draws from its own stream so the raced marking leaves every
  /// other generated line as it would be without it.
  explicit ScenarioGenerator(std::uint64_t seed)
      : rng_(seed), raced_(seed ^ 0x6a09e667f3bcc909ULL) {}

  [[nodiscard]] std::string generate() {
    std::string out;
    const std::uint32_t switches = 2 + pick(3);  // 2..4
    for (std::uint32_t s = 0; s < switches; ++s) {
      out += "switch s" + std::to_string(s) + "\n";
    }
    // A line backbone keeps every pair connected; extra chords sometimes
    // create equal-cost alternatives for the multipath runs.
    for (std::uint32_t s = 0; s + 1 < switches; ++s) {
      out += "link s" + std::to_string(s) + " s" + std::to_string(s + 1) +
             " " + std::to_string(5 + pick(20)) + "\n";
    }
    if (switches >= 3 && chance(2)) {
      out += "link s0 s" + std::to_string(switches - 1) + " " +
             std::to_string(5 + pick(20)) + "\n";
    }

    const std::uint32_t hosts = 3 + pick(4);  // 3..6
    static constexpr const char* kUsers[] = {"alice", "bobby", "carol",
                                             "david", "erica", "frank"};
    static constexpr const char* kGroups[] = {"staff", "admin", "guest"};
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const std::string name = "h" + std::to_string(h);
      out += "host " + name + " 10.0." + std::to_string(h / 200) + "." +
             std::to_string(1 + h % 200) + " s" + std::to_string(pick(switches)) +
             "\n";
      out += "user " + name + " " + kUsers[h % 6] + " " +
             kGroups[pick(3)] + "\n";
    }

    // Every host gets one client launch; the first two hosts also run
    // servers so there is always something to connect to.
    static constexpr std::uint16_t kPorts[] = {80, 443, 8080};
    std::vector<std::uint16_t> listen_ports;
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const std::string host = "h" + std::to_string(h);
      out += "launch c" + std::to_string(h) + " " + host + " " +
             kUsers[h % 6] + " /usr/bin/curl\n";
      if (h < 2) {
        const std::uint16_t port = kPorts[pick(3)];
        out += "launch d" + std::to_string(h) + " " + host + " " +
               kUsers[h % 6] + " /usr/sbin/httpd\n";
        out += "listen d" + std::to_string(h) + " " + std::to_string(port) +
               "\n";
        listen_ports.push_back(port);
      }
    }

    out += "policy begin\n";
    switch (pick(4)) {
      case 0:
        out += "pass from any to any\n";
        break;
      case 1:
        out += "block all\npass from any to any port 80\n";
        break;
      case 2:
        out += "block all\npass from any to any port 80\n"
               "pass from any to any port 443\n";
        break;
      default:
        out += "block all\npass from any to any with eq(@src[userID], " +
               std::string(kUsers[pick(6)]) + ")\n";
        break;
    }
    out += "policy end\n";

    const std::uint32_t flows = 2 + pick(5);  // 2..6
    for (std::uint32_t f = 0; f < flows; ++f) {
      const std::uint32_t src = pick(hosts);
      const std::uint32_t dst = pick(2);  // a server host
      const std::uint16_t port =
          chance(4) ? static_cast<std::uint16_t>(7000 + pick(100))  // closed
                    : listen_ports[dst % listen_ports.size()];
      out += "flow f" + std::to_string(f) + " c" + std::to_string(src) +
             " 10.0.0." + std::to_string(1 + dst) + " " +
             std::to_string(port) + "\n";
      switch (pick(5)) {
        case 0:
          out += "traffic f" + std::to_string(f) + " cbr packets=" +
                 std::to_string(2 + pick(15)) + " rate=" +
                 std::to_string(1000 + pick(30000)) + "\n";
          break;
        case 1:
          out += "traffic f" + std::to_string(f) + " onoff packets=" +
                 std::to_string(2 + pick(10)) + " rate=20000 on_us=" +
                 std::to_string(100 + pick(400)) + " off_us=" +
                 std::to_string(100 + pick(400)) + "\n";
          break;
        default:
          break;  // single-SYN flow
      }
    }

    // Control churn: plain ops fire on the global lane at a fixed virtual
    // time; one in three is raced into a decision's dispatch-to-commit
    // window instead.  A raced op arms on the first daemon response at or
    // after its time, and first-round responses arrive within ~250us, so
    // raced ops arm early or they would never fire.
    const std::uint32_t controls = pick(3);  // 0..2
    for (std::uint32_t c = 0; c < controls; ++c) {
      std::string at = std::to_string(200 + pick(1200));
      if (raced_.next_below(3) == 0) {
        at = std::to_string(raced_.next_below(250)) + " raced";
      }
      switch (pick(4)) {
        case 0:
          out += "control " + at + " revoke_all\n";
          break;
        case 1:
          out += "control " + at + " revoke_port " +
                 std::to_string(listen_ports[pick(static_cast<std::uint32_t>(
                     listen_ports.size()))]) + "\n";
          break;
        case 2:
          out += "control " + at + " set_policy \"block all\"\n";
          break;
        default:
          out += "control " + at + " set_multipath 2 " +
                 std::to_string(pick(100)) + "\n";
          break;
      }
    }

    out += "seed " + std::to_string(1 + pick(1000)) + "\n";
    return out;
  }

  /// A revocation storm (DESIGN.md §14): long-lived CBR flows while a
  /// burst of revoke_all / revoke_port ops rips entries out every few
  /// milliseconds, on a lossy/duplicating control plane with the full
  /// retry + degraded-cover ladder armed.
  [[nodiscard]] std::string generate_revocation_storm() {
    std::string out;
    const std::uint32_t switches = 2 + pick(2);  // 2..3
    for (std::uint32_t s = 0; s < switches; ++s) {
      out += "switch s" + std::to_string(s) + "\n";
    }
    for (std::uint32_t s = 0; s + 1 < switches; ++s) {
      out += "link s" + std::to_string(s) + " s" + std::to_string(s + 1) +
             " " + std::to_string(10 + pick(15)) + "\n";
    }
    static constexpr const char* kUsers[] = {"alice", "bobby", "carol",
                                             "david"};
    const std::uint32_t hosts = 3 + pick(2);  // 3..4
    for (std::uint32_t h = 0; h < hosts; ++h) {
      const std::string name = "h" + std::to_string(h);
      out += "host " + name + " 10.0.0." + std::to_string(1 + h) + " s" +
             std::to_string(pick(switches)) + "\n";
      out += "user " + name + " " + kUsers[h % 4] + " staff\n";
      out += "launch c" + std::to_string(h) + " " + name + " " +
             kUsers[h % 4] + " /usr/bin/curl\n";
    }
    out += "launch d0 h0 " + std::string(kUsers[0]) + " /usr/sbin/httpd\n";
    out += "listen d0 80\nlisten d0 443\n";
    out += "policy begin\nblock all\npass from any to any port 80\n"
           "pass from any to any port 443 with eq(@src[userID], " +
           std::string(kUsers[pick(4)]) + ")\npolicy end\n";

    static constexpr const char* kLoss[] = {"0.02", "0.05", "0.1"};
    out += "fault chan all loss=" + std::string(kLoss[pick(3)]) +
           " dup=" + std::string(kLoss[pick(3)]) + " delay_us=" +
           std::to_string(100 + pick(400)) + "\n";
    out += "fault retry max=" + std::to_string(1 + pick(3)) +
           " degraded_ttl_us=" + std::to_string(10000 + pick(20000)) + "\n";

    const std::uint32_t flows = 3 + pick(3);  // 3..5
    for (std::uint32_t f = 0; f < flows; ++f) {
      out += "flow f" + std::to_string(f) + " c" +
             std::to_string(pick(hosts)) + " 10.0.0.1 " +
             (chance(3) ? "443" : "80") + "\n";
      out += "traffic f" + std::to_string(f) + " cbr packets=" +
             std::to_string(16 + pick(32)) + " rate=" +
             std::to_string(1000 + pick(3000)) + "\n";
    }
    const std::uint32_t storm = 4 + pick(5);  // 4..8 revocations
    for (std::uint32_t c = 0; c < storm; ++c) {
      const std::string at = std::to_string(2000 + c * 3000 + pick(2000));
      switch (pick(3)) {
        case 0:
          out += "control " + at + " revoke_all\n";
          break;
        case 1:
          out += "control " + at + " revoke_port 80\n";
          break;
        default:
          out += "control " + at + " revoke_port 443\n";
          break;
      }
    }
    out += "seed " + std::to_string(1 + pick(1000)) + "\n";
    return out;
  }

  /// A key-rotation storm (DESIGN.md §14): a verify()-gated policy whose
  /// trusted group key rotates mid-run between the key the apps are signed
  /// with and one they are not, each rotation paired with a revoke_all so
  /// every flow re-decides under the new key.
  [[nodiscard]] std::string generate_key_rotation_storm() {
    const auto verify_policy = [](const std::string& key) {
      return "dict <pubkeys> { grp : $pubkey(" + key +
             ") } block all "
             "pass from any to any with allowed(@dst[requirements]) "
             "with verify(@dst[req-sig], @pubkeys[grp], @dst[exe-hash], "
             "@dst[app-name], @dst[requirements])";
    };
    std::string out;
    out += "switch s0\n";
    const bool two_switches = chance(2);
    if (two_switches) {
      out += "switch s1\nlink s0 s1 " + std::to_string(10 + pick(15)) + "\n";
    }
    out += "host a 10.1.0.1 s0\n";
    out += std::string("host b 10.1.0.2 ") + (two_switches ? "s1" : "s0") +
           "\n";
    out += "user a alice research\nuser b bob research\n";
    out += "launch app1 a alice /usr/bin/app\n";
    out += "launch app2 b bob /usr/bin/app\n";
    out += "signedapp a /usr/bin/app app key-v1 \"block all pass all with "
           "eq(@src[name], app)\"\n";
    out += "signedapp b /usr/bin/app app key-v1 \"block all pass all with "
           "eq(@src[name], app)\"\n";
    out += "listen app2 9000\n";
    out += "policy begin\n" + verify_policy("key-v1") + "\npolicy end\n";
    if (chance(2)) {
      out += "fault chan all loss=0.02 dup=0.02\n";
      out += "fault retry max=2 degraded_ttl_us=20000 probe_delay_us=" +
             std::to_string(30000 + pick(40000)) + "\n";
    }
    out += "flow f1 app1 10.1.0.2 9000\n";
    out += "traffic f1 cbr packets=" + std::to_string(32 + pick(48)) +
           " rate=" + std::to_string(800 + pick(1200)) + "\n";
    const std::uint32_t rotations = 2 + pick(3);  // 2..4
    for (std::uint32_t r = 0; r < rotations; ++r) {
      const std::string at = std::to_string(6000 + r * 9000 + pick(3000));
      const std::string key = (r % 2 == 0) ? "key-v2" : "key-v1";
      out += "control " + at + " set_policy \"" + verify_policy(key) + "\"\n";
      out += "control " + at + " revoke_all\n";
    }
    out += "seed " + std::to_string(1 + pick(1000)) + "\n";
    return out;
  }

  [[nodiscard]] ScenarioOptions options() {
    ScenarioOptions opts;
    if (chance(3)) opts.k_paths = 2;
    if (chance(4)) opts.queue_depth = 2 + pick(6);
    return opts;
  }

 private:
  [[nodiscard]] std::uint32_t pick(std::uint32_t bound) {
    return static_cast<std::uint32_t>(rng_.next_below(bound));
  }
  /// True one time in `denom`.
  [[nodiscard]] bool chance(std::uint32_t denom) { return pick(denom) == 0; }

  util::SplitMix64 rng_;
  util::SplitMix64 raced_;
};

/// The 1-vs-N sweep: the one-shard run is the reference and every
/// multi-shard run must be equivalent_to it.  Any divergence prints the
/// generated program so it can be replayed directly.
void expect_shard_invariant(const std::string& text, const ScenarioOptions& base,
                            std::uint64_t seed, const char* what) {
  const Scenario scenario = Scenario::parse(text);
  ScenarioOptions one_shard = base;
  one_shard.shards = 1;
  const ScenarioResult reference = scenario.run(one_shard);
  for (const std::uint32_t shards : {2u, 3u}) {
    ScenarioOptions sharded = base;
    sharded.shards = shards;
    const ScenarioResult result = scenario.run(sharded);
    ASSERT_TRUE(result.equivalent_to(reference))
        << what << " seed " << seed << ": 1 vs " << shards
        << "-shard results diverge; replay with\n"
        << "  identxx_sim --shards " << shards
        << (base.k_paths > 1 ? " --k-paths 2" : "")
        << (base.queue_depth > 0
                ? " --queue-depth " + std::to_string(base.queue_depth)
                : "")
        << " <file>\non this scenario:\n"
        << text;
  }
}

TEST(ScenarioFuzz, OneAndMultiShardRunsAreEquivalent) {
  // SCENARIO_FUZZ_SEEDS trims the sweep for quick local iteration.
  std::uint64_t seeds = 200;
  if (const char* env = std::getenv("SCENARIO_FUZZ_SEEDS")) {
    seeds = std::strtoull(env, nullptr, 10);
  }
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScenarioGenerator gen(seed);
    const std::string text = gen.generate();
    if (std::getenv("SCENARIO_FUZZ_PRINT") != nullptr) {
      std::fprintf(stderr, "=== seed %llu ===\n%s",
                   static_cast<unsigned long long>(seed), text.c_str());
    }
    expect_shard_invariant(text, gen.options(), seed, "scenario");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Number of storm seeds to sweep; SCENARIO_FUZZ_SEEDS trims this too
/// (capped at 40 so the storm sweeps stay a fraction of the main fuzzer).
[[nodiscard]] std::uint64_t storm_seed_count() {
  std::uint64_t seeds = 40;
  if (const char* env = std::getenv("SCENARIO_FUZZ_SEEDS")) {
    const std::uint64_t trimmed = std::strtoull(env, nullptr, 10);
    if (trimmed < seeds) seeds = trimmed;
  }
  return seeds;
}

TEST(ScenarioFuzz, RevocationStormRunsAreShardInvariant) {
  const std::uint64_t seeds = storm_seed_count();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("revocation storm seed " + std::to_string(seed));
    ScenarioGenerator gen(seed);
    const std::string text = gen.generate_revocation_storm();
    if (std::getenv("SCENARIO_FUZZ_PRINT") != nullptr) {
      std::fprintf(stderr, "=== revocation storm seed %llu ===\n%s",
                   static_cast<unsigned long long>(seed), text.c_str());
    }
    expect_shard_invariant(text, gen.options(), seed, "revocation storm");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ScenarioFuzz, KeyRotationStormRunsAreShardInvariant) {
  const std::uint64_t seeds = storm_seed_count();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("key-rotation storm seed " + std::to_string(seed));
    ScenarioGenerator gen(seed);
    const std::string text = gen.generate_key_rotation_storm();
    if (std::getenv("SCENARIO_FUZZ_PRINT") != nullptr) {
      std::fprintf(stderr, "=== key-rotation storm seed %llu ===\n%s",
                   static_cast<unsigned long long>(seed), text.c_str());
    }
    expect_shard_invariant(text, gen.options(), seed, "key-rotation storm");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace identxx
