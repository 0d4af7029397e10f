#pragma once

// Seeded workload generator for the end-to-end admission benchmark.
//
// A workload is plain data: topology, hosts, signed applications, flows
// with their expected verdicts, control-plane storms and faults.  It is a
// pure function of (workload, seed, scale); the library under test only
// ever sees what the rig (rig.hpp) builds from it.  Keys are named by
// seed strings here and derived, with every signature, during set-up.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"

namespace perfbench {

using identxx::sim::SimTime;

enum class WorkloadKind { kAttestFleet, kRevokeChurn, kHostileLossy };

[[nodiscard]] std::optional<WorkloadKind> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(WorkloadKind kind);

/// `kFull` is what the benchmark measures; `kSmall` keeps every mechanism
/// but shrinks counts so tests can run each workload in well under a
/// second.
enum class Scale { kFull, kSmall };

/// How an application's req-sig relates to its vendor's registered key.
enum class Attestation : std::uint8_t {
  kValid,     ///< the vendor signed (exe-hash, name, requirements)
  kForged,    ///< the vendor's key signed a different message
  kWrongKey,  ///< a key outside the policy signed, claiming the vendor
};

struct AppSpec {
  std::string exe;   ///< fixed width, so daemon responses have equal size
  std::string name;
  std::uint32_t vendor = 0;
  Attestation kind = Attestation::kValid;
  bool operator==(const AppSpec&) const = default;
};

struct HostSpec {
  std::string name;
  std::string ip;
  std::uint32_t attach = 0;  ///< switch index
  SimTime latency = 0;       ///< access-link latency
  std::string user;
  std::string group;
  std::vector<AppSpec> apps;          ///< clients: signed applications
  std::vector<std::uint16_t> listen;  ///< servers: listening ports
  bool operator==(const HostSpec&) const = default;
};

struct LinkSpec {
  std::uint32_t a = 0;  ///< switch indices
  std::uint32_t b = 0;
  SimTime latency = 0;
  bool operator==(const LinkSpec&) const = default;
};

/// One operation: a connection whose admission the generator predicts.
struct FlowSpec {
  std::uint32_t client = 0;
  std::uint32_t app = 0;     ///< index into the client's apps
  std::uint32_t server = 0;
  std::uint16_t port = 0;
  std::uint32_t round = 0;   ///< closed loop: the round that opens it
  SimTime start = 0;         ///< open loop: when the first packet leaves
  std::uint64_t packets = 1; ///< payload packets including the SYN
  std::uint64_t rate_pps = 0;
  bool expect_allowed = false;
  /// Presents a forged or wrong-key attestation: any admission at all is
  /// a failure, even if a later decision blocks the flow.
  bool hostile = false;
  bool operator==(const FlowSpec&) const = default;
};

/// A control-plane storm: revoke_all (port 0) or revoke of one port.
struct ControlOp {
  SimTime at = 0;
  std::uint16_t port = 0;
  bool operator==(const ControlOp&) const = default;
};

/// A daemon that stops answering between `down` and `up`.
struct Outage {
  bool server = false;
  std::uint32_t host = 0;  ///< index into clients or servers
  SimTime down = 0;
  SimTime up = 0;
  bool operator==(const Outage&) const = default;
};

struct Inputs {
  WorkloadKind kind = WorkloadKind::kAttestFleet;
  std::uint64_t seed = 0;
  Scale scale = Scale::kFull;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  /// Simulated length of one timed slice of the run (see RepResult).
  SimTime slice = identxx::sim::kMillisecond;
  /// Host seconds one repetition took on the development host.  An
  /// untraced run makes --seconds / rep_s repetitions, a count that does
  /// not depend on how fast the code under test is.
  double rep_s = 1.0;

  std::vector<std::string> switches;
  std::vector<LinkSpec> links;
  std::uint32_t k_paths = 1;
  std::vector<HostSpec> clients;
  std::vector<HostSpec> servers;

  /// Vendor signing keys registered in the policy (one verify rule each).
  std::uint32_t vendors = 1;
  std::vector<FlowSpec> flows;
  std::uint32_t rounds = 1;  ///< closed loop only (attest_fleet)
  std::vector<ControlOp> controls;
  std::vector<Outage> outages;
  /// Seeded faults on every switch's control channel (all zero: none).
  double chan_loss = 0.0;
  double chan_dup = 0.0;
  SimTime chan_delay = 0;

  // Controller knobs the workload sets (everything else is default).
  SimTime query_timeout = 50 * identxx::sim::kMillisecond;
  std::uint32_t max_query_retries = 0;
  SimTime retry_jitter = 0;
  SimTime degraded_cover_ttl = 0;
  SimTime readmission_probe_delay = 100 * identxx::sim::kMillisecond;
  std::uint32_t max_readmission_probes = 3;
  /// Verifier table budget in hot (comb) and warm (GLV) tables; 0/0 keeps
  /// the library default.
  std::uint32_t hot_tables = 0;
  std::uint32_t warm_tables = 0;

  bool operator==(const Inputs&) const = default;

  /// FNV-1a digest over every field: equal inputs, equal digest.
  [[nodiscard]] std::uint64_t digest() const;
};

/// FNV-1a, for the inputs digest and the run's deterministic digest.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] Inputs generate(WorkloadKind kind, std::uint64_t seed,
                              Scale scale = Scale::kFull);

/// Seed string for vendor key `k`, and for the key outside the policy.
[[nodiscard]] std::string vendor_key_seed(std::uint64_t seed, std::uint32_t k);
[[nodiscard]] std::string rogue_key_seed(std::uint64_t seed);

}  // namespace perfbench
