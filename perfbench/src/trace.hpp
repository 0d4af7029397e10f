#pragma once

// Instrumentation the benchmark attaches at the library's public seams.
//
//   DecisionLog      — an AdmissionObserver recording every decision (flow,
//                      verdict, simulated setup latency).  Attached in every
//                      run: the audit log is a bounded ring, so percentiles
//                      taken from it could silently drop samples.
//   AdmissionTracer  — traced runs only: adds per-flow host-time spans from
//                      the flow's first packet-in to its decision.
//   TimedEngine      — traced runs only: a PolicyDecisionEngine installed
//                      per domain with replace_engine, timing every
//                      decide()/decide_many() call.
//   Capture          — traced runs only: a delivery tracer sampling switch
//                      10-tuples and response bodies, so
//                      layers without a seam can be timed by replaying the
//                      run's own inputs through their public functions.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "controller/admission.hpp"
#include "core/network.hpp"
#include "crypto/key_tier.hpp"
#include "crypto/schnorr.hpp"

namespace perfbench {

namespace ctrl = identxx::ctrl;
namespace net = identxx::net;

/// Host monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t wall_ns() noexcept;

struct DecisionEvent {
  net::FiveTuple flow;
  bool allowed = false;
  identxx::sim::SimTime setup_latency = 0;
};

class DecisionLog : public ctrl::AdmissionObserver {
 public:
  void on_decision(const ctrl::DecisionRecord& record,
                   const ctrl::AdmissionDecision& decision) override;
  [[nodiscard]] const std::vector<DecisionEvent>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<DecisionEvent> events_;
};

class AdmissionTracer final : public DecisionLog {
 public:
  explicit AdmissionTracer(const identxx::sim::Simulator& sim) : sim_(sim) {}

  void on_flow_seen(const net::FiveTuple& flow) override;
  void on_response_received(net::Ipv4Address responder) override;
  void on_decision(const ctrl::DecisionRecord& record,
                   const ctrl::AdmissionDecision& decision) override;
  /// Host microseconds from first packet-in to decision, per decision of
  /// a flow seen by this domain's admission path.
  [[nodiscard]] const std::vector<double>& admit_wall_us() const noexcept {
    return admit_wall_us_;
  }
  /// Most daemon responses this domain consumed within any one simulated
  /// second.
  [[nodiscard]] std::size_t peak_responses_per_second() const;

 private:
  const identxx::sim::Simulator& sim_;
  std::vector<identxx::sim::SimTime> responses_at_;  ///< non-decreasing
  std::unordered_map<net::FiveTuple, std::int64_t> seen_at_;
  std::vector<double> admit_wall_us_;
};

class TimedEngine final : public ctrl::PolicyDecisionEngine {
 public:
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  explicit TimedEngine(identxx::pf::Ruleset ruleset);

  ctrl::AdmissionDecision decide(const ctrl::AdmissionContext& ctx) override;
  std::vector<ctrl::AdmissionDecision> decide_many(
      const std::vector<const ctrl::AdmissionContext*>& batch) override;

  [[nodiscard]] std::uint64_t decide_calls() const noexcept {
    return decide_calls_;
  }
  [[nodiscard]] std::uint64_t decide_many_calls() const noexcept {
    return decide_many_calls_;
  }
  [[nodiscard]] std::uint64_t batched_flows() const noexcept {
    return batched_flows_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  // One domain's engine only ever runs on that domain's lane, one call at
  // a time (lanes are serial; waves are separated by barriers), so the
  // counters need no synchronization.
  bool inside_ = false;  ///< nested decide() from decide_many's fallback
  std::uint64_t decide_calls_ = 0;
  std::uint64_t decide_many_calls_ = 0;
  std::uint64_t batched_flows_ = 0;
  std::vector<Span> spans_;
};

struct Capture {
  struct Lookup {
    identxx::sim::NodeId sw = identxx::sim::kInvalidNode;
    net::TenTuple tuple;
    std::size_t bytes = 0;
  };
  std::uint64_t to_switch = 0;
  std::vector<Lookup> lookups;         ///< every kLookupStride-th arrival
  std::vector<std::string> responses;  ///< ident++ response bodies
};

/// Route every delivery of `net`'s simulator through `capture`.
void install_capture(identxx::core::Network& net, Capture& capture);

/// Mean nanoseconds per proto::Response::parse over the captured bodies.
[[nodiscard]] double time_response_parse_ns(
    const std::vector<std::string>& bodies);

/// Mean nanoseconds per FlowTable::lookup, replaying the sampled arrivals
/// against the switches' final tables.  Call after every counter has been
/// read: lookups update table statistics.
[[nodiscard]] double time_table_lookup_ns(
    identxx::core::Network& net, const std::vector<Capture::Lookup>& lookups);

/// One attestation as the policy's verify() sees it.
struct Attest {
  identxx::crypto::PublicKey key;
  std::string message;
  identxx::crypto::Signature sig;
};

struct VerifyTiming {
  double ns_1t = 0.0;  ///< mean per verify, one thread
  double ns_4t = 0.0;  ///< mean per verify, four concurrent threads
};

/// Time SchnorrVerifier::verify over `items` on fresh verifiers built like
/// a domain's (same registered keys and tier budget; memo cold), on one
/// thread and on four threads each with its own verifier.
[[nodiscard]] VerifyTiming time_verify(
    const std::vector<Attest>& items,
    const std::vector<identxx::crypto::PublicKey>& registered,
    std::size_t table_budget_bytes);

}  // namespace perfbench
