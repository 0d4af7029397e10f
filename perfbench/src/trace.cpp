#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "crypto/verifier.hpp"
#include "identxx/wire.hpp"
#include "pf/functions.hpp"

namespace perfbench {

namespace {

/// Sample one switch arrival in this many for the lookup replay, and cap
/// the samples kept, so capture memory stays small on long runs.
constexpr std::uint64_t kLookupStride = 8;
constexpr std::size_t kMaxLookups = 1 << 16;
constexpr std::size_t kMaxResponses = 1 << 13;

/// Each replay repeats its pass until at least this much host time was
/// measured, so a small captured set still yields a stable mean.
constexpr std::int64_t kMinReplayNs = 50'000'000;

}  // namespace

std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void DecisionLog::on_decision(const ctrl::DecisionRecord& record,
                              const ctrl::AdmissionDecision&) {
  events_.push_back({record.flow, record.allowed, record.setup_latency});
}

void AdmissionTracer::on_flow_seen(const net::FiveTuple& flow) {
  seen_at_[flow] = wall_ns();
}

void AdmissionTracer::on_response_received(net::Ipv4Address) {
  responses_at_.push_back(sim_.now());
}

std::size_t AdmissionTracer::peak_responses_per_second() const {
  std::size_t peak = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < responses_at_.size(); ++hi) {
    while (responses_at_[hi] - responses_at_[lo] >= identxx::sim::kSecond) ++lo;
    peak = std::max(peak, hi - lo + 1);
  }
  return peak;
}

void AdmissionTracer::on_decision(const ctrl::DecisionRecord& record,
                                  const ctrl::AdmissionDecision& decision) {
  DecisionLog::on_decision(record, decision);
  const auto it = seen_at_.find(record.flow);
  if (it == seen_at_.end()) return;
  admit_wall_us_.push_back(static_cast<double>(wall_ns() - it->second) / 1e3);
  seen_at_.erase(it);
}

TimedEngine::TimedEngine(identxx::pf::Ruleset ruleset)
    : PolicyDecisionEngine(std::move(ruleset),
                           identxx::pf::FunctionRegistry::with_builtins()) {}

ctrl::AdmissionDecision TimedEngine::decide(const ctrl::AdmissionContext& ctx) {
  if (inside_) return PolicyDecisionEngine::decide(ctx);
  inside_ = true;
  const std::int64_t start = wall_ns();
  ctrl::AdmissionDecision decision = PolicyDecisionEngine::decide(ctx);
  spans_.push_back({start, wall_ns()});
  inside_ = false;
  ++decide_calls_;
  return decision;
}

std::vector<ctrl::AdmissionDecision> TimedEngine::decide_many(
    const std::vector<const ctrl::AdmissionContext*>& batch) {
  inside_ = true;
  const std::int64_t start = wall_ns();
  std::vector<ctrl::AdmissionDecision> decisions =
      PolicyDecisionEngine::decide_many(batch);
  spans_.push_back({start, wall_ns()});
  inside_ = false;
  ++decide_many_calls_;
  batched_flows_ += batch.size();
  return decisions;
}

void install_capture(identxx::core::Network& net, Capture& capture) {
  const identxx::openflow::Topology* topology = &net.topology();
  net.simulator().set_delivery_tracer(
      [topology, &capture](identxx::sim::SimTime, identxx::sim::NodeId from,
                           identxx::sim::PortId, identxx::sim::NodeId to,
                           identxx::sim::PortId to_port,
                           const net::Packet& packet) {
        if (!topology->is_switch(to)) return;
        if (capture.to_switch++ % kLookupStride == 0 &&
            capture.lookups.size() < kMaxLookups) {
          capture.lookups.push_back(
              {to, packet.ten_tuple(to_port), packet.payload.size()});
        }
        if (!topology->is_switch(from) &&
            packet.src_port() == identxx::proto::kIdentPort &&
            capture.responses.size() < kMaxResponses) {
          capture.responses.push_back(packet.payload_text());
        }
      });
}

double time_response_parse_ns(const std::vector<std::string>& bodies) {
  if (bodies.empty()) return 0.0;
  std::uint64_t parsed = 0;
  std::size_t sections = 0;
  const std::int64_t start = wall_ns();
  std::int64_t elapsed = 0;
  do {
    for (const std::string& body : bodies) {
      sections += identxx::proto::Response::parse(body).sections.size();
    }
    parsed += bodies.size();
    elapsed = wall_ns() - start;
  } while (elapsed < kMinReplayNs);
  // Keep the parse results observable so the loop is not optimized out.
  if (sections == 0) return -1.0;
  return static_cast<double>(elapsed) / static_cast<double>(parsed);
}

double time_table_lookup_ns(identxx::core::Network& net,
                            const std::vector<Capture::Lookup>& lookups) {
  if (lookups.empty()) return 0.0;
  const identxx::sim::SimTime now = net.simulator().now();
  std::uint64_t done = 0;
  std::uint64_t hits = 0;
  const std::int64_t start = wall_ns();
  std::int64_t elapsed = 0;
  do {
    for (const Capture::Lookup& l : lookups) {
      hits += net.switch_at(l.sw).table().lookup(l.tuple, now, l.bytes) !=
              nullptr;
    }
    done += lookups.size();
    elapsed = wall_ns() - start;
  } while (elapsed < kMinReplayNs);
  if (hits > done) return -1.0;  // unreachable; keeps `hits` observable
  return static_cast<double>(elapsed) / static_cast<double>(done);
}

namespace {

identxx::crypto::SchnorrVerifier make_verifier(
    const std::vector<identxx::crypto::PublicKey>& registered,
    std::size_t table_budget_bytes) {
  identxx::crypto::KeyTierConfig tiers;
  if (table_budget_bytes > 0) tiers.table_budget_bytes = table_budget_bytes;
  identxx::crypto::SchnorrVerifier verifier(
      identxx::crypto::SchnorrVerifier::kDefaultMemoCapacity, tiers);
  for (const auto& key : registered) verifier.register_key(key);
  return verifier;
}

/// Verify `items` in passes on fresh verifiers (set-up untimed) until
/// kMinReplayNs of verification was measured; mean ns per verify.
double verify_passes(const std::vector<Attest>& items,
                     const std::vector<identxx::crypto::PublicKey>& registered,
                     std::size_t table_budget_bytes) {
  std::int64_t timed = 0;
  std::uint64_t verified = 0;
  std::uint64_t accepted = 0;
  for (int pass = 0; pass < 1000 && timed < kMinReplayNs; ++pass) {
    auto verifier = make_verifier(registered, table_budget_bytes);
    const std::int64_t start = wall_ns();
    for (const Attest& a : items) {
      accepted += verifier.verify(a.key, a.message, a.sig) ? 1 : 0;
    }
    timed += wall_ns() - start;
    verified += items.size();
  }
  if (accepted > verified) return -1.0;  // unreachable; keeps it observable
  return static_cast<double>(timed) / static_cast<double>(verified);
}

}  // namespace

VerifyTiming time_verify(
    const std::vector<Attest>& items,
    const std::vector<identxx::crypto::PublicKey>& registered,
    std::size_t table_budget_bytes) {
  VerifyTiming timing;
  if (items.empty()) return timing;
  timing.ns_1t = verify_passes(items, registered, table_budget_bytes);
  constexpr int kThreads = 4;
  std::vector<double> per_thread(kThreads, 0.0);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        per_thread[t] = verify_passes(items, registered, table_budget_bytes);
      });
    }
  }
  double sum = 0.0;
  for (const double ns : per_thread) sum += ns;
  timing.ns_4t = sum / kThreads;
  return timing;
}

}  // namespace perfbench
