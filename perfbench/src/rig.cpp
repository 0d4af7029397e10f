#include "rig.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/network.hpp"
#include "crypto/key_tier.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/verifier.hpp"
#include "identxx/daemon_config.hpp"
#include "identxx/keys.hpp"
#include "net/traffic/traffic.hpp"
#include "pf/parser.hpp"
#include "sim/fault.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace core = identxx::core;
namespace crypto = identxx::crypto;
namespace host = identxx::host;
namespace proto = identxx::proto;
namespace sim = identxx::sim;

constexpr std::size_t kMaxFailureNotes = 5;
/// Attestation replay cap: enough distinct signatures for a stable mean.
constexpr std::size_t kMaxReplayAttests = 1024;
constexpr char kRequirements[] = "pass from any to any port 443";

std::string vendor_label(std::uint32_t k) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "v%02u", k);
  return buf;
}

/// One verify() rule per vendor, gated on the claimed vendor, so a flow
/// pays one verification rather than one per vendor.
std::string vendor_rule(std::uint16_t port, const std::string& gate,
                        std::uint32_t vendor) {
  const std::string v = vendor_label(vendor);
  return "pass from any to any port " + std::to_string(port) + " with " +
         gate + "eq(@src[vendor], " + v + ") with verify(@src[req-sig], " +
         "@pubkeys[" + v + "], @src[exe-hash], @src[app-name], " +
         "@src[requirements])\n";
}

void add_stats(Fnv& f, const ctrl::ControllerStats& s) {
  for (const std::uint64_t v :
       {s.packet_ins, s.flows_seen, s.flows_allowed, s.flows_blocked,
        s.queries_sent, s.responses_received, s.query_timeouts,
        s.entries_installed, s.buffered_packets_released,
        s.ident_transit_forwarded, s.responses_augmented, s.queries_proxied,
        s.flows_expired, s.flows_logged, s.decision_cache_hits,
        s.query_retries, s.duplicate_responses, s.degraded_verdicts}) {
    f.add(v);
  }
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

class Rig {
 public:
  Rig(const Inputs& in, const RunOptions& options);
  /// The timed phase; returns the wall seconds of each slice.
  std::vector<double> drive();
  RepResult collect(double setup_s, double timed_s);

 private:
  void build_hosts();
  std::string sign_apps();
  void install_controller(const std::string& policy);
  void schedule();
  void start_flow(std::size_t i);
  void check_flows(RepResult& out);
  void fill_layers(RepResult& out, double timed_s);
  /// Payload packets flow `i` emitted, its SYN included.
  [[nodiscard]] std::uint64_t sent(std::size_t i) const {
    return traffic_[i] ? traffic_[i]->stats().packets_sent : 1;
  }

  const Inputs& in_;
  RunOptions options_;
  Capture capture_;  ///< outlives the network whose tracer writes it
  core::Network net_;
  std::vector<sim::NodeId> switches_;
  std::vector<host::Host*> clients_;
  std::vector<host::Host*> servers_;
  std::vector<std::vector<int>> pids_;  ///< per client, per app
  std::vector<crypto::PublicKey> vendor_keys_;
  std::vector<Attest> attests_;  ///< distinct attestations presented
  std::size_t table_budget_ = 0;
  ctrl::ShardedAdmissionController* controller_ = nullptr;
  std::vector<const DecisionLog*> logs_;   ///< owned by the domains
  std::vector<const AdmissionTracer*> tracers_;
  std::vector<const TimedEngine*> engines_;
  std::vector<net::FiveTuple> tuples_;
  std::vector<bool> started_;
  std::vector<std::unique_ptr<identxx::net::traffic::FlowDriver>> traffic_;
  std::vector<std::uint64_t> delivered_;  ///< per flow, set by check_flows
};

Rig::Rig(const Inputs& in, const RunOptions& options)
    : in_(in), options_(options) {
  for (const std::string& name : in_.switches) {
    switches_.push_back(net_.add_switch(name));
  }
  for (const LinkSpec& l : in_.links) {
    net_.link(switches_.at(l.a), switches_.at(l.b), l.latency);
  }
  build_hosts();
  const sim::ChannelFaultSpec fault{in_.chan_loss, in_.chan_dup,
                                    in_.chan_delay};
  if (fault.active()) {
    for (std::size_t i = 0; i < switches_.size(); ++i) {
      net_.switch_at(switches_[i])
          .set_control_fault(fault,
                             sim::fault_stream_seed(in_.seed, in_.switches[i]));
    }
  }
  if (in_.k_paths > 1) net_.topology().set_multipath(in_.k_paths, in_.seed);
  install_controller(sign_apps());
  schedule();
  tuples_.resize(in_.flows.size());
  started_.assign(in_.flows.size(), false);
  traffic_.resize(in_.flows.size());
}

void Rig::build_hosts() {
  const auto place = [this](const HostSpec& spec) {
    host::Host& h = net_.add_host(spec.name, spec.ip);
    net_.link(h, switches_.at(spec.attach), spec.latency);
    h.add_user(spec.user, spec.group);
    return &h;
  };
  for (const HostSpec& spec : in_.servers) {
    host::Host* h = place(spec);
    const int pid = h->launch(spec.user, "/usr/sbin/httpd");
    for (const std::uint16_t port : spec.listen) h->listen(pid, port);
    servers_.push_back(h);
  }
  for (const HostSpec& spec : in_.clients) {
    host::Host* h = place(spec);
    std::vector<int> pids;
    for (const AppSpec& app : spec.apps) {
      pids.push_back(h->launch(spec.user, app.exe));
    }
    pids_.push_back(std::move(pids));
    clients_.push_back(h);
  }
}

/// Derive the vendor keys, sign every application's attestation and load
/// it into its host's daemon; returns the policy text.
std::string Rig::sign_apps() {
  std::vector<crypto::PrivateKey> vendors;
  for (std::uint32_t k = 0; k < in_.vendors; ++k) {
    vendors.push_back(crypto::PrivateKey::from_seed(vendor_key_seed(in_.seed, k)));
    vendor_keys_.push_back(vendors.back().public_key());
  }
  const crypto::PrivateKey rogue =
      crypto::PrivateKey::from_seed(rogue_key_seed(in_.seed));

  // Identical applications (revoke_churn's shared agent) sign once.
  std::unordered_map<std::string, std::string> signed_hex;
  for (std::size_t c = 0; c < in_.clients.size(); ++c) {
    proto::DaemonConfig config;
    for (const AppSpec& app : in_.clients[c].apps) {
      const std::string exe_hash = host::Host::image_hash(app.exe, "");
      const std::string message =
          proto::signed_message({exe_hash, app.name, kRequirements});
      const std::string id = app.exe + '\n' + app.name + '\n' +
                             std::to_string(app.vendor) + '\n' +
                             std::to_string(static_cast<int>(app.kind));
      auto it = signed_hex.find(id);
      if (it == signed_hex.end()) {
        crypto::Signature sig;
        switch (app.kind) {
          case Attestation::kValid:
            sig = vendors.at(app.vendor).sign(message);
            break;
          case Attestation::kForged:
            sig = vendors.at(app.vendor).sign(message + " tampered");
            break;
          case Attestation::kWrongKey:
            sig = rogue.sign(message);
            break;
        }
        it = signed_hex.emplace(id, sig.to_hex()).first;
        if (attests_.size() < kMaxReplayAttests) {
          attests_.push_back({vendor_keys_.at(app.vendor), message, sig});
        }
      }
      proto::AppConfig entry;
      entry.exe_path = app.exe;
      entry.pairs = {{proto::keys::kName, app.name},
                     {proto::keys::kVendor, vendor_label(app.vendor)},
                     {proto::keys::kRequirements, kRequirements},
                     {proto::keys::kReqSig, it->second}};
      config.apps.push_back(std::move(entry));
    }
    clients_[c]->daemon().add_config(proto::ConfigTrust::kUser, config);
  }

  std::string policy = "dict <pubkeys> {";
  for (std::uint32_t k = 0; k < in_.vendors; ++k) {
    policy += (k == 0 ? " " : ", ") + vendor_label(k) + " : " +
              vendor_keys_[k].to_hex();
  }
  policy += " }\nblock all\n";
  if (in_.kind == WorkloadKind::kRevokeChurn) {
    // Identity decides; the shared attestation is verified too.
    for (const std::uint16_t port : {80, 443}) {
      policy += vendor_rule(port, "eq(@src[groupID], staff) with ", 0);
    }
  } else {
    for (std::uint32_t k = 0; k < in_.vendors; ++k) {
      policy += vendor_rule(443, "", k);
    }
  }
  return policy;
}

void Rig::install_controller(const std::string& policy) {
  ctrl::ControllerConfig config;
  config.name = "perfbench";
  config.query_timeout = in_.query_timeout;
  config.max_query_retries = in_.max_query_retries;
  config.retry_jitter = in_.retry_jitter;
  config.retry_jitter_seed = in_.seed ^ 0x2545f4914f6cdd1dULL;
  config.degraded_cover_ttl = in_.degraded_cover_ttl;
  config.readmission_probe_delay = in_.readmission_probe_delay;
  config.max_readmission_probes = in_.max_readmission_probes;
  if (in_.hot_tables + in_.warm_tables > 0) {
    config.key_table_budget_bytes =
        in_.hot_tables * crypto::KeyTierStore::hot_table_bytes() +
        in_.warm_tables * crypto::KeyTierStore::warm_table_bytes();
  }
  table_budget_ = config.key_table_budget_bytes;
  controller_ = &net_.install_sharded_controller(policy, in_.shards,
                                                 options_.workers, config);
  controller_->seed_query_ports(in_.seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::uint32_t d = 0; d < controller_->shard_count(); ++d) {
    ctrl::IdentxxController& domain = controller_->domain(d);
    if (options_.trace) {
      auto engine = std::make_unique<TimedEngine>(
          identxx::pf::parse(policy, config.name));
      engines_.push_back(engine.get());
      domain.replace_engine(std::move(engine));
      auto tracer = std::make_unique<AdmissionTracer>(net_.simulator());
      tracers_.push_back(tracer.get());
      logs_.push_back(tracer.get());
      domain.add_observer(std::move(tracer));
    } else {
      auto log = std::make_unique<DecisionLog>();
      logs_.push_back(log.get());
      domain.add_observer(std::move(log));
    }
  }
  if (options_.trace) install_capture(net_, capture_);
}

void Rig::schedule() {
  sim::Simulator& s = net_.simulator();
  for (const ControlOp& op : in_.controls) {
    s.schedule_at(op.at, [this, port = op.port] {
      if (port == 0) {
        (void)controller_->revoke_all();
      } else {
        (void)controller_->revoke_if([port](const net::FiveTuple& flow) {
          return flow.dst_port == port;
        });
      }
    });
  }
  for (const Outage& o : in_.outages) {
    host::Host* h = o.server ? servers_.at(o.host) : clients_.at(o.host);
    s.schedule_at(o.down, [h] { h->set_daemon_enabled(false); });
    s.schedule_at(o.up, [h] { h->set_daemon_enabled(true); });
  }
  if (in_.kind == WorkloadKind::kAttestFleet) return;  // closed loop
  for (std::size_t i = 0; i < in_.flows.size(); ++i) {
    s.schedule_at(in_.flows[i].start, [this, i] { start_flow(i); });
  }
}

void Rig::start_flow(std::size_t i) {
  const FlowSpec& f = in_.flows[i];
  host::Host& client = *clients_.at(f.client);
  host::Host& server = *servers_.at(f.server);
  const net::FiveTuple tuple =
      client.connect_flow(pids_.at(f.client).at(f.app), server.ip(), f.port);
  tuples_[i] = tuple;
  started_[i] = true;
  client.send_flow_packet(tuple);
  if (f.packets > 1) {
    identxx::net::traffic::TrafficSpec spec;
    spec.model = identxx::net::traffic::Model::kCbr;
    spec.packets = f.packets;
    spec.rate_pps = f.rate_pps;
    spec.payload_bytes = 64;
    traffic_[i] = std::make_unique<identxx::net::traffic::FlowDriver>(
        net_.simulator(), client, server, tuple, spec, in_.seed + i);
    traffic_[i]->start();
  }
}

std::vector<double> Rig::drive() {
  std::vector<double> slices;
  sim::Simulator& s = net_.simulator();
  // Run to quiescence in slices of simulated time, timing each.  Slice
  // boundaries depend only on event times, so every repetition of a run
  // cuts identical slices of identical work.  Empty slices double the
  // step, so long idle gaps (query-timeout timers) cost a few slices.
  const auto run_sliced = [&] {
    SimTime step = in_.slice;
    SimTime deadline = s.now() + step;
    while (!s.idle()) {
      const std::int64_t start = wall_ns();
      const std::uint64_t executed = s.run(deadline);
      slices.push_back(static_cast<double>(wall_ns() - start) / 1e9);
      step = executed == 0 ? step * 2 : in_.slice;
      deadline += step;
    }
  };
  if (in_.kind != WorkloadKind::kAttestFleet) {
    run_sliced();
    return slices;
  }
  // Closed loop: a round's connections all open, then the round runs to
  // quiescence before the next one starts.
  std::size_t i = 0;
  for (std::uint32_t r = 0; r < in_.rounds; ++r) {
    for (; i < in_.flows.size() && in_.flows[i].round == r; ++i) start_flow(i);
    run_sliced();
  }
  return slices;
}

void Rig::check_flows(RepResult& out) {
  std::unordered_map<net::FiveTuple, std::size_t> index;
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    if (started_[i]) index.emplace(tuples_[i], i);
  }
  std::vector<std::uint32_t> decisions(in_.flows.size(), 0);
  std::vector<bool> final_allowed(in_.flows.size(), false);
  std::vector<bool> ever_allowed(in_.flows.size(), false);
  const auto fail = [&out](std::string note) {
    ++out.failed;
    if (out.failures.size() < kMaxFailureNotes) {
      out.failures.push_back(std::move(note));
    }
  };
  for (const DecisionLog* log : logs_) {
    // A flow belongs to one domain, so its decisions appear in commit
    // order within that domain's log.
    for (const DecisionEvent& e : log->events()) {
      ++out.decisions;
      out.vsetup_us.push_back(static_cast<double>(e.setup_latency) / 1e3);
      const auto it = index.find(e.flow);
      if (it == index.end()) {
        fail("decision for a flow the generator never opened: " +
             e.flow.to_string());
        continue;
      }
      ++decisions[it->second];
      final_allowed[it->second] = e.allowed;
      if (e.allowed) ever_allowed[it->second] = true;
    }
  }

  // Distinct payload packets delivered per flow: a channel-duplicated
  // packet-in releases its buffered packet twice, so count sequence
  // numbers, not deliveries.
  std::unordered_map<net::FiveTuple, std::unordered_set<std::uint32_t>> seqs;
  for (const host::Host* server : servers_) {
    for (const net::Packet& p : server->delivered()) {
      seqs[p.five_tuple()].insert(p.tcp ? p.tcp->seq : p.ip.identification);
    }
  }
  delivered_.assign(in_.flows.size(), 0);
  for (std::size_t i = 0; i < in_.flows.size(); ++i) {
    if (const auto it = seqs.find(tuples_[i]); it != seqs.end()) {
      delivered_[i] = it->second.size();
    }
  }
  for (std::size_t i = 0; i < in_.flows.size(); ++i) {
    const FlowSpec& f = in_.flows[i];
    ++out.attempted;
    if (!started_[i]) {
      fail("flow " + std::to_string(i) + " never started");
      continue;
    }
    if (decisions[i] == 0) {
      fail("no verdict: " + tuples_[i].to_string());
    } else if (final_allowed[i] != f.expect_allowed) {
      fail(std::string("final verdict ") +
           (final_allowed[i] ? "pass" : "block") + ", expected " +
           (f.expect_allowed ? "pass" : "block") + ": " +
           tuples_[i].to_string());
    } else if (f.hostile && ever_allowed[i]) {
      fail("hostile attestation admitted: " + tuples_[i].to_string());
    }
    if (f.expect_allowed) {
      out.payload_sent += sent(i);
      out.payload_delivered += delivered_[i];
    }
  }

  Fnv f;
  for (std::size_t i = 0; i < in_.flows.size(); ++i) {
    f.add(decisions[i]);
    f.add(final_allowed[i] ? 1 : 0);
    f.add(delivered_[i]);
  }
  add_stats(f, out.stats);
  for (const ctrl::DecisionRecord& r : controller_->merged_audit_log()) {
    f.add(static_cast<std::uint64_t>(r.time));
    f.add(r.flow.to_string());
    f.add((r.allowed ? 1u : 0u) | (r.timed_out ? 2u : 0u) |
          (r.degraded ? 4u : 0u) | (r.logged ? 8u : 0u));
    f.add(r.rule);
    f.add(r.src_user);
    f.add(r.src_app);
    f.add(r.dst_user);
    f.add(static_cast<std::uint64_t>(r.setup_latency));
  }
  std::vector<double> sorted = out.vsetup_us;
  std::sort(sorted.begin(), sorted.end());
  for (const double v : sorted) f.add(static_cast<std::uint64_t>(v * 1e3));
  f.add(out.payload_sent);
  f.add(out.payload_delivered);
  out.digest = f.value();
}

RepResult Rig::collect(double setup_s, double timed_s) {
  RepResult out;
  out.setup_s = setup_s;
  out.timed_s = timed_s;
  out.stats = controller_->aggregated_stats();
  for (std::uint32_t d = 0; d < controller_->shard_count(); ++d) {
    out.audit_dropped += controller_->domain(d).audit_dropped();
  }
  check_flows(out);
  if (options_.trace) fill_layers(out, timed_s);
  return out;
}

/// Total length of the union of `spans` — host time during which at least
/// one domain was inside the decision engine.
double union_seconds(std::vector<TimedEngine::Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& s : spans) {
    if (s.start > cur_end) {
      if (cur_end >= 0) total += cur_end - cur_start;
      cur_start = s.start;
      cur_end = s.end;
    } else {
      cur_end = std::max(cur_end, s.end);
    }
  }
  if (cur_end >= 0) total += cur_end - cur_start;
  return static_cast<double>(total) / 1e9;
}

void Rig::fill_layers(RepResult& out, double timed_s) {
  Metrics& m = out.layers;
  const ctrl::ControllerStats& s = out.stats;

  identxx::openflow::TableStats table;
  identxx::openflow::SwitchStats sw;
  for (const sim::NodeId id : switches_) {
    const auto& t = net_.switch_at(id).table().stats();
    table.lookups += t.lookups;
    table.hits += t.hits;
    table.inserts += t.inserts;
    table.removals += t.removals;
    const auto& x = net_.switch_at(id).stats();
    sw.packets_received += x.packets_received;
    sw.packets_to_controller += x.packets_to_controller;
  }
  const auto& paths = net_.topology().path_cache_stats();

  std::uint64_t decide_calls = 0, many_calls = 0, batched = 0;
  std::int64_t busy_ns = 0;
  std::vector<TimedEngine::Span> spans;
  identxx::pf::EngineStats pf;
  crypto::SchnorrVerifier::Stats cs;
  std::size_t key_bytes = 0;
  for (const TimedEngine* e : engines_) {
    decide_calls += e->decide_calls();
    many_calls += e->decide_many_calls();
    batched += e->batched_flows();
    for (const auto& span : e->spans()) busy_ns += span.end - span.start;
    spans.insert(spans.end(), e->spans().begin(), e->spans().end());
    const auto& p = e->policy_engine().stats();
    pf.evaluations += p.evaluations;
    pf.rules_scanned += p.rules_scanned;
    pf.prefilter_skips += p.prefilter_skips;
    pf.functions_called += p.functions_called;
    pf.hoist_memo_hits += p.hoist_memo_hits;
    pf.batches += p.batches;
    if (const crypto::SchnorrVerifier* v = e->verifier()) {
      const auto& c = v->stats();
      cs.verifications += c.verifications;
      cs.memo_hits += c.memo_hits;
      cs.memo_misses += c.memo_misses;
      cs.table_verifications += c.table_verifications;
      cs.warm_verifications += c.warm_verifications;
      cs.cold_verifications += c.cold_verifications;
      cs.batch_items += c.batch_items;
      cs.batch_rejects += c.batch_rejects;
      key_bytes += v->tiers().table_bytes();
    }
  }
  std::vector<double> admit_us;
  std::size_t peak_responses = 0;
  for (const AdmissionTracer* t : tracers_) {
    peak_responses = std::max(peak_responses, t->peak_responses_per_second());
    admit_us.insert(admit_us.end(), t->admit_wall_us().begin(),
                    t->admit_wall_us().end());
  }
  std::sort(admit_us.begin(), admit_us.end());
  const auto admit_pct = [&admit_us](double p) {
    return samples_beyond(admit_us.size(), p) >= kMinBeyond
               ? percentile_sorted(admit_us, p)
               : -1.0;
  };

  // Replays of captured inputs, after every counter above was read.
  const double parse_ns = time_response_parse_ns(capture_.responses);
  const VerifyTiming verify = time_verify(attests_, vendor_keys_, table_budget_);
  const double lookup_ns = time_table_lookup_ns(net_, capture_.lookups);

  const std::uint64_t events = net_.simulator().stats().events_executed;
  const std::uint64_t engine_flows = decide_calls + batched;
  const double decide_wall_s = union_seconds(spans);
  const double unattributed_s =
      timed_s - decide_wall_s -
      static_cast<double>(table.lookups) * lookup_ns / 1e9 -
      static_cast<double>(s.responses_received + s.duplicate_responses) *
          parse_ns / 1e9;

  std::uint64_t sent_all = 0, delivered_all = 0;
  for (std::size_t i = 0; i < in_.flows.size(); ++i) {
    sent_all += sent(i);
    delivered_all += delivered_[i];
  }

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m = {
      {"sim.events", d(events), "count"},
      {"sim.ns_per_event", events == 0 ? 0.0 : timed_s * 1e9 / d(events),
       "ns"},
      {"openflow.table_lookups", d(table.lookups), "count"},
      {"openflow.table_hit_pct", pct(table.hits, table.lookups), "%"},
      {"openflow.table_inserts", d(table.inserts), "count"},
      {"openflow.table_removals", d(table.removals), "count"},
      {"openflow.slowpath_pct",
       pct(sw.packets_to_controller, sw.packets_received), "%"},
      {"openflow.path_cache_hit_pct",
       pct(paths.hits, paths.hits + paths.misses), "%"},
      {"openflow.lookup_ns", lookup_ns, "ns"},
      {"identxx.queries", d(s.queries_sent + s.query_retries), "count"},
      {"identxx.responses", d(s.responses_received), "count"},
      {"identxx.duplicate_responses", d(s.duplicate_responses), "count"},
      {"identxx.responses_peak_1s", d(peak_responses), "count"},
      {"identxx.response_parse_ns", parse_ns, "ns"},
      {"controller.decisions", d(out.decisions), "count"},
      {"controller.decide_calls", d(decide_calls), "count"},
      {"controller.decide_many_calls", d(many_calls), "count"},
      {"controller.decide_batch_mean",
       many_calls == 0 ? 0.0 : d(batched) / d(many_calls), "flows"},
      {"controller.decide_busy_s", d(busy_ns) / 1e9, "s"},
      {"controller.decide_wall_s", decide_wall_s, "s"},
      {"controller.decide_ns_per_flow",
       engine_flows == 0 ? 0.0 : d(busy_ns) / d(engine_flows), "ns"},
      {"controller.decide_concurrency",
       timed_s > 0 ? d(busy_ns) / 1e9 / timed_s : 0.0, "x"},
      {"controller.unattributed_s", unattributed_s, "s"},
      {"controller.admit_wall_p50_us", admit_pct(50.0), "us"},
      {"controller.admit_wall_p99_us", admit_pct(99.0), "us"},
      {"controller.entries_installed", d(s.entries_installed), "count"},
      {"controller.cache_hits", d(s.decision_cache_hits), "count"},
      {"controller.query_retries", d(s.query_retries), "count"},
      {"controller.query_timeouts", d(s.query_timeouts), "count"},
      {"controller.degraded_verdicts", d(s.degraded_verdicts), "count"},
      {"pf.evaluations", d(pf.evaluations), "count"},
      {"pf.rules_scanned", d(pf.rules_scanned), "count"},
      {"pf.prefilter_skips", d(pf.prefilter_skips), "count"},
      {"pf.functions_called", d(pf.functions_called), "count"},
      {"pf.hoist_memo_hits", d(pf.hoist_memo_hits), "count"},
      {"pf.batches", d(pf.batches), "count"},
      {"crypto.verifications", d(cs.verifications), "count"},
      {"crypto.hot_verifications", d(cs.table_verifications), "count"},
      {"crypto.warm_verifications", d(cs.warm_verifications), "count"},
      {"crypto.cold_verifications", d(cs.cold_verifications), "count"},
      {"crypto.batch_items", d(cs.batch_items), "count"},
      {"crypto.verify_ns", verify.ns_1t, "ns"},
      {"crypto.verify_ns_4t", verify.ns_4t, "ns"},
      {"crypto.memo_hit_pct", pct(cs.memo_hits, cs.memo_hits + cs.memo_misses),
       "%"},
      {"crypto.batch_rejects", d(cs.batch_rejects), "count"},
      {"crypto.key_table_bytes", d(key_bytes), "B"},
      {"net.packets_sent", d(sent_all), "count"},
      {"net.packets_delivered", d(delivered_all), "count"},
  };
}

}  // namespace

RepResult run_rep(const Inputs& inputs, const RunOptions& options) {
  const std::int64_t t0 = wall_ns();
  Rig rig(inputs, options);
  const std::int64_t t1 = wall_ns();
  std::vector<double> slices = rig.drive();
  const std::int64_t t2 = wall_ns();
  RepResult out = rig.collect(static_cast<double>(t1 - t0) / 1e9,
                              static_cast<double>(t2 - t1) / 1e9);
  out.slice_s = std::move(slices);
  return out;
}

double time_setup(const Inputs& inputs, const RunOptions& options) {
  const std::int64_t t0 = wall_ns();
  const Rig rig(inputs, options);
  return static_cast<double>(wall_ns() - t0) / 1e9;
}

}  // namespace perfbench
