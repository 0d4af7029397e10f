#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "util/rng.hpp"

namespace perfbench {

namespace sim = identxx::sim;
using identxx::util::SplitMix64;

namespace {

constexpr SimTime kUs = sim::kMicrosecond;
constexpr SimTime kMs = sim::kMillisecond;

std::string fmt(const char* pattern, unsigned a, unsigned b = 0) {
  char buf[64];
  std::snprintf(buf, sizeof buf, pattern, a, b);
  return buf;
}

/// Uniform simulated time in [lo, hi], nanosecond resolution.
SimTime uniform(SplitMix64& rng, SimTime lo, SimTime hi) {
  return lo + static_cast<SimTime>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::string client_ip(std::uint32_t i) {
  return fmt("10.1.%u.%u", i / 200, i % 200 + 1);
}

HostSpec make_server(std::uint32_t s, std::uint32_t attach, SimTime latency,
                     std::vector<std::uint16_t> ports) {
  HostSpec h;
  h.name = fmt("srv%u", s);
  h.ip = fmt("10.200.0.%u", s + 1);
  h.attach = attach;
  h.latency = latency;
  h.user = "www";
  h.group = "daemons";
  h.listen = std::move(ports);
  return h;
}

/// Star fabric: switch 0 is the core, switches 1..edges hang off it with
/// seeded link latencies.
void star_fabric(Inputs& in, SplitMix64& rng, std::uint32_t edges) {
  in.switches.push_back("core");
  for (std::uint32_t e = 0; e < edges; ++e) {
    in.switches.push_back(fmt("edge%u", e));
    in.links.push_back({0, e + 1, uniform(rng, 8 * kUs, 12 * kUs)});
  }
}

/// Fisher-Yates shuffle driven by the workload's stream.
template <typename T>
void shuffle(std::vector<T>& items, SplitMix64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    using std::swap;
    swap(items[i - 1], items[rng.next_below(i)]);
  }
}

/// `n` vendor indices with Zipf(1) popularity — a few vendors sign most
/// apps — in exact shares (largest remainder), seeded order.  Exact shares
/// keep the verification work the same for every seed.
std::vector<std::uint32_t> zipf_vendors(SplitMix64& rng, std::uint32_t vendors,
                                        std::size_t n) {
  double total = 0.0;
  for (std::uint32_t k = 0; k < vendors; ++k) total += 1.0 / (k + 1);
  std::vector<std::uint32_t> out;
  std::vector<std::pair<double, std::uint32_t>> remainders;
  for (std::uint32_t k = 0; k < vendors; ++k) {
    const double share = static_cast<double>(n) / (k + 1) / total;
    out.insert(out.end(), static_cast<std::size_t>(share), k);
    remainders.emplace_back(share - static_cast<std::size_t>(share), k);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; out.size() < n; ++i) {
    out.push_back(remainders[i].second);
  }
  shuffle(out, rng);
  return out;
}

// attest_fleet: closed loop of rounds; every admission carries a distinct
// attestation from a Zipf-popular vendor, so the verify memo misses by
// design and the verifier's table budget holds hot and warm keys at once.
Inputs attest_fleet(std::uint64_t seed, Scale scale) {
  const bool small = scale == Scale::kSmall;
  Inputs in;
  in.shards = 4;
  in.workers = 4;
  in.slice = 2 * kUs;  // about one wave of decisions
  in.rep_s = 1.0;
  in.vendors = small ? 8 : 16;
  in.hot_tables = 4;
  in.warm_tables = 8;
  in.rounds = small ? 2 : 8;
  const std::uint32_t clients = small ? 32 : 512;
  const std::uint32_t edges = small ? 4 : 8;
  SplitMix64 rng(seed ^ 0xa77e57f1ee7ULL);
  star_fabric(in, rng, edges);
  in.servers.push_back(make_server(0, 0, 10 * kUs, {443}));
  // Setup latency is set by the client-side daemon round trip.  Clients on
  // one edge share a seeded access latency, so a round's decisions land in
  // a few simulated instants ("waves") of many flows each — the shape
  // sharded admission can parallelize — rather than one instant per client.
  std::vector<SimTime> access;
  for (std::uint32_t e = 0; e < edges; ++e) {
    access.push_back(uniform(rng, 15 * kUs, 17 * kUs));
  }
  const std::vector<std::uint32_t> vendor_of =
      zipf_vendors(rng, in.vendors, std::size_t{clients} * in.rounds);
  for (std::uint32_t c = 0; c < clients; ++c) {
    HostSpec h;
    h.name = fmt("c%04u", c);
    h.ip = client_ip(c);
    h.attach = 1 + c % edges;
    h.latency = access[c % edges];
    h.user = fmt("u%04u", c);
    h.group = "fleet";
    for (std::uint32_t r = 0; r < in.rounds; ++r) {
      h.apps.push_back({fmt("/srv/fleet/c%04u/a%02u", c, r),
                        fmt("app-c%04u-r%02u", c, r),
                        vendor_of[c * in.rounds + r], Attestation::kValid});
    }
    in.clients.push_back(std::move(h));
  }
  for (std::uint32_t r = 0; r < in.rounds; ++r) {
    for (std::uint32_t c = 0; c < clients; ++c) {
      FlowSpec f;
      f.client = c;
      f.app = r;
      f.port = 443;
      f.round = r;
      f.expect_allowed = true;
      in.flows.push_back(f);
    }
  }
  return in;
}

// revoke_churn: one domain, diamond fabric with two equal-cost paths,
// open-loop CBR flows and periodic revocation storms.  Identity decides
// (staff pass, guests are blocked); the one per-app attestation is shared
// by every client, so crypto hits the memo.  Sized so the domain sees more
// than 8192 daemon responses inside one simulated second (1152 flows, each
// re-admitted after every storm: about 13800), past the size at which
// IdentxxController's response-dedupe memo starts sweeping on every
// response.
Inputs revoke_churn(std::uint64_t seed, Scale scale) {
  const bool small = scale == Scale::kSmall;
  Inputs in;
  in.shards = 1;
  in.workers = 1;
  in.slice = 2 * kMs;
  in.rep_s = 1.0;
  in.vendors = 1;
  in.k_paths = 2;
  SplitMix64 rng(seed ^ 0x4e70c0c4e11ULL);
  in.switches = {"in", "a", "b", "out"};
  const std::pair<std::uint32_t, std::uint32_t> diamond[] = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (const auto& [a, b] : diamond) {
    in.links.push_back({a, b, uniform(rng, 15 * kUs, 25 * kUs)});
  }
  const std::uint32_t clients = small ? 16 : 96;
  const std::uint32_t per_client = small ? 4 : 12;
  const std::uint32_t servers = 4;
  // Servers answer faster than any client, so a flow's setup latency is
  // set by its client's seeded access link and the median over ~128
  // clients barely moves between seeds.
  for (std::uint32_t s = 0; s < servers; ++s) {
    in.servers.push_back(make_server(s, 3, 5 * kUs, {80, 443}));
  }
  const SimTime spread = small ? 20 * kMs : 100 * kMs;
  // Exactly three in four clients are staff (seeded placement).
  std::vector<bool> staff(clients, false);
  std::fill(staff.begin(), staff.begin() + clients * 3 / 4, true);
  shuffle(staff, rng);
  for (std::uint32_t c = 0; c < clients; ++c) {
    HostSpec h;
    h.name = fmt("c%04u", c);
    h.ip = client_ip(c);
    h.attach = 0;
    h.latency = uniform(rng, 8 * kUs, 16 * kUs);
    h.user = fmt("u%04u", c);
    h.group = staff[c] ? "staff" : "guest";
    h.apps.push_back({"/usr/bin/agent", "agent", 0, Attestation::kValid});
    for (std::uint32_t j = 0; j < per_client; ++j) {
      FlowSpec f;
      f.client = c;
      f.server = j % servers;
      f.port = (j / servers) % 2 == 0 ? 80 : 443;
      f.start = uniform(rng, 0, spread);
      // Low rate, long life: every flow re-enters admission after each
      // storm without the data plane dominating the run.
      f.packets = small ? 10 : 50;
      f.rate_pps = 50;
      f.expect_allowed = h.group == "staff";
      in.flows.push_back(f);
    }
    in.clients.push_back(std::move(h));
  }
  if (small) {
    in.controls = {{60 * kMs, 0}, {80 * kMs, 443}, {100 * kMs, 0},
                   {140 * kMs, 0}};
  } else {
    in.controls = {{250 * kMs, 0}, {350 * kMs, 443}, {450 * kMs, 0},
                   {650 * kMs, 0}, {750 * kMs, 443}, {850 * kMs, 0}};
  }
  return in;
}

// hostile_lossy: seeded loss, duplication and delay on every control
// channel, daemons that crash and restart, and a fixed share of clients
// presenting forged or wrong-key attestations (expected blocked).
Inputs hostile_lossy(std::uint64_t seed, Scale scale) {
  const bool small = scale == Scale::kSmall;
  Inputs in;
  in.shards = 2;
  in.workers = 2;
  in.slice = 2 * kMs;
  in.rep_s = 0.3;
  in.vendors = 4;
  in.chan_loss = 0.01;
  in.chan_dup = 0.01;
  in.chan_delay = 100 * kUs;
  in.query_timeout = 20 * kMs;
  in.max_query_retries = 2;
  in.retry_jitter = 500 * kUs;
  in.degraded_cover_ttl = 20 * kMs;
  in.readmission_probe_delay = 50 * kMs;
  in.max_readmission_probes = 6;
  SplitMix64 rng(seed ^ 0x4057113ULL);
  const std::uint32_t edges = 4;
  star_fabric(in, rng, edges);
  const std::uint32_t servers = 4;
  for (std::uint32_t s = 0; s < servers; ++s) {
    in.servers.push_back(make_server(s, 0, 5 * kUs, {443}));
  }
  const std::uint32_t clients = small ? 48 : 384;
  const std::uint32_t per_client = small ? 4 : 8;
  const SimTime spread = small ? 100 * kMs : 400 * kMs;

  // Fixed shares, seeded placement: 10% forged, 5% wrong-key.
  std::vector<std::uint32_t> order(clients);
  std::iota(order.begin(), order.end(), 0u);
  shuffle(order, rng);
  std::vector<Attestation> kinds(clients, Attestation::kValid);
  const std::uint32_t forged = clients / 10;
  const std::uint32_t wrong_key = clients / 20;
  for (std::uint32_t i = 0; i < forged + wrong_key; ++i) {
    kinds[order[i]] = i < forged ? Attestation::kForged : Attestation::kWrongKey;
  }
  for (std::uint32_t c = 0; c < clients; ++c) {
    HostSpec h;
    h.name = fmt("c%04u", c);
    h.ip = client_ip(c);
    h.attach = 1 + c % edges;
    h.latency = uniform(rng, 8 * kUs, 16 * kUs);
    h.user = fmt("u%04u", c);
    h.group = "users";
    h.apps.push_back({fmt("/srv/app/c%04u", c), fmt("app-c%04u", c),
                      static_cast<std::uint32_t>(rng.next_below(in.vendors)),
                      kinds[c]});
    for (std::uint32_t j = 0; j < per_client; ++j) {
      FlowSpec f;
      f.client = c;
      f.server = j % servers;
      f.port = 443;
      f.start = uniform(rng, 0, spread);
      f.packets = 12;
      f.rate_pps = 2000;
      f.expect_allowed = kinds[c] == Attestation::kValid;
      f.hostile = !f.expect_allowed;
      in.flows.push_back(f);
    }
    in.clients.push_back(std::move(h));
  }
  // Outages on honest clients (the next entries of the shuffled order)
  // and one server: one long crash drives degraded covers and
  // re-admission probes; short ones are absorbed by query retries.
  const std::uint32_t honest = forged + wrong_key;
  in.outages.push_back({false, order[honest], 0, spread / 2});
  for (std::uint32_t i = 1; i <= 4; ++i) {
    const SimTime down = uniform(rng, spread / 8, spread * 7 / 8);
    in.outages.push_back({false, order[honest + i], down, down + 10 * kMs});
  }
  const SimTime down = uniform(rng, spread / 8, spread * 7 / 8);
  in.outages.push_back({true, static_cast<std::uint32_t>(rng.next_below(servers)),
                        down, down + 10 * kMs});
  return in;
}

void add_host(Fnv& f, const HostSpec& h) {
  f.add(h.name);
  f.add(h.ip);
  f.add(h.attach);
  f.add(static_cast<std::uint64_t>(h.latency));
  f.add(h.user);
  f.add(h.group);
  for (const AppSpec& a : h.apps) {
    f.add(a.exe);
    f.add(a.name);
    f.add(a.vendor);
    f.add(static_cast<std::uint64_t>(a.kind));
  }
  for (const std::uint16_t p : h.listen) f.add(p);
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "attest_fleet") return WorkloadKind::kAttestFleet;
  if (name == "revoke_churn") return WorkloadKind::kRevokeChurn;
  if (name == "hostile_lossy") return WorkloadKind::kHostileLossy;
  return std::nullopt;
}

std::string_view workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAttestFleet: return "attest_fleet";
    case WorkloadKind::kRevokeChurn: return "revoke_churn";
    case WorkloadKind::kHostileLossy: return "hostile_lossy";
  }
  return "?";
}

Inputs generate(WorkloadKind kind, std::uint64_t seed, Scale scale) {
  Inputs in;
  switch (kind) {
    case WorkloadKind::kAttestFleet: in = attest_fleet(seed, scale); break;
    case WorkloadKind::kRevokeChurn: in = revoke_churn(seed, scale); break;
    case WorkloadKind::kHostileLossy: in = hostile_lossy(seed, scale); break;
  }
  in.kind = kind;
  in.seed = seed;
  in.scale = scale;
  return in;
}

std::string vendor_key_seed(std::uint64_t seed, std::uint32_t k) {
  return "perfbench-vendor-" + std::to_string(seed) + "-" + std::to_string(k);
}

std::string rogue_key_seed(std::uint64_t seed) {
  return "perfbench-rogue-" + std::to_string(seed);
}

std::uint64_t Inputs::digest() const {
  Fnv f;
  f.add(static_cast<std::uint64_t>(kind));
  f.add(seed);
  f.add(static_cast<std::uint64_t>(scale));
  f.add(shards);
  f.add(workers);
  f.add(static_cast<std::uint64_t>(slice));
  for (const std::string& s : switches) f.add(s);
  for (const LinkSpec& l : links) {
    f.add(l.a);
    f.add(l.b);
    f.add(static_cast<std::uint64_t>(l.latency));
  }
  f.add(k_paths);
  for (const HostSpec& h : clients) add_host(f, h);
  for (const HostSpec& h : servers) add_host(f, h);
  f.add(vendors);
  for (const FlowSpec& fl : flows) {
    f.add(fl.client);
    f.add(fl.app);
    f.add(fl.server);
    f.add(fl.port);
    f.add(fl.round);
    f.add(static_cast<std::uint64_t>(fl.start));
    f.add(fl.packets);
    f.add(fl.rate_pps);
    f.add(fl.expect_allowed ? 1 : 0);
    f.add(fl.hostile ? 1 : 0);
  }
  f.add(rounds);
  for (const ControlOp& c : controls) {
    f.add(static_cast<std::uint64_t>(c.at));
    f.add(c.port);
  }
  for (const Outage& o : outages) {
    f.add(o.server ? 1 : 0);
    f.add(o.host);
    f.add(static_cast<std::uint64_t>(o.down));
    f.add(static_cast<std::uint64_t>(o.up));
  }
  f.add(static_cast<std::uint64_t>(chan_loss * 1e9));
  f.add(static_cast<std::uint64_t>(chan_dup * 1e9));
  f.add(static_cast<std::uint64_t>(chan_delay));
  f.add(static_cast<std::uint64_t>(query_timeout));
  f.add(max_query_retries);
  f.add(static_cast<std::uint64_t>(retry_jitter));
  f.add(static_cast<std::uint64_t>(degraded_cover_ttl));
  f.add(static_cast<std::uint64_t>(readmission_probe_delay));
  f.add(max_readmission_probes);
  f.add(hot_tables);
  f.add(warm_tables);
  return f.value();
}

}  // namespace perfbench
