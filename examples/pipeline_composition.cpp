// Pipeline composition: building a controller flavour from admission
// stages instead of subclassing.
//
// The ident++ controller and every baseline are configurations of the same
// five-stage AdmissionPipeline (DESIGN.md, "AdmissionPipeline stage
// contract").  This example assembles a custom flavour from parts — an
// Ethane-style PF engine, a decision cache (128 verdicts, LRU, one-minute
// TTL), the standard path install strategy — and attaches a custom
// AdmissionObserver that watches decisions stream past, the hook that
// subsumes the audit log and stats.
//
//   $ ./examples/pipeline_composition

#include <cstdio>

#include "controller/admission.hpp"
#include "core/network.hpp"

using namespace identxx;

namespace {

/// An observer that prints every decision as it happens — the same seam
/// the built-in stats and audit-log observers use.
class PrintingObserver : public ctrl::AdmissionObserver {
 public:
  void on_decision(const ctrl::DecisionRecord& record,
                   const ctrl::AdmissionDecision&) override {
    std::printf("  [observer] %-40s -> %s (%s)\n",
                record.flow.to_string().c_str(),
                record.allowed ? "pass" : "block", record.rule.c_str());
  }
  void on_cache_hit(const net::FiveTuple& flow,
                    const ctrl::AdmissionDecision& cached) override {
    std::printf("  [observer] %-40s -> %s (decision cache)\n",
                flow.to_string().c_str(), cached.allowed ? "pass" : "block");
  }
};

}  // namespace

int main() {
  std::printf("AdmissionPipeline composition: a custom controller flavour "
              "from stages\n\n");

  core::Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);

  // Assemble the pipeline by hand: no daemon queries (NoQueryPlanner), a
  // PF+=2 engine over network primitives, a small decision cache (128
  // verdicts evicted least-recently-used, each expiring after a minute),
  // and default path installation.  This is "Ethane with a decision cache" —
  // a flavour the old monolithic controllers could not express.
  ctrl::AdmissionPipeline pipeline;
  pipeline.planner = std::make_unique<ctrl::NoQueryPlanner>();
  pipeline.engine = std::make_unique<ctrl::PolicyDecisionEngine>(
      pf::parse("block all\npass from any to any port 80\n", "example"));
  pipeline.cache = std::make_unique<ctrl::DecisionCache>(
      /*capacity=*/128, /*ttl=*/60 * sim::kSecond);

  ctrl::ControllerConfig config;
  config.name = "composed";
  config.install_full_path = false;  // ingress-only: later switches re-ask
  auto& controller = net.install_pipeline(std::move(pipeline), config);
  controller.add_observer(std::make_unique<PrintingObserver>());

  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/app");
  server.add_user("www", "daemons");
  const int httpd = server.launch("www", "/usr/sbin/httpd");
  server.listen(httpd, 80);

  std::printf("first flows (engine decides):\n");
  const auto web = net.start_flow(client, pid, "10.0.0.2", 80);
  const auto telnet = net.start_flow(client, pid, "10.0.0.2", 23);
  net.run();
  std::printf("web    %s\n", net.flow_delivered(web) ? "DELIVERED" : "BLOCKED");
  std::printf("telnet %s\n\n",
              net.flow_delivered(telnet) ? "DELIVERED" : "BLOCKED");

  // Revoke the installed entries: the next packet takes a packet-in again,
  // but the cache replays the verdict without re-evaluating policy.
  controller.revoke_all();  // also invalidates the cache…
  std::printf("after revoke_all (cache invalidated, engine re-decides):\n");
  client.send_flow_packet(web.flow, "again", net::TcpFlags::kPsh);
  net.run();

  const auto* cache = controller.decision_cache();
  std::printf("\ncache stats: %llu hits, %llu misses, %llu insertions, "
              "%llu invalidations\n",
              static_cast<unsigned long long>(cache->stats().hits),
              static_cast<unsigned long long>(cache->stats().misses),
              static_cast<unsigned long long>(cache->stats().insertions),
              static_cast<unsigned long long>(cache->stats().invalidations));
  std::printf("controller stats: %llu flows seen, %llu allowed, %llu blocked, "
              "%llu cache hits\n",
              static_cast<unsigned long long>(controller.stats().flows_seen),
              static_cast<unsigned long long>(controller.stats().flows_allowed),
              static_cast<unsigned long long>(controller.stats().flows_blocked),
              static_cast<unsigned long long>(
                  controller.stats().decision_cache_hits));
  return 0;
}
