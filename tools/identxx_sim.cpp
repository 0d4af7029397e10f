// identxx_sim — run an ident++ deployment scenario from a description file.
//
//   $ identxx_sim [--shards N] [--workers N] [--seed S] scenarios/skype.scn
//
// Builds the topology, installs the controller with the inline policy,
// launches the declared processes, drives every declared flow through the
// full Figure-1 sequence, and reports per-flow verdicts plus the
// controller's audit log.  Exit status 0 when all `expect` lines hold.
//
// --shards N   partition admission across N >= 1 parallel domains
//              (DESIGN.md §10; default 1, the paper's one controller);
//              per-domain stats are reported after the run.
// --workers N  real threads driving the shard lanes (results are identical
//              at any worker count; use 0 for all hardware threads).
// --seed S     deterministic RNG seed (overrides the file's `seed` line).
//
// Every other flag is a congestion knob (DESIGN.md §12: --src-only,
// --traffic, --k-paths, --link-bw, --queue-depth) or a fault/robustness
// knob (DESIGN.md §14: --chan-loss, --chan-dup, --chan-delay-us,
// --max-retries, --retry-jitter-us, --degraded-ttl-us, --probe-delay-us),
// shared with identxx_mc and documented at core::parse_scenario_flag.
// The defaults reproduce the idealized single-path, unbounded-queue,
// fault-free behaviour exactly; channel overrides replace the scenario's
// `fault chan` directives and retry knobs override `fault retry`.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "sim/worker_pool.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

void usage() {
  std::fprintf(stderr, "usage: identxx_sim [--workers N] %s <scenario-file>\n",
               identxx::core::kScenarioFlagUsage);
}

}  // namespace

int main(int argc, char** argv) {
  identxx::core::ScenarioOptions options;
  const char* path = nullptr;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--workers") {
        const auto n = i + 1 < args.size()
                           ? identxx::util::parse_u64(args[++i])
                           : std::nullopt;
        if (!n) throw identxx::ParseError("--workers: bad value");
        options.workers = *n == 0
                              ? identxx::sim::WorkerPool::hardware_workers()
                              : static_cast<std::uint32_t>(*n);
      } else if (!identxx::core::parse_scenario_flag(args, i, options)) {
        path = args[i].data();  // argv strings are NUL-terminated
      }
    }
  } catch (const identxx::ParseError& e) {
    std::fprintf(stderr, "identxx_sim: %s\n", e.what());
    usage();
    return 1;
  }
  if (path == nullptr) {
    usage();
    return 1;
  }
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw identxx::Error(std::string("cannot open '") + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    const auto scenario = identxx::core::Scenario::parse(buffer.str());
    std::printf("scenario: %zu switch(es), %zu host(s), %zu flow(s), "
                "%u shard(s), %u worker(s)\n\n",
                scenario.switch_count(), scenario.host_count(),
                scenario.flow_count(), options.shards, options.workers);
    const auto result = scenario.run(options);

    std::printf("%-12s %-46s %-10s %8s %8s %8s %s\n", "flow", "5-tuple",
                "verdict", "sent", "deliv", "reord", "expectation");
    for (const auto& flow : result.flows) {
      std::printf("%-12s %-46s %-10s %8llu %8llu %8llu %s\n", flow.id.c_str(),
                  flow.flow.to_string().c_str(),
                  flow.delivered ? "DELIVERED" : "BLOCKED",
                  static_cast<unsigned long long>(flow.packets_sent),
                  static_cast<unsigned long long>(flow.packets_delivered),
                  static_cast<unsigned long long>(flow.packets_reordered),
                  !flow.expectation_known    ? "-"
                  : flow.matches_expectation() ? "ok"
                                               : "MISMATCH");
    }
    std::printf("\naudit log:\n");
    for (const auto& record : result.audit_log) {
      std::printf("  [%9lld ns] %-46s user=%-10s app=%-12s %s%s\n",
                  static_cast<long long>(record.time),
                  record.flow.to_string().c_str(), record.src_user.c_str(),
                  record.src_app.c_str(), record.allowed ? "pass" : "block",
                  record.logged ? " [logged]" : "");
    }
    std::printf("\ncontroller: %llu queries, %llu responses, %llu entries "
                "installed, %llu allowed, %llu blocked, %llu timeouts\n",
                static_cast<unsigned long long>(
                    result.controller_stats.queries_sent),
                static_cast<unsigned long long>(
                    result.controller_stats.responses_received),
                static_cast<unsigned long long>(
                    result.controller_stats.entries_installed),
                static_cast<unsigned long long>(
                    result.controller_stats.flows_allowed),
                static_cast<unsigned long long>(
                    result.controller_stats.flows_blocked),
                static_cast<unsigned long long>(
                    result.controller_stats.query_timeouts));
    std::printf("robustness: %llu retries, %llu duplicate responses, "
                "%llu degraded verdicts\n",
                static_cast<unsigned long long>(
                    result.controller_stats.query_retries),
                static_cast<unsigned long long>(
                    result.controller_stats.duplicate_responses),
                static_cast<unsigned long long>(
                    result.controller_stats.degraded_verdicts));
    const auto& fs = result.fault_stats;
    if (fs != identxx::core::ScenarioFaultStats{}) {
      std::printf("faults injected: %llu dropped, %llu duplicated, "
                  "%llu delayed, %llu queries ignored by down daemons\n",
                  static_cast<unsigned long long>(fs.chan_dropped),
                  static_cast<unsigned long long>(fs.chan_duplicated),
                  static_cast<unsigned long long>(fs.chan_delayed),
                  static_cast<unsigned long long>(fs.daemon_queries_ignored));
    }
    const auto& pcs = result.path_cache_stats;
    std::printf("path cache: %llu hits, %llu misses, %llu invalidations\n",
                static_cast<unsigned long long>(pcs.hits),
                static_cast<unsigned long long>(pcs.misses),
                static_cast<unsigned long long>(pcs.invalidations));
    if (!pcs.ecmp_selections.empty()) {
      std::printf("ecmp selections:");
      for (std::size_t i = 0; i < pcs.ecmp_selections.size(); ++i) {
        std::printf(" path%zu=%llu", i,
                    static_cast<unsigned long long>(pcs.ecmp_selections[i]));
      }
      std::printf("\n");
    }
    if (result.queue_tail_drops > 0) {
      std::printf("queue tail drops: %llu total (per switch:",
                  static_cast<unsigned long long>(result.queue_tail_drops));
      for (const std::uint64_t drops : result.switch_queue_drops) {
        std::printf(" %llu", static_cast<unsigned long long>(drops));
      }
      std::printf(")\n");
    }
    std::printf("\n%-8s %10s %10s %10s %10s %10s\n", "domain", "flows",
                "allowed", "blocked", "cache-hits", "installs");
    for (std::size_t i = 0; i < result.domain_stats.size(); ++i) {
      const auto& s = result.domain_stats[i];
      std::printf("d%-7zu %10llu %10llu %10llu %10llu %10llu\n", i,
                  static_cast<unsigned long long>(s.flows_seen),
                  static_cast<unsigned long long>(s.flows_allowed),
                  static_cast<unsigned long long>(s.flows_blocked),
                  static_cast<unsigned long long>(s.decision_cache_hits),
                  static_cast<unsigned long long>(s.entries_installed));
    }
    if (!result.ok()) {
      std::fprintf(stderr, "\nidentxx_sim: expectation mismatches\n");
      return 2;
    }
    return 0;
  } catch (const identxx::Error& e) {
    std::fprintf(stderr, "identxx_sim: %s\n", e.what());
    return 1;
  }
}
