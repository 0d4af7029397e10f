// identxx_mc — determinism model checker for sharded scenario runs.
//
//   $ identxx_mc [--shards N] [--mode dpor] scenarios/skype.scn
//
// Explores alternative shard-lane execution schedules for the scenario
// (DESIGN.md §13) and checks that every schedule's ScenarioResult is
// bit-identical to the canonical one and satisfies the scenario's own
// `expect` lines.  Exit status 0 when the invariant holds everywhere,
// 2 on divergence (with the minimized failing schedule printed), 1 on
// usage/parse errors.
//
// --shards N       admission domains (>= 1; default 2)
// --mode M         exhaustive | dpor | random (default dpor)
// --depth D        branch only at the first D shard waves (default 32)
// --schedules B    hard budget on scenario executions (default 50000)
// --random N       random mode: schedules to sample (default 200)
// --seed S         RNG seed: random-mode sampling, and the scenario seed
//                  override (0 = keep the file's `seed` line)
// --fault F        inject a checker self-test mutation:
//                  skip_redecide  — controller skips the dispatch-to-commit
//                                   control-epoch re-decision
//                  merge_arrival  — simulator merges staged lane events in
//                                   modeled arrival order, not lane order
//                  none           — (default) healthy build
//
// Every other flag is shared with identxx_sim (core::parse_scenario_flag):
// --src-only keeps the admission path clear of data-plane bottleneck links
// in congestion scenarios; the congestion knobs (--k-paths, --link-bw,
// --queue-depth, --traffic) and the fault/robustness knobs (DESIGN.md §14:
// --chan-loss, --chan-dup, --chan-delay-us, --max-retries,
// --retry-jitter-us, --degraded-ttl-us, --probe-delay-us) apply as there —
// fault injection draws on the global lane, so faulted runs must stay
// schedule-invariant.

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "mc/explorer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: identxx_mc [--mode exhaustive|dpor|random] [--depth D] "
               "[--schedules B] [--random N] "
               "[--fault skip_redecide|merge_arrival|none] %s "
               "<scenario-file>\n",
               identxx::core::kScenarioFlagUsage);
}

}  // namespace

int main(int argc, char** argv) {
  identxx::mc::ExplorerOptions options;
  options.scenario.shards = 2;
  const char* path = nullptr;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string_view flag = args[i];
      const auto flag_value =
          [&](std::string_view name) -> std::optional<std::string_view> {
        if (flag != name) return std::nullopt;
        if (i + 1 >= args.size()) {
          throw identxx::ParseError(std::string(flag) + ": missing value");
        }
        return args[++i];
      };
      const auto count = [&](std::string_view v, std::uint64_t min = 0) {
        const auto n = identxx::util::parse_u64(v);
        if (!n || *n < min) {
          throw identxx::ParseError(std::string(flag) + ": bad value");
        }
        return *n;
      };
      if (const auto v = flag_value("--mode")) {
        if (*v == "exhaustive") {
          options.mode = identxx::mc::Mode::kExhaustive;
        } else if (*v == "dpor") {
          options.mode = identxx::mc::Mode::kDpor;
        } else if (*v == "random") {
          options.mode = identxx::mc::Mode::kRandom;
        } else {
          throw identxx::ParseError(std::string(flag) + ": bad value");
        }
      } else if (const auto v = flag_value("--depth")) {
        options.max_depth = static_cast<std::uint32_t>(count(*v));
      } else if (const auto v = flag_value("--schedules")) {
        options.max_schedules = count(*v, 1);
      } else if (const auto v = flag_value("--random")) {
        options.random_schedules = count(*v);
      } else if (const auto v = flag_value("--seed")) {
        // Seeds random-mode sampling as well as the scenario.
        options.seed = count(*v);
        options.scenario.seed = options.seed;
      } else if (const auto v = flag_value("--fault")) {
        if (*v == "skip_redecide") {
          options.scenario.config.fault_skip_epoch_redecide = true;
        } else if (*v == "merge_arrival") {
          options.scenario.fault_merge_arrival_order = true;
        } else if (*v != "none") {
          throw identxx::ParseError(std::string(flag) + ": bad value");
        }
      } else if (!identxx::core::parse_scenario_flag(args, i,
                                                     options.scenario)) {
        path = args[i].data();  // argv strings are NUL-terminated
      }
    }
  } catch (const identxx::ParseError& e) {
    std::fprintf(stderr, "identxx_mc: %s\n", e.what());
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
                "%u shard(s)\n",
                scenario.switch_count(), scenario.host_count(),
                scenario.flow_count(), options.scenario.shards);

    identxx::mc::Explorer explorer(scenario, options);
    const identxx::mc::Report report = explorer.run();
    std::fputs(report.summary().c_str(), stdout);
    return report.ok() ? 0 : 2;
  } catch (const identxx::Error& e) {
    std::fprintf(stderr, "identxx_mc: %s\n", e.what());
    return 1;
  }
}
