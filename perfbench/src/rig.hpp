#pragma once

// One repetition of a workload: build the deployment from generated inputs
// (timed as set-up), drive it (timed phase), then check every operation
// against the generator's expectations and reduce the outcome to numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "controller/admission.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  std::uint32_t workers = 1;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct RepResult {
  double setup_s = 0.0;
  double timed_s = 0.0;
  /// Wall seconds of each slice of the timed phase.  Slices cut the run
  /// at deterministic simulated times, so slice k is the same work in
  /// every repetition of one workload and seed.
  std::vector<double> slice_s;
  std::uint64_t decisions = 0;
  std::vector<double> vsetup_us;  ///< every decision, simulated µs
  std::uint64_t payload_sent = 0;       ///< flows expected to be admitted
  std::uint64_t payload_delivered = 0;  ///< distinct (flow, seq) delivered
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report
  std::uint64_t audit_dropped = 0;
  /// Everything the run must reproduce at any worker count: per-flow
  /// verdicts, ControllerStats, the merged audit log, vsetup and delivery.
  std::uint64_t digest = 0;
  identxx::ctrl::ControllerStats stats;
  Metrics layers;  ///< traced runs only, in BENCHMARK.json per_layer order
};

[[nodiscard]] RepResult run_rep(const Inputs& inputs, const RunOptions& options);

/// Host seconds to build the deployment alone (an extra set-up sample).
[[nodiscard]] double time_setup(const Inputs& inputs, const RunOptions& options);

}  // namespace perfbench
