// End-to-end admission benchmark: the measuring binary.
//
//   perfbench --workload <attest_fleet|revoke_churn|hostile_lossy>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// Every run starts with one repetition at another worker count: its
// deterministic result must match the measured ones, and it warms the
// process.  Untraced runs (--trace 0) then repeat set-up + timed phase
// --seconds / rep_s times (at least kMinReps) and report the end-to-end
// metrics; traced runs (--trace 1) run one untraced and one
// traced repetition and report the per-layer metrics.  The last
// line of stdout is the result object; everything before it is the
// human-readable report.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "rig.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;
/// An untraced run on a host much slower than the one rep_s was measured
/// on stops after this many times --seconds, with fewer repetitions.
constexpr double kMaxOverrun = 1.5;
constexpr std::size_t kMinSetupSamples = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed wants an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds wants s > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

/// CPU brand string from cpuid (no file access needed).
std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void absorb(const RepResult& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& note : r.failures) {
      std::printf("FAIL [%s] %s\n", label, note.c_str());
    }
    if (r.failed > 0) correct = false;
    if (r.audit_dropped != 0) {
      std::printf("FAIL [%s] audit log dropped %llu records\n", label,
                  static_cast<unsigned long long>(r.audit_dropped));
      correct = false;
    }
  }
  void require(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("FAIL %s\n", what.c_str());
      correct = false;
    }
  }
};

void print_result(const Verdict& v, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += v.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           num + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto kind = parse_workload(args.workload);
  if (!kind) usage(("unknown workload " + args.workload).c_str());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; rebuild with "
                 "CMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const Inputs inputs = generate(*kind, args.seed);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // End-to-end metrics are measured on one worker: on shared hosts the
  // physical cores behind the vCPUs come and go (four concurrent verify
  // threads measured 1.0x to 4.4x slower than one), which made multi-worker
  // throughput bimodal between otherwise identical runs.  The workload's
  // full worker count still runs in every untraced run — as the
  // determinism check — and is what traced runs measure, where the
  // per-layer view (decide_concurrency, verify_ns_4t) shows scaling.
  const std::uint32_t full_workers =
      std::min<std::uint32_t>(inputs.workers, nproc);
  const std::uint32_t workers = args.trace == 0 ? 1 : full_workers;
  const std::uint32_t other_workers =
      workers != full_workers ? full_workers : (workers > 1 ? 1 : 2);

  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"commit\": \"%s\", \"shards\": %u, \"workers\": %u, "
      "\"check_workers\": %u, \"inputs_digest\": \"%016llx\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, nproc, json_escape(cpu_model()).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(args.commit).c_str(), inputs.shards, workers, other_workers,
      static_cast<unsigned long long>(inputs.digest()));

  Verdict verdict;
  Metrics metrics;
  const auto add = [&metrics](const std::string& name, double value,
                              const std::string& unit) {
    metrics.push_back({name, value, unit});
  };

  // The worker-count check runs first, so it also warms the process
  // (allocator, caches) before anything is measured.
  const RepResult check = run_rep(inputs, {other_workers, false});
  verdict.absorb(check, "worker check");
  // Hand freed memory back after every repetition, so peak RSS is one
  // repetition's peak rather than a function of how many ran.
  malloc_trim(0);

  std::vector<RepResult> reps;
  if (args.trace == 0) {
    const int target = std::max(
        kMinReps, static_cast<int>(std::lround(args.seconds / inputs.rep_s)));
    const std::int64_t start = wall_ns();
    const auto elapsed = [start] {
      return static_cast<double>(wall_ns() - start) / 1e9;
    };
    // Each repetition runs pinned to the next allowed CPU in turn.  On a
    // shared host one vCPU can stay slower than the others for a whole
    // run; rotating gives every slice of the work a run on each CPU.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    while (static_cast<int>(reps.size()) < target &&
           (static_cast<int>(reps.size()) < kMinReps ||
            elapsed() < kMaxOverrun * args.seconds)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[reps.size() % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
      reps.push_back(run_rep(inputs, {workers, false}));
      malloc_trim(0);
      verdict.absorb(reps.back(), "measured");
      verdict.require(reps.back().digest == reps.front().digest &&
                          reps.back().slice_s.size() ==
                              reps.front().slice_s.size(),
                      "repetition " + std::to_string(reps.size()) +
                          " differs from repetition 1");
    }
    sched_setaffinity(0, sizeof allowed, &allowed);
    if (static_cast<int>(reps.size()) < target) {
      std::printf("note: stopped after %zu of %d repetitions at %.0f s\n",
                  reps.size(), target, kMaxOverrun * args.seconds);
    }
  } else {
    reps.push_back(run_rep(inputs, {workers, false}));
    verdict.absorb(reps.back(), "untraced");
    reps.push_back(run_rep(inputs, {workers, true}));
    verdict.absorb(reps.back(), "traced");
    verdict.require(reps[1].digest == reps[0].digest,
                    "traced repetition differs from the untraced one");
  }
  verdict.require(check.digest == reps.front().digest,
                  "result at " + std::to_string(other_workers) +
                      " workers differs from " + std::to_string(workers));

  const RepResult& first = reps.front();
  verdict.require(highest_supported_percentile(first.vsetup_us.size()) >= 99.0,
                  "too few decisions for a p99 with 10 samples beyond it");

  if (args.trace == 0) {
    std::vector<double> admit, setup;
    for (const RepResult& r : reps) {
      admit.push_back(static_cast<double>(r.decisions) / r.timed_s);
      setup.push_back(r.setup_s);
    }
    // Other tenants of a shared host slow a process down in bursts.  Each
    // slice is identical work in every repetition, so its fastest time is
    // its time without interference; admit_per_s divides the decisions by
    // the sum of those.  The repetition count is fixed by --seconds, so the
    // minimum is taken over as many samples whatever the code's speed.
    double undisturbed_s = 0.0;
    for (std::size_t k = 0; k < first.slice_s.size(); ++k) {
      double fastest = first.slice_s[k];
      for (const RepResult& r : reps) {
        if (k < r.slice_s.size()) fastest = std::min(fastest, r.slice_s[k]);
      }
      undisturbed_s += fastest;
    }
    std::printf("timed phase   %zu slices; fastest-slice total %.6f s\n",
                first.slice_s.size(), undisturbed_s);
    while (setup.size() < kMinSetupSamples) {
      setup.push_back(time_setup(inputs, {workers, false}));
    }
    std::vector<double> vsetup = first.vsetup_us;
    std::sort(vsetup.begin(), vsetup.end());
    std::printf("decisions / timed phase, per repetition: %s\n",
                summarize(admit).describe("1/s").c_str());
    std::printf("  values:");
    for (const double a : admit) std::printf(" %.0f", a);
    std::printf("\n");
    std::printf("setup_s       %s\n", summarize(setup).describe("s").c_str());
    std::printf("vsetup        %s\n", summarize(vsetup).describe("us").c_str());
    std::printf("decisions per repetition %llu, flows %zu\n",
                static_cast<unsigned long long>(first.decisions),
                inputs.flows.size());
    add("admit_per_s", static_cast<double>(first.decisions) / undisturbed_s,
        "1/s");
    add("setup_s", median(setup), "s");
    add("peak_rss_mb", peak_rss_mb(), "MiB");
    add("vsetup_p50_us", percentile_sorted(vsetup, 50.0), "us");
    add("vsetup_p99_us", percentile_sorted(vsetup, 99.0), "us");
    add("goodput_pct",
        first.payload_sent == 0
            ? 0.0
            : 100.0 * static_cast<double>(first.payload_delivered) /
                  static_cast<double>(first.payload_sent),
        "%");
  } else {
    const RepResult& traced = reps[1];
    metrics = traced.layers;
    add("trace.overhead_pct",
        100.0 * (traced.timed_s - first.timed_s) / first.timed_s, "%");
    std::printf("untraced timed phase %.6f s, traced %.6f s\n", first.timed_s,
                traced.timed_s);
  }
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("  %-32s %.6g %s\n", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  print_result(verdict, metrics);
  return 0;
}
