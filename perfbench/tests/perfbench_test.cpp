// Tests of the benchmark itself: the percentile reporting rule, generator
// determinism per seed, and that every workload's deterministic result is
// identical at two worker counts and with tracing on.

#include <gtest/gtest.h>

#include "rig.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr WorkloadKind kAll[] = {WorkloadKind::kAttestFleet,
                                 WorkloadKind::kRevokeChurn,
                                 WorkloadKind::kHostileLossy};

TEST(PercentileRule, ReportsOnlyPercentilesWithTenSamplesBeyond) {
  EXPECT_FALSE(highest_supported_percentile(0));
  EXPECT_FALSE(highest_supported_percentile(19));
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile_sorted(v, 50.0), 500.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 990.0);
  EXPECT_EQ(percentile_sorted(v, 100.0), 1000.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(PercentileRule, SummaryCarriesSampleCount) {
  std::vector<double> few(15, 1.0);
  const Summary s = summarize(few);
  EXPECT_EQ(s.count, 15u);
  EXPECT_FALSE(s.tail_percentile);
  EXPECT_NE(s.describe("us").find("n=15"), std::string::npos);

  std::vector<double> many;
  for (int i = 1; i <= 2000; ++i) many.push_back(i);
  const Summary m = summarize(many);
  EXPECT_EQ(m.tail_percentile, 99.0);
  EXPECT_EQ(m.tail_value, 1980.0);
  EXPECT_NE(m.describe("us").find("p99=1980 us (n=2000)"), std::string::npos);
}

TEST(Generator, SameSeedGivesSameInputs) {
  for (const WorkloadKind kind : kAll) {
    const Inputs a = generate(kind, 42);
    const Inputs b = generate(kind, 42);
    EXPECT_TRUE(a == b) << workload_name(kind);
    EXPECT_EQ(a.digest(), b.digest()) << workload_name(kind);
  }
}

TEST(Generator, DifferentSeedGivesDifferentInputs) {
  for (const WorkloadKind kind : kAll) {
    const Inputs a = generate(kind, 42);
    const Inputs b = generate(kind, 43);
    EXPECT_FALSE(a == b) << workload_name(kind);
    EXPECT_NE(a.digest(), b.digest()) << workload_name(kind);
    EXPECT_EQ(a.flows.size(), b.flows.size()) << workload_name(kind);
  }
}

TEST(Generator, WorkloadNamesRoundTrip) {
  for (const WorkloadKind kind : kAll) {
    EXPECT_EQ(parse_workload(workload_name(kind)), kind);
  }
  EXPECT_FALSE(parse_workload("nope"));
}

class SmallScale : public ::testing::TestWithParam<WorkloadKind> {};

std::string notes(const RepResult& r) {
  std::string out;
  for (const std::string& n : r.failures) out += n + "\n";
  return out;
}

TEST_P(SmallScale, IdenticalAtTwoWorkerCounts) {
  const Inputs in = generate(GetParam(), 7, Scale::kSmall);
  const RepResult a = run_rep(in, {1, false});
  const RepResult b = run_rep(in, {2, false});
  EXPECT_EQ(a.attempted, in.flows.size());
  EXPECT_EQ(a.failed, 0u) << notes(a);
  EXPECT_EQ(b.failed, 0u) << notes(b);
  EXPECT_EQ(a.audit_dropped, 0u);
  EXPECT_GT(a.decisions, 0u);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_EQ(a.vsetup_us, b.vsetup_us);
  EXPECT_EQ(a.payload_delivered, b.payload_delivered);
  EXPECT_EQ(a.digest, b.digest);
}

TEST_P(SmallScale, TracedRunMatchesUntraced) {
  const Inputs in = generate(GetParam(), 11, Scale::kSmall);
  const RepResult plain = run_rep(in, {1, false});
  const RepResult traced = run_rep(in, {1, true});
  EXPECT_EQ(traced.failed, 0u) << notes(traced);
  EXPECT_EQ(plain.digest, traced.digest);
  ASSERT_FALSE(traced.layers.empty());
  EXPECT_TRUE(plain.layers.empty());
  for (const Metric& m : traced.layers) {
    if (m.name == "sim.events" || m.name == "controller.decisions") {
      EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmallScale, ::testing::ValuesIn(kAll),
                         [](const auto& info) {
                           return std::string(workload_name(info.param));
                         });

TEST(SmallScale, HostileWorkloadExercisesTheRejectPath) {
  const Inputs in = generate(WorkloadKind::kHostileLossy, 5, Scale::kSmall);
  std::size_t hostile = 0;
  for (const FlowSpec& f : in.flows) hostile += f.hostile ? 1 : 0;
  EXPECT_GT(hostile, 0u);
  const RepResult r = run_rep(in, {1, false});
  EXPECT_EQ(r.failed, 0u) << notes(r);
  EXPECT_GT(r.stats.flows_blocked, 0u);
  EXPECT_GT(r.stats.query_retries, 0u);
}

}  // namespace
}  // namespace perfbench
