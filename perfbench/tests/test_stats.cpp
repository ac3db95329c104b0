// Tests of the benchmark's statistics and of the result line it prints.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Expected values from Python: statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  const auto r = quartiles({10, 1, 7, 3});  // unsorted input
  EXPECT_DOUBLE_EQ(r[0], 1.5);
  EXPECT_DOUBLE_EQ(r[1], 5);
  EXPECT_DOUBLE_EQ(r[2], 9.25);
  const auto two = quartiles({1, 2});  // extrapolates, as Python does
  EXPECT_DOUBLE_EQ(two[0], 0.75);
  EXPECT_DOUBLE_EQ(two[1], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 2.25);
  const auto one = quartiles({7});  // Python refuses; one value is its own spread
  EXPECT_DOUBLE_EQ(one[0], 7);
  EXPECT_DOUBLE_EQ(one[2], 7);
  EXPECT_THROW(quartiles({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({5}, 99), 5);
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0);
  EXPECT_THROW(percentile(v, 0), std::invalid_argument);
}

// The tail percentile must leave at least ten samples beyond it.
TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_percentile(100000), 99);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99);
  EXPECT_DOUBLE_EQ(tail_percentile(999), 95);
  EXPECT_DOUBLE_EQ(tail_percentile(200), 95);
  EXPECT_DOUBLE_EQ(tail_percentile(199), 90);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 90);
  EXPECT_DOUBLE_EQ(tail_percentile(99), 75);
  EXPECT_DOUBLE_EQ(tail_percentile(40), 75);
  EXPECT_DOUBLE_EQ(tail_percentile(39), 50);
  EXPECT_DOUBLE_EQ(tail_percentile(20), 50);
  EXPECT_DOUBLE_EQ(tail_percentile(10), 50);  // fallback: fewer than 20
  for (std::uint64_t n = 20; n <= 5000; ++n) {
    const double p = tail_percentile(n);
    EXPECT_GE(static_cast<double>(n) * (100 - p) / 100, 10 - 1e-9) << n;
  }
}

TEST(Ratio, ZeroDenominatorReadsZero) {
  EXPECT_DOUBLE_EQ(ratio(3, 2), 1.5);
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0);
}

TEST(MetricName, Pattern) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("sim.events_per_packet"));
  EXPECT_TRUE(valid_metric_name("mpi.nas_bt_host_ms"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name("slash/"));
  EXPECT_TRUE(valid_unit("MB/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("virt_us"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("a b"));
  EXPECT_FALSE(valid_unit(std::string(17, 'u')));
}

TEST(Result, JsonShape) {
  Result r;
  r.attempted = 12;
  r.failed = 0;
  r.add("wall_s", 0.125, "s");
  r.add("sim.events", 544720, "count");
  EXPECT_EQ(r.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"wall_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"sim.events\": "
            "{\"value\": 544720, \"unit\": \"count\"}}}");
  r.correct = false;
  EXPECT_EQ(r.to_json().rfind("{\"correct\": false, ", 0), 0u);
}

TEST(Result, KeepsEveryDigit) {
  Result r;
  r.add("x", 0.1 + 0.2, "s");
  EXPECT_NE(r.to_json().find("0.30000000000000004"), std::string::npos);
}

TEST(Result, RejectsBadMetrics) {
  Result r;
  r.add("ok", 1, "s");
  EXPECT_THROW(r.add("ok", 2, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("bad name", 1, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("u", 1, "bad unit"), std::invalid_argument);
  EXPECT_THROW(r.add("nan", std::nan(""), "s"), std::invalid_argument);
  EXPECT_THROW(r.add("inf", std::numeric_limits<double>::infinity(), "s"), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
