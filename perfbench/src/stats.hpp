// Order statistics and the result line the benchmark prints.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
double median(std::vector<double> v);

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (the
/// default "exclusive" method), so in-run spreads read the same way as the
/// spreads computed over whole runs.  Needs at least one value.
std::array<double, 3> quartiles(std::vector<double> v);

/// Nearest-rank percentile `p` (0 < p <= 100) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// The highest percentile of {99, 95, 90, 75, 50} that leaves at least
/// ten of `n` samples beyond it; 50 when no rung does (n < 20).  The
/// ladder stops at 99: rarer host events make a p99.9 unsteady.
double tail_percentile(std::uint64_t n);

/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
double ratio(double a, double b);

/// Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
bool valid_metric_name(const std::string& s);
/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
bool valid_unit(const std::string& s);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The benchmark's verdict on one run: printed as the last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Appends a metric.  Throws std::invalid_argument on a bad name or
  /// unit, a duplicate name, or a value that is not finite.
  void add(const std::string& name, double value, const std::string& unit);

  /// One JSON object: {"correct", "attempted", "failed", "metrics"}, each
  /// value printed with every significant digit.
  std::string to_json() const;
};

}  // namespace perfbench
