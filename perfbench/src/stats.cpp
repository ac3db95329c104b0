#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of an empty sample");
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, positions i*m/4.
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4;
  }
  return q;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  if (!(p > 0 && p <= 100)) throw std::invalid_argument("percentile outside (0, 100]");
  const double rank = std::ceil(p / 100 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double tail_percentile(std::uint64_t n) {
  // Rungs in tenths of a percent, so "samples beyond" is exact integer math.
  for (const std::uint64_t tenths : {990u, 950u, 900u, 750u, 500u}) {
    if (n * (1000 - tenths) >= 10 * 1000) return static_cast<double>(tenths) / 10;
  }
  return 50;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

namespace {

bool all_of_set(const std::string& s, const char* extra) {
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalnum(u) || std::string(extra).find(c) != std::string::npos;
  });
}

}  // namespace

bool valid_metric_name(const std::string& s) {
  return !s.empty() && s.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(s[0])) && all_of_set(s, "_.-");
}

bool valid_unit(const std::string& s) {
  return !s.empty() && s.size() <= 16 && all_of_set(s, "_/%.-");
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
  if (!valid_unit(unit)) throw std::invalid_argument("bad unit for " + name);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite " + name);
  for (const Metric& m : metrics) {
    if (m.name == name) throw std::invalid_argument("duplicate metric " + name);
  }
  metrics.push_back({name, value, unit});
}

std::string Result::to_json() const {
  // Names and units are validated on add(), so they need no escaping.
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  char num[32];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    if (i != 0) j += ", ";
    j += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  j += "}}";
  return j;
}

}  // namespace perfbench
