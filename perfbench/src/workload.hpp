// A workload: fixed work, made from the seed, that one pass runs in full.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accuracy.hpp"
#include "counters.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one pass did and measured.
struct Pass {
  bool traced = false;  // recorded spans
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time, every thread
  long minflt = 0;   // getrusage deltas over the pass
  long nivcsw = 0;
  Counters counters;
  double sim_wall_s = 0;      // host time inside the worlds the pass built
  std::vector<double> op_us;  // host latency of each operation; emptied
  double op_p50_us = 0;       // by timed_pass into its median and tail
  double op_tail_us = 0;
  /// Per-pass values of per-layer metrics the workload measures itself,
  /// keyed by metric name (virtual results, driver ratios, ...).
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;  // operations whose output was verified
  std::uint64_t failed = 0;
  std::string first_failure;

  /// Records one verified operation.
  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (failed++ == 0) first_failure = what;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the whole workload once: builds its worlds, runs them and
  /// verifies every output.  With `logs` non-null the pass records spans
  /// into logs it appends there (one per host thread of work).
  virtual void run_pass(Pass& p, std::vector<SpanLog>* logs) = 0;

  /// Operation latency samples one pass records.
  virtual std::uint64_t ops_per_pass() const = 0;

  /// The percentile of one pass's operation latencies that op_tail_us
  /// reports (as its median over the passes).  By default the highest
  /// rung that leaves ten operations of a pass beyond it.  It should not
  /// sit on a boundary between clusters of different operations, where it
  /// would jump between them.
  virtual double tail_percentile() const {
    return perfbench::tail_percentile(ops_per_pass());
  }

  /// The model's accuracy; by default computed after the measured passes.
  virtual Accuracy accuracy() { return measure_accuracy(); }
};

std::unique_ptr<Workload> make_am_micro(std::uint64_t seed);
std::unique_ptr<Workload> make_splitc_am(std::uint64_t seed);
std::unique_ptr<Workload> make_splitc_mpl(std::uint64_t seed);
std::unique_ptr<Workload> make_paper_sweep(std::uint64_t seed);

}  // namespace perfbench
