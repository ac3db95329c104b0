// Shared argv / parallel-sweep / JSON plumbing for the bench binaries.
//
// Every bench main follows the same shape:
//
//   int main(int argc, char** argv) {
//     spam::bench::harness_init(&argc, argv);   // strips --jobs/--quick/--out
//     benchmark::Initialize(&argc, argv);
//     ... register benchmarks ...
//     spam::bench::prewarm(points);             // parallel, fills ResultCache
//     benchmark::RunSpecifiedBenchmarks();      // serial pass, hits the cache
//     ... build report tables, emit(t) each ...
//     return spam::bench::harness_finish();
//   }
//
// prewarm() runs the measurement closures across --jobs host threads via
// driver::SweepRunner; each closure constructs and runs its own
// shared-nothing sim::World and stores its scalar into the process-wide
// driver::ResultCache.  The serial google-benchmark pass and the table
// builders then read cached values, so the emitted bytes are identical for
// any --jobs setting — parallelism only moves the compute, never the
// aggregation order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report/report.hpp"
#include "sim/engine.hpp"

namespace spam::bench {

struct HarnessOptions {
  /// Host threads for prewarm sweeps.  <= 0 selects hardware_concurrency.
  int jobs = 0;
  /// Benches may trim their sweeps when set (smoke runs).
  bool quick = false;
  /// When non-empty, harness_finish() writes emitted tables here as JSON.
  std::string out;
};

HarnessOptions& options();

/// Strips the harness flags (--jobs N|--jobs=N, --quick, --out P|--out=P)
/// from argv so the remainder can go to benchmark::Initialize untouched.
void harness_init(int* argc, char** argv);

/// Runs every closure across options().jobs threads (SweepRunner); returns
/// when all have completed.  Closures must be independent (one World per
/// thread — see docs/simulator.md).
void prewarm(const std::vector<std::function<void()>>& points);

/// Prints the table to stdout and records it for harness_finish()'s JSON.
void emit(const report::Table& t);
void emit(const report::PaperComparison& c);

/// Writes collected tables to options().out (no-op when --out was absent).
/// Returns 0, so mains can `return harness_finish();`.
int harness_finish();

// --- Figure 3 shared sweep --------------------------------------------------
// Used by bench_fig3_bandwidth, tools/spamsim, and the serial-vs-parallel
// determinism test (SweepDeterminism.*), so all three agree on the bytes.

/// One closure per (curve, size) point; running them fills the ResultCache.
std::vector<std::function<void()>> fig3_points(
    const std::vector<std::size_t>& sizes);

/// The rendered Figure 3 table for `sizes` (reads cached points when warm).
report::Table fig3_table(const std::vector<std::size_t>& sizes);

// --- Steady-state allocation -----------------------------------------------

/// Snapshot of every allocation counter the simulator hot path can touch.
/// The difference of two snapshots around a warm steady-state phase must be
/// zero: that is the zero-allocation property tests/test_steady_state.cpp
/// and the warm-world LocalClockEquivalence cases assert.
struct AllocCounters {
  std::uint64_t event_nodes = 0;      // Engine pool growth
  std::uint64_t heap_actions = 0;     // InlineAction heap fallbacks
  std::uint64_t payload_buffers = 0;  // PayloadPool growth

  static AllocCounters sample(const sim::Engine& engine);
  AllocCounters operator-(const AllocCounters& before) const;
  std::uint64_t total() const {
    return event_nodes + heap_actions + payload_buffers;
  }
};

}  // namespace spam::bench
