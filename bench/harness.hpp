// Shared argv / parallel-sweep plumbing for the bench binaries.
//
// Every bench main follows the same shape:
//
//   int main(int argc, char** argv) {
//     spam::bench::harness_init(argc, argv);    // --jobs; exits 2 on others
//     spam::bench::prewarm(points);             // parallel, fills ResultCache
//     ... build report tables, print() each ...
//   }
//
// prewarm() runs the measurement closures across --jobs host threads via
// driver::SweepRunner; each closure constructs and runs its own
// shared-nothing sim::World and stores its scalar into the process-wide
// driver::ResultCache.  The table builders then read cached values, so the
// printed bytes are identical for any --jobs setting — parallelism only
// moves the compute, never the aggregation order.  tests/golden/<bench>.txt
// pins those bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "report/report.hpp"
#include "sim/engine.hpp"

namespace spam::bench {

/// Parses argv: only `--jobs N` or `--jobs=N` (host threads for prewarm
/// sweeps, N >= 0).  Anything else — an unknown argument, a missing,
/// non-numeric or negative N — prints usage and exits 2.
void harness_init(int argc, char** argv);

/// The --jobs value; <= 0 selects hardware_concurrency.
int jobs();

/// Runs every closure across jobs() threads (SweepRunner); returns when all
/// have completed.  Closures must be independent (one World per thread —
/// see docs/simulator.md).
void prewarm(const std::vector<std::function<void()>>& points);

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
/// and the warm-world ModeEquivalence cases assert.
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
