// Shared argv / parallel-sweep plumbing for the bench binaries.
//
// A bench is one table function of bench/tables.hpp; bench/main.cpp calls
// harness_init() for --jobs, then regenerate() on the table function in
// production and prints its text.  The table function is the only list of
// the bench's points; regenerate() calls it twice.  The record pass
// computes nothing: each cached() miss (bench/micro.hpp) is recorded and
// reads a placeholder record, and the text is dropped.  The recorded
// points then run across --jobs host threads on driver::SweepRunner, each
// in its own shared-nothing sim::World, filling the process-wide
// driver::ResultCache.  The print pass runs the table function again; a
// cache miss there means the passes read different points, and the bench
// exits 1.  The printed bytes are identical for any --jobs setting
// (tests/golden/<bench>.txt pins them) and in every mode cell
// (BenchModeEquivalence compares each point's record).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mpif/mpif.hpp"
#include "report/report.hpp"
#include "sim/engine.hpp"
#include "sphw/params.hpp"

namespace spam::bench {

/// Parses argv and returns the --jobs value (host threads for the
/// parallel phase; 0, the default, selects hardware_concurrency).  Only
/// `--jobs N` or `--jobs=N` is accepted; anything else — an unknown
/// argument, a missing, non-numeric or negative N — prints usage and
/// exits 2.
int harness_init(int argc, char** argv);

/// What the record → parallel → print entry produced.
struct Regeneration {
  std::string text;                // the print pass's text
  std::uint64_t print_misses = 0;  // cache misses during the print pass
};

/// Record pass, parallel phase on `jobs` threads, print pass (see above).
Regeneration regenerate(const std::function<std::string()>& tables,
                        int jobs);

// --- Figure 3 ---------------------------------------------------------------
// Used by bench_fig3_bandwidth, tools/spamsim, and the serial-vs-parallel
// determinism test (SweepDeterminism.*), so all three agree on the bytes.

/// The rendered Figure 3 table for `sizes` on `hw` nodes (six curves).
report::Table fig3_table(const std::vector<std::size_t>& sizes,
                         sphw::SpParams hw = sphw::SpParams::thin_node());

// --- Figures 8-11 -----------------------------------------------------------

/// The MPI per-hop latency (4-node ring) and point-to-point bandwidth
/// tables, four curves each — raw am_store, unoptimized MPI-AM, optimized
/// MPI-AM and MPI-F (configured by `f_cfg`) — on `hw` nodes, followed by
/// `note`.
std::string mpi_figures(const sphw::SpParams& hw,
                        const mpif::MpiFConfig& f_cfg,
                        const std::string& latency_title,
                        const std::string& bandwidth_title,
                        const std::string& note);

// --- Steady-state allocation -----------------------------------------------

/// Snapshot of every allocation counter the simulator hot path can touch.
/// The difference of two snapshots around a warm steady-state phase must be
/// zero: that is the zero-allocation property tests/test_steady_state.cpp
/// and the warm-world ModeEquivalence cases assert.
struct AllocCounters {
  std::uint64_t event_nodes = 0;      // Engine pool growth
  std::uint64_t heap_actions = 0;     // InlineAction heap fallbacks
  std::uint64_t payload_buffers = 0;  // PayloadPool growth
  std::uint64_t event_queue = 0;      // Engine queue capacity growth

  static AllocCounters sample(const sim::Engine& engine);
  AllocCounters operator-(const AllocCounters& before) const;
  std::uint64_t total() const {
    return event_nodes + heap_actions + payload_buffers + event_queue;
  }
};

}  // namespace spam::bench
