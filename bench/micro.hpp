// Shared measurement routines for the table/figure benches: the paper's
// microbenchmark definitions (section 2.3-2.5) expressed against the
// simulated SP, plus MPI ring latency / point-to-point bandwidth used by
// Figures 7-11.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "am/net.hpp"
#include "driver/sweep.hpp"
#include "mpif/mpi_world.hpp"
#include "mpl/mpl.hpp"
#include "report/report.hpp"
#include "splitc/splitc_world.hpp"

namespace spam::bench {

// --- SP AM microbenchmarks -------------------------------------------------

/// One-word (or N-word) am_request/am_reply ping-pong round-trip, thin
/// nodes unless overridden (paper section 2.3: 51.0 us for one word).
double am_rtt_us(int words, sphw::SpParams hw = sphw::SpParams::thin_node(),
                 am::AmParams amp = {});

/// Raw adapter-level ping-pong without flow control (paper: 46.5 us).
double raw_rtt_us(sphw::SpParams hw = sphw::SpParams::thin_node());

/// Cost of a successful am_request_N / am_reply_N call (paper Table 2).
double am_request_cost_us(int words,
                          sphw::SpParams hw = sphw::SpParams::thin_node());
double am_reply_cost_us(int words,
                        sphw::SpParams hw = sphw::SpParams::thin_node());
/// Poll costs (paper: 1.3 us empty, +1.8 us per received message).
double am_poll_empty_us(sphw::SpParams hw = sphw::SpParams::thin_node());
double am_poll_per_msg_us(sphw::SpParams hw = sphw::SpParams::thin_node());

enum class AmBwMode {
  kSyncStore,            // blocking am_store per transfer
  kSyncGet,              // blocking am_get per transfer
  kPipelinedAsyncStore,  // 1 MB streamed as size-n am_store_async
  kPipelinedAsyncGet,    // 1 MB streamed as size-n am_get
};

/// One-way bandwidth for transfers of `bytes` (paper section 2.4).
double am_bandwidth_mbps(AmBwMode mode, std::size_t bytes,
                         sphw::SpParams hw = sphw::SpParams::thin_node(),
                         am::AmParams amp = {});

// --- MPL microbenchmarks ---------------------------------------------------

/// mpc_bsend/mpc_brecv one-word ping-pong (paper: 88 us).
double mpl_rtt_us(sphw::SpParams hw = sphw::SpParams::thin_node(),
                  mpl::MplParams mp = {});

enum class MplBwMode {
  kBlocking,   // mpc_bsend followed by a 0-byte echo
  kPipelined,  // streamed mpc_send
};
double mpl_bandwidth_mbps(MplBwMode mode, std::size_t bytes,
                          sphw::SpParams hw = sphw::SpParams::thin_node(),
                          mpl::MplParams mp = {});

/// Sweep sizes used by Figure 3 (16 B .. 1 MB, log-spaced).
std::vector<std::size_t> figure3_sizes();

// --- MPI measurements (Figures 7-11) ----------------------------------------

/// Per-hop latency around a 4-node ring (paper's Figure 8/10 methodology).
double mpi_hop_latency_us(const mpi::MpiWorldConfig& cfg, std::size_t bytes);

/// One-way point-to-point bandwidth between two nodes.
double mpi_bandwidth_mbps(const mpi::MpiWorldConfig& cfg, std::size_t bytes);

/// Raw am_store reference curve used in the MPI figures.
double am_store_hop_latency_us(std::size_t bytes, sphw::SpParams hw);
double am_store_bandwidth_mbps(std::size_t bytes, sphw::SpParams hw);

// --- Memoization -------------------------------------------------------------

using driver::Record;

/// The one funnel every entry point above goes through: the ResultCache
/// record under `key`, `width` doubles wide, computed by `compute` on a
/// miss.  A bench that measures something of its own keys it the same way
/// (a Hasher named after the measurement, then every parameter), so its
/// points join the same parallel phase.  Inside record_points() a miss
/// computes nothing: it is recorded and reads a placeholder record,
/// `width` copies of kRecordPlaceholder.
Record cached(const driver::Hasher& key, std::size_t width,
              std::function<Record()> compute);

/// A scalar point: a record of width 1.
inline double cached(const driver::Hasher& key,
                     std::function<Record()> compute) {
  return cached(key, 1, std::move(compute))[0];
}

/// Mixes every field of a parameter struct into a key (no padding bytes).
driver::Hasher& mix(driver::Hasher& h, const sphw::SpParams& p);
driver::Hasher& mix(driver::Hasher& h, const mpi::MpiWorldConfig& p);

/// What each element of a record read during record_points() holds.
/// Non-zero, so table code may divide by it.
inline constexpr double kRecordPlaceholder = 1.0;

/// One point met by a record pass: its cache key and its computation.
struct RecordedPoint {
  std::uint64_t key;
  std::function<Record()> compute;
};

/// Runs `fn` as a record pass on the calling thread: each cached() miss is
/// recorded instead of computed, once per key, in the order first met.
/// Points already cached read their record and are not recorded.
std::vector<RecordedPoint> record_points(const std::function<void()>& fn);

}  // namespace spam::bench
