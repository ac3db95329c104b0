// MPL baseline: a model of IBM's message-passing library (mpc_send /
// mpc_recv / mpc_bsend / mpc_brecv) over the same simulated TB2 adapter.
//
// What matters for the paper's comparison is MPL's externally measured
// profile: ~88 us one-word round-trip, ~34.6 MB/s asymptotic bandwidth,
// and a much larger half-power point than SP AM.  The model reproduces the
// software path that produces that profile: a heavyweight per-message send
// path, receiver-side matching with a staging-buffer copy, and per-packet
// costs on the same FIFO/doorbell hardware.  Reliability is credit-based:
// the sender never has more packets outstanding per destination than the
// receive FIFO can hold, so nothing is ever dropped (the real TB2 firmware
// guaranteed delivery to MPL).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/world.hpp"
#include "sphw/adapter.hpp"
#include "sphw/machine.hpp"

namespace spam::mpl {

struct MplParams {
  /// Per-message sender software path (allocation, header build, queueing).
  double send_sw_us = 12.0;
  /// Per-message receiver software path (matching, bookkeeping).
  double recv_sw_us = 9.3;
  /// Per-packet sender cost beyond the FIFO write/doorbell.
  double per_packet_us = 2.2;
  /// Staging copy at the receiver (packets land in a system buffer first).
  /// Staging buffers stay cache-resident, so this runs faster than the
  /// FIFO drain; MPL pays for its copies in fixed per-message costs, not in
  /// asymptotic bandwidth (its r-infinity matches SP AM's).
  double sysbuf_copy_us_per_byte = 0.004;
  /// Final copy from the system buffer into the user's receive buffer.
  double user_copy_us_per_byte = 0.004;
  /// Cost of one progress poll.
  double poll_us = 1.5;
  /// Credit window per destination, in packets (fits the receive FIFO).
  int credit_window = 64;
  /// Receiver returns credits after consuming this many packets.
  int credit_return_every = 16;
};

/// Wildcard markers for mpc_brecv/mpc_recv.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class MplEndpoint {
 public:
  MplEndpoint(sim::NodeCtx& ctx, sphw::Tb2Adapter& adapter, MplParams params);

  MplEndpoint(const MplEndpoint&) = delete;
  MplEndpoint& operator=(const MplEndpoint&) = delete;

  int rank() const { return adapter_.node(); }

  /// Nonblocking send: queues the message, returns a handle for mpc_wait.
  int mpc_send(const void* buf, std::size_t len, int dst, int tag);

  /// Nonblocking receive: posts a receive, returns a handle for mpc_wait.
  int mpc_recv(void* buf, std::size_t maxlen, int src = kAnySource,
               int tag = kAnyTag);

  /// Blocks until the handle completes (send fully handed to the adapter,
  /// or receive matched and copied).  Returns the received byte count for
  /// receives (0 for sends).
  std::size_t mpc_wait(int handle);

  /// Non-blocking completion check; on success removes the handle and
  /// stores the received byte count (0 for sends).  Does not poll.
  bool mpc_test(int handle, std::size_t* bytes = nullptr);

  /// Blocking send/receive conveniences (the forms the paper benchmarks).
  void mpc_bsend(const void* buf, std::size_t len, int dst, int tag) {
    mpc_wait(mpc_send(buf, len, dst, tag));
  }
  std::size_t mpc_brecv(void* buf, std::size_t maxlen, int src = kAnySource,
                        int tag = kAnyTag) {
    return mpc_wait(mpc_recv(buf, maxlen, src, tag));
  }

  /// Progress engine: drains the receive FIFO, assembles messages, matches
  /// them, returns credits, and pushes pending sends as credits allow.
  void poll();

  struct Stats {
    std::uint64_t msgs_sent = 0;
    std::uint64_t msgs_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t credit_returns = 0;
    /// Messages that completed with no matching receive posted.
    std::uint64_t unexpected_msgs = 0;
    /// Complete messages the matcher examined, summed over every match
    /// step.  Deterministic; linear in messages received plus, per posted
    /// receive, the backlog it skips.
    std::uint64_t match_steps = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct SendOp {
    int handle;
    std::uint32_t msg_id;
    int dst;
    int tag;
    sphw::PayloadRef data;  // pooled snapshot of the user buffer
    std::size_t sent = 0;
    bool first_packet_pending = true;
    bool done = false;  // fully handed to the adapter
  };
  struct RecvOp {
    int handle;
    int src;  // kAnySource ok
    int tag;  // kAnyTag ok
    std::byte* buf;
    std::size_t maxlen;
  };
  /// A message being assembled, or complete and not yet delivered.
  struct InMsg {
    int src;
    int tag;
    std::uint32_t msg_id;
    std::vector<std::byte> sysbuf;
    std::size_t received = 0;
  };
  static std::uint64_t msg_key(int src, std::uint32_t msg_id) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           msg_id;
  }
  struct PeerCredit {
    int in_flight = 0;       // packets we sent minus credits returned
    int consumed_unacked = 0;  // packets we consumed, credits not yet sent
  };

  void progress_sends();
  void handle_packet(sphw::Packet pkt);
  void match_arrived();
  bool matches(const RecvOp& r, const InMsg& m) const {
    return (r.src == kAnySource || r.src == m.src) &&
           (r.tag == kAnyTag || r.tag == m.tag);
  }
  void deliver(const RecvOp& r, const InMsg& m);
  void return_credits(int src);

  sim::NodeCtx& ctx_;
  sphw::Tb2Adapter& adapter_;
  MplParams params_;

  int next_handle_ = 1;
  std::uint32_t next_msg_id_ = 1;

  std::deque<SendOp> send_q_;
  // Matching invariant: after every match step no posted_ receive matches
  // any unmatched_ message.  Only a new receive or a newly arrived message
  // can form a pair, so neither side is ever re-scanned.
  /// Receives awaiting a message, in post order.
  std::vector<RecvOp> posted_;
  /// Messages still receiving packets, keyed by (src, msg_id).
  std::unordered_map<std::uint64_t, InMsg> assembling_;
  /// Complete messages not yet matched (this drain's), in arrival order.
  std::list<InMsg> arrived_;
  /// Complete messages no posted receive matches, in arrival order.
  std::list<InMsg> unmatched_;
  std::vector<PeerCredit> credits_;
  std::vector<bool> dst_seen_;  // progress_sends scratch (avoids churn)
  // Completed handles (send handles and recv handles with byte counts).
  std::vector<std::pair<int, std::size_t>> completed_;

  Stats stats_;
};

/// One MPL endpoint per node of a machine.
class MplNet {
 public:
  explicit MplNet(sphw::SpMachine& machine, MplParams params = {})
      : params_(params) {
    endpoints_.resize(static_cast<std::size_t>(machine.size()));
    for (int n = 0; n < machine.size(); ++n) {
      endpoints_[n] = std::make_unique<MplEndpoint>(
          machine.world().node(n), machine.adapter(n), params_);
    }
  }
  MplEndpoint& ep(int node) { return *endpoints_.at(node); }
  int size() const { return static_cast<int>(endpoints_.size()); }

 private:
  MplParams params_;
  std::vector<std::unique_ptr<MplEndpoint>> endpoints_;
};

}  // namespace spam::mpl
