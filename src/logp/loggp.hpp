// LogGP-style machine model for the paper's comparison machines (Table 4):
// TMC CM-5, Meiko CS-2, and the U-Net/ATM Sparc cluster.
//
// Each endpoint sends typed messages with the classic parameters: sender
// overhead o_s (charged to the sending fiber), one-way latency L, a
// per-message gap g and per-byte gap G (bandwidth) serializing the sender's
// network port, and receiver overhead o_r.
//
// The deposit rule, which keeps the model deadlock-free: a remote-memory
// operation takes effect on the target in an engine event, never in the
// target's fiber.  put_bytes copies into the target's memory in its
// arrival event; get_bytes sends its reply from the request's arrival
// event, without the target polling.  The target's o_r accrues as a debt
// that its fiber pays at its next poll.  So no put or get waits for the
// target to reach a poll, and a target that computes or waits in a
// barrier cannot stall it.  Typed messages (send()) differ: their
// handlers run in the target's poll().  On SP AM the block owner must
// poll before a get is served, so the two backends model remote reads
// differently.
//
// Delivery is reliable and in order per sender — these machines' networks
// were lossless from the messaging layer's point of view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/world.hpp"

namespace spam::logp {

struct LogGpParams {
  std::string name = "generic";
  /// Per-message sender overhead (us).
  double o_send_us = 3.0;
  /// Per-message receiver overhead (us), paid lazily at the next poll.
  double o_recv_us = 3.0;
  /// One-way network latency (us).
  double latency_us = 3.0;
  /// Minimum inter-message gap at one port (us).
  double gap_us = 1.0;
  /// Per-byte gap, i.e. 1/bandwidth (us per byte).
  double gap_per_byte_us = 0.1;
  /// Relative computation slowdown vs. the SP Power2 node (1.0 = SP).
  double cpu_scale = 1.0;
  /// Cost of one poll call (us).
  double poll_us = 0.5;

  // Presets from paper Table 4.  "Msg Overhead" there is the total software
  // overhead per message; we split it evenly between sender and receiver,
  // and back out L from round-trip = 2*(o_s + L + o_r).

  /// TMC CM-5: 33 MHz Sparc-2 nodes, overhead 3 us, round-trip 12 us,
  /// 10 MB/s per-node bandwidth.
  /// CM-5 per-message gap g ~ 4 us (the NI injection rate dominates
  /// fine-grain throughput even though overhead is low).
  static LogGpParams cm5() {
    return {"CM-5", 1.3, 1.3, 0.7, 4.0, 0.1, 5.0, 0.4};
  }
  /// Meiko CS-2: 40 MHz SuperSparc nodes, overhead 11 us, round-trip 25 us,
  /// 39 MB/s.
  static LogGpParams meiko_cs2() {
    return {"CS-2", 5.5, 5.5, 1.5, 2.5, 1.0 / 39.0, 3.0, 0.4};
  }
  /// U-Net/ATM cluster: 50/60 MHz Sparc-20s over ATM, overhead 3 us,
  /// round-trip 66 us, 14 MB/s.
  static LogGpParams unet_atm() {
    return {"U-Net/ATM", 1.5, 1.5, 27.5, 6.0, 1.0 / 14.0, 2.5, 0.4};
  }
};

/// A message as seen by the receiver's dispatcher.
struct LogGpMsg {
  int src = -1;
  std::uint32_t kind = 0;   // application-defined dispatch code
  std::uint64_t h[4] = {0, 0, 0, 0};
  std::vector<std::byte> data;
};

class LogGpMachine;

class LogGpEndpoint {
 public:
  using Handler = std::function<void(const LogGpMsg&)>;

  LogGpEndpoint(sim::NodeCtx& ctx, LogGpMachine& machine, int rank);

  int rank() const { return rank_; }
  const LogGpParams& params() const;

  /// Sends a message: charges o_s to the caller, serializes on this port's
  /// gap clocks, delivers (and runs the peer's dispatcher) after L.
  void send(int dst, LogGpMsg msg);

  /// Installs the dispatcher invoked for each arriving message.  Arriving
  /// messages are queued and dispatched during the *receiver's* poll().
  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Drains queued arrivals, paying the accumulated receiver overhead.
  void poll();

  // --- Remote-memory operations ------------------------------------------
  // Serviced at event level on the target (its CPU cost accrues as debt),
  // so they complete even while the target computes — the LogGP analogue
  // of the DMA/coprocessor service on these machines.  Completion (ack or
  // data landed) decrements outstanding().

  void put_bytes(int dst, void* dst_addr, const void* src, std::size_t len);
  void get_bytes(int dst, const void* src_addr, void* dst_addr,
                 std::size_t len);
  int outstanding() const { return outstanding_; }

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t bytes_sent = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class LogGpMachine;
  void enqueue_arrival(LogGpMsg msg) { arrivals_.push_back(std::move(msg)); }
  void add_debt(double us) { recv_debt_us_ += us; }
  /// Reserves this port for a message of `bytes`, starting no earlier than
  /// `earliest`; returns the transmission-complete time.  Event-safe.
  sim::Time reserve_port(sim::Time earliest, std::size_t bytes);

  sim::NodeCtx& ctx_;
  LogGpMachine& machine_;
  int rank_;
  Handler handler_;
  std::deque<LogGpMsg> arrivals_;
  double recv_debt_us_ = 0.0;
  sim::Time port_free_ = 0;
  int outstanding_ = 0;
  Stats stats_;
};

class LogGpMachine {
 public:
  LogGpMachine(sim::World& world, LogGpParams params)
      : world_(world), params_(params) {
    endpoints_.reserve(world.size());
    for (int n = 0; n < world.size(); ++n) {
      endpoints_.push_back(
          std::make_unique<LogGpEndpoint>(world.node(n), *this, n));
    }
  }

  LogGpEndpoint& ep(int node) { return *endpoints_.at(node); }
  int size() const { return static_cast<int>(endpoints_.size()); }
  const LogGpParams& params() const { return params_; }
  sim::World& world() { return world_; }

 private:
  friend class LogGpEndpoint;
  sim::World& world_;
  LogGpParams params_;
  std::vector<std::unique_ptr<LogGpEndpoint>> endpoints_;
};

}  // namespace spam::logp
