// TB2 network adapter model.
//
// The host side (called from the node's fiber, charging CPU time) mirrors
// the paper's programming interface: write a packet into the next
// memory-resident send-FIFO entry, flush its cache lines, then store the
// transfer length into the packet-length array in adapter memory across the
// MicroChannel (the "doorbell", ~1 us; bulk senders batch several lengths
// into one store).  The adapter firmware (pure engine events) DMAs
// doorbelled entries across the MicroChannel, runs i860 processing, and
// serializes packets onto the switch link.  Receives flow the opposite way
// into a bounded receive FIFO; the host pops entries lazily, one
// MicroChannel access per batch.
//
// The tx/rx pipelines are modeled analytically with per-resource
// next-free-time clocks (DMA engine, i860, link); packets move strictly
// FIFO through each resource, so arrival times can be computed at submit
// time and a single delivery event scheduled.
//
// --- Network fast path ----------------------------------------------------
// When a route is provably uncontended the per-packet event chain
// (FIFO-free, depart, switch hop, arrive — 4 events) collapses to ONE fused
// delivery event at the analytically computed arrival instant:
//
//   * the destination keeps a *reservation ledger* (fused_) recording, per
//     in-flight fused packet, its switch-entry instant and the rx-clock
//     values before its speculative application, so any conflicting later
//     traffic can roll the tail of the ledger back (restore clocks LIFO,
//     reschedule real per-hop events) and fall back mid-flight;
//   * eligibility demands no fault hook, no per-hop packet in flight to
//     the destination (pending_slow_ == 0), and switch-entry monotonicity
//     against the ledger tail — exactly the conditions under which the
//     submit-time computation reproduces the per-hop arithmetic bit for
//     bit (same sim::Time ops, same order);
//   * the sender's FIFO-free event is settled lazily against now() in the
//     host_send_space()/host_send_free() queries (the only observers).
//
// --- Host costs and the local clock ----------------------------------------
// The host-side FIFO store, cache flush, doorbell access and copy-out are
// fiber-local CPU time, charged as NodeCtx debt (charge()).  Every
// host call that touches engine-visible state settles the calling node
// first (the queries below, the doorbell's submit, the lazy pop's FIFO
// release), so a run of charges materializes as one engine sleep at exactly
// the instant an elapse() per charge would reach.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/world.hpp"
#include "sphw/packet.hpp"
#include "sphw/params.hpp"

namespace spam::sphw {

class SwitchFabric;

class Tb2Adapter {
 public:
  Tb2Adapter(sim::Engine& engine, SwitchFabric& fabric, int node,
             const SpParams& params, int active_nodes);

  Tb2Adapter(const Tb2Adapter&) = delete;
  Tb2Adapter& operator=(const Tb2Adapter&) = delete;

  int node() const { return node_; }
  const SpParams& params() const { return params_; }

  // --- Host send side (call from the node fiber) --------------------------

  /// True if the send FIFO has a free entry.  Settles the calling node and
  /// then the lazily tracked FIFO-free instants against the clock first.
  bool host_send_space() {
    settle_send_fifo();
    return send_fifo_used_ < params_.send_fifo_entries;
  }
  int host_send_free() {
    settle_send_fifo();
    return params_.send_fifo_entries - send_fifo_used_;
  }

  /// Writes `pkt` into the next send-FIFO entry: charges the store and
  /// cache-flush costs.  If `doorbell_npackets > 0`, follows up with
  /// host_doorbell(doorbell_npackets) — one MicroChannel access covering
  /// this packet and the doorbell_npackets-1 enqueued before it (batched
  /// senders pass the batch size on the batch-completing enqueue, 0
  /// otherwise; plain senders pass 1).  Requires free space.
  void host_enqueue(sim::NodeCtx& ctx, Packet pkt, int doorbell_npackets = 1);

  /// Stores the lengths of the `npackets` most recently enqueued (and not
  /// yet doorbelled) packets with a single MicroChannel access, then hands
  /// them to the adapter at the caller's settled instant.
  void host_doorbell(sim::NodeCtx& ctx, int npackets);

  // --- Host receive side ---------------------------------------------------

  /// Number of packets sitting in the host-visible receive FIFO.  Both
  /// queries settle the calling node first.
  int host_rx_pending() {
    sim::settle_running_node();
    return static_cast<int>(rx_queue_.size());
  }
  bool host_rx_ready() {
    sim::settle_running_node();
    return !rx_queue_.empty();
  }

  /// Fast-path polling hint: a lower bound on the instant at which
  /// host_rx_ready() *can* become true, or 0 when it already is / no bound
  /// is provable.  Valid only when every inbound packet is fused (ledger
  /// arrivals are ordered, and any mid-flight rollback re-delivers at the
  /// bit-identical per-hop instant, never earlier); per-hop packets in
  /// flight or pending arrive events forfeit the hint.  With the ledger
  /// empty on a fabric of two adapters, the bound is the engine's next
  /// event bound plus the least submit-to-arrival latency: the parked peer
  /// can submit nothing sooner (0 if the queue is empty).  On fabrics of
  /// three or more adapters an empty ledger gives 0, and a ledger front is
  /// capped at now plus the least submit-to-arrival latency, since a third
  /// node's later packet can overtake it.
  sim::Time host_rx_ready_time() const;

  /// Copies the front packet out of the receive FIFO (charges the copy) and
  /// performs the lazy-pop bookkeeping (one MicroChannel access per
  /// lazy_pop_batch takes, which is when FIFO entries actually free up).
  Packet host_rx_take(sim::NodeCtx& ctx);

  /// Forces the lazy pop to flush now (frees all consumed entries at the
  /// caller's settled instant, where in-flight arrivals can observe them).
  void host_rx_flush_pops(sim::NodeCtx& ctx);

  // --- Fabric side (engine events only) ------------------------------------

  /// Called by the switch at the instant the packet reaches this adapter.
  void deliver_from_switch(Packet pkt);

  /// Fast path: the sender finished computing its tx clocks and asks this
  /// (destination) adapter to reserve the rx pipeline for a packet entering
  /// the switch at `t_link` and leaving it at `t_hop`.  On success the
  /// packet is consumed, its rx-clock updates are applied speculatively,
  /// one fused delivery event replaces the depart/hop/arrive chain, and
  /// true is returned.  Returns false (packet untouched) when ineligible.
  bool try_engage_fused(Packet& pkt, sim::Time t_link, sim::Time t_hop);

  /// A per-hop (slow-path) packet is now in flight toward this adapter;
  /// fused engagement is barred until it lands (its rx-clock contribution
  /// is only known at its hop event).
  void note_slow_inflight() { ++pending_slow_; }
  /// The in-flight slow packet was dropped by the fault hook instead.
  void note_slow_dropped() { --pending_slow_; }

  /// A fault hook is being armed: fall every reservation whose switch-entry
  /// instant is still in the future back to per-hop (the hook must see
  /// those packets at their depart events).
  void disengage_fused_for_faults();

  /// Interrupt line: invoked (from an engine event) whenever a packet
  /// becomes host-visible while the line is armed.  Used by the AM layer's
  /// interrupt-driven reception mode; polling mode leaves it unset.
  void set_rx_notify(std::function<void()> fn) { rx_notify_ = std::move(fn); }
  void clear_rx_notify() { rx_notify_ = nullptr; }

  struct Stats {
    std::uint64_t tx_packets = 0;
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_dropped_fifo_full = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t fused_deliveries = 0;  // packets that arrived fused
    std::uint64_t fused_rollbacks = 0;   // mid-flight disengagements
  };
  const Stats& stats() const { return stats_; }

  /// Entries currently occupied from the adapter's point of view
  /// (includes host-consumed entries not yet lazily popped).
  int rx_fifo_occupied() const { return rx_fifo_used_; }

 private:
  void submit_to_tx_pipeline(Packet pkt);
  void settle_send_fifo();
  /// Side-effect-free space check for assertions: counts entries whose
  /// lazy free instant the engine clock has reached, settles nothing.
  bool has_free_entry() const;
  /// The shared arrive body: FIFO-full check, enqueue, notify.  Runs at the
  /// packet's arrival instant on both the per-hop and the fused path.
  void complete_rx(Packet pkt);
  void fused_arrival(std::uint64_t serial);
  /// Rolls back every reservation ordered after `keep` entries: restores
  /// the rx clocks to the state before the first rolled-back reservation
  /// and reschedules real per-hop events in engagement order.
  void rollback_fused_suffix(std::size_t keep);
  void rollback_fused_after(sim::Time t_hop);

  sim::Engine& engine_;
  SwitchFabric& fabric_;
  const int node_;
  const SpParams params_;
  // Least submit-to-arrival latency of any packet (host_rx_ready_time).
  const sim::Time min_latency_;

  // Send side.
  int send_fifo_used_ = 0;
  std::deque<Packet> awaiting_doorbell_;
  // Lazily settled FIFO-free instants (fast path); monotonic because
  // tx_dma_free_ is.  Bounded by send_fifo_entries.
  std::deque<sim::Time> fifo_free_at_;

  // Tx pipeline next-free clocks.
  sim::Time tx_dma_free_ = 0;
  sim::Time tx_i860_free_ = 0;
  sim::Time link_free_ = 0;

  // Rx pipeline next-free clocks.
  sim::Time rx_i860_free_ = 0;
  sim::Time rx_dma_free_ = 0;

  // Fused-reservation ledger (this adapter as destination), ordered by
  // engagement == switch-exit == arrival order.  pre_* snapshot the rx
  // clocks before the reservation's speculative application so a rollback
  // can restore them LIFO.  Serials are never reused: a rolled-back
  // reservation's already-queued fused event finds a serial mismatch and
  // degenerates to a no-op.
  struct FusedReservation {
    std::uint64_t serial = 0;
    sim::Time t_link = 0;  // sender link completion (per-hop depart instant)
    sim::Time t_hop = 0;   // switch-exit instant (per-hop deliver instant)
    sim::Time pre_i860 = 0;
    sim::Time pre_dma = 0;
    sim::Time t_arrive = 0;  // fused delivery instant (host_rx_ready_time)
    Packet pkt;
  };
  std::deque<FusedReservation> fused_;
  std::uint64_t next_fused_serial_ = 0;
  // Per-hop packets in flight toward this adapter (they apply their
  // rx-clock updates only at their hop events, so fused submit-time
  // computation is barred while any are outstanding).
  int pending_slow_ = 0;
  // Per-hop arrive events scheduled but not yet fired: their arrival
  // instants are not in the fused ledger, so host_rx_ready_time() must
  // decline to predict while any are outstanding.
  int slow_arrivals_pending_ = 0;

  // Receive FIFO: capacity tracks adapter view; rx_queue_ is what the host
  // can see; pops_owed_ counts host takes not yet flushed to the adapter.
  const int rx_fifo_capacity_;
  int rx_fifo_used_ = 0;
  std::deque<Packet> rx_queue_;
  int pops_owed_ = 0;
  std::function<void()> rx_notify_;

  Stats stats_;
};

}  // namespace spam::sphw
