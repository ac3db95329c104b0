#include "sphw/adapter.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/hot.hpp"
#include "sim/trace.hpp"
#include "sphw/switch.hpp"

namespace spam::sphw {

namespace {
sim::Time ceil_us(double us) { return sim::usec(us); }

// The least submit-to-arrival latency of any packet: a header-only packet
// through idle tx and rx pipelines, summing the terms
// submit_to_tx_pipeline() and deliver_from_switch() add.
sim::Time min_submit_to_arrival(const SpParams& p) {
  const std::uint32_t bytes = Packet{}.wire_bytes(p);
  return ceil_us(p.dma_setup_us) + sim::transfer_time(bytes, p.mc_dma_mbps) +
         ceil_us(p.i860_tx_us) + sim::transfer_time(bytes, p.link_mbps) +
         sim::usec(p.hop_latency_us) + ceil_us(p.i860_rx_us) +
         ceil_us(p.dma_setup_us) + sim::transfer_time(bytes, p.mc_dma_mbps);
}
}  // namespace

Tb2Adapter::Tb2Adapter(sim::Engine& engine, SwitchFabric& fabric, int node,
                       const SpParams& params, int active_nodes)
    : engine_(engine),
      fabric_(fabric),
      node_(node),
      params_(params),
      min_latency_(min_submit_to_arrival(params)),
      rx_fifo_capacity_(params.recv_fifo_entries_per_node *
                        std::max(1, active_nodes)) {
  fabric_.attach(node, this);
}

SPAM_HOT void Tb2Adapter::settle_send_fifo() {
  // FIFO occupancy is engine-ordered state (per-hop mode frees entries in
  // events): observe it at the caller's virtual instant.
  sim::settle_running_node();
  // Lazy replacement for the per-entry FIFO-free event: per-hop mode's
  // event at tx_dma_free_ always runs before any same-instant observation
  // (the observer's wake was scheduled later, so it has a larger seq),
  // which is exactly the `<= now` settle below.
  const sim::Time now = engine_.now();
  while (!fifo_free_at_.empty() && fifo_free_at_.front() <= now) {
    fifo_free_at_.pop_front();
    --send_fifo_used_;
  }
}

bool Tb2Adapter::has_free_entry() const {
  const auto freed = std::upper_bound(fifo_free_at_.begin(),
                                      fifo_free_at_.end(), engine_.now()) -
                     fifo_free_at_.begin();
  return send_fifo_used_ - freed < params_.send_fifo_entries;
}

SPAM_HOT void Tb2Adapter::host_enqueue(sim::NodeCtx& ctx, Packet pkt,
                                        int doorbell_npackets) {
  assert(doorbell_npackets >= 0);
  assert(has_free_entry() && "send FIFO overflow: caller must check space");
  assert(pkt.payload_bytes <=
         static_cast<std::uint32_t>(params_.packet_data_bytes));
  pkt.src = static_cast<std::int16_t>(node_);

  // Host writes the entry into the memory-resident FIFO, then flushes the
  // touched cache lines (the memory bus is not coherent).  Both are
  // fiber-local: the adapter sees the entry only at the doorbell.
  const std::uint32_t entry_bytes = pkt.wire_bytes(params_);
  const int lines =
      (static_cast<int>(entry_bytes) + params_.cache_line_bytes - 1) /
      params_.cache_line_bytes;
  ctx.charge(ceil_us(entry_bytes * params_.host_write_us_per_byte +
                              lines * params_.flush_line_us));
  ++send_fifo_used_;
  // spam-lint: capacity-ok (bounded by the send-FIFO depth; a deque still
  // allocates a block on entering one and frees it on leaving it)
  awaiting_doorbell_.push_back(std::move(pkt));
  if (doorbell_npackets > 0) host_doorbell(ctx, doorbell_npackets);
}

SPAM_HOT void Tb2Adapter::host_doorbell(sim::NodeCtx& ctx, int npackets) {
  assert(npackets > 0 &&
         npackets <= static_cast<int>(awaiting_doorbell_.size()));
  // One store across the MicroChannel covers several length-array slots;
  // the adapter starts fetching at the caller's settled instant.
  ctx.charge(ceil_us(params_.mc_access_us));
  ctx.settle();
  ++stats_.doorbells;
  for (int i = 0; i < npackets; ++i) {
    submit_to_tx_pipeline(std::move(awaiting_doorbell_.front()));
    awaiting_doorbell_.pop_front();
  }
}

SPAM_HOT void Tb2Adapter::submit_to_tx_pipeline(Packet pkt) {
  const sim::Time now = engine_.now();
  const std::uint32_t bytes = pkt.wire_bytes(params_);

  // Stage 1: MicroChannel DMA fetch of the FIFO entry.
  const sim::Time dma_start = std::max(now, tx_dma_free_);
  tx_dma_free_ = dma_start + ceil_us(params_.dma_setup_us) +
                 sim::transfer_time(bytes, params_.mc_dma_mbps);
  // The send-FIFO entry is reusable once the adapter has fetched it.
  if (engine_.fastpath()) {
    // Settled lazily in host_send_space()/host_send_free(), the only
    // observers — no event needed.
    // spam-lint: capacity-ok (bounded by the send-FIFO depth)
    fifo_free_at_.push_back(tx_dma_free_);
  } else {
    engine_.at(tx_dma_free_, [this] { --send_fifo_used_; });
  }

  // Stage 2: i860 firmware processing.
  const sim::Time i860_start = std::max(tx_dma_free_, tx_i860_free_);
  tx_i860_free_ = i860_start + ceil_us(params_.i860_tx_us);

  // Stage 3: link serialization out of the MSMU.
  const sim::Time link_start = std::max(tx_i860_free_, link_free_);
  link_free_ = link_start + sim::transfer_time(bytes, params_.link_mbps);

  ++stats_.tx_packets;
  stats_.tx_bytes += bytes;

  sim::Trace::log(sim::TraceCat::kAdapter, now,
                  "node%d tx pkt dst=%d ch=%u seq=%u bytes=%u departs=%.3f",
                  node_, pkt.dst, pkt.channel, pkt.seq, bytes,
                  sim::to_usec(link_free_));

  assert(pkt.dst >= 0 && pkt.dst < fabric_.size());
  Tb2Adapter* dst = fabric_.peer(pkt.dst);
  const sim::Time t_link = link_free_;
  if (engine_.fastpath() && !fabric_.has_drop_fn()) {
    // Same arithmetic as transmit()'s `after(usec(hop_latency_us))` at the
    // depart instant.
    const sim::Time t_hop = t_link + sim::usec(params_.hop_latency_us);
    if (dst->try_engage_fused(pkt, t_link, t_hop)) return;
  }
  dst->note_slow_inflight();
  auto depart = [this, p = std::move(pkt)]() mutable {
    fabric_.transmit(std::move(p));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(depart)>,
                "hot TX closure must not heap-allocate");
  engine_.at(t_link, std::move(depart));
}

SPAM_HOT bool Tb2Adapter::try_engage_fused(Packet& pkt, sim::Time t_link,
                                           sim::Time t_hop) {
  // A per-hop packet in flight toward us applies its rx-clock updates only
  // at its hop event, so a submit-time computation would miss it.
  if (pending_slow_ > 0) return false;
  // Reservations with a later switch exit conflict: this packet's rx
  // occupancy precedes theirs, so they fall back to per-hop (their hop
  // instants are beyond t_hop, hence still ahead — reschedulable exactly).
  rollback_fused_after(t_hop);

  const std::uint32_t bytes = pkt.wire_bytes(params_);
  const sim::Time pre_i860 = rx_i860_free_;
  const sim::Time pre_dma = rx_dma_free_;
  // Bit-identical to deliver_from_switch() running at now == t_hop: same
  // sim::Time operations in the same order.
  const sim::Time i860_start = std::max(t_hop, rx_i860_free_);
  rx_i860_free_ = i860_start + ceil_us(params_.i860_rx_us);
  const sim::Time dma_start = std::max(rx_i860_free_, rx_dma_free_);
  rx_dma_free_ = dma_start + ceil_us(params_.dma_setup_us) +
                 sim::transfer_time(bytes, params_.mc_dma_mbps);

  const std::uint64_t serial = next_fused_serial_++;
  // spam-lint: capacity-ok (bounded by in-flight packets; the deque still
  // allocates and frees a block as engage/complete walks through it)
  fused_.push_back(FusedReservation{serial, t_link, t_hop, pre_i860, pre_dma,
                                    rx_dma_free_, std::move(pkt)});
  auto fused = [this, serial] { fused_arrival(serial); };
  static_assert(sim::InlineAction::fits_inline<decltype(fused)>,
                "hot fused closure must not heap-allocate");
  engine_.at(rx_dma_free_, std::move(fused));
  return true;
}

SPAM_HOT void Tb2Adapter::fused_arrival(std::uint64_t serial) {
  // Serials are never reused: a mismatch means this reservation was rolled
  // back mid-flight and its packet is travelling per-hop instead.
  if (fused_.empty() || fused_.front().serial != serial) return;
  FusedReservation r = std::move(fused_.front());
  fused_.pop_front();
  fabric_.note_fused_delivered();
  ++stats_.fused_deliveries;
  complete_rx(std::move(r.pkt));
}

SPAM_HOT void Tb2Adapter::rollback_fused_suffix(std::size_t keep) {
  if (keep >= fused_.size()) return;
  const sim::Time now = engine_.now();
  // Net LIFO clock restore: back out every rolled reservation at once.
  rx_i860_free_ = fused_[keep].pre_i860;
  rx_dma_free_ = fused_[keep].pre_dma;
  // Reschedule real events in engagement order so same-instant departs
  // keep their per-hop relative sequence.
  for (std::size_t i = keep; i < fused_.size(); ++i) {
    FusedReservation& r = fused_[i];
    ++stats_.fused_rollbacks;
    ++pending_slow_;  // from here on it is a per-hop in-flight packet
    if (r.t_link >= now) {
      // Depart instant still ahead: replay it in full, fault-hook check
      // included.
      auto depart = [fab = &fabric_, p = std::move(r.pkt)]() mutable {
        fab->transmit(std::move(p));
      };
      static_assert(sim::InlineAction::fits_inline<decltype(depart)>,
                    "hot rollback closure must not heap-allocate");
      engine_.at(r.t_link, std::move(depart));
    } else {
      // Already past the switch entry — per-hop would have cleared the
      // (then absent) fault hook at that instant, so the depart event
      // stays elided; count its delivery and reschedule from the switch
      // exit.  t_hop is ahead: rollbacks are only triggered by strictly
      // earlier switch exits.
      fabric_.note_fused_delivered();
      auto hop = [this, p = std::move(r.pkt)]() mutable {
        deliver_from_switch(std::move(p));
      };
      static_assert(sim::InlineAction::fits_inline<decltype(hop)>,
                    "hot rollback closure must not heap-allocate");
      assert(r.t_hop >= now);
      engine_.at(r.t_hop, std::move(hop));
    }
  }
  fused_.resize(keep);
}

SPAM_HOT void Tb2Adapter::rollback_fused_after(sim::Time t_hop) {
  std::size_t keep = fused_.size();
  while (keep > 0 && fused_[keep - 1].t_hop > t_hop) --keep;
  rollback_fused_suffix(keep);
}

void Tb2Adapter::disengage_fused_for_faults() {
  const sim::Time now = engine_.now();
  std::size_t keep = fused_.size();
  while (keep > 0 && fused_[keep - 1].t_link >= now) --keep;
  rollback_fused_suffix(keep);
}

SPAM_HOT void Tb2Adapter::deliver_from_switch(Packet pkt) {
  // A per-hop delivery occupies the rx pipeline *now*; fused reservations
  // with a later switch exit computed their times without us and must fall
  // back before we touch the clocks.
  rollback_fused_after(engine_.now());
  --pending_slow_;
  assert(pending_slow_ >= 0);

  const sim::Time now = engine_.now();
  const std::uint32_t bytes = pkt.wire_bytes(params_);

  // Stage 1: i860 firmware pulls the packet off the MSMU.
  const sim::Time i860_start = std::max(now, rx_i860_free_);
  rx_i860_free_ = i860_start + ceil_us(params_.i860_rx_us);

  // Stage 2: DMA into the host receive FIFO.
  const sim::Time dma_start = std::max(rx_i860_free_, rx_dma_free_);
  rx_dma_free_ = dma_start + ceil_us(params_.dma_setup_us) +
                 sim::transfer_time(bytes, params_.mc_dma_mbps);

  ++slow_arrivals_pending_;
  auto arrive = [this, p = std::move(pkt)]() mutable {
    --slow_arrivals_pending_;
    complete_rx(std::move(p));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(arrive)>,
                "hot RX closure must not heap-allocate");
  engine_.at(rx_dma_free_, std::move(arrive));
}

SPAM_HOT sim::Time Tb2Adapter::host_rx_ready_time() const {
  if (!engine_.fastpath() || !rx_queue_.empty()) return 0;
  // Any per-hop traffic (in flight to the switch, or between its hop and
  // arrive events) could land before the fused front: no prediction.
  if (pending_slow_ > 0 || slow_arrivals_pending_ > 0) return 0;
  if (fused_.empty()) {
    // Nothing inbound is submitted yet.  With two adapters the only sender
    // is the peer, and while this node runs the peer is parked: it submits
    // nothing before the next pending event, and its packet lands no
    // sooner than the least submit-to-arrival latency after that.  An
    // empty queue means nothing can ever wake it: no bound worth merging
    // toward.  With more adapters the bound would hold too, but a merged
    // wait can reorder a same-tick tie between other nodes' fibers, which
    // is not shown to be inert there (docs/network-fastpath.md), so those
    // fabrics keep no prediction.
    if (fabric_.size() > 2 || engine_.empty()) return 0;
    return engine_.next_event_bound() + min_latency_;
  }
  // Ledger arrivals are ordered (rx_dma_free_ is monotonic), a rollback
  // re-delivers at the bit-identical per-hop instant, a conflicting
  // later per-hop delivery inherits clocks >= the front's arrival, and a
  // FIFO-full drop only keeps the queue empty longer — so nothing already
  // submitted can become host-visible before the front reservation's
  // instant.
  const sim::Time front = fused_.front().t_arrive;
  // With two adapters the only sender is the peer, whose later packets
  // leave the switch later.  With more, a packet another node submits from
  // now on can leave the switch first and land before the front, but no
  // sooner than the least submit-to-arrival latency.
  if (fabric_.size() > 2) return std::min(front, engine_.now() + min_latency_);
  return front;
}

SPAM_HOT void Tb2Adapter::complete_rx(Packet p) {
  if (rx_fifo_used_ >= rx_fifo_capacity_) {
    // Input buffer overflow: the packet is lost; flow control recovers.
    ++stats_.rx_dropped_fifo_full;
    sim::Trace::log(sim::TraceCat::kAdapter, engine_.now(),
                    "node%d rx DROP (fifo full) src=%d seq=%u", node_,
                    p.src, p.seq);
    return;
  }
  ++rx_fifo_used_;
  ++stats_.rx_packets;
  stats_.rx_bytes += p.wire_bytes(params_);
  // spam-lint: capacity-ok (bounded by rx_fifo_capacity_, checked above)
  rx_queue_.push_back(std::move(p));
  if (rx_notify_) rx_notify_();
}

SPAM_HOT Packet Tb2Adapter::host_rx_take(sim::NodeCtx& ctx) {
  assert(!rx_queue_.empty());
  Packet pkt = std::move(rx_queue_.front());
  rx_queue_.pop_front();

  // Copy the entry out of the FIFO into user buffers.
  ctx.charge(
      ceil_us(pkt.wire_bytes(params_) * params_.host_copy_us_per_byte));

  // Lazy pop: the entry is only returned to the adapter every
  // lazy_pop_batch takes, costing one MicroChannel access.
  if (++pops_owed_ >= params_.lazy_pop_batch) host_rx_flush_pops(ctx);
  return pkt;
}

SPAM_HOT void Tb2Adapter::host_rx_flush_pops(sim::NodeCtx& ctx) {
  if (pops_owed_ == 0) return;
  ctx.charge(ceil_us(params_.mc_access_us));
  // In-flight arrivals observe the freed entries: release them at the
  // caller's settled instant.
  ctx.settle();
  rx_fifo_used_ -= pops_owed_;
  assert(rx_fifo_used_ >= 0);
  pops_owed_ = 0;
}

}  // namespace spam::sphw
