#include "sphw/switch.hpp"

#include <cassert>
#include <utility>

#include "sim/hot.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "sphw/adapter.hpp"

namespace spam::sphw {

SwitchFabric::SwitchFabric(sim::Engine& engine, const SpParams& params,
                           int num_nodes)
    : engine_(engine), params_(params), adapters_(num_nodes, nullptr) {}

void SwitchFabric::attach(int node, Tb2Adapter* adapter) {
  assert(node >= 0 && node < size());
  assert(adapters_[node] == nullptr);
  adapters_[node] = adapter;
}

void SwitchFabric::set_drop_fn(DropFn fn) {
  // Arming reads the engine clock: observe it at the caller's instant.
  sim::settle_running_node();
  if (fn) {
    // Every engaged fused reservation assumed "no fault hook" at its
    // (elided) depart event.  Reservations whose depart instant is still
    // in the future must fall back to per-hop so the hook sees them;
    // reservations already past the switch entry stay fused — per-hop
    // would have cleared the (then absent) hook at that instant too.
    for (Tb2Adapter* a : adapters_) {
      if (a != nullptr) a->disengage_fused_for_faults();
    }
  }
  drop_fn_ = std::move(fn);
}

SPAM_HOT void SwitchFabric::transmit(Packet pkt) {
  assert(pkt.dst >= 0 && pkt.dst < size() && adapters_[pkt.dst] != nullptr);
  if (drop_fn_ && drop_fn_(pkt)) {
    ++stats_.dropped_injected;
    // The packet never reaches the destination: retire its slow-path
    // in-flight reservation so the fast path can re-engage after recovery.
    adapters_[pkt.dst]->note_slow_dropped();
    sim::Trace::log(sim::TraceCat::kSwitch, engine_.now(),
                    "switch DROP injected %d->%d ch=%u seq=%u off=%u",
                    pkt.src, pkt.dst, pkt.channel, pkt.seq, pkt.offset);
    return;
  }
  ++stats_.delivered;
  Tb2Adapter* dst = adapters_[pkt.dst];
  auto hop = [dst, p = std::move(pkt)]() mutable {
    dst->deliver_from_switch(std::move(p));
  };
  static_assert(sim::InlineAction::fits_inline<decltype(hop)>,
                "hot switch closure must not heap-allocate");
  engine_.after(sim::usec(params_.hop_latency_us), std::move(hop));
}

}  // namespace spam::sphw
