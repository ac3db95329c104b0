#include "counters.hpp"

#include "am/endpoint.hpp"
#include "mpif/mpi_world.hpp"
#include "sim/action.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sphw/machine.hpp"
#include "sphw/payload.hpp"

namespace perfbench {

namespace {

constexpr const char* kNames[kNumCounters] = {
    "sim.events",      "sim.switches",    "sim.new_allocs",
    "sphw.packets",    "sphw.bytes",      "sphw.doorbells",
    "sphw.fused",      "sphw.fused_rollbacks", "sphw.drops",
    "am.msgs",         "am.chunks",       "am.acks",
    "am.retransmits",  "am.dups_dropped", "mpi.eager_sends",
    "mpi.rdv_sends",   "mpi.hybrid_sends", "mpi.sends_blocked_on_buffer",
    "mpif.eager_sends", "mpif.rdv_sends", "sphw.payload_new_buffers",
};

}  // namespace

const char* counter_name(Counter c) { return kNames[c]; }

Counters& Counters::operator+=(const Counters& o) {
  for (int i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
  return *this;
}

std::string Counters::diff(const Counters& o) const {
  std::string out;
  for (int i = 0; i < kNumDeterministic; ++i) {
    if (v[i] == o.v[i]) continue;
    if (!out.empty()) out += ", ";
    out += kNames[i];
  }
  return out;
}

ThreadCounters ThreadCounters::sample() {
  return {spam::sim::Fiber::resume_count(),
          spam::sim::InlineAction::heap_fallbacks(),
          spam::sphw::PayloadPool::instance().stats().buffers_allocated};
}

void add_thread_delta(Counters& c, const ThreadCounters& before,
                      const ThreadCounters& after) {
  c[kSwitches] += after.resumes - before.resumes;
  c[kNewAllocs] += after.heap_fallbacks - before.heap_fallbacks;
  c[kPayloadNewBuffers] += after.payload_buffers - before.payload_buffers;
}

void add_machine(Counters& c, spam::sim::Engine& engine,
                 spam::sphw::SpMachine& machine) {
  c[kEvents] += engine.events_executed();
  c[kNewAllocs] += engine.pool_stats().nodes_allocated;
  for (int n = 0; n < machine.size(); ++n) {
    const auto& s = machine.adapter(n).stats();
    c[kPackets] += s.tx_packets;
    c[kBytes] += s.tx_bytes;
    c[kDoorbells] += s.doorbells;
    c[kFused] += s.fused_deliveries;
    c[kFusedRollbacks] += s.fused_rollbacks;
    c[kDrops] += s.rx_dropped_fifo_full;
  }
  c[kDrops] += machine.fabric().stats().dropped_injected;
}

void add_am(Counters& c, const spam::am::Endpoint& ep) {
  const auto& s = ep.stats();
  c[kAmMsgs] += s.msgs_delivered;
  c[kAmChunks] += s.chunks_sent;
  c[kAmAcks] += s.acks_sent;
  c[kAmRetransmits] += s.retransmitted_chunks;
  c[kAmDups] += s.duplicates_dropped;
}

void add_mpi(Counters& c, spam::mpi::MpiWorld& world) {
  for (int n = 0; n < world.size(); ++n) {
    spam::mpi::Mpi& dev = world.mpi(n);
    if (auto* am = dynamic_cast<spam::mpi::MpiAm*>(&dev)) {
      const auto& s = am->dev_stats();
      c[kMpiEager] += s.eager_sends;
      c[kMpiRdv] += s.rdv_sends;
      c[kMpiHybrid] += s.hybrid_sends;
      c[kMpiBlocked] += s.sends_blocked_on_buffer;
      add_am(c, am->endpoint());
    } else if (auto* f = dynamic_cast<spam::mpif::MpiF*>(&dev)) {
      c[kMpifEager] += f->dev_stats().eager_sends;
      c[kMpifRdv] += f->dev_stats().rdv_sends;
    }
  }
}

}  // namespace perfbench
