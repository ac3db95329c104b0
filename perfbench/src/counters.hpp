// Work counters read from outside the program: the stats structs of the
// worlds the benchmark builds, plus the simulator's thread-local counters.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace spam::sim {
class Engine;
}
namespace spam::sphw {
class SpMachine;
}
namespace spam::am {
class Endpoint;
}
namespace spam::mpi {
class MpiWorld;
}

namespace perfbench {

enum Counter : int {
  // Deterministic: the same pass does the same work, so these repeat
  // exactly from pass to pass and between traced and untraced runs.
  kEvents,          // engine events executed
  kSwitches,        // fiber resumes
  kNewAllocs,       // event-pool nodes allocated + InlineAction heap fallbacks
  kPackets,         // adapter tx packets
  kBytes,           // adapter tx bytes
  kDoorbells,       // MicroChannel doorbell accesses
  kFused,           // packets delivered by a fused event
  kFusedRollbacks,  // fused deliveries disengaged mid-flight
  kDrops,           // rx-FIFO overflow plus injected switch drops
  kAmMsgs,          // AM messages delivered to handlers
  kAmChunks,
  kAmAcks,
  kAmRetransmits,
  kAmDups,
  kMpiEager,
  kMpiRdv,
  kMpiHybrid,
  kMpiBlocked,      // MPI-AM sends that waited for eager buffer space
  kMpifEager,
  kMpifRdv,
  // Not deterministic: the payload pool is thread-local and stays warm
  // after the first pass, so only steady-state passes read 0.
  kPayloadNewBuffers,
  kNumCounters
};

constexpr int kNumDeterministic = kPayloadNewBuffers;

struct Counters {
  std::array<std::uint64_t, kNumCounters> v{};

  std::uint64_t& operator[](Counter c) { return v[c]; }
  std::uint64_t operator[](Counter c) const { return v[c]; }
  Counters& operator+=(const Counters& o);
  /// Comma-separated names of the deterministic counters that differ from
  /// `o`; empty when the two passes did the same work.
  std::string diff(const Counters& o) const;
};

const char* counter_name(Counter c);

/// The simulator's per-host-thread counters.  Sample them on the thread
/// that runs the work, before and after.
struct ThreadCounters {
  std::uint64_t resumes = 0;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t payload_buffers = 0;
  static ThreadCounters sample();
};
void add_thread_delta(Counters& c, const ThreadCounters& before,
                      const ThreadCounters& after);

/// Adds what a world did since it was built: engine events and event-pool
/// growth, adapter and switch traffic.
void add_machine(Counters& c, spam::sim::Engine& engine,
                 spam::sphw::SpMachine& machine);
void add_am(Counters& c, const spam::am::Endpoint& ep);
/// MPI device counters of every node, plus the AM endpoints under MPI-AM.
void add_mpi(Counters& c, spam::mpi::MpiWorld& world);

}  // namespace perfbench
