#include "logp/loggp.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace spam::logp {

LogGpEndpoint::LogGpEndpoint(sim::NodeCtx& ctx, LogGpMachine& machine,
                             int rank)
    : ctx_(ctx), machine_(machine), rank_(rank) {}

const LogGpParams& LogGpEndpoint::params() const { return machine_.params(); }

sim::Time LogGpEndpoint::reserve_port(sim::Time earliest, std::size_t bytes) {
  // LogGP semantics: this message is on the wire after its serialization
  // time (bytes * G); the per-message gap g only gates when the port can
  // accept the *next* message — it is not added to this message's latency.
  const LogGpParams& p = machine_.params();
  const sim::Time start = std::max(earliest, port_free_);
  const sim::Time ser = std::max<sim::Time>(
      1, sim::usec(p.gap_per_byte_us * static_cast<double>(bytes)));
  port_free_ = start + std::max(sim::usec(p.gap_us), ser);
  return start + ser;
}

void LogGpEndpoint::send(int dst, LogGpMsg msg) {
  const LogGpParams& p = machine_.params();
  msg.src = rank_;
  ctx_.elapse(sim::usec(p.o_send_us));
  ++stats_.sent;
  stats_.bytes_sent += msg.data.size();

  const sim::Time tx_done =
      reserve_port(ctx_.now(), msg.data.size() + 16 /*header*/);
  LogGpEndpoint& peer = machine_.ep(dst);
  // The message is visible o_r after wire arrival: receiver overhead sits
  // on the latency path, and its CPU cost accrues as debt.
  ctx_.engine().at(tx_done + sim::usec(p.latency_us + p.o_recv_us),
                   [&peer, m = std::move(msg), o = p.o_recv_us]() mutable {
                     peer.add_debt(o);
                     ++peer.stats_.received;
                     peer.enqueue_arrival(std::move(m));
                   });
}

void LogGpEndpoint::poll() {
  const LogGpParams& p = machine_.params();
  // recv_debt_us_ and arrivals_ are mutated by delivery events: settle so
  // every event up to this node's virtual instant has landed before we
  // read them, exactly as the per-call path would have seen.
  ctx_.settle();
  ctx_.elapse(sim::usec(p.poll_us + recv_debt_us_));
  recv_debt_us_ = 0.0;
  while (!arrivals_.empty()) {
    LogGpMsg m = std::move(arrivals_.front());
    arrivals_.pop_front();
    if (handler_) handler_(m);
  }
}

void LogGpEndpoint::put_bytes(int dst, void* dst_addr, const void* src,
                              std::size_t len) {
  const LogGpParams& p = machine_.params();
  ctx_.elapse(sim::usec(p.o_send_us));
  ++stats_.sent;
  stats_.bytes_sent += len;
  ++outstanding_;

  // Snapshot the source so the caller may reuse it immediately.
  auto data = std::make_shared<std::vector<std::byte>>(len);
  if (len > 0) std::memcpy(data->data(), src, len);

  const sim::Time tx_done = reserve_port(ctx_.now(), len + 16);
  LogGpEndpoint& peer = machine_.ep(dst);
  sim::Engine& eng = ctx_.engine();
  eng.at(tx_done + sim::usec(p.latency_us + p.o_recv_us),
         [this, &peer, dst_addr, data, &eng, L = p.latency_us,
          o = p.o_recv_us] {
    if (!data->empty()) std::memcpy(dst_addr, data->data(), data->size());
    peer.add_debt(o);
    ++peer.stats_.received;
    // Ack rides back through the peer's port (header-sized); handling it
    // costs the initiator a receive overhead, paid at its next poll.
    const sim::Time ack_done = peer.reserve_port(eng.now(), 16);
    eng.at(ack_done + sim::usec(L + o), [this, o] {
      assert(outstanding_ > 0);
      --outstanding_;
      add_debt(o);
    });
  });
}

void LogGpEndpoint::get_bytes(int dst, const void* src_addr, void* dst_addr,
                              std::size_t len) {
  const LogGpParams& p = machine_.params();
  ctx_.elapse(sim::usec(p.o_send_us));
  ++stats_.sent;
  ++outstanding_;

  LogGpEndpoint& peer = machine_.ep(dst);
  sim::Engine& eng = ctx_.engine();
  const sim::Time tx_done = reserve_port(ctx_.now(), 16);
  eng.at(tx_done + sim::usec(p.latency_us + p.o_recv_us),
         [this, &peer, src_addr, dst_addr, len, &eng, L = p.latency_us,
          o = p.o_recv_us] {
           peer.add_debt(o);
           ++peer.stats_.received;
           // Data reply serializes on the peer's outgoing port.
           auto data = std::make_shared<std::vector<std::byte>>(len);
           if (len > 0) std::memcpy(data->data(), src_addr, len);
           const sim::Time reply_done = peer.reserve_port(eng.now(), len + 16);
           eng.at(reply_done + sim::usec(L + o), [this, dst_addr, data, o] {
             if (!data->empty()) {
               std::memcpy(dst_addr, data->data(), data->size());
             }
             assert(outstanding_ > 0);
             --outstanding_;
             add_debt(o);
           });
         });
}

}  // namespace spam::logp
