#include "mpl/mpl.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sphw/payload.hpp"

namespace spam::mpl {

namespace {
constexpr std::uint8_t kChanMpl = 2;
constexpr std::uint8_t kFlagControl = 0x01;
constexpr std::uint8_t kFlagMsgLast = 0x02;
}  // namespace

MplEndpoint::MplEndpoint(sim::NodeCtx& ctx, sphw::Tb2Adapter& adapter,
                         MplParams params)
    : ctx_(ctx), adapter_(adapter), params_(params) {
  credits_.resize(static_cast<std::size_t>(ctx.world().size()));
}

int MplEndpoint::mpc_send(const void* buf, std::size_t len, int dst,
                          int tag) {
  // Flush charge debt: progress_sends() samples adapter FIFO space, which
  // is exact only at this node's virtual instant.
  ctx_.settle();
  const int handle = next_handle_++;
  SendOp op;
  op.handle = handle;
  op.msg_id = next_msg_id_++;
  op.dst = dst;
  op.tag = tag;
  op.data = sphw::PayloadPool::instance().copy_from(buf, len);
  // spam-lint: capacity-ok — per-message op queue, bounded by the app's
  // posting rate; steady-state capacity sticks after the first ramp
  send_q_.push_back(std::move(op));
  ++stats_.msgs_sent;
  stats_.bytes_sent += len;
  progress_sends();
  return handle;
}

int MplEndpoint::mpc_recv(void* buf, std::size_t maxlen, int src, int tag) {
  const RecvOp op{next_handle_++, src, tag, static_cast<std::byte*>(buf),
                  maxlen};
  // Every drain matches its arrivals before returning, and by the matching
  // invariant only the new receive can pair: with the earliest-arrived
  // backlog message it matches.
  assert(arrived_.empty());
  const auto it =
      std::find_if(unmatched_.begin(), unmatched_.end(), [&](const InMsg& m) {
        ++stats_.match_steps;
        return matches(op, m);
      });
  if (it != unmatched_.end()) {
    deliver(op, *it);
    unmatched_.erase(it);
  } else {
    // spam-lint: capacity-ok — bounded by receives outstanding
    posted_.push_back(op);
  }
  return op.handle;
}

bool MplEndpoint::mpc_test(int handle, std::size_t* bytes) {
  for (std::size_t i = 0; i < completed_.size(); ++i) {
    if (completed_[i].first == handle) {
      if (bytes != nullptr) *bytes = completed_[i].second;
      completed_.erase(completed_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

std::size_t MplEndpoint::mpc_wait(int handle) {
  std::size_t bytes = 0;
  while (!mpc_test(handle, &bytes)) poll();
  return bytes;
}

void MplEndpoint::progress_sends() {
  if (send_q_.empty()) return;
  const int data_bytes = adapter_.params().packet_data_bytes;
  // Head-of-line per destination: the first queued op toward each dst may
  // make progress; later ops to the same dst wait (MPL delivers in order).
  dst_seen_.assign(credits_.size(), false);
  auto& dst_seen = dst_seen_;
  for (SendOp& op : send_q_) {
    if (op.done) continue;
    const auto d = static_cast<std::size_t>(op.dst);
    if (dst_seen[d]) continue;
    dst_seen[d] = true;

    PeerCredit& cr = credits_[d];
    if (op.first_packet_pending) {
      // spam-lint: charge-ok — once per message (guarded by
      // first_packet_pending), not per loop iteration
      ctx_.elapse(sim::usec(params_.send_sw_us));
      op.first_packet_pending = false;
    }
    int batched = 0;
    while (!op.done && cr.in_flight < params_.credit_window &&
           adapter_.host_send_space()) {
      const std::size_t remaining = op.data.size() - op.sent;
      const std::size_t nbytes =
          std::min(static_cast<std::size_t>(data_bytes), remaining);
      sphw::Packet pkt;
      pkt.dst = static_cast<std::int16_t>(op.dst);
      pkt.channel = kChanMpl;
      pkt.h[0] = static_cast<std::uint64_t>(op.tag);
      pkt.h[1] = op.msg_id;
      pkt.h[2] = op.data.size();
      pkt.offset = static_cast<std::uint32_t>(op.sent);
      pkt.payload_bytes = static_cast<std::uint32_t>(nbytes);
      if (nbytes > 0) {
        // Share the staged message bytes; no per-packet copy.
        pkt.payload = op.data.slice(op.sent, nbytes);
      }
      op.sent += nbytes;
      const bool last = (op.sent == op.data.size());
      if (last) pkt.flags |= kFlagMsgLast;
      // spam-lint: charge-ok — per-packet wire cost IS the MPL model;
      // doorbells are already batched 16 deep below
      ctx_.elapse(sim::usec(params_.per_packet_us));
      adapter_.host_enqueue(ctx_, std::move(pkt), /*ring_doorbell=*/false);
      ++cr.in_flight;
      ++batched;
      if (last) {
        op.done = true;
        // spam-lint: capacity-ok — one record per op, drained by mpc_test
        completed_.emplace_back(op.handle, 0);
      }
      if (batched == 16) {
        adapter_.host_doorbell(ctx_, batched);
        batched = 0;
      }
    }
    if (batched > 0) adapter_.host_doorbell(ctx_, batched);
  }
  while (!send_q_.empty() && send_q_.front().done) send_q_.pop_front();
}

void MplEndpoint::return_credits(int src) {
  PeerCredit& cr = credits_[static_cast<std::size_t>(src)];
  if (cr.consumed_unacked < params_.credit_return_every) return;
  sphw::Packet pkt;
  pkt.dst = static_cast<std::int16_t>(src);
  pkt.channel = kChanMpl;
  pkt.flags = kFlagControl;
  pkt.h[0] = static_cast<std::uint64_t>(cr.consumed_unacked);
  pkt.payload_bytes = 0;
  cr.consumed_unacked = 0;
  ctx_.poll_until([&] { return adapter_.host_send_space(); }, sim::usec(0.5));
  adapter_.host_enqueue(ctx_, std::move(pkt), /*ring_doorbell=*/true);
  ++stats_.credit_returns;
}

void MplEndpoint::handle_packet(sphw::Packet pkt) {
  if (pkt.flags & kFlagControl) {
    // Credit return from a receiver.
    PeerCredit& cr = credits_[static_cast<std::size_t>(pkt.src)];
    cr.in_flight -= static_cast<int>(pkt.h[0]);
    assert(cr.in_flight >= 0);
    return;
  }

  // Data packet: stage into the assembly buffer for (src, msg_id).
  const auto msg_id = static_cast<std::uint32_t>(pkt.h[1]);
  const std::uint64_t key = msg_key(pkt.src, msg_id);
  auto [it, inserted] = assembling_.try_emplace(key);
  InMsg* msg = &it->second;
  if (inserted) {
    msg->src = pkt.src;
    msg->tag = static_cast<int>(pkt.h[0]);
    msg->msg_id = msg_id;
    msg->sysbuf.resize(static_cast<std::size_t>(pkt.h[2]));
  }
  if (pkt.payload_bytes > 0) {
    ctx_.elapse(sim::usec(pkt.payload_bytes * params_.sysbuf_copy_us_per_byte));
    std::memcpy(msg->sysbuf.data() + pkt.offset, pkt.payload.data(),
                pkt.payload.size());
    msg->received += pkt.payload_bytes;
  }
  if (pkt.flags & kFlagMsgLast) {
    assert(msg->received == msg->sysbuf.size());
    ++stats_.msgs_received;
    // spam-lint: capacity-ok — bounded by one drain's completed messages;
    // emptied by match_arrived at the end of the drain
    arrived_.push_back(std::move(*msg));
    assembling_.erase(it);
  }

  PeerCredit& cr = credits_[static_cast<std::size_t>(pkt.src)];
  ++cr.consumed_unacked;
  return_credits(pkt.src);
}

void MplEndpoint::deliver(const RecvOp& r, const InMsg& m) {
  ctx_.elapse(sim::usec(params_.recv_sw_us));
  const std::size_t n = std::min(r.maxlen, m.sysbuf.size());
  if (n > 0) {
    ctx_.elapse(sim::usec(static_cast<double>(n) * params_.user_copy_us_per_byte));
    std::memcpy(r.buf, m.sysbuf.data(), n);
  }
  // spam-lint: capacity-ok — one record per op, drained by mpc_test
  completed_.emplace_back(r.handle, n);
}

void MplEndpoint::match_arrived() {
  // The MPL rule: complete messages in arrival order, each taking the
  // earliest-posted receive it matches.  By the matching invariant older
  // messages match nothing, so only this drain's arrivals are examined;
  // one that finds no receive joins the unmatched backlog.
  while (!arrived_.empty()) {
    ++stats_.match_steps;
    const InMsg& m = arrived_.front();
    const auto r = std::find_if(posted_.begin(), posted_.end(),
                                [&](const RecvOp& op) { return matches(op, m); });
    if (r != posted_.end()) {
      deliver(*r, m);
      posted_.erase(r);
      arrived_.pop_front();
    } else {
      ++stats_.unexpected_msgs;
      unmatched_.splice(unmatched_.end(), arrived_, arrived_.begin());
    }
  }
}

void MplEndpoint::poll() {
  ctx_.elapse(sim::usec(params_.poll_us));
  while (adapter_.host_rx_ready()) {
    sphw::Packet pkt = adapter_.host_rx_take(ctx_);
    handle_packet(std::move(pkt));
  }
  match_arrived();
  progress_sends();
}

}  // namespace spam::mpl
