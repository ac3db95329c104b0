// SP Active Messages endpoint — the paper's primary contribution.
//
// Implements the Generic Active Messages 1.1 interface (am_request_1..4,
// am_reply_1..4, am_store, am_store_async, am_get, am_poll) directly over
// the simulated TB2 adapter, with the paper's flow-control design:
//
//  * reliable, ordered delivery on a lossless-but-droppable fabric;
//  * per-peer, per-channel (request/reply) sliding windows counted in
//    packets (72 request / 76 reply);
//  * bulk data split into 8064-byte chunks of 36 packets; all packets of a
//    chunk share one sequence number, are ordered by chunk index, and the
//    chunk is acknowledged as a unit, so the window slides chunk-wise and
//    chunk N departs only after the ack for chunk N-2 arrived;
//  * acks piggyback on any reverse traffic; explicit acks fire when a
//    quarter of the window is unacknowledged; wrong sequence numbers cause
//    a NACK and go-back-N retransmission from saved copies;
//  * a keep-alive probe (triggered by counting unsuccessful polls — there
//    are no timers) forces a NACK from the peer to recover lost tails.
//
// All public methods must be called from the owning node's fiber; handlers
// run inside am_poll() on that same fiber.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "am/params.hpp"
#include "sim/world.hpp"
#include "sphw/adapter.hpp"

namespace spam::am {

using Word = std::uint32_t;

/// Identifies a received request so the handler can reply to its origin.
struct Token {
  int src = -1;
};

class Endpoint {
 public:
  /// Handler for small requests/replies: receives the origin token and up
  /// to four 32-bit words.
  using MsgHandler = std::function<void(Endpoint&, Token, const Word* args, int nargs)>;
  /// Handler invoked after a bulk transfer lands: (base address, length,
  /// one word of out-of-band argument).
  using BulkHandler = std::function<void(Endpoint&, Token, void* addr, std::size_t len, Word arg)>;
  /// Sender-side completion for am_store_async / am_get.
  using CompletionFn = std::function<void()>;

  Endpoint(sim::NodeCtx& ctx, sphw::Tb2Adapter& adapter, AmParams params);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return adapter_.node(); }
  const AmParams& params() const { return params_; }

  // --- Handler registration (index 0 is the reserved no-op handler) -------
  int register_handler(MsgHandler fn);
  int register_bulk_handler(BulkHandler fn);

  // --- GAM 1.1 interface ----------------------------------------------------
  /// am_request_M: sends an M-word request; polls the network once after
  /// the send (per the paper, every am_request checks the network).
  void request(int dst, int handler, const Word* args, int nargs);
  void request_1(int dst, int h, Word a0) { Word a[] = {a0}; request(dst, h, a, 1); }
  void request_2(int dst, int h, Word a0, Word a1) { Word a[] = {a0, a1}; request(dst, h, a, 2); }
  void request_3(int dst, int h, Word a0, Word a1, Word a2) { Word a[] = {a0, a1, a2}; request(dst, h, a, 3); }
  void request_4(int dst, int h, Word a0, Word a1, Word a2, Word a3) { Word a[] = {a0, a1, a2, a3}; request(dst, h, a, 4); }

  /// am_reply_M: sends an M-word reply to a request's origin; does not poll.
  void reply(Token token, int handler, const Word* args, int nargs);
  void reply_1(Token t, int h, Word a0) { Word a[] = {a0}; reply(t, h, a, 1); }
  void reply_2(Token t, int h, Word a0, Word a1) { Word a[] = {a0, a1}; reply(t, h, a, 2); }
  void reply_3(Token t, int h, Word a0, Word a1, Word a2) { Word a[] = {a0, a1, a2}; reply(t, h, a, 3); }
  void reply_4(Token t, int h, Word a0, Word a1, Word a2, Word a3) { Word a[] = {a0, a1, a2, a3}; reply(t, h, a, 4); }

  /// am_store: copies `len` bytes from local `src` to `dst_addr` on node
  /// `dst`, invoking bulk handler `handler(dst_addr, len, arg)` there after
  /// the transfer completes.  Blocks until the data is acknowledged.
  void store(int dst, void* dst_addr, const void* src, std::size_t len,
             int handler = 0, Word arg = 0);

  /// am_store_async: like store but returns once the operation is queued;
  /// packets drain during subsequent polls as the window opens, and
  /// `complete` runs on this node when the whole transfer is acknowledged.
  void store_async(int dst, void* dst_addr, const void* src, std::size_t len,
                   int handler = 0, Word arg = 0, CompletionFn complete = {});

  /// am_get: fetches `len` bytes from `src_addr` on node `dst` into local
  /// `dst_addr`; the local bulk handler `handler(dst_addr, len, arg)` runs
  /// when the data has fully arrived.  Non-blocking; use get_blocking for
  /// the synchronous benchmark flavor.
  void get(int dst, const void* src_addr, void* dst_addr, std::size_t len,
           int handler = 0, Word arg = 0, CompletionFn complete = {});

  /// Convenience: get + poll until the data has arrived.
  void get_blocking(int dst, const void* src_addr, void* dst_addr,
                    std::size_t len);

  /// am_poll: drains the receive FIFO (dispatching handlers), processes
  /// acks/nacks, advances pending bulk operations and retransmissions, and
  /// fires the keep-alive when warranted.
  void poll();

  /// Polls until `done()`; the standard blocking idiom.
  ///
  /// Contract: `done` must change only as a consequence of this endpoint's
  /// own polling work (handlers, acks, bulk completions) — true for every
  /// AM-level completion flag.  Under the network fast path the loop then
  /// merges runs of provably empty polls into one wait of identical total
  /// virtual time (see merge_empty_polls), so per-poll wake events
  /// disappear while every observable instant stays bit-identical.
  ///
  /// The breach to avoid is a cross-node counter: a predicate on a variable
  /// another node's handler bumps.  No poll here changes it, so a merged
  /// wait can end later than the per-hop reference's (a multi-chunk
  /// am_store timed that way read 152.3 us, 148.8 us with the fast path
  /// off).  Wait for a reply, or a bulk handler, on this endpoint instead.
  /// On two nodes the merge also spans waits with nothing inbound yet
  /// (Tb2Adapter::host_rx_ready_time), so any cross-node wait can shift.
  /// Known breaches left are termination waits whose end no printed value
  /// reads, in bench/micro.cpp's AM round-trip, request/reply-cost and
  /// bandwidth loops and in perfbench's am_micro.
  template <typename Pred>
  void poll_until(Pred&& done) {
    while (!done()) {
      merge_empty_polls();
      poll();
    }
  }

  /// Charges `us` of application computation.  In polling mode (default)
  /// the network is not serviced until the computation ends — the paper's
  /// operating point.  With AmParams::interrupt_driven, packet arrival
  /// interrupts the computation: each interrupt costs interrupt_latency_us
  /// and dispatches handlers immediately, extending the total elapsed time
  /// but bounding message response time.
  void compute(double us);

  /// Number of locally queued bulk operations not yet fully acknowledged.
  int outstanding_bulk_ops() const { return outstanding_ops_; }

  /// Introspection for tests: unacknowledged packets toward `dst` on
  /// `channel` (0 = request, 1 = reply).
  int packets_in_flight(int dst, int channel) const {
    return peers_[static_cast<std::size_t>(dst)].tx[channel].packets_in_flight;
  }

  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t replies_sent = 0;
    std::uint64_t msgs_delivered = 0;
    std::uint64_t bulk_bytes_sent = 0;
    std::uint64_t chunks_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t retransmitted_chunks = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t out_of_seq_dropped = 0;
  };
  const Stats& stats() const { return stats_; }

  sim::NodeCtx& ctx() { return ctx_; }
  sphw::Tb2Adapter& adapter() { return adapter_; }

 private:
  static constexpr std::uint8_t kChanRequest = 0;
  static constexpr std::uint8_t kChanReply = 1;

  // Packet flag bits.
  static constexpr std::uint8_t kFlagControl = 0x01;
  static constexpr std::uint8_t kFlagOpLast = 0x02;
  static constexpr std::uint8_t kFlagSmall = 0x04;
  static constexpr std::uint8_t kFlagGetRequest = 0x08;

  // Control subtypes (in h[0] of control packets).
  static constexpr std::uint64_t kCtlAck = 1;
  static constexpr std::uint64_t kCtlNack = 2;
  static constexpr std::uint64_t kCtlProbe = 3;

  /// One queued bulk operation (store, or the data-return leg of a get).
  struct BulkOp {
    std::uint64_t id = 0;             // unique per endpoint, for blocking waits
    int dst = -1;
    std::uint8_t channel = kChanRequest;
    sphw::PayloadRef data;            // snapshot of the source region (pooled)
    std::uint64_t remote_base = 0;    // destination address on `dst`
    std::size_t sent = 0;             // bytes enqueued so far
    int handler = 0;                  // remote bulk handler
    Word arg = 0;
    std::uint32_t cookie = 0;         // get-return correlation id (0 = store)
    std::uint32_t last_chunk_seq = 0; // filled as chunks are assigned
    bool packets_emitted = false;     // true once any packet went out
    bool fully_enqueued = false;
    CompletionFn complete;            // local completion (may be empty)
  };

  /// Per-peer, per-channel sender state.
  struct TxChan {
    std::uint32_t next_seq = 0;   // next chunk sequence number to assign
    std::uint32_t acked_seq = 0;  // peer acknowledged all chunks < this
    int packets_in_flight = 0;
    struct SavedChunk {
      std::uint32_t seq;
      std::vector<sphw::Packet> packets;
    };
    std::deque<SavedChunk> retrans;      // unacked chunks, oldest first
    std::deque<BulkOp> ops;              // queued bulk operations
    struct PendingCompletion {
      std::uint32_t last_seq_plus1;      // fires when acked_seq reaches this
      CompletionFn fn;
    };
    std::deque<PendingCompletion> completions;
  };

  /// Per-peer, per-channel receiver state.
  struct RxChan {
    std::uint32_t expect_seq = 0;     // next chunk expected
    std::uint16_t expect_idx = 0;     // next packet index within that chunk
    int unacked_packets = 0;          // complete chunks not yet acked
    std::uint32_t last_nacked_seq = 0;
    bool nack_outstanding = false;
  };

  struct Peer {
    TxChan tx[2];
    RxChan rx[2];
  };

  Peer& peer(int node) { return peers_[static_cast<std::size_t>(node)]; }
  int window_for(std::uint8_t channel) const {
    return channel == kChanRequest ? params_.request_window_packets
                                   : params_.reply_window_packets;
  }

  // Send paths.
  void send_small(int dst, std::uint8_t channel, int handler, const Word* args,
                  int nargs, bool is_request);
  /// `doorbell_npackets`: see Tb2Adapter::host_enqueue (0 = caller
  /// doorbells later; N = this enqueue completes a batch of N).
  void enqueue_sequenced_packet(sphw::Packet pkt, TxChan& tx, bool save,
                                int doorbell_npackets);
  void send_control(int dst, std::uint8_t channel, std::uint64_t subtype);
  void stamp_acks(int dst, sphw::Packet& pkt);
  void wait_for_window(int dst, std::uint8_t channel, int packets_needed);
  void wait_for_fifo_space();

  // Fast path: when the adapter can bound the next packet's arrival and
  // bulk progress is provably frozen, advances the clock across the poll
  // quanta that would sample an empty FIFO (replicating the keep-alive
  // empty-poll accounting), merging their wake events into one.
  void merge_empty_polls();
  /// True while progress_bulk() cannot do anything at any instant before
  /// the next packet arrives: every queued chunk is blocked by the
  /// flow-control window, which only moves on packet receipt.
  bool bulk_progress_frozen() const;
  /// Packet count of `op`'s next chunk — the try_send_next_chunk gate.
  int planned_chunk_packets(const BulkOp& op, int window) const;
  bool have_unacked_retrans() const;

  /// Appends `op` to `tx`'s queue and counts it in queued_ops_.
  void queue_op(TxChan& tx, BulkOp op);
  // Bulk progress: pushes chunks of queued ops while windows/FIFO allow.
  void progress_bulk();
  bool try_send_next_chunk(int dst, std::uint8_t channel, TxChan& tx);

  // Receive paths.
  void serve_get(const sphw::Packet& pkt);
  void handle_packet(sphw::Packet pkt);
  void handle_control(const sphw::Packet& pkt);
  void handle_data(sphw::Packet pkt);
  void deliver_small(const sphw::Packet& pkt);
  void deliver_bulk_packet(const sphw::Packet& pkt);
  void process_ack(int src, std::uint8_t channel, std::uint32_t cum_ack);
  void maybe_explicit_ack(int src, std::uint8_t channel);
  void send_nack(int src, std::uint8_t channel);
  void retransmit_from(int dst, std::uint8_t channel, std::uint32_t from_seq);
  void fire_completions(int dst, TxChan& tx);

  sim::NodeCtx& ctx_;
  sphw::Tb2Adapter& adapter_;
  AmParams params_;

  std::vector<MsgHandler> msg_handlers_;
  std::vector<BulkHandler> bulk_handlers_;
  std::vector<Peer> peers_;

  int outstanding_ops_ = 0;
  // Totals over every peer and channel, kept exact at each push and pop so
  // an idle poll need not scan them: queued bulk ops (tx.ops) and unacked
  // chunks saved for retransmission (tx.retrans).
  int queued_ops_ = 0;
  int unacked_chunks_ = 0;
  int empty_poll_streak_ = 0;
  bool in_poll_ = false;
  std::uint32_t next_get_cookie_ = 1;
  std::uint64_t next_op_id_ = 1;
  std::unordered_map<std::uint32_t, CompletionFn> get_completions_;
  Stats stats_;
};

}  // namespace spam::am
