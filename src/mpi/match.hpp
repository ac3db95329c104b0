// MPI message matching: posted-receive queue and unexpected-message queue
// with MPI's (source, tag) wildcard rules and per-source FIFO ordering.
// Shared by the MPI-over-AM device and the MPI-F baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "mpi/types.hpp"

namespace spam::mpi {

/// A receive posted by the application, waiting for a matching message.
struct PostedRecv {
  int req_id = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  void* buf = nullptr;
  std::size_t cap = 0;
};

/// An arrived (or announced) message not yet matched.  `cookie` and `data`
/// are device-defined: for eager arrivals `data` points at the payload in
/// the device's buffer; for rendez-vous announcements it is null and
/// `cookie` identifies the sender-side operation.
struct InMsg {
  int src = -1;
  int tag = 0;
  std::size_t len = 0;
  std::uint32_t kind = 0;       // device-defined protocol kind
  std::uint64_t cookie = 0;     // device-defined correlation id
  const void* data = nullptr;   // payload location, if already here
  std::size_t data_len = 0;     // bytes available at `data`
};

class MatchEngine {
 public:
  /// Posts a receive.  If an unexpected message matches, it is removed and
  /// returned; otherwise the receive queues.
  std::optional<InMsg> post(const PostedRecv& r);

  /// Delivers an arrival.  If a posted receive matches, it is removed and
  /// returned; otherwise the message joins the unexpected queue.
  std::optional<PostedRecv> arrive(const InMsg& m);

  std::size_t unexpected_count() const { return unexpected_.size(); }

 private:
  static bool matches(const PostedRecv& r, const InMsg& m) {
    return (r.src == kAnySource || r.src == m.src) &&
           (r.tag == kAnyTag || r.tag == m.tag);
  }

  std::deque<PostedRecv> posted_;
  std::deque<InMsg> unexpected_;
};

}  // namespace spam::mpi
