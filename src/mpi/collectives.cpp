// MPICH-style collectives over point-to-point.
//
// Shapes match the freely available MPICH the paper layered over SP AM:
// dissemination barrier, binomial broadcast/reduce, reduce+bcast allreduce,
// linear gather/scatter, ring allgather, and — crucially for the paper's
// FT analysis — a naive alltoall in which every rank walks destinations in
// the same order, hammering one receiver at a time.  Devices that report
// tuned_collectives() (MPI-F) use the staggered alltoall instead.
#include <cstring>
#include <vector>

#include "mpi/mpi.hpp"

namespace spam::mpi {

void Mpi::barrier() {
  const int p = size();
  if (p == 1) return;
  const int me = rank();
  const int tag = next_coll_tag();
  char dummy = 0;
  for (int dist = 1; dist < p; dist <<= 1) {
    const int to = (me + dist) % p;
    const int from = (me - dist + p) % p;
    char in = 0;
    sendrecv(&dummy, 1, to, tag, &in, 1, from, tag);
  }
}

void Mpi::bcast(void* buf, std::size_t bytes, int root) {
  const int p = size();
  if (p == 1) return;
  const int me = rank();
  const int rel = (me - root + p) % p;
  const int tag = next_coll_tag();

  // Binomial tree on relative ranks: receive from parent, forward to
  // children in decreasing subtree order.
  if (rel != 0) {
    int mask = 1;
    while (!(rel & mask)) mask <<= 1;
    const int parent = ((rel & ~mask) + root) % p;
    recv(buf, bytes, parent, tag);
    // Children of `rel` are rel | m for m > mask's position.
    for (int m = mask >> 1; m > 0; m >>= 1) {
      const int child_rel = rel | m;
      if (child_rel < p && child_rel != rel) {
        send(buf, bytes, (child_rel + root) % p, tag);
      }
    }
  } else {
    int top = 1;
    while (top < p) top <<= 1;
    for (int m = top >> 1; m > 0; m >>= 1) {
      if (m < p) send(buf, bytes, (m + root) % p, tag);
    }
  }
}

void Mpi::gather(const void* sbuf, std::size_t bytes, void* rbuf, int root) {
  const int p = size();
  const int me = rank();
  const int tag = next_coll_tag();
  if (me == root) {
    auto* out = static_cast<std::byte*>(rbuf);
    std::memcpy(out + static_cast<std::size_t>(me) * bytes, sbuf, bytes);
    std::vector<int> reqs;
    for (int i = 0; i < p; ++i) {
      if (i == root) continue;
      reqs.push_back(
          irecv(out + static_cast<std::size_t>(i) * bytes, bytes, i, tag));
    }
    waitall(reqs);
  } else {
    send(sbuf, bytes, root, tag);
  }
}

void Mpi::scatter(const void* sbuf, std::size_t bytes, void* rbuf, int root) {
  const int p = size();
  const int me = rank();
  const int tag = next_coll_tag();
  if (me == root) {
    const auto* in = static_cast<const std::byte*>(sbuf);
    std::memcpy(rbuf, in + static_cast<std::size_t>(me) * bytes, bytes);
    for (int i = 0; i < p; ++i) {
      if (i == root) continue;
      send(in + static_cast<std::size_t>(i) * bytes, bytes, i, tag);
    }
  } else {
    recv(rbuf, bytes, root, tag);
  }
}

void Mpi::reduce(const void* sbuf, void* rbuf, std::size_t count, Dtype t,
                 ReduceOp op, int root) {
  const int p = size();
  const std::size_t bytes = count * dtype_size(t);
  const int me = rank();
  const int rel = (me - root + p) % p;
  const int tag = next_coll_tag();

  std::vector<std::byte> acc(bytes);
  std::memcpy(acc.data(), sbuf, bytes);
  std::vector<std::byte> incoming(bytes);

  // Binomial combine toward relative rank 0 (deterministic order).
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rel & mask) {
      const int parent = ((rel & ~mask) + root) % p;
      send(acc.data(), bytes, parent, tag);
      break;
    }
    const int child_rel = rel | mask;
    if (child_rel < p) {
      recv(incoming.data(), bytes, (child_rel + root) % p, tag);
      reduce_apply(acc.data(), incoming.data(), count, t, op);
    }
  }
  if (me == root && rbuf != nullptr) std::memcpy(rbuf, acc.data(), bytes);
}

void Mpi::allreduce(const void* sbuf, void* rbuf, std::size_t count, Dtype t,
                    ReduceOp op) {
  // MPICH's classic composition: reduce to rank 0, then broadcast.
  reduce(sbuf, rbuf, count, t, op, 0);
  bcast(rbuf, count * dtype_size(t), 0);
}

void Mpi::alltoall(const void* sbuf, void* rbuf, std::size_t bytes) {
  const int p = size();
  const int me = rank();
  const int tag = next_coll_tag();
  const auto* in = static_cast<const std::byte*>(sbuf);
  auto* out = static_cast<std::byte*>(rbuf);

  std::memcpy(out + static_cast<std::size_t>(me) * bytes,
              in + static_cast<std::size_t>(me) * bytes, bytes);

  std::vector<int> reqs;
  for (int i = 0; i < p; ++i) {
    if (i == me) continue;
    reqs.push_back(
        irecv(out + static_cast<std::size_t>(i) * bytes, bytes, i, tag));
  }
  if (tuned_collectives()) {
    // Vendor-style staggering: rank r starts with destination r+1, so no
    // single receiver is hit by everyone at once.
    for (int k = 1; k < p; ++k) {
      const int dst = (me + k) % p;
      send(in + static_cast<std::size_t>(dst) * bytes, bytes, dst, tag);
    }
  } else {
    // MPICH generic: every rank walks destinations 0,1,2,... in the same
    // order — the synchronized hot spot the paper observed in FT.
    for (int dst = 0; dst < p; ++dst) {
      if (dst == me) continue;
      send(in + static_cast<std::size_t>(dst) * bytes, bytes, dst, tag);
    }
  }
  waitall(reqs);
}

void Mpi::allgather(const void* sbuf, std::size_t bytes, void* rbuf) {
  const int p = size();
  const int me = rank();
  const int tag = next_coll_tag();
  auto* out = static_cast<std::byte*>(rbuf);
  std::memcpy(out + static_cast<std::size_t>(me) * bytes, sbuf, bytes);
  // Ring: pass blocks around p-1 times.
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  int have = me;
  for (int step = 0; step < p - 1; ++step) {
    const int incoming = (have - 1 + p) % p;
    sendrecv(out + static_cast<std::size_t>(have) * bytes, bytes, right, tag,
             out + static_cast<std::size_t>(incoming) * bytes, bytes, left,
             tag);
    have = incoming;
  }
}

}  // namespace spam::mpi
