// SweepRunner: deterministic parallel execution of independent simulation
// points, plus the memoization cache the measurement layer hangs off.
//
// A *sweep* is a vector of closures, each of which constructs and runs its
// own shared-nothing sim::World (or reads the ResultCache).  SweepRunner
// executes them across N host threads and writes each result into the slot
// indexed by its job id, so aggregated output is byte-identical to serial
// execution regardless of completion order.  Each point is itself a
// deterministic simulation (same seed => same virtual numbers), so the
// *values* cannot depend on the thread that computed them — the runner
// only has to keep the aggregation order fixed, which slot-indexed results
// do by construction.
//
// Scheduling: the threads claim indices from one shared counter, highest
// index first, so a caller that lists its longest points last gets them
// started first and the short points fill in around them.  A long point
// holds back only the thread running it.
//
// Thread-safety contract (see docs/simulator.md): a job owns everything it
// touches.  One World per thread at a time, engine/payload/trace state is
// thread-local, and nothing simulated crosses threads.  Jobs communicate
// only through their return slots.
//
// Exceptions: all jobs run to completion even if some throw; afterwards
// the exception of the *lowest-indexed* failed job is rethrown.  Serial
// execution (jobs == 1) throws at the first failure, which is the same
// observable exception, since all lower-indexed jobs had succeeded.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "driver/annotations.hpp"

namespace spam::driver {

class SweepRunner {
 public:
  /// `jobs` <= 0 selects hardware_concurrency.  jobs == 1 runs everything
  /// inline on the calling thread (no thread is started).
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Runs fn(n-1) .. fn(0) on min(jobs, n) threads started for this call;
  /// returns when all completed and the threads are joined.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs every closure; results land in slot [i] for closure [i].
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& points) {
    std::vector<R> out(points.size());
    run_indexed(points.size(),
                [&](std::size_t i) { out[i] = points[i](); });
    return out;
  }

  /// Void overload: useful for cache-warming sweeps.
  void run(const std::vector<std::function<void()>>& points) {
    run_indexed(points.size(), [&](std::size_t i) { points[i](); });
  }

 private:
  int jobs_;
};

/// FNV-1a over explicitly mixed fields.  Used to key ResultCache entries
/// on (bench id, params struct, size/mode) without hashing padding bytes.
class Hasher {
 public:
  explicit Hasher(const char* bench_id) { mix(bench_id); }

  Hasher& mix_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }

  /// Scalars only; every integer is widened to 64 bits first so the key
  /// does not depend on the caller's choice of int width.
  template <typename T>
  Hasher& mix(T v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                  "mix() takes scalars; use mix_bytes for aggregates");
    if constexpr (std::is_floating_point_v<T>) {
      const double d = static_cast<double>(v);
      return mix_bytes(&d, sizeof d);
    } else {
      const auto u = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(v));
      return mix_bytes(&u, sizeof u);
    }
  }

  Hasher& mix(const char* s) {
    while (*s != '\0') mix_bytes(s++, 1);
    return mix_bytes("\0", 1);  // terminator: "ab","c" != "a","bc"
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// A cached point's value: a short fixed-width record of doubles.  A
/// scalar point is a record of width 1 (hence the implicit conversion); an
/// app run records a few fields, an integer field by its bits
/// (std::bit_cast).  The capacity is fixed, so a cache hit never allocates.
struct Record {
  static constexpr std::size_t kMaxWidth = 5;

  Record() = default;
  Record(double x) : Record({x}) {}
  Record(std::initializer_list<double> xs) : width(xs.size()) {
    assert(xs.size() <= kMaxWidth);
    std::copy(xs.begin(), xs.end(), v.begin());
  }

  std::size_t size() const { return width; }
  double operator[](std::size_t i) const { return v[i]; }

  std::array<double, kMaxWidth> v{};
  std::size_t width = 0;
};

/// Process-wide, thread-safe memoization of measurement points.
/// Within one invocation a (bench id, params, size/mode) point is computed
/// once; every later request — the report table, another curve sharing
/// the point — is a lookup.  Values are deterministic simulation outputs,
/// so which thread computes a point first cannot change what is stored.
class ResultCache {
 public:
  static ResultCache& instance();

  /// Returns the cached value for `key`, computing it with `compute` on a
  /// miss.  The lock is dropped during compute, so concurrent misses on
  /// *different* keys proceed in parallel; concurrent misses on the same
  /// key may compute twice and the first store wins (identical values).
  Record memoize(std::uint64_t key, const std::function<Record()>& compute)
      SPAM_EXCLUDES(mu_);

  bool lookup(std::uint64_t key, Record* out) const SPAM_EXCLUDES(mu_);

  /// Forgets everything (perfbench's paper_sweep uses this to time cold
  /// sweeps).
  void clear() SPAM_EXCLUDES(mu_);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const SPAM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::unordered_map<std::uint64_t, Record> map_ SPAM_GUARDED_BY(mu_);
  Stats stats_ SPAM_GUARDED_BY(mu_);
};

}  // namespace spam::driver
