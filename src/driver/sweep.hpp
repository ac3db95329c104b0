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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "driver/annotations.hpp"
#include "driver/pool.hpp"

namespace spam::driver {

class SweepRunner {
 public:
  /// `jobs` <= 0 selects hardware_concurrency.  jobs == 1 runs everything
  /// inline on the calling thread (no pool is created).
  explicit SweepRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(n-1) across the pool; returns when all completed.
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

/// Process-wide, thread-safe memoization of scalar measurement points.
/// Within one invocation a (bench id, params, size/mode) point is computed
/// once; every later request — the google-benchmark pass, the report
/// table, another curve sharing the point — is a lookup.  Values are
/// deterministic simulation outputs, so which thread computes a point
/// first cannot change what is stored.
class ResultCache {
 public:
  static ResultCache& instance();

  /// Returns the cached value for `key`, computing it with `compute` on a
  /// miss.  The lock is dropped during compute, so concurrent misses on
  /// *different* keys proceed in parallel; concurrent misses on the same
  /// key may compute twice and the first store wins (identical values).
  double memoize(std::uint64_t key, const std::function<double()>& compute)
      SPAM_EXCLUDES(mu_);

  bool lookup(std::uint64_t key, double* out) const SPAM_EXCLUDES(mu_);

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
  std::unordered_map<std::uint64_t, double> map_ SPAM_GUARDED_BY(mu_);
  Stats stats_ SPAM_GUARDED_BY(mu_);
};

}  // namespace spam::driver
