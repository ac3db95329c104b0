#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

namespace spam::driver {

namespace {

/// The failure of the lowest index, whatever order the threads hit them
/// in: the exception a serial run would have thrown.
class LowestFailure {
 public:
  void record(std::size_t i, std::exception_ptr e) SPAM_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (i < index_) {
      index_ = i;
      error_ = std::move(e);
    }
  }

  void rethrow() SPAM_EXCLUDES(mu_) {
    std::exception_ptr e;
    {
      MutexLock lk(mu_);
      e = error_;
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  Mutex mu_;
  std::size_t index_ SPAM_GUARDED_BY(mu_) =
      std::numeric_limits<std::size_t>::max();
  std::exception_ptr error_ SPAM_GUARDED_BY(mu_);
};

}  // namespace

SweepRunner::SweepRunner(int jobs) {
  if (jobs <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    jobs = hc == 0 ? 1 : static_cast<int>(hc);
  }
  jobs_ = jobs;
}

void SweepRunner::run_indexed(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The threads are per run: sweeps are coarse enough that thread start-up
  // is noise, and joining them keeps every thread-local arena (payload
  // pool, counters) bounded by the sweep that created it.
  std::atomic<std::size_t> claimed{0};
  LowestFailure failure;
  auto work = [&] {
    for (std::size_t k = claimed.fetch_add(1, std::memory_order_relaxed);
         k < n; k = claimed.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t i = n - 1 - k;  // highest index first
      try {
        fn(i);
      } catch (...) {
        failure.record(i, std::current_exception());
      }
    }
  };
  {
    // jthread joins on destruction, so the threads already running are
    // joined even when starting a later one throws.
    std::vector<std::jthread> threads;
    const std::size_t count = std::min(n, static_cast<std::size_t>(jobs_));
    threads.reserve(count);
    for (std::size_t t = 0; t < count; ++t) threads.emplace_back(work);
  }
  failure.rethrow();
}

ResultCache& ResultCache::instance() {
  static ResultCache cache;
  return cache;
}

Record ResultCache::memoize(std::uint64_t key,
                            const std::function<Record()>& compute) {
  {
    MutexLock lk(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
  }
  const Record v = compute();
  MutexLock lk(mu_);
  return map_.emplace(key, v).first->second;  // first store wins
}

bool ResultCache::lookup(std::uint64_t key, Record* out) const {
  MutexLock lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  *out = it->second;
  return true;
}

void ResultCache::clear() {
  MutexLock lk(mu_);
  map_.clear();
  stats_ = Stats{};
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

}  // namespace spam::driver
