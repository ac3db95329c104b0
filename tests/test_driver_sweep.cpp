// SweepRunner + ResultCache + Hasher: slot-ordered aggregation under
// adversarial job durations, highest-index-first scheduling, a long point
// not holding back the rest, deterministic exception selection, memoize
// semantics, key distinctness, the bench harness's record → parallel →
// print entry for scalar and record-valued points, and the
// serial-vs-parallel determinism guarantee on a real Figure-3 sub-sweep.
// TSan-clean by design (the `tsan` CMake preset runs everything labelled
// `driver` under ThreadSanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/sweep.hpp"
#include "harness.hpp"
#include "micro.hpp"
#include "sim/action.hpp"

namespace {

using spam::driver::Hasher;
using spam::driver::Record;
using spam::driver::ResultCache;
using spam::driver::SweepRunner;

TEST(SweepRunner, ResultsAreSlotOrderedUnderAdversarialDurations) {
  // Job i sleeps longer the *lower* its index, so on a multi-threaded pool
  // the completion order is roughly the reverse of the submission order.
  // Results must land in slot order regardless.
  constexpr std::size_t kJobs = 8;
  std::vector<std::function<int()>> points;
  for (std::size_t i = 0; i < kJobs; ++i) {
    points.push_back([i] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds((kJobs - 1 - i) * 10));
      return static_cast<int>(i) * 7;
    });
  }
  const std::vector<int> out = SweepRunner(4).run(points);
  ASSERT_EQ(out.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 7) << "slot " << i;
  }
}

TEST(SweepRunner, JobsOneRunsInlineOnCallingThread) {
  const std::thread::id me = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  SweepRunner(1).run_indexed(16, [&](std::size_t) {
    if (std::this_thread::get_id() != me) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(SweepRunner, SinglePointRunsInlineEvenWithManyJobs) {
  const std::thread::id me = std::this_thread::get_id();
  bool inline_run = false;
  SweepRunner(8).run_indexed(1, [&](std::size_t i) {
    inline_run = (std::this_thread::get_id() == me) && i == 0;
  });
  EXPECT_TRUE(inline_run);
}

TEST(SweepRunner, RethrowsLowestIndexedFailure) {
  // Three jobs fail; the higher-indexed failures finish *first* (shorter
  // sleeps).  The runner must still report the failure of job 3, exactly
  // what a serial run would have thrown.  Every job runs to completion —
  // one failure does not cancel the batch.
  std::atomic<int> executed{0};
  auto sweep = [&](int jobs) -> std::string {
    executed.store(0);
    try {
      SweepRunner(jobs).run_indexed(16, [&](std::size_t i) {
        if (i == 12 || i == 9 || i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(i));
          executed.fetch_add(1);
          throw std::runtime_error("fail " + std::to_string(i));
        }
        executed.fetch_add(1);
      });
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(sweep(4), "fail 3");
  EXPECT_EQ(executed.load(), 16);
  // Serial rethrows the same exception (it stops at the first failure, and
  // every job below index 3 had succeeded).
  EXPECT_EQ(sweep(1), "fail 3");
}

TEST(SweepRunner, StartsHighestIndexFirst) {
  // perfbench's paper_sweep lists its longest points last so that they
  // start first.  With two threads the first two points started must be
  // n-1 and n-2: every point waits until two have started, so neither
  // thread can claim a third index before both first claims are recorded.
  constexpr std::size_t kJobs = 16;
  std::atomic<int> started{0};
  std::array<std::atomic<std::size_t>, kJobs> order{};
  SweepRunner(2).run_indexed(kJobs, [&](std::size_t i) {
    order[static_cast<std::size_t>(started.fetch_add(1))].store(i);
    while (started.load() < 2) std::this_thread::yield();
  });
  ASSERT_EQ(started.load(), static_cast<int>(kJobs));
  const std::size_t a = order[0].load();
  const std::size_t b = order[1].load();
  EXPECT_EQ(std::max(a, b), kJobs - 1);
  EXPECT_EQ(std::min(a, b), kJobs - 2);
}

TEST(SweepRunner, LongPointDoesNotHoldBackOthers) {
  // The 200 ms point is claimed first (highest index); the other three
  // threads must run all 63 instant points while it sleeps, not queue
  // them behind it.
  constexpr std::size_t kJobs = 64;
  std::atomic<int> short_done{0};
  int short_done_when_long_finished = -1;
  SweepRunner(4).run_indexed(kJobs, [&](std::size_t i) {
    if (i == kJobs - 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      short_done_when_long_finished = short_done.load();
    } else {
      short_done.fetch_add(1);
    }
  });
  EXPECT_EQ(short_done.load(), 63);
  EXPECT_EQ(short_done_when_long_finished, 63);
}

TEST(ResultCache, ComputesOnceThenHits) {
  ResultCache& cache = ResultCache::instance();
  cache.clear();
  const auto before = cache.stats();
  const std::uint64_t key = Hasher("test_compute_once").mix(42).digest();
  std::atomic<int> computes{0};
  auto compute = [&] {
    computes.fetch_add(1);
    return 6.25;
  };
  EXPECT_EQ(cache.memoize(key, compute)[0], 6.25);
  EXPECT_EQ(cache.memoize(key, compute)[0], 6.25);
  EXPECT_EQ(computes.load(), 1);
  const auto after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);

  Record v;
  EXPECT_TRUE(cache.lookup(key, &v));
  EXPECT_EQ(v[0], 6.25);
  cache.clear();
  EXPECT_FALSE(cache.lookup(key, &v));
}

TEST(ResultCache, ConcurrentMissesOnSharedKeysAgree) {
  // 64 jobs hammer 8 distinct keys; duplicate computes are allowed but the
  // stored value must be the deterministic per-key value for every caller.
  ResultCache& cache = ResultCache::instance();
  cache.clear();
  std::array<std::atomic<int>, 64> wrong{};
  SweepRunner(4).run_indexed(64, [&](std::size_t i) {
    const int k = static_cast<int>(i % 8);
    const std::uint64_t key =
        Hasher("test_concurrent_miss").mix(k).digest();
    const double v = cache.memoize(key, [&] { return k * 1.5; })[0];
    if (v != k * 1.5) wrong[i].fetch_add(1);
  });
  for (const auto& w : wrong) EXPECT_EQ(w.load(), 0);
  for (int k = 0; k < 8; ++k) {
    Record v;
    ASSERT_TRUE(cache.lookup(
        Hasher("test_concurrent_miss").mix(k).digest(), &v));
    EXPECT_EQ(v[0], k * 1.5);
  }
  cache.clear();
}

TEST(Hasher, DistinguishesBenchIdFieldsAndOrder) {
  const auto d = [](Hasher h) { return h.digest(); };
  // Same inputs, same key.
  EXPECT_EQ(d(Hasher("a").mix(1).mix(2)), d(Hasher("a").mix(1).mix(2)));
  // Different bench id, field value, or field order: different keys.
  EXPECT_NE(d(Hasher("a").mix(1).mix(2)), d(Hasher("b").mix(1).mix(2)));
  EXPECT_NE(d(Hasher("a").mix(1).mix(2)), d(Hasher("a").mix(1).mix(3)));
  EXPECT_NE(d(Hasher("a").mix(1).mix(2)), d(Hasher("a").mix(2).mix(1)));
  // String boundaries cannot alias: ("ab","c") != ("a","bc").
  EXPECT_NE(d(Hasher("x").mix("ab").mix("c")),
            d(Hasher("x").mix("a").mix("bc")));
  // The key is independent of the caller's integer width.
  EXPECT_EQ(d(Hasher("w").mix(static_cast<int>(5))),
            d(Hasher("w").mix(static_cast<std::int64_t>(5))));
  EXPECT_EQ(d(Hasher("w").mix(static_cast<std::size_t>(5))),
            d(Hasher("w").mix(static_cast<short>(5))));
}

TEST(ThreadLocalState, HeapFallbackCounterIsPerThread) {
  // InlineAction's fallback counter is thread-local: a worker thread
  // spilling closures to the heap must not perturb this thread's counter
  // (each engine reads its own thread's count).
  const std::uint64_t mine = spam::sim::InlineAction::heap_fallbacks();
  std::uint64_t worker_delta = 0;
  std::thread t([&] {
    const std::uint64_t before = spam::sim::InlineAction::heap_fallbacks();
    std::array<char, 256> big{};  // larger than the inline buffer
    spam::sim::InlineAction a = [big] { (void)big; };
    a();
    worker_delta = spam::sim::InlineAction::heap_fallbacks() - before;
  });
  t.join();
  EXPECT_EQ(worker_delta, 1u);
  EXPECT_EQ(spam::sim::InlineAction::heap_fallbacks(), mine);
}

TEST(BenchHarness, SecondPassReadOfUnrecordedPointIsAMiss) {
  // Point a, read twice per pass, is computed once, in the parallel phase
  // (the record pass computes nothing).  Point b is read only by the
  // second (print) pass, so it never ran there: one print-pass miss.
  ResultCache::instance().clear();
  int pass = 0;
  std::atomic<int> computed_a{0};
  const auto r = spam::bench::regenerate(
      [&] {
        ++pass;
        const auto a = [&] {
          return spam::bench::cached(Hasher("harness_test_a"), [&] {
            ++computed_a;
            return 2.0;
          });
        };
        double v = a() + a();
        if (pass == 2) {
          v += spam::bench::cached(Hasher("harness_test_b"),
                                   [] { return 3.0; });
        }
        return std::to_string(v);
      },
      2);
  EXPECT_EQ(pass, 2);
  EXPECT_EQ(computed_a.load(), 1);
  EXPECT_EQ(r.print_misses, 1u);
  EXPECT_EQ(r.text, std::to_string(7.0));
  ResultCache::instance().clear();
}

TEST(BenchHarness, RecordValuedPointReadsPlaceholderThenExactRecord) {
  // A width-3 point whose last element is an integer's bits (a NaN
  // pattern, so only a bit comparison can tell it was kept exactly).
  ResultCache::instance().clear();
  static constexpr std::uint64_t kBits = 0x7ff8'0000'dead'beefull;
  std::vector<Record> reads;
  const auto r = spam::bench::regenerate(
      [&] {
        reads.push_back(spam::bench::cached(
            Hasher("harness_test_record"), 3, [] {
              return Record{0.25, -3.5, std::bit_cast<double>(kBits)};
            }));
        return std::string();
      },
      2);
  ASSERT_EQ(reads.size(), 2u);
  ASSERT_EQ(reads[0].size(), 3u);  // the record pass: placeholders
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(reads[0][e], spam::bench::kRecordPlaceholder) << e;
  }
  ASSERT_EQ(reads[1].size(), 3u);  // the print pass: the computed record
  EXPECT_EQ(reads[1][0], 0.25);
  EXPECT_EQ(reads[1][1], -3.5);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reads[1][2]), kBits);
  EXPECT_EQ(r.print_misses, 0u);
  ResultCache::instance().clear();
}

TEST(SweepDeterminism, Figure3SubSweepIsByteIdenticalSerialVsParallel) {
  // The core guarantee: the rendered Figure-3 table is byte-for-byte
  // identical whether the bench entry ran its points at --jobs 1 or
  // --jobs 8.  Cold cache both times so the parallel run really computes
  // in parallel.
  const std::vector<std::size_t> sizes = {16, 512, 8192, 65536};
  const auto table = [&] { return spam::bench::fig3_table(sizes).render(); };
  ResultCache& cache = ResultCache::instance();

  cache.clear();
  const auto serial = spam::bench::regenerate(table, 1);

  cache.clear();
  const auto parallel = spam::bench::regenerate(table, 8);

  EXPECT_FALSE(serial.text.empty());
  EXPECT_EQ(serial.text, parallel.text);
  EXPECT_EQ(serial.print_misses, 0u);
  EXPECT_EQ(parallel.print_misses, 0u);
  cache.clear();
}

}  // namespace
