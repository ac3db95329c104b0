// Reproduces paper Figure 3: one-way bandwidth of blocking and non-blocking
// bulk transfers, 16 B .. 1 MB — six curves: sync store, sync get, MPL
// send/reply (blocking), pipelined async store, pipelined async get,
// pipelined MPL send.
#include <benchmark/benchmark.h>

#include "harness.hpp"
#include "micro.hpp"

namespace {

using spam::bench::AmBwMode;
using spam::bench::MplBwMode;

void BM_SyncStore(benchmark::State& state) {
  double mbps = 0;
  for (auto _ : state) {
    mbps = spam::bench::am_bandwidth_mbps(
        AmBwMode::kSyncStore, static_cast<std::size_t>(state.range(0)));
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = mbps;
}

void BM_SyncGet(benchmark::State& state) {
  double mbps = 0;
  for (auto _ : state) {
    mbps = spam::bench::am_bandwidth_mbps(
        AmBwMode::kSyncGet, static_cast<std::size_t>(state.range(0)));
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = mbps;
}

void BM_AsyncStore(benchmark::State& state) {
  double mbps = 0;
  for (auto _ : state) {
    mbps = spam::bench::am_bandwidth_mbps(
        AmBwMode::kPipelinedAsyncStore,
        static_cast<std::size_t>(state.range(0)));
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = mbps;
}

void BM_AsyncGet(benchmark::State& state) {
  double mbps = 0;
  for (auto _ : state) {
    mbps = spam::bench::am_bandwidth_mbps(
        AmBwMode::kPipelinedAsyncGet,
        static_cast<std::size_t>(state.range(0)));
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = mbps;
}

void BM_MplBlocking(benchmark::State& state) {
  double mbps = 0;
  for (auto _ : state) {
    mbps = spam::bench::mpl_bandwidth_mbps(
        MplBwMode::kBlocking, static_cast<std::size_t>(state.range(0)));
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = mbps;
}

void BM_MplPipelined(benchmark::State& state) {
  double mbps = 0;
  for (auto _ : state) {
    mbps = spam::bench::mpl_bandwidth_mbps(
        MplBwMode::kPipelined, static_cast<std::size_t>(state.range(0)));
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = mbps;
}

void register_sizes(const char* name, void (*fn)(benchmark::State&)) {
  for (std::size_t s : spam::bench::figure3_sizes()) {
    benchmark::RegisterBenchmark(name, fn)
        ->Arg(static_cast<long>(s))
        ->UseManualTime()
        ->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  spam::bench::harness_init(argc, argv);

  // Register one point per curve per size so the benchmark table lists the
  // whole figure; the summary below prints the series compactly.
  register_sizes("Fig3/SyncStore", BM_SyncStore);
  register_sizes("Fig3/SyncGet", BM_SyncGet);
  register_sizes("Fig3/MplBlocking", BM_MplBlocking);
  register_sizes("Fig3/PipelinedAsyncStore", BM_AsyncStore);
  register_sizes("Fig3/PipelinedAsyncGet", BM_AsyncGet);
  register_sizes("Fig3/PipelinedMplSend", BM_MplPipelined);

  spam::bench::prewarm(spam::bench::fig3_points(spam::bench::figure3_sizes()));
  benchmark::RunSpecifiedBenchmarks();

  // Figure data as a table: size, then the six curves (all cached by now).
  spam::bench::fig3_table(spam::bench::figure3_sizes()).print();

  std::printf(
      "\nShape checks (paper): async >= sync below one chunk and equal "
      "above 8064 B;\nsync get trails sync store at small sizes; all curves "
      "converge to ~34-35 MB/s.\n");
}
