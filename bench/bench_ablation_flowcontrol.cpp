// Ablation: the flow-control design choices of SP AM (section 2.2).
// Sweeps chunk size, window size, doorbell batching, and the lazy-pop
// batch, reporting their effect on bulk bandwidth and one-word round-trip.
#include <benchmark/benchmark.h>

#include "harness.hpp"
#include "micro.hpp"

namespace {

double bw_with(spam::am::AmParams amp,
               spam::sphw::SpParams hw = spam::sphw::SpParams::thin_node()) {
  return spam::bench::am_bandwidth_mbps(
      spam::bench::AmBwMode::kPipelinedAsyncStore, 1 << 20, hw, amp);
}

void BM_ChunkSize(benchmark::State& state) {
  spam::am::AmParams amp;
  amp.chunk_packets = static_cast<int>(state.range(0));
  // Keep the window at two chunks, as the protocol requires.
  amp.request_window_packets = 2 * amp.chunk_packets;
  amp.reply_window_packets = 2 * amp.chunk_packets + 4;
  double bw = 0;
  for (auto _ : state) {
    bw = bw_with(amp);
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = bw;
}
BENCHMARK(BM_ChunkSize)->Arg(4)->Arg(9)->Arg(18)->Arg(36)->Arg(72)
    ->UseManualTime()->Iterations(1);

void BM_WindowSize(benchmark::State& state) {
  spam::am::AmParams amp;
  amp.request_window_packets = static_cast<int>(state.range(0));
  amp.reply_window_packets = static_cast<int>(state.range(0)) + 4;
  double bw = 0;
  for (auto _ : state) {
    bw = bw_with(amp);
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = bw;
}
BENCHMARK(BM_WindowSize)->Arg(36)->Arg(72)->Arg(108)->Arg(144)
    ->UseManualTime()->Iterations(1);

void BM_DoorbellBatch(benchmark::State& state) {
  spam::am::AmParams amp;
  amp.doorbell_batch_packets = static_cast<int>(state.range(0));
  double bw = 0;
  for (auto _ : state) {
    bw = bw_with(amp);
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = bw;
}
BENCHMARK(BM_DoorbellBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(36)
    ->UseManualTime()->Iterations(1);

void BM_LazyPopBatch(benchmark::State& state) {
  spam::sphw::SpParams hw = spam::sphw::SpParams::thin_node();
  hw.lazy_pop_batch = static_cast<int>(state.range(0));
  double bw = 0;
  for (auto _ : state) {
    bw = bw_with({}, hw);
    state.SetIterationTime(1e-3);
  }
  state.counters["MBps"] = bw;
}
BENCHMARK(BM_LazyPopBatch)->Arg(1)->Arg(4)->Arg(8)->Arg(32)
    ->UseManualTime()->Iterations(1);

void BM_RttVsWindow(benchmark::State& state) {
  spam::am::AmParams amp;
  amp.request_window_packets = static_cast<int>(state.range(0));
  amp.reply_window_packets = static_cast<int>(state.range(0)) + 4;
  double us = 0;
  for (auto _ : state) {
    us = spam::bench::am_rtt_us(1, spam::sphw::SpParams::thin_node(), amp);
    state.SetIterationTime(us * 1e-6);
  }
  state.counters["sim_us"] = us;
}
BENCHMARK(BM_RttVsWindow)->Arg(8)->Arg(72)->Arg(144)
    ->UseManualTime()->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  spam::bench::harness_init(argc, argv);

  {  // Warm every knob setting across --jobs threads.
    std::vector<std::function<void()>> points;
    for (int c : {4, 9, 18, 36, 72}) {
      points.push_back([c] {
        spam::am::AmParams amp;
        amp.chunk_packets = c;
        amp.request_window_packets = 2 * c;
        amp.reply_window_packets = 2 * c + 4;
        bw_with(amp);
      });
    }
    for (int w : {36, 72, 108, 144}) {
      points.push_back([w] {
        spam::am::AmParams amp;
        amp.request_window_packets = w;
        amp.reply_window_packets = w + 4;
        bw_with(amp);
      });
    }
    for (int d : {1, 2, 4, 8, 36}) {
      points.push_back([d] {
        spam::am::AmParams amp;
        amp.doorbell_batch_packets = d;
        bw_with(amp);
      });
    }
    for (int l : {1, 4, 8, 32}) {
      points.push_back([l] {
        spam::sphw::SpParams hw = spam::sphw::SpParams::thin_node();
        hw.lazy_pop_batch = l;
        bw_with({}, hw);
      });
    }
    for (int w : {8, 72, 144}) {
      points.push_back([w] {
        spam::am::AmParams amp;
        amp.request_window_packets = w;
        amp.reply_window_packets = w + 4;
        spam::bench::am_rtt_us(1, spam::sphw::SpParams::thin_node(), amp);
      });
    }
    spam::bench::prewarm(points);
  }
  benchmark::RunSpecifiedBenchmarks();

  spam::report::Table tab("Flow-control ablations (1 MB async store)");
  tab.set_header({"knob", "setting", "bandwidth (MB/s)"});
  for (int c : {4, 9, 18, 36, 72}) {
    spam::am::AmParams amp;
    amp.chunk_packets = c;
    amp.request_window_packets = 2 * c;
    amp.reply_window_packets = 2 * c + 4;
    tab.add_row({"chunk packets (window = 2 chunks)", std::to_string(c),
                 spam::report::fmt(bw_with(amp))});
  }
  for (int w : {36, 72, 144}) {
    spam::am::AmParams amp;
    amp.request_window_packets = w;
    amp.reply_window_packets = w + 4;
    tab.add_row({"window packets (chunk = 36)", std::to_string(w),
                 spam::report::fmt(bw_with(amp))});
  }
  for (int d : {1, 4, 36}) {
    spam::am::AmParams amp;
    amp.doorbell_batch_packets = d;
    tab.add_row({"doorbell batch", std::to_string(d),
                 spam::report::fmt(bw_with(amp))});
  }
  for (int l : {1, 8, 32}) {
    spam::sphw::SpParams hw = spam::sphw::SpParams::thin_node();
    hw.lazy_pop_batch = l;
    tab.add_row({"lazy-pop batch", std::to_string(l),
                 spam::report::fmt(bw_with({}, hw))});
  }
  tab.print();
  std::printf(
      "\nDesign-choice reading: a one-chunk window stalls the pipeline "
      "(chunk N needs the\nack of chunk N-2); per-packet doorbells and "
      "per-packet pops burn a ~1 us\nMicroChannel access each, which is why "
      "the paper batches both.\n");
}
