// Ablation: the flow-control design choices of SP AM (section 2.2).
// Sweeps chunk size, window size, doorbell batching, and the lazy-pop
// batch, reporting their effect on bulk bandwidth.
#include "tables.hpp"

namespace spam::bench {

namespace {

/// One table row: a knob, its setting, and the parameters it yields.
struct Knob {
  const char* name;
  int setting;
  am::AmParams amp;
  sphw::SpParams hw;
};

std::vector<Knob> knobs(Cell c) {
  std::vector<Knob> v;
  for (int k : {4, 9, 18, 36, 72}) {
    am::AmParams amp;
    amp.chunk_packets = k;
    // Keep the window at two chunks, as the protocol requires.
    amp.request_window_packets = 2 * k;
    amp.reply_window_packets = 2 * k + 4;
    v.push_back({"chunk packets (window = 2 chunks)", k, amp, hw(c)});
  }
  for (int w : {36, 72, 144}) {
    am::AmParams amp;
    amp.request_window_packets = w;
    amp.reply_window_packets = w + 4;
    v.push_back({"window packets (chunk = 36)", w, amp, hw(c)});
  }
  for (int d : {1, 4, 36}) {
    am::AmParams amp;
    amp.doorbell_batch_packets = d;
    v.push_back({"doorbell batch", d, amp, hw(c)});
  }
  for (int l : {1, 8, 32}) {
    Knob k{"lazy-pop batch", l, {}, hw(c)};
    k.hw.lazy_pop_batch = l;
    v.push_back(k);
  }
  return v;
}

}  // namespace

std::string ablation_flowcontrol(Cell c) {
  report::Table tab("Flow-control ablations (1 MB async store)");
  tab.set_header({"knob", "setting", "bandwidth (MB/s)"});
  for (const Knob& k : knobs(c)) {
    // Bandwidth of a 1 MB pipelined async store under the knob's parameters.
    const double bw = am_bandwidth_mbps(AmBwMode::kPipelinedAsyncStore,
                                        1 << 20, k.hw, k.amp);
    tab.add_row({k.name, std::to_string(k.setting), report::fmt(bw)});
  }
  return tab.render() +
         "\nDesign-choice reading: a one-chunk window stalls the pipeline "
         "(chunk N needs the\nack of chunk N-2); per-packet doorbells and "
         "per-packet pops burn a ~1 us\nMicroChannel access each, which is "
         "why the paper batches both.\n";
}

}  // namespace spam::bench
