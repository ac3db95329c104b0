// Ablation: the flow-control design choices of SP AM (section 2.2).
// Sweeps chunk size, window size, doorbell batching, and the lazy-pop
// batch, reporting their effect on bulk bandwidth.
#include <string>
#include <vector>

#include "harness.hpp"
#include "micro.hpp"

namespace {

/// One table row: a knob, its setting, and the parameters it yields.
struct Knob {
  const char* name;
  int setting;
  spam::am::AmParams amp;
  spam::sphw::SpParams hw = spam::sphw::SpParams::thin_node();
};

std::vector<Knob> knobs() {
  std::vector<Knob> v;
  for (int c : {4, 9, 18, 36, 72}) {
    spam::am::AmParams amp;
    amp.chunk_packets = c;
    // Keep the window at two chunks, as the protocol requires.
    amp.request_window_packets = 2 * c;
    amp.reply_window_packets = 2 * c + 4;
    v.push_back({"chunk packets (window = 2 chunks)", c, amp});
  }
  for (int w : {36, 72, 144}) {
    spam::am::AmParams amp;
    amp.request_window_packets = w;
    amp.reply_window_packets = w + 4;
    v.push_back({"window packets (chunk = 36)", w, amp});
  }
  for (int d : {1, 4, 36}) {
    spam::am::AmParams amp;
    amp.doorbell_batch_packets = d;
    v.push_back({"doorbell batch", d, amp});
  }
  for (int l : {1, 8, 32}) {
    Knob k{"lazy-pop batch", l, {}};
    k.hw.lazy_pop_batch = l;
    v.push_back(k);
  }
  return v;
}

/// Bandwidth of a 1 MB pipelined async store under the knob's parameters.
double bw_of(const Knob& k) {
  return spam::bench::am_bandwidth_mbps(
      spam::bench::AmBwMode::kPipelinedAsyncStore, 1 << 20, k.hw, k.amp);
}

}  // namespace

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);
  return spam::bench::run_tables([] {
    spam::report::Table tab("Flow-control ablations (1 MB async store)");
    tab.set_header({"knob", "setting", "bandwidth (MB/s)"});
    for (const Knob& k : knobs()) {
      tab.add_row({k.name, std::to_string(k.setting),
                   spam::report::fmt(bw_of(k))});
    }
    return tab.render() +
           "\nDesign-choice reading: a one-chunk window stalls the pipeline "
           "(chunk N needs the\nack of chunk N-2); per-packet doorbells and "
           "per-packet pops burn a ~1 us\nMicroChannel access each, which is "
           "why the paper batches both.\n";
  });
}
