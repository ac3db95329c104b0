// Reproduces paper Table 2: cost of am_request_N / am_reply_N calls,
// plus the poll costs quoted in section 2.5.
#include "harness.hpp"
#include "micro.hpp"

int main(int argc, char** argv) {
  spam::bench::harness_init(argc, argv);
  return spam::bench::run_tables([] {
    spam::report::PaperComparison cmp(
        "Table 2 — cost of am_request_N / am_reply_N (thin nodes)");
    const double paper_req[] = {7.7, 7.9, 8.0, 8.2};
    const double paper_rep[] = {4.0, 4.1, 4.3, 4.4};
    for (int n = 1; n <= 4; ++n) {
      cmp.add("am_request_" + std::to_string(n),
              spam::report::fmt_us(paper_req[n - 1]),
              spam::report::fmt_us(spam::bench::am_request_cost_us(n)),
              "includes one empty poll");
      cmp.add("am_reply_" + std::to_string(n),
              spam::report::fmt_us(paper_rep[n - 1]),
              spam::report::fmt_us(spam::bench::am_reply_cost_us(n)));
    }
    cmp.add("am_poll (empty network)", spam::report::fmt_us(1.3),
            spam::report::fmt_us(spam::bench::am_poll_empty_us()));
    cmp.add("per received message", spam::report::fmt_us(1.8),
            spam::report::fmt_us(spam::bench::am_poll_per_msg_us()));
    return cmp.table().render();
  });
}
