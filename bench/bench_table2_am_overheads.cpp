// Reproduces paper Table 2: cost of am_request_N / am_reply_N calls,
// plus the poll costs quoted in section 2.5.
#include "tables.hpp"

namespace spam::bench {

std::string table2_am_overheads(Cell c) {
  report::PaperComparison cmp(
      "Table 2 — cost of am_request_N / am_reply_N (thin nodes)");
  const double paper_req[] = {7.7, 7.9, 8.0, 8.2};
  const double paper_rep[] = {4.0, 4.1, 4.3, 4.4};
  for (int n = 1; n <= 4; ++n) {
    cmp.add("am_request_" + std::to_string(n),
            report::fmt_us(paper_req[n - 1]),
            report::fmt_us(am_request_cost_us(n, hw(c))),
            "includes one empty poll");
    cmp.add("am_reply_" + std::to_string(n), report::fmt_us(paper_rep[n - 1]),
            report::fmt_us(am_reply_cost_us(n, hw(c))));
  }
  cmp.add("am_poll (empty network)", report::fmt_us(1.3),
          report::fmt_us(am_poll_empty_us(hw(c))));
  cmp.add("per received message", report::fmt_us(1.8),
          report::fmt_us(am_poll_per_msg_us(hw(c))));
  return cmp.table().render();
}

}  // namespace spam::bench
