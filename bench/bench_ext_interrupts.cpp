// Extension: interrupt-driven reception vs polling (the paper notes the
// mode exists but analyzes polling only).  Quantifies the trade the paper's
// choice implies: polling gives minimum latency when the receiver is
// attentive; interrupts bound response time during long computations at a
// per-message premium.
#include "tables.hpp"

namespace spam::bench {

namespace {

using am::AmParams;

/// Round-trip when the responder sits in poll_until (attentive).
double attentive_rtt_us(bool interrupts, Cell c) {
  AmParams amp;
  amp.interrupt_driven = interrupts;
  return am_rtt_us(1, hw(c), amp);
}

/// Mean response time when the responder is busy computing in 5 ms slices.
double busy_response_us_raw(bool interrupts, const sphw::SpParams& hw) {
  AmParams amp;
  amp.interrupt_driven = interrupts;
  sim::World world(2);
  sphw::SpMachine machine(world, hw);
  am::AmNet net(machine, amp);
  am::Endpoint& e0 = net.ep(0);
  am::Endpoint& e1 = net.ep(1);

  int pongs = 0;
  const int h_pong = e0.register_handler(
      [&](am::Endpoint&, am::Token, const am::Word*, int) { ++pongs; });
  const int h_ping = e1.register_handler(
      [&](am::Endpoint& ep, am::Token t, const am::Word* a, int) {
        ep.reply_1(t, h_pong, a[0]);
      });

  constexpr int kMsgs = 8;
  sim::Time total = 0;
  bool stop = false;
  world.spawn(0, [&](sim::NodeCtx& ctx) {
    const sim::Time t0 = ctx.now();
    for (int i = 0; i < kMsgs; ++i) {
      const int want = pongs + 1;
      e0.request_1(1, h_ping, static_cast<am::Word>(i));
      e0.poll_until([&] { return pongs >= want; });
    }
    total = ctx.now() - t0;
    stop = true;
  });
  world.spawn(1, [&](sim::NodeCtx&) {
    // The responder "computes" the whole time; only interrupts (or the
    // compute slice boundaries, where it polls once) service requests.
    while (!stop) {
      e1.compute(5000.0);
      e1.poll();
    }
  });
  world.run();
  return sim::to_usec(total) / kMsgs;
}

double busy_response_us(bool interrupts, Cell c) {
  const sphw::SpParams p = hw(c);
  driver::Hasher h("busy_response_us");
  return cached(mix(h.mix(interrupts), p),
                [=] { return busy_response_us_raw(interrupts, p); });
}

}  // namespace

std::string ext_interrupts(Cell c) {
  report::Table tab("Extension — polling vs interrupt-driven reception");
  tab.set_header({"scenario", "polling", "interrupt-driven"});
  tab.add_row({"round-trip, attentive responder (us)",
               report::fmt(attentive_rtt_us(false, c)),
               report::fmt(attentive_rtt_us(true, c))});
  tab.add_row({"round-trip, responder computing 5 ms slices (us)",
               report::fmt(busy_response_us(false, c)),
               report::fmt(busy_response_us(true, c))});
  return tab.render() +
         "\nReading: with an attentive responder polling wins (no "
         "interrupt cost on the\ncritical path); when the responder "
         "computes, polling defers responses to slice\nboundaries while "
         "interrupts bound them near RTT + interrupt latency — the "
         "trade\nthe paper sidesteps by polling everywhere.\n";
}

}  // namespace spam::bench
