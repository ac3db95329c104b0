// Turn-key Split-C world: builds the chosen machine (SP + AM, SP + MPL, or
// a LogGP machine), the per-node transports, and the Split-C runtimes, and
// runs a program on every node.  Used by tests, examples, and the Table 5 /
// Figure 4 benches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "am/net.hpp"
#include "logp/loggp.hpp"
#include "mpl/mpl.hpp"
#include "splitc/am_backend.hpp"
#include "splitc/loggp_backend.hpp"
#include "splitc/mpl_backend.hpp"
#include "splitc/runtime.hpp"
#include "sphw/machine.hpp"

namespace spam::splitc {

enum class Backend { kSpAm, kSpMpl, kLogGp };

struct SplitCConfig {
  int nodes = 8;
  Backend backend = Backend::kSpAm;
  std::uint64_t seed = 1;
  sphw::SpParams hw = sphw::SpParams::thin_node();
  am::AmParams am;
  mpl::MplParams mpl;
  logp::LogGpParams loggp;  // used when backend == kLogGp
  CpuCost cost;
};

class SplitCWorld {
 public:
  explicit SplitCWorld(SplitCConfig cfg)
      : cfg_(cfg), world_(cfg.nodes, cfg.seed) {
    switch (cfg_.backend) {
      case Backend::kSpAm:
        sp_ = std::make_unique<sphw::SpMachine>(world_, cfg_.hw);
        am_ = std::make_unique<am::AmNet>(*sp_, cfg_.am);
        for (int n = 0; n < cfg_.nodes; ++n) {
          backends_.push_back(std::make_unique<AmBackend>(am_->ep(n)));
        }
        break;
      case Backend::kSpMpl:
        sp_ = std::make_unique<sphw::SpMachine>(world_, cfg_.hw);
        mpl_ = std::make_unique<mpl::MplNet>(*sp_, cfg_.mpl);
        for (int n = 0; n < cfg_.nodes; ++n) {
          backends_.push_back(
              std::make_unique<MplBackend>(mpl_->ep(n), cfg_.nodes));
        }
        break;
      case Backend::kLogGp:
        // No SpMachine wires the engine's fast path on this path; the
        // LogGP model still shares the engine, so the switch comes from hw
        // like everywhere else.
        world_.engine().set_fastpath(cfg_.hw.network_fastpath);
        logp_ = std::make_unique<logp::LogGpMachine>(world_, cfg_.loggp);
        for (int n = 0; n < cfg_.nodes; ++n) {
          backends_.push_back(
              std::make_unique<LogGpBackend>(logp_->ep(n), cfg_.nodes));
        }
        break;
    }
    std::vector<Transport*> raw;
    raw.reserve(backends_.size());
    for (auto& b : backends_) raw.push_back(b.get());
    net_ = std::make_unique<SplitCNet>(world_, raw, cfg_.cost);
  }

  sim::World& world() { return world_; }
  Runtime& rt(int node) { return net_->rt(node); }
  int size() const { return cfg_.nodes; }
  const SplitCConfig& config() const { return cfg_; }
  sphw::SpMachine* sp_machine() { return sp_.get(); }

  /// Spawns `program` on every node and runs the world to completion.
  void run(std::function<void(Runtime&)> program) {
    for (int n = 0; n < cfg_.nodes; ++n) {
      world_.spawn(n, [this, n, program](sim::NodeCtx&) {
        program(net_->rt(n));
      });
    }
    world_.run();
  }

 private:
  SplitCConfig cfg_;
  sim::World world_;
  std::unique_ptr<sphw::SpMachine> sp_;
  std::unique_ptr<am::AmNet> am_;
  std::unique_ptr<mpl::MplNet> mpl_;
  std::unique_ptr<logp::LogGpMachine> logp_;
  std::vector<std::unique_ptr<Transport>> backends_;
  std::unique_ptr<SplitCNet> net_;
};

}  // namespace spam::splitc
