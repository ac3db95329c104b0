// Convenience wiring: one switch fabric plus one TB2 adapter per node of a
// sim::World.  Protocol layers (SP AM, MPL) are constructed on top.
#pragma once

#include <memory>
#include <vector>

#include "sim/world.hpp"
#include "sphw/adapter.hpp"
#include "sphw/params.hpp"
#include "sphw/switch.hpp"

namespace spam::sphw {

class SpMachine {
 public:
  SpMachine(sim::World& world, const SpParams& params)
      : world_(world),
        params_(params),
        fabric_(world.engine(), params, world.size()) {
    // One switch for every engine-level shortcut (fused deliveries, elapse
    // skip-ahead, lazy FIFO frees): params.network_fastpath.
    world.engine().set_fastpath(params.network_fastpath);
    adapters_.reserve(world.size());
    for (int n = 0; n < world.size(); ++n) {
      adapters_.push_back(std::make_unique<Tb2Adapter>(
          world.engine(), fabric_, n, params, world.size()));
    }
  }

  sim::World& world() { return world_; }
  const SpParams& params() const { return params_; }
  SwitchFabric& fabric() { return fabric_; }
  Tb2Adapter& adapter(int node) { return *adapters_.at(node); }
  int size() const { return static_cast<int>(adapters_.size()); }

 private:
  sim::World& world_;
  SpParams params_;
  SwitchFabric fabric_;
  std::vector<std::unique_ptr<Tb2Adapter>> adapters_;
};

}  // namespace spam::sphw
