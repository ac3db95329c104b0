// The model's error against the paper, and the paper points it needs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "apps/nas.hpp"
#include "mpif/mpi_world.hpp"

namespace perfbench {

/// One Table 6 kernel as the paper ran it, reduced in size.
struct NasKernel {
  const char* am_span;  // "mpi.nas_<k>": the kernel on MPI-AM
  const char* f_span;   // "mpif.nas_<k>": the kernel on MPI-F
  double paper_f_s;
  double paper_am_s;
  spam::apps::NasResult (*run)(spam::mpi::MpiWorld&);
};
const std::vector<NasKernel>& nas_kernels();
/// Table 6 runs every kernel on 16 thin nodes.
spam::mpi::MpiWorldConfig nas_config(spam::mpi::MpiImpl impl);

struct NasPair {
  spam::apps::NasResult am;
  spam::apps::NasResult f;
};

/// The memoized Table 2 and Table 3 points that the calibrated anchors
/// read (call costs, round trips, the Figure 3 curves).  Each returns its
/// virtual-time result.
std::vector<std::function<double()>> calibration_points();

struct Accuracy {
  double calib_err_pct = 0;    // mean |virt - paper| / paper, fitted anchors
  double heldout_err_pct = 0;  // the same over the Table 6 ratios
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
};

/// Scores the model from the memoized points (computing any that are not
/// cached) and `nas`, one pair per nas_kernels() entry.  Each kernel is a
/// check, failed when a run did not finish or when the MPI-AM and MPI-F
/// checksums differ.
Accuracy score(const std::vector<NasPair>& nas);

/// Computes every point score() needs on all host cores, then scores.
Accuracy measure_accuracy();

}  // namespace perfbench
