// Host-clock calibration loop.
//
// Raw host seconds on a shared virtual machine drift by a third or more over
// minutes, so no raw-seconds estimator repeats within a tenth. The benchmark
// therefore scales every host-clock measurement by a fixed-work loop timed
// next to it: calibrated = raw * nominal / loop. The loop is shaped like the
// simulator's hot path (gpusim/kernel.hpp + gpusim/costmodel.cpp): a
// thread-per-vertex sweep over a skewed graph that logs each lane's
// accesses, zips the 32 lane logs into warp slots, sorts and uniques each
// slot's 32-byte sectors, and probes a 3 MB / 32 B direct-mapped tag array.
// Loops of other shapes (an L3-sized random walk, an L2-resident pointer
// chase) tracked the simulator's slowdowns worse; see bcbench/README.md.
//
// The loop is deliberately self-contained: it links nothing from the
// library, so a change to the library cannot move it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace bcbench {

/// Loop time of one pass on the reference machine. Calibrated seconds are
/// seconds of that machine; the absolute value only sets the unit.
inline constexpr double kCalibNominalS = 0.020;

/// Host seconds scaled to the nominal machine: raw * nominal / loop.
double calibrated(double raw_s, double loop_s,
                  double nominal_s = kCalibNominalS);

class CalibrationLoop {
 public:
  /// Builds the loop's own graph from a fixed seed, so every run of every
  /// workload times the same work.
  CalibrationLoop();

  /// Re-warm the loop's working set (so the pass measures the machine, not
  /// what the previous operation left in the caches), then time `passes`
  /// passes and return the median pass in seconds.
  double measure(int passes = 3);

  /// Result of the last pass; consumed so the sweep cannot be optimised out.
  std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  struct Access {
    std::uint64_t addr;
    std::uint32_t size;
  };

  std::uint64_t pass();
  void rewarm();

  std::vector<std::uint32_t> col_ptr_;
  std::vector<std::uint32_t> rows_;
  std::vector<float> x_;
  std::vector<double> y_;
  std::vector<std::uint64_t> tags_;
  std::array<std::vector<Access>, 32> logs_;
  std::uint64_t checksum_ = 0;
};

}  // namespace bcbench
