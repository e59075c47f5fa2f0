// Machine-speed calibration. The benchmark runs on shared hosts whose speed
// drifts by tens of percent over seconds to minutes, as other tenants come
// and go on the same cores, caches and memory. A fixed reference kernel,
// owned by the benchmark and independent of ../src, is timed between flows
// throughout every timed round. Dividing the round's times by the kernel's
// slowdown over that round (kernel time / kRefNs) removes most of the drift
// the two share, while a change to the simulator moves the workload's times
// and not the kernel's.
#pragma once

#include <vector>

#include "core/types.h"

namespace perfbench {

using ys::u32;
using ys::u64;

class Calibrator {
 public:
  /// Nominal time of one kernel sample, ns: about what it takes on a
  /// 4-vCPU Xeon VM of a quiet host. Scaled times read as they would on a
  /// machine where a sample takes exactly this long.
  static constexpr double kRefNs = 4e5;
  /// A timed round takes one sample per this many flows.
  static constexpr u64 kFlowsPerSample = 1000;

  Calibrator();

  /// Call after every flow of a timed round: takes a sample every
  /// kFlowsPerSample calls.
  void tick() {
    if (++flows_ % kFlowsPerSample == 0) sample();
  }
  /// Take one sample now and add it to the current round. Allocates
  /// nothing.
  void sample();

  /// Geometric mean of sample / kRefNs over the samples since the last
  /// call (1 if there were none); the next round starts afresh.
  double take_slowdown();
  /// Wall time spent in sample() so far, ns.
  u64 kernel_ns() const { return kernel_ns_; }

 private:
  double pass_ns();

  std::vector<u32> next_;  ///< one random cycle through the table
  u64 sink_ = 0;
  u64 flows_ = 0;
  double log_sum_ = 0.0;
  u64 samples_ = 0;
  u64 kernel_ns_ = 0;
};

}  // namespace perfbench
