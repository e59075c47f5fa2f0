#include "calibrate.h"

#include <algorithm>
#include <cmath>

#include "measure.h"

namespace perfbench {

namespace {

// 256 KiB of u32: past the first-level cache, well inside the second. On
// a shared 4-vCPU Xeon host, runs of fleet_soak whose kernel (this or a
// 32 KiB to 1 MiB table) read slower were slower themselves, correlation
// 0.95-0.97 over 11 runs; with this table the simulator's time grew about
// as the kernel's (elasticity 0.9), so dividing by the slowdown cancels
// the drift. Smaller tables slowed far less than the simulator did.
constexpr u32 kTableSize = u32{1} << 16;
constexpr u64 kStepsPerPass = 20000;

u64 splitmix(u64& state) {
  u64 z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Calibrator::Calibrator() : next_(kTableSize) {
  // Sattolo's shuffle: one cycle through the whole table.
  for (u32 i = 0; i < kTableSize; ++i) next_[i] = i;
  u64 state = 0xCA11B4A7EULL;
  for (u32 i = kTableSize - 1; i > 0; --i) {
    const auto j = static_cast<u32>(splitmix(state) % i);
    std::swap(next_[i], next_[j]);
  }
}

double Calibrator::pass_ns() {
  // Dependent loads, integer hashing and a branch on hashed data: the
  // pointer chasing, arithmetic and unpredictable branches a packet-level
  // simulation is made of.
  u32 i = static_cast<u32>(sink_ % kTableSize);
  u64 h = sink_ | 1;
  const u64 t0 = now_ns();
  for (u64 s = 0; s < kStepsPerPass; ++s) {
    i = next_[i];
    h = (h ^ i) * 0x100000001B3ULL;
    if ((h >> 29) & 1) {
      h ^= h >> 17;
    } else {
      h += h << 5;
    }
  }
  const u64 t1 = now_ns();
  sink_ = h ^ i;
  return static_cast<double>(t1 - t0);
}

void Calibrator::sample() {
  const u64 t0 = now_ns();
  log_sum_ += std::log(pass_ns() / kRefNs);
  ++samples_;
  kernel_ns_ += now_ns() - t0;
}

double Calibrator::take_slowdown() {
  const double slowdown =
      samples_ > 0 ? std::exp(log_sum_ / static_cast<double>(samples_)) : 1.0;
  log_sum_ = 0.0;
  samples_ = 0;
  flows_ = 0;
  return slowdown;
}

}  // namespace perfbench
