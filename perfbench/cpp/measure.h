// Measurement plumbing shared by the end-to-end and traced runs: clocks,
// allocation snapshots, order statistics, result digests and the report
// every run prints as its last stdout line.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/types.h"
#include "obs/alloc_hook.h"

namespace perfbench {

using ys::u64;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// This thread's operator-new totals (obs/alloc_hook). Only meaningful when
/// ys::obs::perf::alloc_hook_available(); main() refuses to run otherwise.
inline ys::obs::perf::AllocCounters allocs_now() {
  return ys::obs::perf::thread_alloc_counters();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`, which it sorts.
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// FNV-1a over everything a workload's results depend on.
class Digest {
 public:
  void add(u64 v);
  void add(const std::string& s);
  std::string hex() const;

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: the JSON result object.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Recorded result digest for this (workload, seed); empty = not recorded.
  std::string expect_digest;
  /// Tiny inputs for the self-test (results differ from the full size).
  bool tiny = false;
};

/// A line for the human reader, on stdout before the result line.
template <class... Args>
void say(const char* fmt, Args... args) {
  std::printf(fmt, args...);
  std::printf("\n");
}

}  // namespace perfbench
