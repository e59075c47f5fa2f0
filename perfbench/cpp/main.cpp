// perfbench: the repo benchmark's measuring program.
//
//   perfbench --workload fleet_soak|paper_grid|search_jobs4 --seed N
//             --seconds S --trace 0|1 [--expect-digest HEX] [--tiny]
//
// --trace 0 runs the workload with tracing off and prints the end-to-end
// metrics; --trace 1 runs the separate traced run and prints the per-layer
// metrics. The last stdout line is the JSON result object. perfbench/run.py
// builds this program and passes the recorded digest for the seed.
#include <cstdlib>
#include <cstring>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--expect-digest HEX] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--expect-digest") {
      opt.expect_digest = argv[++i];
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");

  // allocs_per_flow would silently read 0 without the counting hook (it is
  // compiled out under ASan/TSan); refuse instead of printing a lie.
  if (!ys::obs::perf::alloc_hook_available()) {
    std::fprintf(stderr,
                 "perfbench: the obs/alloc_hook counters are unavailable in "
                 "this build (sanitizer?); allocation metrics cannot be "
                 "measured\n");
    return 3;
  }

  Report rep;
  if (opt.workload == "fleet_soak") {
    rep = opt.trace ? trace_fleet_soak(opt) : run_fleet_soak(opt);
  } else if (opt.workload == "paper_grid") {
    rep = opt.trace ? trace_paper_grid(opt) : run_paper_grid(opt);
  } else if (opt.workload == "search_jobs4") {
    rep = opt.trace ? trace_search_jobs4(opt) : run_search_jobs4(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
