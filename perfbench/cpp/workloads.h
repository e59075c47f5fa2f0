// The benchmark's three workloads. Each is defined here once, as a pure
// function of (seed, tiny), so the end-to-end run (workloads.cpp) and the
// traced per-layer run (layers.cpp) drive exactly the same inputs.
//
//   fleet_soak    serial 11-vantage fleet::Fleet sweep, shared strategy
//                 cache, session churn, rst-storm soak phase mid-sweep.
//                 Every per-flow layer runs at steady state: intang,
//                 exp, netsim, gfw, middlebox, tcpstack, strategy; faults
//                 only inside the storm window.
//   paper_grid    serial fixed-strategy Table 1 + Table 4 grids (all 20
//                 paper strategies, fragments and out-of-order segments
//                 included), no faults. Bypasses intang, fleet and faults:
//                 a selector or fleet change must show no change here.
//   search_jobs4  search::SearchEngine::run() at jobs=min(nproc,4) with
//                 clean and loss-burst robustness trials. The only parallel
//                 workload: runner work stealing, per-worker registry
//                 merge and allocator contention show only here.
#pragma once

#include "exp/benchdef.h"
#include "fleet/fleet_config.h"
#include "measure.h"
#include "search/engine.h"

namespace perfbench {

ys::fleet::FleetConfig fleet_soak_config(u64 seed, bool tiny);
ys::exp::BenchScale paper_grid_scale(u64 seed, bool tiny);
/// The independent searches one search_jobs4 round runs.
std::vector<ys::search::SearchConfig> search_jobs4_configs(u64 seed, bool tiny, int jobs);
/// min(nproc, 4), at least 1.
int search_jobs();

/// Canonical encoding of one fixed-strategy trial result (outcome and the
/// reset/response flags the classification read).
u64 encode_trial(const ys::exp::TrialResult& r);

/// End-to-end runs (tracing off): the metrics BENCHMARK.json names under
/// end_to_end.
Report run_fleet_soak(const Options& opt);
Report run_paper_grid(const Options& opt);
Report run_search_jobs4(const Options& opt);

/// Traced runs: the per_layer metrics.
Report trace_fleet_soak(const Options& opt);
Report trace_paper_grid(const Options& opt);
Report trace_search_jobs4(const Options& opt);

}  // namespace perfbench
