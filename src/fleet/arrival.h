// Seeded arrival and session-churn processes for one vantage point's
// client population.
//
// The whole schedule is a pure function of (fleet seed, vantage name):
// every flow's client, target server, arrival instant, fresh-session flag,
// and soak phase are fixed before the sweep starts. That is what lets the
// runner execute a vantage's flows as one deterministic chain — and lets
// `yourstate explain` rebuild the exact same schedule when replaying one
// flow out of a hundred thousand.
//
// The generator draws from its own salted stream, so trial-level RNG is
// untouched: a fleet-free run of the same seed makes exactly the draws it
// made before this subsystem existed.
#pragma once

#include <string>
#include <vector>

#include "core/clock.h"
#include "core/rng.h"
#include "fleet/fleet_config.h"

namespace ys::fleet {

/// One scheduled flow of a vantage's population.
struct FlowSpec {
  int client = 0;
  int server = 0;
  int index = 0;  ///< position in the vantage's schedule (= trial coord)
  SimTime at;     ///< arrival instant on the sweep's shared timeline
  /// The client's process restarted since its previous flow: its private
  /// LRU memory is gone (persistent store survives per the share mode).
  bool fresh_session = false;
  /// Index into FleetConfig::soak of the phase active at `at`; -1 = none.
  int soak_phase = -1;
};

/// A weighted index draw: for x in [0, total()), the first index i at which
/// `x -= weights[i]` brings x to zero or below, or the last index if
/// rounding never does. That subtraction scan is the definition (and the
/// fallback); a guide table over running sums gives the same answer for
/// every x in a step or two instead of a walk over all the weights.
class WeightedPick {
 public:
  explicit WeightedPick(std::vector<double> weights);

  /// Sum of the weights, added in index order.
  double total() const { return cum_.empty() ? 0.0 : cum_.back(); }

  int operator()(double x) const;

 private:
  std::vector<double> weights_;
  std::vector<double> cum_;          // running sums, in scan order
  std::vector<std::size_t> guide_;   // first candidate per slice of total
  double margin_ = 0.0;
  double slices_per_unit_ = 0.0;
};

/// Build the complete flow schedule for one vantage point: `cfg.flows`
/// entries, ordered by arrival time. Clients have heterogeneous activity
/// weights and servers a popularity-skewed draw, so caches see realistic
/// hot/cold key distributions rather than uniform traffic.
std::vector<FlowSpec> build_flow_schedule(const FleetConfig& cfg,
                                          const std::string& vantage_name);

}  // namespace ys::fleet
