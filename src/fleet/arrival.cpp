#include "fleet/arrival.h"

#include <algorithm>
#include <cmath>

namespace ys::fleet {
namespace {

int scan_pick(const std::vector<double>& weights, double x) {
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size() - 1);
}

}  // namespace

WeightedPick::WeightedPick(std::vector<double> weights)
    : weights_(std::move(weights)) {
  const std::size_t n = weights_.size();
  double sum = 0.0;
  cum_.reserve(n);
  for (double w : weights_) cum_.push_back(sum += w);
  if (n == 0 || !(sum > 0.0)) return;
  // The scan's running value after index i and x - cum_[i] each carry at
  // most n roundings of at most 2^-53 * total, so wherever x - cum_[i] is
  // further than margin_ from zero its sign is the sign the scan sees.
  margin_ = std::ldexp(sum * static_cast<double>(n), -48);
  slices_per_unit_ = static_cast<double>(n) / sum;
  guide_.resize(n);
  std::size_t k = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const double slice_start = static_cast<double>(b) / slices_per_unit_;
    while (k < n && cum_[k] < slice_start - margin_) ++k;
    guide_[b] = k;
  }
}

int WeightedPick::operator()(double x) const {
  const std::size_t n = weights_.size();
  if (guide_.empty()) return scan_pick(weights_, x);
  const auto slice = static_cast<std::size_t>(x * slices_per_unit_);
  std::size_t k = guide_[std::min(slice, n - 1)];
  while (k < n && cum_[k] < x - margin_) ++k;
  // Every index before k leaves the scan's value above zero; k brings it
  // to or below zero unless x sits within margin_ of a running sum.
  if (k < n && cum_[k] > x + margin_) return static_cast<int>(k);
  return scan_pick(weights_, x);
}

std::vector<FlowSpec> build_flow_schedule(const FleetConfig& cfg,
                                          const std::string& vantage_name) {
  // Distinct salt: the schedule stream is independent of every trial seed,
  // so adding fleet scheduling changes nothing about existing benches.
  Rng rng(Rng::mix_seed({cfg.seed, 0xF1EE7ULL,
                         Rng::hash_label(vantage_name)}));

  // Heterogeneous client activity: weight in [0.1, 1.1) so every client
  // participates but a few dominate, like real per-user traffic.
  std::vector<double> client_weight(static_cast<std::size_t>(cfg.clients));
  for (double& w : client_weight) w = 0.1 + rng.uniform01();
  const WeightedPick pick_client(std::move(client_weight));

  // Popularity-skewed server draw (Zipf-ish 1/(rank+1)): the cache's hot
  // keys concentrate on a few servers, which is exactly the regime where
  // sharing the store pays off.
  std::vector<double> server_weight(static_cast<std::size_t>(cfg.servers));
  for (std::size_t j = 0; j < server_weight.size(); ++j) {
    server_weight[j] = 1.0 / static_cast<double>(j + 1);
  }
  const WeightedPick pick_server(std::move(server_weight));

  const auto weighted_pick = [&rng](const WeightedPick& pick) {
    return pick(rng.uniform01() * pick.total());
  };

  std::vector<FlowSpec> schedule;
  schedule.reserve(static_cast<std::size_t>(cfg.flows));
  std::vector<char> client_seen(static_cast<std::size_t>(cfg.clients), 0);
  SimTime t = SimTime::zero();
  for (int i = 0; i < cfg.flows; ++i) {
    // Poisson arrivals: exponential inter-arrival times at the configured
    // mean rate.
    const double u = rng.uniform01();
    const double gap_sec = -std::log(1.0 - u) / cfg.arrival_rate;
    t = t + SimTime::from_us(static_cast<i64>(gap_sec * 1e6) + 1);

    FlowSpec flow;
    flow.index = i;
    flow.at = t;
    flow.client = weighted_pick(pick_client);
    flow.server = weighted_pick(pick_server);
    // Churn applies between consecutive flows of one client; a client's
    // first flow is by definition a fresh session.
    if (client_seen[static_cast<std::size_t>(flow.client)]) {
      flow.fresh_session = cfg.churn > 0.0 && rng.chance(cfg.churn);
    } else {
      flow.fresh_session = true;
      client_seen[static_cast<std::size_t>(flow.client)] = 1;
    }
    // Soak phase: the latest boundary at or before the arrival. Phases are
    // sorted by `at` (parse_fleet_config guarantees it).
    for (std::size_t p = 0; p < cfg.soak.size(); ++p) {
      if (cfg.soak[p].at <= flow.at) flow.soak_phase = static_cast<int>(p);
    }
    schedule.push_back(flow);
  }
  return schedule;
}

}  // namespace ys::fleet
