#include "sim/monitor_accuracy.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "kyoto/kyoto_scheduler.hpp"

namespace kyoto::sim {
namespace {

using Sample = core::GroundTruthShadow::Sample;

/// Denominator floor of the relative error (miss/ms).
constexpr double kRelErrorFloor = 1.0;

/// Index of the largest value; lowest index wins ties (deterministic).
std::size_t argmax(const std::vector<double>& values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

}  // namespace

MonitorAccuracy score_monitor_accuracy(const std::vector<std::vector<Sample>>& series) {
  MonitorAccuracy acc;
  const std::size_t vms = series.size();
  if (vms == 0) return acc;
  const std::size_t ticks = series[0].size();
  for (const auto& s : series) {
    KYOTO_CHECK_MSG(s.size() == ticks,
                    "shadow series lengths differ (VMs admitted mid-run are not "
                    "scoreable)");
  }

  // Pass 1 — the oracle's verdict: mean intrinsic rate per VM over the
  // ticks it ran.
  std::vector<RunningStats> true_stats(vms);
  for (std::size_t vm = 0; vm < vms; ++vm) {
    for (const Sample& s : series[vm]) {
      if (s.ran) true_stats[vm].add(s.true_rate);
    }
  }
  acc.true_mean_rate.resize(vms);
  for (std::size_t vm = 0; vm < vms; ++vm) acc.true_mean_rate[vm] = true_stats[vm].mean();
  acc.true_aggressor = static_cast<int>(argmax(acc.true_mean_rate));

  // Pass 2 — walk the ticks with carry-forward estimates (an estimator
  // "currently ranks" a punished/descheduled VM at its last charged
  // rate, exactly as the scheduler would if consulted).
  std::vector<double> est_carry(vms, -1.0);
  std::vector<RunningStats> est_stats(vms);
  double abs_err_sum = 0.0;
  double rel_err_sum = 0.0;
  int top1_hits = 0;
  for (std::size_t t = 0; t < ticks; ++t) {
    const Tick tick = series[0][t].tick;
    for (std::size_t vm = 0; vm < vms; ++vm) {
      const Sample& s = series[vm][t];
      if (!s.ran || s.estimator_rate < 0.0) continue;
      est_carry[vm] = s.estimator_rate;
      est_stats[vm].add(s.estimator_rate);
      const double err = std::abs(s.estimator_rate - s.true_rate);
      abs_err_sum += err;
      rel_err_sum += err / std::max(s.true_rate, kRelErrorFloor);
      ++acc.error_samples;
    }
    const bool all_known =
        std::all_of(est_carry.begin(), est_carry.end(), [](double e) { return e >= 0.0; });
    if (!all_known) continue;
    ++acc.scored_ticks;
    if (static_cast<int>(argmax(est_carry)) == acc.true_aggressor) {
      ++top1_hits;
      if (acc.time_to_detect < 0) acc.time_to_detect = tick;
    }
  }
  if (acc.error_samples > 0) {
    acc.mean_abs_error = abs_err_sum / acc.error_samples;
    acc.mean_rel_error = rel_err_sum / acc.error_samples;
  }
  if (acc.scored_ticks > 0) {
    acc.top1_agreement = static_cast<double>(top1_hits) / acc.scored_ticks;
  }
  acc.estimator_mean_rate.resize(vms);
  for (std::size_t vm = 0; vm < vms; ++vm) {
    acc.estimator_mean_rate[vm] = est_stats[vm].mean();
  }
  if (vms >= 2) {
    acc.rank_tau = kendall_tau(acc.estimator_mean_rate, acc.true_mean_rate);
  }
  return acc;
}

HvObserver shadow_observer(std::unique_ptr<core::GroundTruthShadow>* slot) {
  KYOTO_CHECK_MSG(slot != nullptr, "shadow_observer needs a slot");
  return [slot](hv::Hypervisor& hv) {
    *slot = std::make_unique<core::GroundTruthShadow>(hv, core::kyoto_controller(hv.scheduler()));
  };
}

}  // namespace kyoto::sim
