// Monitor-accuracy scoring: how close does an estimator get to the
// ground-truth oracle?
//
// GroundTruthShadow (kyoto/ground_truth.hpp) records, per tick and
// per VM, the exact intrinsic pollution rate next to the rate the
// run's monitor actually charged.  This layer reduces those series to
// the three accuracy dimensions the ablation cares about:
//
//  * per-tick error — |charged − true| miss/ms over the ticks the VM
//    ran (absolute, and relative to the true rate floored at 1 miss/ms
//    so near-zero victims don't blow up the ratio);
//  * polluter-ranking agreement (à la Fig 4) — does the estimator
//    rank the true top polluter first, tick by tick (top-1 agreement)
//    and over the whole window (Kendall's tau between the mean-rate
//    orders, the statistic the paper uses for its indicator study);
//  * time-to-detect — the first tick at which the estimator's ranking
//    puts the true aggressor on top.
//
// Every recorded tick is scored, warm-up included (the shadow records
// from the tick it attaches).  Scoring is pure arithmetic over
// recorded samples: it never touches the simulator, so it composes
// with any execution mode (serial, threads>1, SweepRunner lanes — the
// shadow series are byte-identical across all of them).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "kyoto/ground_truth.hpp"
#include "sim/experiment.hpp"

namespace kyoto::sim {

/// Accuracy of one estimator against the shadow oracle over one run.
struct MonitorAccuracy {
  /// Ticks that entered the ranking metrics (every VM had an estimate).
  int scored_ticks = 0;
  /// VM-tick error samples behind the two error means.
  int error_samples = 0;
  double mean_abs_error = 0.0;  // miss/ms
  double mean_rel_error = 0.0;  // fraction of the true rate (floored)
  /// Fraction of scored ticks where the estimator ranked the true
  /// aggressor first.
  double top1_agreement = 0.0;
  /// Kendall's tau between the estimator's and the oracle's mean-rate
  /// orders over all VMs (1.0 = identical ranking; only meaningful
  /// with >= 2 VMs, else left at 1.0).
  double rank_tau = 1.0;
  /// First tick (Sample::tick) at which the estimator ranked the true
  /// aggressor first; -1 if it never did.
  Tick time_to_detect = -1;
  /// VM id the oracle ranks most polluting (by mean intrinsic rate).
  int true_aggressor = -1;
  /// The oracle's mean intrinsic rate per VM (by vm id), for reports.
  std::vector<double> true_mean_rate;
  /// The estimator's mean charged rate per VM (by vm id).
  std::vector<double> estimator_mean_rate;
};

/// Scores one run's shadow series (GroundTruthShadow::samples()).
/// All series must have equal length (VMs admitted mid-run are not
/// scoreable).
MonitorAccuracy score_monitor_accuracy(
    const std::vector<std::vector<core::GroundTruthShadow::Sample>>& series);

/// Factory for the estimator under test.
using MonitorFactory = std::function<std::unique_ptr<core::PollutionMonitor>()>;

/// Builds the canonical shadow-attachment observer: constructs a
/// GroundTruthShadow into `*slot`, wiring in the run's
/// PollutionController when the scheduler is a Kyoto one (so the
/// estimator column records; nullptr controller otherwise).  `slot`
/// must stay at a fixed address until the job has run — one slot per
/// job.  Shared by the ablation bench and the conformance suite so
/// controller discovery lives in one place.
HvObserver shadow_observer(std::unique_ptr<core::GroundTruthShadow>* slot);

}  // namespace kyoto::sim
