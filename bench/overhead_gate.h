// The verdict of the tracing-overhead guard (bench_trace_overhead): a
// ratio of medians over interleaved repetitions, with a bound sized from
// the spread of the untraced runs. Kept apart from the harness so a unit
// test can feed it synthetic timings.

#ifndef DATACELL_BENCH_OVERHEAD_GATE_H_
#define DATACELL_BENCH_OVERHEAD_GATE_H_

#include <algorithm>
#include <vector>

#include "util/clock.h"

namespace dc::bench {

/// Tracing may cost this much of the untraced median at most...
inline constexpr double kOverheadBudget = 0.05;
/// ...plus this multiple of the untraced runs' relative interquartile
/// range, so that timer and host noise the untraced runs show themselves
/// cannot fail the gate...
inline constexpr double kSpreadFactor = 1.0;
/// ...but the bound never exceeds this ratio, however noisy the host.
inline constexpr double kMaxRatio = 1.25;

struct OverheadVerdict {
  double median_off = 0;  // µs
  double median_on = 0;   // µs
  /// median(on) / median(off).
  double ratio = 0;
  /// (p75 - p25) / median of the untraced runs.
  double off_spread = 0;
  /// The largest ratio that passes.
  double allowed = 0;
  bool pass = false;
};

/// The `q` quantile of `v` (linear interpolation between order
/// statistics); 0 for an empty `v`.
inline double Quantile(std::vector<Micros> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

/// Judges run times of the same workload untraced (`off`) and traced
/// (`on`): passes when median(on) / median(off) is at most
/// min(1 + kOverheadBudget + kSpreadFactor × spread(off), kMaxRatio).
/// No absolute slack: a fast run is judged by the same ratio.
inline OverheadVerdict JudgeOverhead(const std::vector<Micros>& off,
                                     const std::vector<Micros>& on) {
  OverheadVerdict v;
  v.median_off = Quantile(off, 0.5);
  v.median_on = Quantile(on, 0.5);
  if (v.median_off <= 0 || v.median_on <= 0) return v;  // fails
  v.ratio = v.median_on / v.median_off;
  v.off_spread = (Quantile(off, 0.75) - Quantile(off, 0.25)) / v.median_off;
  v.allowed =
      std::min(1 + kOverheadBudget + kSpreadFactor * v.off_spread, kMaxRatio);
  v.pass = v.ratio <= v.allowed;
  return v;
}

}  // namespace dc::bench

#endif  // DATACELL_BENCH_OVERHEAD_GATE_H_
