#pragma once

// Host-speed correction. The benchmark runs on a shared host whose cores
// slow down by up to 2x, for milliseconds to minutes at a time, when
// other tenants load them. That moves every time the program takes, by
// more than the benchmark's bounds between two sets of runs of the same
// code.
//
// A background thread therefore times a small fixed probe (the
// benchmark's own code, never the program's) in its own thread CPU time
// at a fixed rate for the whole run. A probe's time over its nominal
// time is the host's slowdown at that moment; the mean over the probes
// taken during a timed interval is the slowdown of that interval. The
// end-to-end times are reported divided by it: seconds on a host at
// nominal speed.

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Nominal thread CPU time of one probe [s]: a round figure near its
/// mean on the 4-vCPU host of the README's first numbers (0.9-1.1 ms,
/// loaded or idle). A slowdown of 1 is that speed; the constant only
/// scales every corrected time alike.
inline constexpr double kNominalProbeS = 1.0e-3;

class HostSpeed {
public:
  /// Start probing: one probe (about 1 ms of CPU), then `period_s` of
  /// sleep, so the probe costs about 1 % of a 4-core machine.
  explicit HostSpeed(double period_s = 0.02);
  /// Stop probing and wait for the probe thread.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Mean slowdown over the probes taken in [t0_s, t1_s] on the `now_s`
  /// clock; at least the kMinSamples probes nearest the interval's middle
  /// count, so a short interval is judged on enough probes. 1 when none
  /// were taken.
  double slowdown(double t0_s, double t1_s) const;
  /// `seconds` measured over [t0_s, t1_s], at nominal host speed.
  double corrected(double seconds, double t0_s, double t1_s) const {
    return seconds / slowdown(t0_s, t1_s);
  }

  static constexpr std::size_t kMinSamples = 25;

private:
  struct Sample {
    double at_s;   ///< middle of the probe, on the now_s clock
    double ratio;  ///< probe CPU time / nominal
  };

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;  ///< in time order
  std::thread thread_;
};

}  // namespace perfbench
