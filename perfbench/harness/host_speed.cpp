#include "host_speed.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "measure.hpp"

namespace perfbench {

namespace {

/// Dense LU with partial pivoting of an n x n system whose entries are
/// transcendental functions of `x` (the shape of SPICE's Newton steps);
/// returns the solution's sum.
double lu_solve(int n, double x) {
  std::vector<double> a(static_cast<std::size_t>(n * n));
  std::vector<double> b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[i * n + j] = std::exp(-0.3 * std::abs(i - j) * x) +
                     (i == j ? 2.0 + std::tanh(x * (i + 1)) : 0.0);
    }
    b[i] = std::log1p(x + i);
  }
  for (int k = 0; k < n; ++k) {
    int pivot = k;
    for (int i = k + 1; i < n; ++i) {
      if (std::abs(a[i * n + k]) > std::abs(a[pivot * n + k])) {
        pivot = i;
      }
    }
    if (pivot != k) {
      for (int j = 0; j < n; ++j) {
        std::swap(a[k * n + j], a[pivot * n + j]);
      }
      std::swap(b[k], b[pivot]);
    }
    for (int i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / a[k * n + k];
      for (int j = k; j < n; ++j) {
        a[i * n + j] -= f * a[k * n + j];
      }
      b[i] -= f * b[k];
    }
  }
  double total = 0.0;
  for (int i = n - 1; i >= 0; --i) {
    double s = b[i];
    for (int j = i + 1; j < n; ++j) {
      s -= a[i * n + j] * b[j];
    }
    b[i] = s / a[i * n + i];
    total += b[i];
  }
  return total;
}

/// Structural hashing of a seeded two-fanin DAG, then a level walk over
/// it (the shape of AIG work); returns a checksum.
std::uint64_t hash_walk(std::uint64_t seed, std::size_t nodes) {
  Rng rng{seed};
  std::vector<std::uint32_t> fanin0(nodes);
  std::vector<std::uint32_t> fanin1(nodes);
  std::unordered_map<std::uint64_t, std::uint32_t> strash;
  std::uint64_t check = 0;
  for (std::size_t i = 1; i < nodes; ++i) {
    fanin0[i] = static_cast<std::uint32_t>(rng.below(i));
    fanin1[i] = static_cast<std::uint32_t>(rng.below(i));
    const std::uint64_t key =
        (std::uint64_t{std::min(fanin0[i], fanin1[i])} << 32) |
        std::max(fanin0[i], fanin1[i]);
    check += strash.emplace(key, static_cast<std::uint32_t>(i)).first->second;
  }
  std::vector<std::uint32_t> level(nodes, 0);
  for (std::size_t i = 1; i < nodes; ++i) {
    level[i] = 1 + std::max(level[fanin0[i]], level[fanin1[i]]);
  }
  return check + level.back();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Thread CPU time [s] of one probe; the same work every time.
double probe_cpu_s(std::uint64_t k) {
  const double c0 = thread_cpu_s();
  double total = 0.0;
  for (int i = 0; i < 60; ++i) {
    total += lu_solve(24, 0.1 + 1e-3 * i);
  }
  total += static_cast<double>(hash_walk(7 + k % 16, 1 << 11) % 1000);
  const double cpu = thread_cpu_s() - c0;
  // The sum is used, so the work cannot be optimized away.
  return std::isfinite(total) ? cpu : 0.0;
}

}  // namespace

HostSpeed::HostSpeed(double period_s) {
  thread_ = std::thread{[this, period_s] {
    std::unique_lock lock{mutex_};
    for (std::uint64_t k = 0; !stop_; ++k) {
      lock.unlock();
      const double t0 = now_s();
      const double cpu = probe_cpu_s(k);
      const double t1 = now_s();
      lock.lock();
      if (cpu > 0.0) {
        samples_.push_back({0.5 * (t0 + t1), cpu / kNominalProbeS});
      }
      wake_.wait_for(lock, std::chrono::duration<double>(period_s),
                     [this] { return stop_; });
    }
  }};
}

HostSpeed::~HostSpeed() {
  {
    const std::lock_guard lock{mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

double HostSpeed::slowdown(double t0_s, double t1_s) const {
  const std::lock_guard lock{mutex_};
  if (samples_.empty()) {
    return 1.0;
  }
  const auto by_time = [](const Sample& s, double t) { return s.at_s < t; };
  auto first = std::lower_bound(samples_.begin(), samples_.end(), t0_s,
                                by_time);
  auto last = std::lower_bound(first, samples_.end(), t1_s, by_time);
  // Widen to the nearest probes around the interval's middle.
  const double middle = 0.5 * (t0_s + t1_s);
  const std::size_t want = std::min(kMinSamples, samples_.size());
  while (static_cast<std::size_t>(last - first) < want) {
    const bool can_left = first != samples_.begin();
    const bool can_right = last != samples_.end();
    if (can_left &&
        (!can_right || middle - (first - 1)->at_s <= last->at_s - middle)) {
      --first;
    } else {
      ++last;
    }
  }
  double total = 0.0;
  for (auto it = first; it != last; ++it) {
    total += it->ratio;
  }
  return total / static_cast<double>(last - first);
}

}  // namespace perfbench
