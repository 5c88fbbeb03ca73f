#pragma once

// Process-level measurement helpers and the result line of one run.

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// Monotonic wall clock [s].
double now_s();
/// User + system CPU of the whole process so far [s].
double process_cpu_s();
/// Peak resident set of the process since start or the last
/// `reset_peak_rss` [MB].
double peak_rss_mb();
/// Restart the peak resident set from the current one, so that the
/// timed phase reports its own peak and not set-up's.
void reset_peak_rss();
/// Current resident set [KB].
double current_rss_kb();
/// Hand the heap's free pages back to the system, so that set-up work
/// torn down before a repetition does not stay resident and inflate the
/// peak resident set of the run.
void release_freed_memory();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);
double max_of(const std::vector<double>& values);

/// Whole file contents; throws std::runtime_error when unreadable.
std::string slurp(const std::filesystem::path& path);

/// Seeded generator for workload inputs. mt19937_64 is fully specified
/// by the standard; the derived draws below avoid the library's
/// implementation-defined distributions, so a seed means the same
/// inputs with any standard library.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

private:
  std::mt19937_64 engine_;
};

/// The last line a run prints: correctness, operation counts, and the
/// metrics by name with their units.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  cryo::util::Json metrics = cryo::util::Json::object();

  void set(const std::string& name, double value, const std::string& unit);
  std::string line() const;
};

}  // namespace perfbench
