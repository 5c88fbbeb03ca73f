#pragma once

// Pieces shared by the workloads: run configuration, cache and counter
// handling, and the 10 K corner every workload is built around.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cells/characterize.hpp"
#include "host_speed.hpp"
#include "liberty/library.hpp"
#include "map/matcher.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fs = std::filesystem;

/// The corner of the paper's Fig. 3 flow.
inline constexpr double kTemperatureK = 10.0;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path repo_root;  ///< checkout root: reference files are read here
  fs::path state_dir;  ///< survives runs: the characterized 10 K library
  fs::path work_dir;   ///< private to this run, removed when it ends
  fs::path trace_dir;  ///< where a traced run writes its spans
  int threads = 4;
};

/// Where a traced run writes its spans.
fs::path spans_path(const RunConfig& config);

/// Point the process-global artifact cache at an empty directory.
void fresh_cache(const fs::path& root);

/// Characterization options of every workload: the paper's defaults
/// (7x7 grid, 0.7 V, builtin engine) on `threads` workers.
cryo::cells::CharOptions char_options(int threads);

/// Where the characterized 10 K library lives between runs.
fs::path corner_lib_path(const RunConfig& config);

/// Make sure the 10 K library file exists and matches the request, so
/// that set-up only loads it. A fresh checkout pays one characterization
/// here, outside every timed phase, with a throw-away artifact cache.
void prepare_corner(const RunConfig& config);

/// A loaded corner; the matcher points into the library, so the two
/// live together at a fixed address.
struct Corner {
  cryo::liberty::Library library;
  std::optional<cryo::map::CellMatcher> matcher;
};

/// Load the prepared 10 K library through `cells::load_or_characterize`
/// (a warm file: no SPICE) and build its matcher.
std::unique_ptr<Corner> load_corner(const RunConfig& config);

/// The program's counters (and histogram sums) by name.
struct Counters {
  std::vector<std::pair<std::string, double>> values;
  static Counters take();
  double get(const std::string& name) const;
};

/// Timed wall and CPU of one unit of work, and when it started (on the
/// `now_s` clock), so that it can be corrected for the host's speed.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double start_s = 0.0;

  double end_s() const { return start_s + wall_s; }
};

/// Run `setup` `repeats` times and return the timing of each.
/// `teardown` runs untimed before every repetition but the first.
template <typename Setup, typename Teardown>
std::vector<Timing> timed_setup(int repeats, Setup&& setup,
                                Teardown&& teardown) {
  std::vector<Timing> runs;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) {
      teardown();
    }
    const double t0 = now_s();
    setup();
    runs.push_back({now_s() - t0, 0.0, t0});
  }
  return runs;
}

/// Start of a timed phase: drop what set-up freed and restart the peak
/// resident set.
void begin_timed_phase();

/// Keep running units while the next one (estimated by the last) still
/// fits in `seconds`; always at least one.
bool another_unit(const RunConfig& config, double elapsed_s,
                  double last_unit_s);

/// Whether a workload's wall time is set by its work or by its arrival
/// schedule; only work is corrected for the host's speed.
enum class WallBound { kWork, kSchedule };

/// Metrics every workload reports: the medians of set-up and of the
/// units, each corrected for the host's speed over its own interval, and
/// the quantiles of `op_ms` (corrected by the caller).
void set_common_metrics(Result& result, const HostSpeed& host,
                        const std::vector<Timing>& setups,
                        const std::vector<Timing>& units,
                        const std::vector<double>& op_ms,
                        WallBound wall = WallBound::kWork);

/// Per-layer metrics read from the program's counters; every workload
/// reports all of them (0 where the layer did no work).
void set_counter_metrics(Result& result, const Counters& counters);

/// Per-layer metric names of every workload, so that a traced run
/// reports each one (0 where the workload has no such layer).
void set_layer_defaults(Result& result);

/// The three workloads.
Result run_char_cold(const RunConfig& config);
Result run_synth_fleet(const RunConfig& config);
Result run_serve_mixed(const RunConfig& config);

}  // namespace perfbench
