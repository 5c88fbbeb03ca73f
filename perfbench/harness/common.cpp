#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "cells/catalog.hpp"
#include "device/preset.hpp"
#include "util/artifact_cache.hpp"
#include "util/obs.hpp"

namespace perfbench {

namespace obs = cryo::util::obs;

namespace {

/// Program counters the per-layer metrics read, and the metric each
/// becomes.
struct CounterMetric {
  const char* metric;
  const char* counter;
};
constexpr CounterMetric kCounterMetrics[] = {
    {"cells.count", "cells.characterized"},
    {"cells.arc_points", "cells.arc_points"},
    {"spice.transient_runs", "spice.transient_runs"},
    {"spice.transient_steps", "spice.transient_steps"},
    {"spice.dc_solves", "spice.dc_solves"},
    {"spice.newton_nonconverged", "spice.newton_nonconverged"},
    {"opt.c2rs_runs", "opt.c2rs_runs"},
    {"sat.solve_calls", "sat.solve_calls"},
    {"sat.conflicts", "sat.conflicts"},
    {"map.matches_tried", "map.matches_tried"},
    {"cuts.merged_candidates", "cuts.merged_candidates"},
    {"cache.hits", "cache.hits"},
    {"cache.misses", "cache.misses"},
    {"cache.stores", "cache.stores"},
};

/// Every per-layer metric with its unit. BENCHMARK.json lists the same
/// names; a traced run reports all of them on every workload.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"cells.characterize_s", "s"},
    {"cells.cell_p50_ms", "ms"},
    {"cells.cell_p90_ms", "ms"},
    {"cells.cell_max_ms", "ms"},
    {"cells.count", "count"},
    {"cells.arc_points", "count"},
    {"spice.transient_runs", "count"},
    {"spice.transient_steps", "count"},
    {"spice.newton_iters", "count"},
    {"spice.dc_solves", "count"},
    {"spice.newton_nonconverged", "count"},
    {"spice.cpu_us_per_step", "us"},
    {"pool.utilization", "ratio"},
    {"opt.c2rs_s", "s"},
    {"opt.c2rs_max_s", "s"},
    {"sat.dch_s", "s"},
    {"opt.lut_s", "s"},
    {"map.tech_map_s", "s"},
    {"sta.analyze_s", "s"},
    {"core.scenario_p50_ms", "ms"},
    {"core.scenario_max_s", "s"},
    {"opt.c2rs_runs", "count"},
    {"opt.c2rs_useful_ratio", "ratio"},
    {"cache.pass_hit_ratio", "ratio"},
    {"sat.solve_calls", "count"},
    {"sat.conflicts", "count"},
    {"map.matches_tried", "count"},
    {"cuts.merged_candidates", "count"},
    {"core.qor_power_saving_pad_pct", "%"},
    {"core.qor_power_saving_pda_pct", "%"},
    {"core.qor_delay_overhead_pad_pct", "%"},
    {"core.qor_delay_overhead_pda_pct", "%"},
    {"liberty.load_s", "s"},
    {"cache.disk_mb", "MB"},
    {"service.hit_p50_ms", "ms"},
    {"service.miss_p50_ms", "ms"},
    {"service.hit_ratio", "ratio"},
    {"service.piggyback_frac", "ratio"},
    {"service.inflight_max", "count"},
    {"service.rss_kb_per_job", "KB"},
    {"gen.late_p99_ms", "ms"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.stores", "count"},
    {"trace.overhead_pct", "%"},
    {"host.slowdown", "ratio"},
};

}  // namespace

fs::path spans_path(const RunConfig& config) {
  return config.trace_dir / (config.workload + "-seed" +
                             std::to_string(config.seed) + ".spans.jsonl");
}

void fresh_cache(const fs::path& root) {
  fs::remove_all(root);
  cryo::util::ArtifactCache::Config config;
  config.root = root;
  cryo::util::ArtifactCache::global().configure(std::move(config));
}

cryo::cells::CharOptions char_options(int threads) {
  cryo::cells::CharOptions options;
  options.threads = threads;
  return options;
}

fs::path corner_lib_path(const RunConfig& config) {
  // The spelling `cryoeda serve` uses for the corner, so the daemon
  // loads this same file.
  return cryo::cells::default_lib_path(config.state_dir.string(),
                                       cryo::device::default_preset(), "",
                                       kTemperatureK, 0.7);
}

void prepare_corner(const RunConfig& config) {
  fs::create_directories(config.state_dir);
  fresh_cache(config.work_dir / "prepare_cache");
  cryo::cells::load_or_characterize(corner_lib_path(config).string(),
                                    cryo::cells::standard_catalog(),
                                    kTemperatureK,
                                    char_options(config.threads));
  fs::remove_all(config.work_dir / "prepare_cache");
}

std::unique_ptr<Corner> load_corner(const RunConfig& config) {
  auto corner = std::make_unique<Corner>();
  corner->library = cryo::cells::load_or_characterize(
      corner_lib_path(config).string(), cryo::cells::standard_catalog(),
      kTemperatureK, char_options(config.threads));
  corner->matcher.emplace(corner->library);
  return corner;
}

Counters Counters::take() {
  Counters out;
  for (const CounterMetric& m : kCounterMetrics) {
    out.values.emplace_back(
        m.counter, static_cast<double>(obs::counter(m.counter).get()));
  }
  for (const char* name : {"cache.pass_hits", "cache.pass_misses"}) {
    out.values.emplace_back(name,
                            static_cast<double>(obs::counter(name).get()));
  }
  out.values.emplace_back("spice.newton_iters",
                          obs::histogram("spice.newton_iters").sum());
  return out;
}

double Counters::get(const std::string& name) const {
  for (const auto& [key, value] : values) {
    if (key == name) {
      return value;
    }
  }
  throw std::logic_error{"counter not snapshotted: " + name};
}

void begin_timed_phase() {
  release_freed_memory();
  reset_peak_rss();
}

bool another_unit(const RunConfig& config, double elapsed_s,
                  double last_unit_s) {
  return elapsed_s + last_unit_s <= config.seconds;
}

void set_common_metrics(Result& result, const HostSpeed& host,
                        const std::vector<Timing>& setups,
                        const std::vector<Timing>& units,
                        const std::vector<double>& op_ms, WallBound wall) {
  std::vector<double> setup_walls;
  for (const Timing& setup : setups) {
    setup_walls.push_back(
        host.corrected(setup.wall_s, setup.start_s, setup.end_s()));
  }
  std::vector<double> walls;
  std::vector<double> cpus;
  for (const Timing& unit : units) {
    // The uncorrected figures, for a reader who wants them.
    std::fprintf(stderr,
                 "perfbench: unit %zu: wall %.4f s, cpu %.4f s, host "
                 "slowdown %.4f\n",
                 walls.size(), unit.wall_s, unit.cpu_s,
                 host.slowdown(unit.start_s, unit.end_s()));
    walls.push_back(wall == WallBound::kWork
                        ? host.corrected(unit.wall_s, unit.start_s,
                                         unit.end_s())
                        : unit.wall_s);
    cpus.push_back(host.corrected(unit.cpu_s, unit.start_s, unit.end_s()));
  }
  result.set("setup_s", median(setup_walls), "s");
  result.set("wall_s", median(walls), "s");
  result.set("cpu_s", median(cpus), "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("job_p50_ms", quantile(op_ms, 0.50), "ms");
  result.set("job_p99_ms", quantile(op_ms, 0.99), "ms");
}

void set_counter_metrics(Result& result, const Counters& counters) {
  for (const CounterMetric& m : kCounterMetrics) {
    result.set(m.metric, counters.get(m.counter), "count");
  }
  result.set("spice.newton_iters", counters.get("spice.newton_iters"),
             "count");
  const double pass_probes =
      counters.get("cache.pass_hits") + counters.get("cache.pass_misses");
  result.set("cache.pass_hit_ratio",
             pass_probes > 0.0 ? counters.get("cache.pass_hits") / pass_probes
                               : 0.0,
             "ratio");
}

void set_layer_defaults(Result& result) {
  for (const LayerMetric& m : kLayerMetrics) {
    result.set(m.name, 0.0, m.unit);
  }
}

}  // namespace perfbench
