// synth_fleet: the paper's Fig. 3 fleet — every EPFL circuit under the
// baseline, p->a->d and p->d->a recipes, signed off by STA — on the
// prepared 10 K library, with the pass and scenario caches empty. The
// optimization, SAT, mapping and STA layers do the work; SPICE none.

#include <cstdio>
#include <map>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "epfl/benchmarks.hpp"
#include "sta/sta.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace obs = cryo::util::obs;
using cryo::core::CircuitComparison;
using cryo::core::ScenarioResult;
using cryo::core::ScenarioSpec;

constexpr const char* kSignoffBaseline =
    "bench/baselines/fig3_report_signoff.json";

/// The layer a recipe pass belongs to; consecutive passes of one layer
/// form one traced segment (c2rs | dch | if...strash | map).
std::string layer_of(const std::string& pass) {
  if (pass == "c2rs") {
    return "opt.c2rs";
  }
  if (pass == "dch") {
    return "sat.dch";
  }
  if (pass == "map") {
    return "map.tech_map";
  }
  return "opt.lut";
}

struct Segment {
  std::string layer;
  std::string recipe;
};

std::vector<Segment> segments_of(const std::string& recipe) {
  std::vector<Segment> out;
  for (const std::string& token : cryo::util::split(recipe, ";")) {
    const std::string step{cryo::util::trim(token)};
    if (step.empty()) {
      continue;
    }
    const std::string layer = layer_of(step.substr(0, step.find(' ')));
    if (out.empty() || out.back().layer != layer) {
      out.push_back({layer, step});
    } else {
      out.back().recipe += "; " + step;
    }
  }
  return out;
}

/// One scenario as `core::run_scenario` computes it, but with one
/// `Pipeline::run` per segment on a single FlowState, and a span around
/// each segment and around `sta::analyze`.
ScenarioResult traced_scenario(const cryo::logic::Aig& aig,
                               const cryo::map::CellMatcher& matcher,
                               const cryo::core::ExperimentOptions& options,
                               const ScenarioSpec& spec, Tracer& tracer,
                               std::uint64_t op) {
  const ScopedSpan scenario{tracer, "core.scenario", op};
  cryo::core::FlowState state;
  state.aig = aig;
  state.matcher = &matcher;
  state.options = options.flow;
  for (const Segment& segment : segments_of(spec.recipe)) {
    const ScopedSpan span{tracer, segment.layer, op, scenario.id()};
    cryo::core::Pipeline::parse(segment.recipe).run(state);
  }
  cryo::sta::StaResult signoff;
  {
    const ScopedSpan span{tracer, "sta.analyze", op, scenario.id()};
    signoff = cryo::sta::analyze(state.netlist, options.sta);
  }
  ScenarioResult out;
  out.scenario = spec.name;
  out.power = signoff.power;
  out.total_power = signoff.power.total();
  out.delay = signoff.critical_delay;
  out.area = state.netlist.total_area();
  out.gates = state.netlist.gate_count();
  return out;
}

/// Footnote 1 of the paper, as `core::compare_circuit` applies it: every
/// variant's dynamic power at the clock of the slowest variant.
void normalize(std::vector<ScenarioResult>& row, double analysis_clock) {
  double clock = 0.0;
  for (const ScenarioResult& s : row) {
    clock = std::max(clock, s.delay);
  }
  for (ScenarioResult& s : row) {
    const double scale = analysis_clock / clock;
    s.power.internal *= scale;
    s.power.switching *= scale;
    s.total_power = s.power.total();
  }
}

bool same_figures(const ScenarioResult& a, const ScenarioResult& b) {
  return a.total_power == b.total_power && a.delay == b.delay &&
         a.area == b.area && a.gates == b.gates;
}

/// Scenarios that failed, or whose signoff gauges differ from the frozen
/// Fig. 3 report; the whole report must also match byte for byte.
std::uint64_t signoff_failures(const std::vector<CircuitComparison>& rows,
                               const std::string& baseline) {
  const std::string report =
      obs::report_json(obs::ReportOptions::signoff()).dump(2) + "\n";
  std::uint64_t failed = 0;
  for (const CircuitComparison& row : rows) {
    for (const ScenarioResult* s : {&row.baseline, &row.pad, &row.pda}) {
      failed += s->ok ? 0 : 1;
    }
  }
  if (report == baseline) {
    return failed;
  }
  const cryo::util::Json ours = cryo::util::Json::parse(report).at("gauges");
  const cryo::util::Json theirs =
      cryo::util::Json::parse(baseline).at("gauges");
  std::map<std::string, bool> scenario_ok;
  for (const auto& [name, value] : theirs.members()) {
    const std::string scenario = name.substr(0, name.rfind('.'));
    const cryo::util::Json* mine = ours.find(name);
    const bool same = mine != nullptr && *mine == value;
    auto [it, inserted] = scenario_ok.emplace(scenario, same);
    it->second = it->second && same;
  }
  std::uint64_t differing = 0;
  for (const auto& [scenario, ok] : scenario_ok) {
    differing += ok ? 0 : 1;
  }
  std::fprintf(stderr, "synth_fleet: signoff report differs from %s (%llu "
                       "scenarios)\n",
               kSignoffBaseline,
               static_cast<unsigned long long>(differing));
  // A report that differs only outside the scenario gauges is still one
  // wrong output.
  return failed + (differing > 0 ? differing : 1);
}

double mean_pct(const std::vector<CircuitComparison>& rows,
                double (CircuitComparison::*figure)() const) {
  double total = 0.0;
  std::size_t n = 0;
  for (const CircuitComparison& row : rows) {
    if (row.ok()) {
      total += (row.*figure)();
      ++n;
    }
  }
  return n > 0 ? total / static_cast<double>(n) * 100.0 : 0.0;
}

}  // namespace

Result run_synth_fleet(const RunConfig& config) {
  prepare_corner(config);

  const std::string baseline = slurp(config.repo_root / kSignoffBaseline);
  std::vector<cryo::epfl::Benchmark> suite;
  std::unique_ptr<Corner> corner;
  Tracer tracer;
  const HostSpeed host;
  const std::vector<Timing> setups = timed_setup(
      9,
      [&] {
        // The paper's fleet in the paper's order: the frozen signoff
        // report pins every input, so the seed has nothing to vary here.
        suite = cryo::epfl::epfl_suite();
        {
          const ScopedSpan span{tracer, "liberty.load", 0};
          corner = load_corner(config);
        }
      },
      [&] {
        corner.reset();
        release_freed_memory();
      });

  cryo::core::ExperimentOptions options;
  options.threads = config.threads;

  Result result;
  std::vector<Timing> timings;
  std::vector<CircuitComparison> first_rows;
  Counters first_counters;
  begin_timed_phase();
  const double start = now_s();
  do {
    fresh_cache(config.work_dir / ("cache_" + std::to_string(timings.size())));
    obs::reset();
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    auto rows = cryo::core::run_synthesis_comparison(suite, *corner->matcher,
                                                     options);
    timings.push_back({now_s() - t0, process_cpu_s() - c0, t0});
    result.attempted += 3 * rows.size();
    result.failed += signoff_failures(rows, baseline);
    if (first_rows.empty()) {
      first_rows = std::move(rows);
      first_counters = Counters::take();
    }
  } while (!config.trace &&
           another_unit(config, now_s() - start, timings.back().wall_s));

  if (!config.trace) {
    // A fleet user waits for the whole fleet, so a job here is one fleet
    // run; per-scenario times are the traced run's core.scenario_*.
    std::vector<double> fleet_ms;
    for (const Timing& unit : timings) {
      fleet_ms.push_back(
          host.corrected(unit.wall_s, unit.start_s, unit.end_s()) * 1e3);
    }
    set_common_metrics(result, host, setups, timings, fleet_ms);
  } else {
    fresh_cache(config.work_dir / "cache_traced");
    obs::reset();
    const auto specs = cryo::core::fig3_scenarios(options.flow);
    const double t0 = now_s();
    const auto traced = cryo::util::parallel_map(
        suite.size(),
        [&](std::size_t i) {
          // Nested like core::compare_circuit's, so the scenarios of a
          // circuit run concurrently exactly when they do untraced.
          auto row = cryo::util::parallel_map(
              specs.size(),
              [&](std::size_t s) {
                return traced_scenario(suite[i].aig, *corner->matcher,
                                       options, specs[s], tracer,
                                       i * specs.size() + s);
              },
              options.threads);
          normalize(row, options.sta.clock_period);
          return row;
        },
        config.threads);
    const double traced_wall = now_s() - t0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const CircuitComparison& row = first_rows[i];
      const ScenarioResult* untraced[] = {&row.baseline, &row.pad, &row.pda};
      for (std::size_t s = 0; s < traced[i].size(); ++s) {
        ++result.attempted;
        if (!same_figures(traced[i][s], *untraced[s])) {
          ++result.failed;
          std::fprintf(stderr, "synth_fleet: traced %s:%s differs from the "
                               "untraced run\n",
                       row.circuit.c_str(), specs[s].name.c_str());
        }
      }
    }
    tracer.write(spans_path(config));

    set_layer_defaults(result);
    set_counter_metrics(result, first_counters);
    const auto c2rs = tracer.durations("opt.c2rs");
    result.set("opt.c2rs_s", sum(c2rs), "s");
    result.set("opt.c2rs_max_s", max_of(c2rs), "s");
    result.set("sat.dch_s", sum(tracer.durations("sat.dch")), "s");
    result.set("opt.lut_s", sum(tracer.durations("opt.lut")), "s");
    result.set("map.tech_map_s", sum(tracer.durations("map.tech_map")), "s");
    result.set("sta.analyze_s", sum(tracer.durations("sta.analyze")), "s");
    const auto scenarios = tracer.durations("core.scenario");
    std::vector<double> scenarios_ms;
    for (const double s : scenarios) {
      scenarios_ms.push_back(s * 1e3);
    }
    result.set("core.scenario_p50_ms", quantile(scenarios_ms, 0.5), "ms");
    result.set("core.scenario_max_s", max_of(scenarios), "s");
    const double c2rs_runs = first_counters.get("opt.c2rs_runs");
    result.set("opt.c2rs_useful_ratio",
               c2rs_runs > 0.0 ? static_cast<double>(suite.size()) / c2rs_runs
                               : 0.0,
               "ratio");
    result.set("pool.utilization",
               timings.front().cpu_s /
                   (timings.front().wall_s * config.threads),
               "ratio");
    result.set("core.qor_power_saving_pad_pct",
               mean_pct(first_rows, &CircuitComparison::power_saving_pad),
               "%");
    result.set("core.qor_power_saving_pda_pct",
               mean_pct(first_rows, &CircuitComparison::power_saving_pda),
               "%");
    result.set("core.qor_delay_overhead_pad_pct",
               mean_pct(first_rows, &CircuitComparison::delay_overhead_pad),
               "%");
    result.set("core.qor_delay_overhead_pda_pct",
               mean_pct(first_rows, &CircuitComparison::delay_overhead_pda),
               "%");
    result.set("liberty.load_s",
               median(tracer.durations("liberty.load")), "s");
    result.set("cache.disk_mb",
               static_cast<double>(fs::file_size(corner_lib_path(config))) /
                   (1024.0 * 1024.0),
               "MB");
    result.set("trace.overhead_pct",
               (traced_wall / timings.front().wall_s - 1.0) * 100.0, "%");
    result.set("host.slowdown",
               host.slowdown(timings.front().start_s,
                             timings.front().end_s()),
               "ratio");
  }
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
