// char_cold: characterize the full standard catalog at 10 K / 0.7 V on
// the default 7x7 grid with an empty private artifact cache. SPICE and
// the cell layer do the work; synthesis does none.

#include <cstdio>
#include <map>
#include <optional>

#include "cells/catalog.hpp"
#include "common.hpp"
#include "liberty/library.hpp"
#include "util/obs.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace obs = cryo::util::obs;
using cryo::cells::CellSpec;
using cryo::liberty::Library;

/// The cells frozen in tests/data/golden_char_10K.lib, in file order.
constexpr const char* kGoldenCells[] = {"INV_X1", "NAND2_X1", "DFF_X1"};

/// Split liberty text into its header and one block per cell.
std::vector<std::string> liberty_blocks(const std::string& text) {
  std::vector<std::string> blocks;
  const std::string marker = "\n  cell (";
  std::size_t begin = 0;
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at + 1)) {
    blocks.push_back(text.substr(begin, at - begin));
    begin = at;
  }
  blocks.push_back(text.substr(begin));
  return blocks;
}

/// Cells that are missing from `lib` or differ from the frozen golden
/// library (a header mismatch fails all golden cells).
std::uint64_t golden_failures(const Library& lib, const std::string& golden) {
  Library subset;
  subset.name = lib.name;
  subset.temperature_k = lib.temperature_k;
  subset.voltage = lib.voltage;
  std::uint64_t missing = 0;
  for (const char* name : kGoldenCells) {
    if (const auto* cell = lib.find(name)) {
      subset.cells.push_back(*cell);
    } else {
      ++missing;
    }
  }
  if (missing > 0) {
    return std::size(kGoldenCells);
  }
  const auto ours = liberty_blocks(cryo::liberty::to_liberty(subset));
  const auto theirs = liberty_blocks(golden);
  if (ours.size() != theirs.size() || ours.front() != theirs.front()) {
    return std::size(kGoldenCells);
  }
  std::uint64_t failed = 0;
  for (std::size_t i = 1; i < ours.size(); ++i) {
    failed += ours[i] != theirs[i] ? 1 : 0;
  }
  return failed;
}

/// Per-cell latencies [ms] from the program's own `util::obs` spans. A
/// cell that ran in several units counts once, at its median over them.
class OpTimes {
public:
  /// Record every program span whose name starts with `prefix`, each
  /// corrected for the host's speed over its own interval. `epoch_s` is
  /// when the `util::obs` registry was reset (its span clock's zero).
  void add_program_spans(const std::string& prefix, double epoch_s,
                         const HostSpeed& host);
  std::vector<double> medians() const;

private:
  std::map<std::string, std::vector<double>> ms_;
};

void OpTimes::add_program_spans(const std::string& prefix, double epoch_s,
                                const HostSpeed& host) {
  obs::ReportOptions options;
  options.include_meta = false;
  options.include_counters = false;
  options.include_histograms = false;
  options.include_degradation = false;
  const cryo::util::Json report = obs::report_json(options);
  if (const cryo::util::Json* spans = report.find("spans")) {
    for (const cryo::util::Json& span : spans->elements()) {
      const std::string& name = span.at("name").as_string();
      if (name.rfind(prefix, 0) == 0) {
        const double start =
            epoch_s + static_cast<double>(span.at("start_ns").as_int()) * 1e-9;
        const double seconds =
            static_cast<double>(span.at("dur_ns").as_int()) * 1e-9;
        ms_[name].push_back(
            host.corrected(seconds, start, start + seconds) * 1e3);
      }
    }
  }
}

std::vector<double> OpTimes::medians() const {
  std::vector<double> out;
  for (const auto& [name, samples] : ms_) {
    out.push_back(median(samples));
  }
  return out;
}

struct Unit {
  Timing timing;
  Library library;
  Counters counters;
};

/// One timed characterization; its per-cell times go to `cells`.
Unit untraced_unit(const RunConfig& config,
                   const std::vector<CellSpec>& catalog, int index,
                   const HostSpeed& host, OpTimes& cells) {
  fresh_cache(config.work_dir / ("cache_" + std::to_string(index)));
  obs::reset();
  Unit unit;
  // Also the zero of the program's span clock, which obs::reset restarted.
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  unit.library = cryo::cells::characterize(catalog, kTemperatureK,
                                           char_options(config.threads));
  unit.timing = {now_s() - t0, process_cpu_s() - c0, t0};
  unit.counters = Counters::take();
  cells.add_program_spans("cells.characterize:", t0, host);
  return unit;
}

/// The same characterization as one `cells::characterize` call per cell,
/// each in a harness span, fanned out over the same worker count and
/// assembled in catalog order.
Unit traced_unit(const RunConfig& config,
                 const std::vector<CellSpec>& catalog, Tracer& tracer) {
  fresh_cache(config.work_dir / "cache_traced");
  obs::reset();
  Unit unit;
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  {
    const ScopedSpan root{tracer, "cells.characterize_catalog", 0};
    const std::uint32_t parent = root.id();
    auto parts = cryo::util::parallel_map(
        catalog.size(),
        [&](std::size_t i) {
          const ScopedSpan span{tracer, "cells.characterize", i, parent};
          return cryo::cells::characterize({catalog[i]}, kTemperatureK,
                                           char_options(config.threads));
        },
        config.threads);
    unit.library.name = parts.front().name;
    unit.library.temperature_k = parts.front().temperature_k;
    unit.library.voltage = parts.front().voltage;
    for (Library& part : parts) {
      for (auto& cell : part.cells) {
        unit.library.cells.push_back(std::move(cell));
      }
    }
  }
  unit.timing = {now_s() - t0, process_cpu_s() - c0, t0};
  return unit;
}

}  // namespace

Result run_char_cold(const RunConfig& config) {
  const std::string golden =
      slurp(config.repo_root / "tests/data/golden_char_10K.lib");
  std::vector<CellSpec> catalog;
  const HostSpeed host;
  // A build takes about 0.2 ms: enough repetitions to span half a
  // second, so the median is not a snapshot of one core's contention.
  const std::vector<Timing> setups = timed_setup(
      2001,
      [&] {
        catalog = cryo::cells::standard_catalog();
        Rng{config.seed}.shuffle(catalog);
      },
      [&] { catalog.clear(); });

  Result result;
  const auto check = [&](const Library& lib) {
    result.attempted += catalog.size();
    const std::uint64_t missing =
        catalog.size() - std::min(catalog.size(), lib.cells.size());
    result.failed += missing + golden_failures(lib, golden);
  };

  std::vector<Timing> timings;
  OpTimes cells;
  begin_timed_phase();
  const double start = now_s();
  Unit first = untraced_unit(config, catalog, 0, host, cells);
  check(first.library);
  timings.push_back(first.timing);
  while (!config.trace &&
         another_unit(config, now_s() - start, timings.back().wall_s)) {
    Unit unit = untraced_unit(config, catalog,
                              static_cast<int>(timings.size()), host, cells);
    check(unit.library);
    timings.push_back(unit.timing);
  }

  if (!config.trace) {
    set_common_metrics(result, host, setups, timings, cells.medians());
  } else {
    Tracer tracer;
    const Unit traced = traced_unit(config, catalog, tracer);
    check(traced.library);
    if (cryo::liberty::to_liberty(traced.library) !=
        cryo::liberty::to_liberty(first.library)) {
      ++result.failed;
      std::fprintf(stderr, "char_cold: traced library differs from the "
                           "untraced one\n");
    }
    tracer.write(spans_path(config));

    set_layer_defaults(result);
    set_counter_metrics(result, first.counters);
    const auto per_cell = tracer.durations("cells.characterize");
    std::vector<double> per_cell_ms;
    for (const double s : per_cell) {
      per_cell_ms.push_back(s * 1e3);
    }
    result.set("cells.characterize_s", sum(per_cell), "s");
    result.set("cells.cell_p50_ms", quantile(per_cell_ms, 0.50), "ms");
    result.set("cells.cell_p90_ms", quantile(per_cell_ms, 0.90), "ms");
    result.set("cells.cell_max_ms", max_of(per_cell_ms), "ms");
    const double steps = first.counters.get("spice.transient_steps");
    result.set("spice.cpu_us_per_step",
               steps > 0.0 ? first.timing.cpu_s / steps * 1e6 : 0.0, "us");
    result.set("pool.utilization",
               first.timing.cpu_s / (first.timing.wall_s * config.threads),
               "ratio");
    result.set("trace.overhead_pct",
               (traced.timing.wall_s / first.timing.wall_s - 1.0) * 100.0,
               "%");
    result.set("host.slowdown",
               host.slowdown(first.timing.start_s, first.timing.end_s()),
               "ratio");
  }
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
