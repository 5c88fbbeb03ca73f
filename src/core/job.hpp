#pragma once

#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "device/preset.hpp"
#include "liberty/library.hpp"
#include "map/matcher.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/obs.hpp"

namespace cryo::core {

// The two steps every front door (Fig. 3 fleet, recipe search, corner
// matrix, `serve`, the one-shot CLI) shares: isolating a failing job
// into its own result row, and loading a characterized corner.

/// The `cryo::ErrorKind` of anything a job throws: a `RecipeError` is
/// `kRecipe`, a `cryo::Error` its own kind, any other exception
/// `kInternal`.
ErrorKind classify(const std::exception& error);

/// What `isolate` does with a `kBudget` failure.
enum class OnBudget {
  /// Row policy: budget exhaustion is a property of the whole run, not
  /// of one row, so it propagates to the enclosing boundary.
  kRethrow,
  /// Corner / reply policy: the boundary owns its budget, so exhaustion
  /// is recorded like any other failure.
  kRecord,
};

/// Run `body`. If it throws, record the failure in `row`'s flat
/// `ok` / `error` / `error_kind` fields (`false`, `what()`, the kind
/// name) and bump the obs counter `error_counter`, so one failing job
/// never sinks its siblings. The counter is only touched on failure: a
/// clean run's report does not list it.
template <typename Row, typename Body>
void isolate(Row& row, std::string_view error_counter, Body&& body,
             OnBudget on_budget) {
  try {
    body();
  } catch (const std::exception& e) {
    const ErrorKind kind = classify(e);
    if (kind == ErrorKind::kBudget && on_budget == OnBudget::kRethrow) {
      throw;
    }
    row.ok = false;
    row.error = e.what();
    row.error_kind = std::string{error_kind_name(kind)};
    util::obs::counter(error_counter).add();
  }
}

/// A characterized corner: the liberty library and the matcher that
/// points into it. Pinned in memory (no copy, no move), so the matcher
/// can never outlive or lose its library.
struct Corner {
  explicit Corner(liberty::Library characterized)
      : library{std::move(characterized)}, matcher{library} {}
  Corner(const Corner&) = delete;
  Corner& operator=(const Corner&) = delete;

  liberty::Library library;
  map::CellMatcher matcher;
};

/// One (preset, engine, temperature, Vdd) corner and where its
/// characterized library lives.
struct CornerSpec {
  device::Preset preset = device::default_preset();
  /// SPICE engine name; "" resolves via $CRYOEDA_SPICE_BACKEND.
  std::string backend;
  double temperature_k = 10.0;
  double vdd = 0.7;
  /// Library cache file (`cryoeda --lib`); "" = `cells::default_lib_path`
  /// under `lib_dir`, the spelling the CLI, `serve` and `matrix` share.
  std::string lib_path;
  std::string lib_dir = "cryoeda_out";
  /// Cell catalog; null = `cells::standard_catalog()`.
  const std::vector<cells::CellSpec>* catalog = nullptr;
  /// Characterization knobs; `vdd`, `preset`, `backend` and `budget` are
  /// taken from this spec instead.
  cells::CharOptions char_options;
  /// Bounds a cold characterization; null = `util::Budget::global()`.
  util::Budget* budget = nullptr;
};

/// The library cache file of `spec`: `lib_path`, or else the canonical
/// `cells::default_lib_path` spelling under `lib_dir`.
std::string corner_lib_path(const CornerSpec& spec);

/// Load the corner from its cache file, characterizing (and writing the
/// file) when it is missing or stale, and build its matcher. Creates the
/// cache directory. Throws what `cells::load_or_characterize` throws.
std::shared_ptr<const Corner> load_corner(const CornerSpec& spec);

}  // namespace cryo::core
