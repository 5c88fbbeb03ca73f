// Tests of the shared job plumbing in core/job.hpp: the one
// fault-isolation idiom the Fig. 3 fleet, recipe search, corner matrix
// and `serve` use (classification, error rows, counters, the two kBudget
// policies), and the one corner loader behind the CLI, `serve` and
// `matrix`.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "core/corner_matrix.hpp"
#include "core/experiment.hpp"
#include "core/job.hpp"
#include "core/pipeline.hpp"
#include "device/preset.hpp"
#include "liberty/json_io.hpp"
#include "util/error.hpp"
#include "util/obs.hpp"

namespace {

using namespace cryo;
namespace obs = util::obs;

struct FailureCase {
  const char* label;
  std::function<void()> raise;
  const char* what;
  const char* kind;
};

std::vector<FailureCase> failure_cases() {
  return {
      {"recipe", [] { throw core::RecipeError{"bad recipe"}; }, "bad recipe",
       "recipe"},
      {"io", [] { throw Error{ErrorKind::kIo, "no such file"}; },
       "io: no such file", "io"},
      {"numeric", [] { throw Error{ErrorKind::kNumeric, "Newton diverged"}; },
       "numeric: Newton diverged", "numeric"},
      {"runtime", [] { throw std::runtime_error{"plain failure"}; },
       "plain failure", "internal"},
  };
}

TEST(JobIsolation, ClassifyMapsEachExceptionFamily) {
  EXPECT_EQ(core::classify(core::RecipeError{"x"}), ErrorKind::kRecipe);
  EXPECT_EQ(core::classify(Error{ErrorKind::kBudget, "x"}),
            ErrorKind::kBudget);
  EXPECT_EQ(core::classify(Error{ErrorKind::kNumeric, "x"}),
            ErrorKind::kNumeric);
  EXPECT_EQ(core::classify(std::invalid_argument{"x"}), ErrorKind::kInternal);
}

TEST(JobIsolation, EveryFailureBecomesTheSameErrorRowUnderBothPolicies) {
  for (const auto on_budget :
       {core::OnBudget::kRethrow, core::OnBudget::kRecord}) {
    for (const FailureCase& c : failure_cases()) {
      SCOPED_TRACE(c.label);
      obs::Counter& errors = obs::counter("test.job.errors");
      const auto before = errors.get();
      // The row types the drivers isolate into all carry the same flat
      // fields; check one scenario row and one matrix row.
      core::ScenarioResult scenario;
      scenario.scenario = "pad";
      core::isolate(scenario, "test.job.errors", c.raise, on_budget);
      EXPECT_FALSE(scenario.ok);
      EXPECT_EQ(scenario.error, c.what);
      EXPECT_EQ(scenario.error_kind, c.kind);
      EXPECT_EQ(scenario.scenario, "pad");  // pre-filled fields survive

      core::MatrixRow row;
      core::isolate(row, "test.job.errors", c.raise, on_budget);
      EXPECT_FALSE(row.ok);
      EXPECT_EQ(row.error, c.what);
      EXPECT_EQ(row.error_kind, c.kind);
      EXPECT_EQ(errors.get(), before + 2);
    }
  }
}

TEST(JobIsolation, BudgetRethrowsUnderRowPolicyAndIsRecordedOtherwise) {
  const auto exhausted = [] { throw Error{ErrorKind::kBudget, "cancelled"}; };
  obs::Counter& errors = obs::counter("test.job.budget_errors");
  const auto before = errors.get();

  core::ScenarioResult row;
  try {
    core::isolate(row, "test.job.budget_errors", exhausted,
                  core::OnBudget::kRethrow);
    FAIL() << "kBudget must propagate under the row policy";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBudget);
  }
  EXPECT_TRUE(row.ok);
  EXPECT_EQ(errors.get(), before);

  core::MatrixCornerResult corner;
  core::isolate(corner, "test.job.budget_errors", exhausted,
                core::OnBudget::kRecord);
  EXPECT_FALSE(corner.ok);
  EXPECT_EQ(corner.error, "budget: cancelled");
  EXPECT_EQ(corner.error_kind, "budget");
  EXPECT_EQ(errors.get(), before + 1);
}

TEST(JobIsolation, CleanBodyLeavesRowAndReportUntouched) {
  core::ScenarioResult row;
  int runs = 0;
  core::isolate(row, "test.job.never_registered", [&] { ++runs; },
                core::OnBudget::kRethrow);
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(row.ok);
  EXPECT_TRUE(row.error.empty());
  EXPECT_TRUE(row.error_kind.empty());
  // Frozen reports list every registered counter, so a clean run must
  // not register the error counter at all.
  obs::ReportOptions options;
  options.include_spans = false;
  EXPECT_EQ(obs::report_json(options).dump().find("test.job.never_registered"),
            std::string::npos);
}

// ------------------------------------------------------ corner loader ----

TEST(CornerLoader, ExplicitLibPathWinsOverTheDefaultSpelling) {
  core::CornerSpec spec;
  spec.temperature_k = 77.0;
  spec.vdd = 0.8;
  spec.lib_dir = "libs";
  EXPECT_EQ(core::corner_lib_path(spec),
            cells::default_lib_path("libs", device::default_preset(),
                                    "builtin", 77.0, 0.8));
  spec.lib_path = "mine/corner.lib";
  EXPECT_EQ(core::corner_lib_path(spec), "mine/corner.lib");
}

TEST(CornerLoader, CharacterizesIntoAFreshDirectoryThenReloads) {
  std::vector<cells::CellSpec> catalog;
  for (const auto& cell : cells::mini_catalog()) {
    if (cell.name == "INV_X1" || cell.name == "NAND2_X1") {
      catalog.push_back(cell);
    }
  }
  const std::filesystem::path dir =
      std::filesystem::path{::testing::TempDir()} / "cryoeda_job_corner";
  std::filesystem::remove_all(dir);

  core::CornerSpec spec;
  spec.lib_dir = (dir / "nested").string();
  spec.catalog = &catalog;
  spec.char_options.slews = {4e-12, 16e-12};
  spec.char_options.loads = {2e-16, 1e-15};
  spec.char_options.include_sequential = false;
  const auto cold = core::load_corner(spec);
  EXPECT_TRUE(std::filesystem::exists(core::corner_lib_path(spec)));
  EXPECT_EQ(cold->library.cells.size(), 2u);
  // The matcher lives beside, and points into, its own library.
  EXPECT_EQ(&cold->matcher.library(), &cold->library);

  const auto warm = core::load_corner(spec);
  EXPECT_EQ(warm->library.name, cold->library.name);
  EXPECT_EQ(liberty::fingerprint(warm->library),
            liberty::fingerprint(cold->library));
  std::filesystem::remove_all(dir);
}

}  // namespace
