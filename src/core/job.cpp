#include "core/job.hpp"

#include <filesystem>
#include <system_error>

#include "core/pipeline.hpp"
#include "spice/backend.hpp"

namespace cryo::core {

ErrorKind classify(const std::exception& error) {
  if (dynamic_cast<const RecipeError*>(&error) != nullptr) {
    return ErrorKind::kRecipe;
  }
  if (const auto* classified = dynamic_cast<const Error*>(&error)) {
    return classified->kind();
  }
  return ErrorKind::kInternal;
}

std::string corner_lib_path(const CornerSpec& spec) {
  if (!spec.lib_path.empty()) {
    return spec.lib_path;
  }
  return cells::default_lib_path(spec.lib_dir, spec.preset,
                                 spice::resolve_backend(spec.backend).name(),
                                 spec.temperature_k, spec.vdd);
}

std::shared_ptr<const Corner> load_corner(const CornerSpec& spec) {
  const std::string lib_path = corner_lib_path(spec);
  const auto dir = std::filesystem::path{lib_path}.parent_path();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  cells::CharOptions options = spec.char_options;
  options.vdd = spec.vdd;
  options.preset = spec.preset;
  options.backend = spec.backend;
  options.budget = spec.budget;
  std::vector<cells::CellSpec> standard;
  if (spec.catalog == nullptr) {
    standard = cells::standard_catalog();
  }
  return std::make_shared<const Corner>(cells::load_or_characterize(
      lib_path, spec.catalog != nullptr ? *spec.catalog : standard,
      spec.temperature_k, options));
}

}  // namespace cryo::core
