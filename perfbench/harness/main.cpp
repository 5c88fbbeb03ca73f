// perfbench: drives one workload through the cryoeda libraries and
// prints one JSON result line (see perfbench/README.md).
//
//   perfbench --workload <char_cold|synth_fleet|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> --root <checkout>
//             --state-dir <dir> --work-dir <dir> --trace-dir <dir>
//
// Exit status 0 with the result as the last stdout line; 1 on any
// failure to run (no result line); 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/obs.hpp"

namespace {

using perfbench::RunConfig;

RunConfig parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (argc % 2 != 1) {
    throw std::invalid_argument{"arguments come in --flag value pairs"};
  }
  const auto need = [&](const std::string& flag) {
    const auto it = args.find(flag);
    if (it == args.end()) {
      throw std::invalid_argument{"missing " + flag};
    }
    return it->second;
  };
  RunConfig config;
  config.workload = need("--workload");
  config.seed = std::stoull(need("--seed"));
  config.seconds = std::stod(need("--seconds"));
  config.trace = need("--trace") == "1";
  config.repo_root = need("--root");
  config.state_dir = need("--state-dir");
  config.work_dir = need("--work-dir");
  config.trace_dir = need("--trace-dir");
  if (!(config.seconds > 0.0) || args.size() != 8) {
    throw std::invalid_argument{"bad --seconds or unknown flag"};
  }
  // Four workers, capped at the machine's core count.
  const unsigned cores = std::thread::hardware_concurrency();
  config.threads = static_cast<int>(std::clamp(cores, 1u, 4u));
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  try {
    config = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  // The program reads these at first use; the benchmark fixes them so a
  // caller's environment cannot change what is measured.
  for (const char* name :
       {"CRYOEDA_CACHE", "CRYOEDA_CACHE_DIR", "CRYOEDA_CACHE_MAX_MB",
        "CRYOEDA_PASS_CACHE", "CRYOEDA_FAULTS", "CRYOEDA_DEADLINE",
        "CRYOEDA_SAT_BUDGET", "CRYOEDA_NODE_GROWTH",
        "CRYOEDA_SPICE_BACKEND"}) {
    ::unsetenv(name);
  }
  ::setenv("CRYOEDA_THREADS", std::to_string(config.threads).c_str(), 1);
  cryo::util::obs::set_enabled(true);
  try {
    perfbench::fs::create_directories(config.work_dir);
    perfbench::Result result;
    if (config.workload == "char_cold") {
      result = perfbench::run_char_cold(config);
    } else if (config.workload == "synth_fleet") {
      result = perfbench::run_synth_fleet(config);
    } else if (config.workload == "serve_mixed") {
      result = perfbench::run_serve_mixed(config);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   config.workload.c_str());
      return 2;
    }
    perfbench::fs::remove_all(config.work_dir);
    std::printf("%s\n", result.line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
}
