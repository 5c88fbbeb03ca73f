#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void reset_peak_rss() {
  // Linux >= 4.0: writing 5 to clear_refs resets the high-water mark
  // that getrusage reports.
  std::ofstream clear_refs{"/proc/self/clear_refs"};
  clear_refs << "5";
  if (!clear_refs.flush()) {
    throw std::runtime_error{"cannot reset the peak resident set"};
  }
}

double current_rss_kb() {
  std::ifstream statm{"/proc/self/statm"};
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

void release_freed_memory() { malloc_trim(0); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"cannot read " + path.string()};
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  cryo::util::Json metric = cryo::util::Json::object();
  metric["value"] = cryo::util::Json{value};
  metric["unit"] = cryo::util::Json{unit};
  metrics[name] = std::move(metric);
}

std::string Result::line() const {
  cryo::util::Json out = cryo::util::Json::object();
  out["correct"] = cryo::util::Json{correct};
  out["attempted"] = cryo::util::Json{attempted};
  out["failed"] = cryo::util::Json{failed};
  out["metrics"] = metrics;
  return out.dump();
}

}  // namespace perfbench
