#pragma once

// In-memory span recorder for the traced run. Spans are recorded by the
// harness around its calls into the libraries (the libraries' own
// `util::obs` spans are a separate record); they stay in memory until
// the run ends and are then written out as JSON lines.

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t op = 0;      ///< operation the span belongs to (cell, scenario, job)
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< 0 = root
  double start_s = 0.0;      ///< monotonic clock
  double end_s = 0.0;

  double seconds() const { return end_s - start_s; }
};

class Tracer {
public:
  /// Reserve a span id (for a span whose end is recorded later).
  std::uint32_t next_id();
  void record(SpanRecord span);
  /// Durations [s] of every span called `name`, in record order.
  std::vector<double> durations(const std::string& name) const;
  /// One JSON object per line: name, op, id, parent, start_s, dur_s.
  void write(const std::filesystem::path& path) const;

private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint32_t next_id_ = 0;
};

/// RAII span: starts on construction, recorded on destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t op,
             std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return record_.id; }

private:
  Tracer& tracer_;
  SpanRecord record_;
};

}  // namespace perfbench
