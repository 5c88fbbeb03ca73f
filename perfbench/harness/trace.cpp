#include "trace.hpp"

#include <fstream>
#include <utility>

#include "measure.hpp"
#include "util/json.hpp"

namespace perfbench {

std::uint32_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock{mutex_};
  return ++next_id_;
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out.push_back(span.seconds());
    }
  }
  return out;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out{path};
  const std::lock_guard<std::mutex> lock{mutex_};
  for (const SpanRecord& span : spans_) {
    cryo::util::Json line = cryo::util::Json::object();
    line["name"] = cryo::util::Json{span.name};
    line["op"] = cryo::util::Json{span.op};
    line["id"] = cryo::util::Json{span.id};
    line["parent"] = cryo::util::Json{span.parent};
    line["start_s"] = cryo::util::Json{span.start_s};
    line["dur_s"] = cryo::util::Json{span.seconds()};
    out << line.dump() << '\n';
  }
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint64_t op,
                       std::uint32_t parent)
    : tracer_{tracer} {
  record_.name = std::move(name);
  record_.op = op;
  record_.id = tracer.next_id();
  record_.parent = parent;
  record_.start_s = now_s();
}

ScopedSpan::~ScopedSpan() {
  record_.end_s = now_s();
  tracer_.record(std::move(record_));
}

}  // namespace perfbench
