// serve_mixed: open-loop NDJSON traffic into an in-process
// `service::Server` over one socketpair connection, with the 10 K corner
// warm. About three jobs in four repeat a hot set whose scenario-cache
// entries are computed in set-up (cache reads); the rest are fresh
// (circuit, seed) jobs (full synthesis and cache writes).

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "device/preset.hpp"
#include "epfl/benchmarks.hpp"
#include "opt/cost.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "spice/backend.hpp"
#include "util/obs.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace obs = cryo::util::obs;
using cryo::util::Json;

/// The mini suite and the control-class circuits whose synthesis takes
/// at most half a second (all but `voter`): fresh jobs stay short next
/// to the arrival gap.
constexpr const char* kPool[] = {
    "adder8", "mult4", "dec4",  "priority16", "voter15",
    "ctrl",   "int2float", "dec", "cavlc",    "router",
    "i2c",    "priority",  "arbiter", "mem_ctrl"};
constexpr const char* kPriorities[] = {"baseline", "pad", "pda"};
/// One job in every four is fresh; the rest repeat the hot set.
constexpr std::size_t kFreshEvery = 4;
/// Arrival rate [jobs/s], about a quarter of what the daemon sustains
/// on this mix with 4 workers.
constexpr double kRate = 40.0;
constexpr std::size_t kMinJobs = 1000;
/// A reply this soon after a later request was written was held back
/// until that request arrived.
constexpr double kPiggybackS = 1e-3;

std::string job_line(const std::string& id, const std::string& bench,
                     const std::string& priority, std::uint64_t seed) {
  Json job = Json::object();
  job["id"] = Json{id};
  job["bench"] = Json{bench};
  job["priority"] = Json{priority};
  job["seed"] = Json{seed};
  return job.dump();
}

struct HotJob {
  std::string bench;
  std::string priority;
  std::uint64_t seed = 0;
  std::string reference;  ///< job report of a direct run_scenario
};

struct Job {
  std::string line;
  double due_s = 0.0;  ///< offset from the start of the schedule
  bool hot = false;
  std::size_t hot_index = 0;
};

struct Schedule {
  std::vector<HotJob> hot;
  std::vector<Job> jobs;
  double end_s = 0.0;  ///< end of the arrival window
};

/// `count` indices into `size` items, dealt in rounds: every run of
/// `size` consecutive picks holds each item once, in seeded order. Heavy
/// and light choices then spread evenly through the schedule, so a run's
/// latency does not hinge on how often heavy jobs happen to bunch up.
std::vector<std::size_t> deck(std::size_t count, std::size_t size, Rng& rng) {
  std::vector<std::size_t> out;
  out.reserve(count + size);
  while (out.size() < count) {
    std::vector<std::size_t> round(size);
    for (std::size_t i = 0; i < size; ++i) {
      round[i] = i;
    }
    rng.shuffle(round);
    out.insert(out.end(), round.begin(), round.end());
  }
  out.resize(count);
  return out;
}

/// The seeded inputs: one hot job per pool circuit, and `n` arrivals of
/// a Poisson process conditioned on `n` arrivals in [0, n / kRate), one
/// in every kFreshEvery of them fresh. Which job is fresh, circuits and
/// priorities are dealt in rounds (see `deck`), so seeds vary which job
/// comes when, not how much work a run holds.
Schedule make_schedule(const RunConfig& config) {
  Rng rng{config.seed};
  Schedule schedule;
  for (const char* bench : kPool) {
    schedule.hot.push_back({bench,
                            kPriorities[rng.below(std::size(kPriorities))],
                            1 + rng.below(999), {}});
  }
  const std::size_t n = std::max(
      kMinJobs, static_cast<std::size_t>(std::ceil(kRate * config.seconds)));
  schedule.end_s = static_cast<double>(n) / kRate;
  std::vector<double> due(n);
  for (double& t : due) {
    t = rng.uniform() * schedule.end_s;
  }
  std::sort(due.begin(), due.end());
  const auto slot = deck(n, kFreshEvery, rng);
  const std::size_t fresh = static_cast<std::size_t>(
      std::count(slot.begin(), slot.end(), std::size_t{0}));
  const auto hot_picks = deck(n - fresh, schedule.hot.size(), rng);
  const auto fresh_circuits = deck(fresh, std::size(kPool), rng);
  const auto fresh_priorities = deck(fresh, std::size(kPriorities), rng);
  std::size_t hot_k = 0;
  std::size_t fresh_k = 0;
  for (std::size_t k = 0; k < n; ++k) {
    Job job;
    job.due_s = due[k];
    std::string id = "j";
    id += std::to_string(k);
    if (slot[k] != 0) {
      job.hot = true;
      job.hot_index = hot_picks[hot_k++];
      const HotJob& h = schedule.hot[job.hot_index];
      job.line = job_line(id, h.bench, h.priority, h.seed);
    } else {
      // Seeds from 1000 up never repeat a hot job or each other.
      job.line = job_line(id, kPool[fresh_circuits[fresh_k]],
                          kPriorities[fresh_priorities[fresh_k]], 1000 + k);
      ++fresh_k;
    }
    schedule.jobs.push_back(std::move(job));
  }
  return schedule;
}

/// The report `cryoeda serve` must return for `job`, computed by a direct
/// `core::run_scenario` (which also stores it in the scenario cache).
std::string reference_report(const HotJob& job,
                             const cryo::map::CellMatcher& matcher) {
  cryo::logic::Aig design;
  if (!cryo::epfl::find_benchmark(job.bench, design)) {
    throw std::runtime_error{"unknown benchmark " + job.bench};
  }
  cryo::core::ExperimentOptions experiment;
  experiment.flow.priority = *cryo::opt::priority_from_string(job.priority);
  experiment.flow.seed = job.seed;
  const std::string recipe = cryo::core::canonical_recipe(experiment.flow);
  const cryo::core::ScenarioSpec spec{
      cryo::opt::short_name(experiment.flow.priority),
      experiment.flow.priority, recipe};
  const auto result =
      cryo::core::run_scenario(design, matcher, experiment, spec);
  return cryo::service::job_report_json(
             design, kTemperatureK, 0.7, cryo::device::default_preset().name,
             cryo::spice::resolve_backend("").identity(),
             cryo::core::Pipeline::parse(recipe).to_string(), result)
      .dump();
}

void write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw std::runtime_error{"write to the daemon failed"};
    }
    done += static_cast<std::size_t>(n);
  }
}

struct Reply {
  double at_s = 0.0;
  std::string line;
};

/// Read reply lines until EOF, stamping each on arrival.
std::vector<Reply> read_replies(int fd) {
  std::vector<Reply> replies;
  std::string pending;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return replies;
    }
    const double at = now_s();
    pending.append(buf, static_cast<std::size_t>(n));
    for (std::size_t eol = pending.find('\n'); eol != std::string::npos;
         eol = pending.find('\n')) {
      replies.push_back({at, pending.substr(0, eol)});
      pending.erase(0, eol + 1);
    }
  }
}

/// One session: write the request lines at their due times, half-close
/// at `end_s` (the daemon then drains), and collect every reply.
struct Session {
  double start_s = 0.0;
  std::vector<double> sent_s;
  std::vector<double> rss_kb;  ///< resident set right after each send
  std::vector<Reply> replies;
  double cpu_s = 0.0;
  std::uint32_t span_id = 0;  ///< the traced session's span
};

Session run_session(cryo::service::Server& server,
                    const std::vector<Job>& jobs, double end_s,
                    Tracer* tracer) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error{"socketpair failed"};
  }
  const int client = fds[0];
  const int daemon = fds[1];
  Session session;
  const double c0 = process_cpu_s();
  // Each thread hands a failure back instead of ending the process.
  std::exception_ptr serve_failure;
  std::thread serving{[&] {
    try {
      if (tracer != nullptr) {
        const ScopedSpan span{*tracer, "service.session", 0};
        session.span_id = span.id();
        server.serve_fd(daemon, daemon);
      } else {
        server.serve_fd(daemon, daemon);
      }
    } catch (...) {
      serve_failure = std::current_exception();
    }
  }};
  std::vector<Reply> replies;
  std::exception_ptr read_failure;
  std::thread receiving{[&] {
    try {
      replies = read_replies(client);
    } catch (...) {
      read_failure = std::current_exception();
    }
  }};
  session.start_s = now_s() + 0.01;
  const auto wake = [&](double offset_s) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point{
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(session.start_s + offset_s))});
  };
  std::exception_ptr failure;
  try {
    for (const Job& job : jobs) {
      wake(job.due_s);
      write_all(client, job.line + "\n");
      session.sent_s.push_back(now_s());
      session.rss_kb.push_back(current_rss_kb());
    }
    wake(end_s);
  } catch (...) {
    failure = std::current_exception();
  }
  // End of input: the daemon drains every pending reply and returns.
  ::shutdown(client, failure ? SHUT_RDWR : SHUT_WR);
  serving.join();
  ::close(daemon);
  receiving.join();
  ::close(client);
  for (const std::exception_ptr& e : {failure, serve_failure, read_failure}) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
  session.replies = std::move(replies);
  session.cpu_s = process_cpu_s() - c0;
  return session;
}

/// Least-squares slope of `y` over its index: per-job growth.
double slope_per_index(const std::vector<double>& y) {
  const double n = static_cast<double>(y.size());
  if (y.size() < 2) {
    return 0.0;
  }
  const double mean_x = (n - 1.0) / 2.0;
  const double mean_y = sum(y) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    sxy += dx * (y[i] - mean_y);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

/// A session's replies, indexed by job.
struct Outcome {
  std::vector<double> latency_ms;  ///< reply arrival minus due time
  std::vector<double> recv_s;
  std::vector<std::string> reports;
  std::vector<bool> hit;           ///< by the reply's `cache` field
  std::uint64_t failed = 0;
  double wall_s = 0.0;             ///< first due time to last reply
};

Outcome collect(const Session& session, const Schedule& schedule) {
  const std::size_t n = schedule.jobs.size();
  Outcome out;
  out.latency_ms.assign(n, 0.0);
  out.recv_s.assign(n, 0.0);
  out.reports.assign(n, "");
  out.hit.assign(n, false);
  std::vector<bool> seen(n, false);
  for (const Reply& reply : session.replies) {
    const Json json = Json::parse(reply.line);
    const std::string& id = json.at("id").as_string();
    const std::size_t k =
        id.size() > 1 && id[0] == 'j' ? std::stoul(id.substr(1)) : n;
    if (k >= n || seen[k]) {
      ++out.failed;
      continue;
    }
    seen[k] = true;
    out.recv_s[k] = reply.at_s;
    out.latency_ms[k] =
        (reply.at_s - session.start_s - schedule.jobs[k].due_s) * 1e3;
    if (json.at("status").as_string() != "ok") {
      std::fprintf(stderr, "serve_mixed: job %s failed: %s\n", id.c_str(),
                   reply.line.c_str());
      ++out.failed;
      continue;
    }
    out.reports[k] = json.at("report").dump();
    const Json& cache = json.at("cache");
    out.hit[k] = cache.at("scenario_hits").as_int() > 0 &&
                 cache.at("scenario_misses").as_int() == 0;
    const Job& job = schedule.jobs[k];
    if (job.hot && out.reports[k] != schedule.hot[job.hot_index].reference) {
      std::fprintf(stderr, "serve_mixed: job %s report differs from the "
                           "direct run\n", id.c_str());
      ++out.failed;
    }
  }
  out.failed += static_cast<std::uint64_t>(std::count(seen.begin(),
                                                      seen.end(), false));
  out.wall_s = *std::max_element(out.recv_s.begin(), out.recv_s.end()) -
               session.start_s - schedule.jobs.front().due_s;
  return out;
}

}  // namespace

Result run_serve_mixed(const RunConfig& config) {
  prepare_corner(config);

  Schedule schedule;
  std::unique_ptr<Corner> corner;
  std::unique_ptr<cryo::service::Server> server;
  Tracer tracer;
  const fs::path cache_dir = config.work_dir / "cache";
  const HostSpeed host;
  const std::vector<Timing> setups = timed_setup(
      3,
      [&] {
        fresh_cache(cache_dir);
        schedule = make_schedule(config);
        {
          const ScopedSpan span{tracer, "liberty.load", 0};
          corner = load_corner(config);
        }
        const auto references = cryo::util::parallel_map(
            schedule.hot.size(),
            [&](std::size_t i) {
              return reference_report(schedule.hot[i], *corner->matcher);
            },
            config.threads);
        for (std::size_t i = 0; i < references.size(); ++i) {
          schedule.hot[i].reference = references[i];
        }
        cryo::service::ServeOptions options;
        options.threads = config.threads;
        options.lib_dir = config.state_dir.string();
        options.char_options = char_options(config.threads);
        server = std::make_unique<cryo::service::Server>(std::move(options));
        // Warm the daemon's resident corner with one hot job.
        const HotJob& first = schedule.hot.front();
        const Job warm{job_line("warmup", first.bench, first.priority,
                                first.seed),
                       0.0, true, 0};
        const Session session = run_session(*server, {warm}, 0.0, nullptr);
        if (session.replies.size() != 1 ||
            Json::parse(session.replies[0].line).at("status").as_string() !=
                "ok") {
          throw std::runtime_error{"daemon warm-up job failed"};
        }
      },
      [&] {
        server.reset();
        corner.reset();
        release_freed_memory();
      });
  // A traced run replays the schedule from this cache state.
  const fs::path warm_cache = config.work_dir / "cache_warm";
  if (config.trace) {
    fs::copy(cache_dir, warm_cache, fs::copy_options::recursive);
  }

  Result result;
  obs::reset();
  begin_timed_phase();
  const Session untraced =
      run_session(*server, schedule.jobs, schedule.end_s, nullptr);
  const Counters counters = Counters::take();
  const Outcome first = collect(untraced, schedule);
  result.attempted += schedule.jobs.size();
  result.failed += first.failed;

  if (!config.trace) {
    // Each job is corrected for the host's speed from its due time to
    // its reply; the session's wall time is set by the arrival schedule.
    std::vector<double> latency_ms;
    for (std::size_t k = 0; k < schedule.jobs.size(); ++k) {
      latency_ms.push_back(host.corrected(
          first.latency_ms[k],
          untraced.start_s + schedule.jobs[k].due_s, first.recv_s[k]));
    }
    const Timing session{first.wall_s, untraced.cpu_s,
                         untraced.start_s + schedule.jobs.front().due_s};
    set_common_metrics(result, host, setups, {session}, latency_ms,
                       WallBound::kSchedule);
  } else {
    fresh_cache(config.work_dir / "cache_traced");
    fs::copy(warm_cache, config.work_dir / "cache_traced",
             fs::copy_options::recursive);
    obs::reset();
    const Session traced =
        run_session(*server, schedule.jobs, schedule.end_s, &tracer);
    const Outcome second = collect(traced, schedule);
    result.attempted += schedule.jobs.size();
    result.failed += second.failed;
    for (std::size_t k = 0; k < schedule.jobs.size(); ++k) {
      if (second.reports[k] != first.reports[k]) {
        ++result.failed;
        std::fprintf(stderr, "serve_mixed: traced job j%zu differs from the "
                             "untraced run\n", k);
      }
    }
    const std::size_t n = schedule.jobs.size();
    for (std::size_t k = 0; k < n; ++k) {
      SpanRecord span;
      span.name = second.hit[k] ? "service.job.hit" : "service.job.miss";
      span.op = k;
      span.id = tracer.next_id();
      span.parent = traced.span_id;
      span.start_s = traced.start_s + schedule.jobs[k].due_s;
      span.end_s = second.recv_s[k];
      tracer.record(std::move(span));
    }
    tracer.write(spans_path(config));

    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    std::vector<double> late_ms;
    std::size_t piggybacked = 0;
    std::vector<std::pair<double, int>> events;
    for (std::size_t k = 0; k < n; ++k) {
      (second.hit[k] ? hit_ms : miss_ms).push_back(second.latency_ms[k]);
      late_ms.push_back((traced.sent_s[k] - traced.start_s -
                         schedule.jobs[k].due_s) * 1e3);
      // The latest request written before this reply arrived.
      const auto later = std::upper_bound(
          traced.sent_s.begin(), traced.sent_s.end(), second.recv_s[k]);
      if (later != traced.sent_s.begin()) {
        const std::size_t j =
            static_cast<std::size_t>(later - traced.sent_s.begin()) - 1;
        if (j > k && second.recv_s[k] - traced.sent_s[j] <= kPiggybackS) {
          ++piggybacked;
        }
      }
      events.emplace_back(traced.sent_s[k], +1);
      events.emplace_back(second.recv_s[k], -1);
    }
    std::sort(events.begin(), events.end());
    int inflight = 0;
    int inflight_max = 0;
    for (const auto& [at, delta] : events) {
      inflight += delta;
      inflight_max = std::max(inflight_max, inflight);
    }

    set_layer_defaults(result);
    set_counter_metrics(result, counters);
    result.set("service.hit_p50_ms", quantile(hit_ms, 0.5), "ms");
    result.set("service.miss_p50_ms", quantile(miss_ms, 0.5), "ms");
    result.set("service.hit_ratio",
               static_cast<double>(hit_ms.size()) / static_cast<double>(n),
               "ratio");
    result.set("service.piggyback_frac",
               static_cast<double>(piggybacked) / static_cast<double>(n),
               "ratio");
    result.set("service.inflight_max", inflight_max, "count");
    // RSS growth per job, fitted over the first session: the second
    // reuses the memory the program's span buffer grew to in the first
    // (obs::reset keeps its capacity).
    result.set("service.rss_kb_per_job", slope_per_index(untraced.rss_kb),
               "KB");
    result.set("gen.late_p99_ms", quantile(late_ms, 0.99), "ms");
    result.set("pool.utilization",
               untraced.cpu_s / (first.wall_s * config.threads), "ratio");
    result.set("liberty.load_s",
               median(tracer.durations("liberty.load")), "s");
    result.set("cache.disk_mb",
               static_cast<double>(fs::file_size(corner_lib_path(config))) /
                   (1024.0 * 1024.0),
               "MB");
    result.set("trace.overhead_pct",
               (second.wall_s / first.wall_s - 1.0) * 100.0, "%");
    result.set("host.slowdown",
               host.slowdown(untraced.start_s,
                             untraced.start_s + first.wall_s),
               "ratio");
  }
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
