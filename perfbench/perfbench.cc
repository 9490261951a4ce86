// The repository benchmark (perfbench/README.md). One process runs
// one workload and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the untraced
// measurement, then measures again with the benchmark's own spans on and
// replays a sample of requests through the core layers' public functions,
// and prints the per-layer metrics.
//
// Usage: perfbench --workload walk_decode|city_mix --seed N
//                  --seconds S --trace 0|1 [--stall-ms M] [--git-sha SHA]
//                  [--src-digest HEX] [--trace-out PATH]
//
// --stall-ms arms the serve.worker.stall fault site (every request or
// batch a worker starts sleeps M ms): the benchmark's sensitivity check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "city_mix.h"
#include "core/bigcity_model.h"
#include "core/task.h"
#include "data/dataset.h"
#include "data/st_unit.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "stats.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using bigcity::core::BigCityConfig;
using bigcity::core::BigCityModel;
using bigcity::core::Task;
using bigcity::data::CityDataset;
using bigcity::data::CityDatasetConfig;
using bigcity::data::Trajectory;
using bigcity::nn::Tensor;
using bigcity::serve::InferenceServer;
using bigcity::serve::Outcome;
using bigcity::serve::Request;
using bigcity::serve::Response;
using bigcity::serve::ServeOptions;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Command line -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int stall_ms = 0;
  std::string git_sha = "none";
  std::string src_digest = "none";
  std::string trace_out;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "walk_decode|city_mix --seed N --seconds S "
               "--trace 0|1 [--stall-ms M] [--git-sha SHA] "
               "[--src-digest HEX] [--trace-out PATH]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--stall-ms") {
      args.stall_ms = std::atoi(value.c_str());
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!have_trace) Usage("--trace is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.stall_ms < 0) Usage("--stall-ms must be >= 0");
  return args;
}

// --- Host stamp ---------------------------------------------------------------

/// The micro-kernel the GEMM layer dispatches to, by the same
/// __builtin_cpu_supports rule as src/nn/kernels/gemm.cc.
const char* GemmIsaPath() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "scalar";
}

void PrintHostStamp(const Args& args) {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::printf(
      "host {\"nproc\": %u, \"gemm_isa\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"obs\": %d, \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\"}\n",
      std::thread::hardware_concurrency(), GemmIsaPath(), __VERSION__,
      PERFBENCH_BUILD_TYPE, BIGCITY_OBS, args.git_sha.c_str(),
      args.src_digest.c_str());
}

/// The process's peak resident set so far (VmHWM).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB.
}

// --- Spans --------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded only by
/// the benchmark's own code around calls into a layer; `parent` links a
/// span to the one that caused it and `trace_id` groups one request's
/// spans. Written out as chrome://tracing JSON when the run ends.
class Tracer {
 public:
  struct Record {
    std::string name;
    uint64_t trace_id = 0;
    int64_t parent = -1;
    double start_us = 0;
    double end_us = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  double ToUs(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Records a finished span; returns its index (-1 when disabled).
  int64_t Add(std::string name, uint64_t trace_id, int64_t parent,
              double start_us, double end_us) {
    if (!enabled_) return -1;
    records_.push_back(
        Record{std::move(name), trace_id, parent, start_us, end_us});
    return static_cast<int64_t>(records_.size()) - 1;
  }
  int64_t Open(std::string name, uint64_t trace_id, int64_t parent) {
    const double now = NowUs();
    return Add(std::move(name), trace_id, parent, now, now);
  }
  void Close(int64_t index) {
    if (index >= 0) records_[static_cast<size_t>(index)].end_us = NowUs();
  }

  /// Durations (ms) of every span with this name.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.name == name) out.push_back((r.end_us - r.start_us) / 1000.0);
    }
    return out;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"trace_id\": "
                   "%llu, \"parent\": %lld}}%s\n",
                   r.name.c_str(), r.start_us, r.end_us - r.start_us,
                   static_cast<unsigned long long>(r.trace_id),
                   static_cast<long long>(r.parent),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
};

/// RAII span over one call into a layer.
class Span {
 public:
  Span(Tracer* tracer, std::string name, uint64_t trace_id = 0,
       int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer->Open(std::move(name), trace_id, parent)) {}
  ~Span() { tracer_->Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

// --- Result -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    correct = false;
    std::printf("check FAILED: %s\n", why.c_str());
  }
};

void PrintResult(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Obs counter deltas -------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return bigcity::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Counter values at one instant; Delta() gives what happened since.
struct Counters {
  std::map<std::string, uint64_t> values;

  static Counters Capture() {
    static const char* kNames[] = {
        "serve.cache.kv.hit",        "serve.cache.kv.miss",
        "serve.cache.tokenizer.hit", "serve.cache.tokenizer.miss",
        "serve.batch.fallback",      "kernels.gemm.calls",
        "plan.cache.hit",            "plan.cache.miss",
    };
    Counters c;
    for (const char* name : kNames) c.values[name] = CounterValue(name);
    return c;
  }
  double Delta(const Counters& before, const std::string& name) const {
    return static_cast<double>(values.at(name) - before.values.at(name));
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Bench cities and models --------------------------------------------------

/// XA bench city: the preset bench_serve and the training benches use.
CityDatasetConfig XaBenchCity() {
  return bigcity::data::ScaleConfig(bigcity::data::XianLikeConfig(), 0.45);
}

/// city_mix's city: a 16x16 grid (906 segments) over 7 days (336 slices),
/// large enough for the O(N^2) tokenizer fusion to dominate.
CityDatasetConfig MixCity() {
  CityDatasetConfig config = bigcity::data::XianLikeConfig();
  config.name = "MIX16";
  config.city.grid_width = 16;
  config.city.grid_height = 16;
  config.generator.num_users = 60;
  config.generator.num_trajectories = 3000;
  config.generator.horizon_days = 7.0;
  return config;
}

/// The serve-scale backbone of bench_serve's batching A/B.
BigCityConfig ServeScaleModel() {
  BigCityConfig config;
  config.d_model = 256;
  config.num_heads = 8;
  config.num_layers = 6;
  config.threads = 1;
  return config;
}

BigCityConfig DefaultModel(int threads) {
  BigCityConfig config;
  config.threads = threads;
  return config;
}

bool SameTensor(const Tensor& a, const Tensor& b) {
  if (!a.is_valid() || !b.is_valid()) return false;
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// --- Serving phases -----------------------------------------------------------

/// One finished request as the benchmark saw it.
struct Sample {
  Request request;      // Kept only for output-checked samples.
  bool checked = false;
  Response response;    // Output tensor dropped unless checked.
  double latency_ms = 0;  // From due time (open loop) or send (closed).
  double lag_ms = 0;      // Send time minus due time.
  double send_s = 0;      // Since the phase started.
  double done_s = 0;      // Send plus the server's total_us.

  /// A full-model answer. Failed, shed, expired, quarantined and degraded
  /// (baseline) requests miss every latency limit and count as failed.
  bool FullAnswer() const {
    return response.status.ok() && !response.degraded;
  }
};

/// What one phase measured.
struct Phase {
  double seconds = 0;
  std::vector<Sample> samples;
  /// Requests in the server (sent, not yet answered), averaged over the
  /// last tenth of the phase, minus the same around its middle.
  double backlog = 0;
  Counters before, after;

  int64_t attempted() const { return static_cast<int64_t>(samples.size()); }
  int64_t ok() const {
    int64_t n = 0;
    for (const Sample& s : samples) n += s.FullAnswer() ? 1 : 0;
    return n;
  }
  int64_t CountOutcome(Outcome outcome) const {
    int64_t n = 0;
    for (const Sample& s : samples) n += s.response.outcome == outcome ? 1 : 0;
    return n;
  }
  std::vector<double> OkLatencies() const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (s.FullAnswer()) out.push_back(s.latency_ms);
    }
    return out;
  }
  std::vector<double> Stage(double bigcity::serve::StageBreakdown::*field,
                            double scale) const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (s.response.status.ok()) {
        out.push_back(s.response.stages.*field * scale);
      }
    }
    return out;
  }
  std::vector<double> Lags() const {
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back(s.lag_ms);
    return out;
  }
  /// Mean count of requests in the server over 50 instants of [t0, t1].
  double InSystem(double t0, double t1) const {
    double total = 0;
    for (int k = 0; k < 50; ++k) {
      const double t = t0 + (t1 - t0) * k / 49.0;
      for (const Sample& s : samples) total += s.send_s <= t && t < s.done_s;
    }
    return total / 50.0;
  }
  /// Over the `sending_s` seconds during which requests were sent.
  void ComputeBacklog(double sending_s) {
    backlog = InSystem(0.9 * sending_s, sending_s) -
              InSystem(0.45 * sending_s, 0.55 * sending_s);
  }
};

/// Records one response; keeps the output only for every k-th OK answer.
void Keep(Phase* phase, Request request, Response response, double latency_ms,
          double lag_ms, double send_s, int check_every, int64_t* ok_seen) {
  Sample sample;
  sample.latency_ms = latency_ms;
  sample.lag_ms = lag_ms;
  sample.send_s = send_s;
  sample.done_s = send_s + response.total_us / 1e6;
  sample.response = std::move(response);
  if (sample.FullAnswer() && check_every > 0 &&
      (*ok_seen)++ % check_every == 0) {
    sample.checked = true;
    sample.request = std::move(request);
  } else {
    sample.response.output = Tensor();
  }
  phase->samples.push_back(std::move(sample));
}

/// Output check: each kept answer must equal, bit for bit, the direct Try*
/// call on a model holding the replicas' weights. Returns mismatches.
int64_t CheckOutputs(const Phase& phase, BigCityModel* reference,
                     int64_t* checked) {
  bigcity::nn::NoGradGuard no_grad;
  int64_t mismatches = 0;
  for (const Sample& s : phase.samples) {
    if (!s.checked) continue;
    ++*checked;
    auto expected = RunReference(reference, s.request);
    if (!expected.ok() || !SameTensor(expected.value(), s.response.output)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Closed-loop autoregressive decoding: `sessions` clients, each waiting
/// for its reply before sending the next hop of its walk. One generator
/// thread multiplexes every session through the async Submit.
class WalkLoad {
 public:
  WalkLoad(const std::vector<Trajectory>* pool, int sessions, int max_prefix,
           uint64_t seed)
      : pool_(pool), max_prefix_(max_prefix), rng_(seed) {
    sessions_.resize(static_cast<size_t>(sessions));
    for (auto& s : sessions_) NextWalk(&s);
  }

  Phase Run(InferenceServer* server, double seconds, int check_every,
            Tracer* tracer) {
    Phase phase;
    phase.before = Counters::Capture();
    int64_t ok_seen = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (auto& s : sessions_) {
      Send(server, &s);
      s.lag_ms = 0;
    }
    size_t inflight = sessions_.size();
    while (inflight > 0) {
      // Block briefly on the oldest outstanding reply, then sweep.
      Session* oldest = nullptr;
      for (auto& s : sessions_) {
        if (s.inflight && (oldest == nullptr || s.sent < oldest->sent)) {
          oldest = &s;
        }
      }
      oldest->future.wait_for(std::chrono::microseconds(200));
      const bool sending = Clock::now() < end;
      for (auto& s : sessions_) {
        if (!s.inflight || s.future.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready) {
          continue;
        }
        Response response = s.future.get();
        s.inflight = false;
        --inflight;
        const double latency_ms = response.total_us / 1000.0;
        const double send_us = tracer->ToUs(s.sent);
        if (tracer->enabled()) {
          tracer->Add("serve.request", response.trace_id, -1, send_us,
                      send_us + response.total_us);
        }
        const Clock::time_point answered =
            s.sent + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(
                             response.total_us));
        Keep(&phase, s.request, std::move(response), latency_ms, s.lag_ms,
             SecondsBetween(start, s.sent), check_every, &ok_seen);
        Advance(&s);
        if (sending) {
          Send(server, &s);
          // The next hop was due when the reply was ready.
          s.lag_ms = std::max(0.0, std::chrono::duration<double, std::milli>(
                                       s.sent - answered)
                                       .count());
          ++inflight;
        }
      }
    }
    phase.seconds = SecondsBetween(start, Clock::now());
    phase.after = Counters::Capture();
    phase.ComputeBacklog(seconds);
    return phase;
  }

 private:
  struct Session {
    Trajectory walk;
    int next_len = 2;
    Request request;
    std::future<Response> future;
    bool inflight = false;
    Clock::time_point sent;
    double lag_ms = 0;  // From the previous reply to this send.
  };

  void NextWalk(Session* s) {
    for (;;) {
      const Trajectory& t = (*pool_)[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int>(pool_->size()) - 1))];
      if (std::min(t.length(), max_prefix_) < 3) continue;
      s->walk = t;
      s->walk.points.resize(
          static_cast<size_t>(std::min(t.length(), max_prefix_)));
      s->next_len = 2;
      return;
    }
  }
  void Advance(Session* s) {
    if (++s->next_len > s->walk.length()) NextWalk(s);
  }
  void Send(InferenceServer* server, Session* s) {
    s->request = Request{};
    s->request.task = Task::kNextHop;
    s->request.trajectory = s->walk;
    s->request.trajectory.points.resize(static_cast<size_t>(s->next_len));
    s->sent = Clock::now();
    s->future = server->Submit(s->request);
    s->inflight = true;
  }

  const std::vector<Trajectory>* pool_;
  int max_prefix_;
  bigcity::util::Rng rng_;
  std::vector<Session> sessions_;
};

/// Open loop: one generator thread sends each arrival at its due time
/// through the async Submit, whatever the server's state. Latency runs
/// from the due time, so a stall also charges the requests queued behind
/// it; the generator's own lateness is reported as lag.
Phase RunOpenLoop(InferenceServer* server, const std::vector<Arrival>& arrivals,
                  double seconds, int check_every, Tracer* tracer) {
  Phase phase;
  phase.before = Counters::Capture();
  struct Pending {
    size_t index;
    double lag_ms;
    Clock::time_point sent;
    std::future<Response> future;
  };
  std::vector<Pending> pending;
  pending.reserve(arrivals.size());
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals[i].due_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const double lag_ms =
        std::chrono::duration<double, std::milli>(sent - due).count();
    pending.push_back(
        Pending{i, lag_ms, sent, server->Submit(arrivals[i].request)});
  }
  int64_t ok_seen = 0;
  for (Pending& p : pending) {
    Response response = p.future.get();
    const double latency_ms = p.lag_ms + response.total_us / 1000.0;
    if (tracer->enabled()) {
      const double send_us = tracer->ToUs(p.sent);
      tracer->Add("serve.request", response.trace_id, -1,
                  send_us - p.lag_ms * 1000.0, send_us + response.total_us);
    }
    Keep(&phase, arrivals[p.index].request, std::move(response), latency_ms,
         p.lag_ms, SecondsBetween(start, p.sent), check_every, &ok_seen);
  }
  // Wall time from the first due time to the last answer (or the end of
  // the schedule, whichever is later).
  phase.seconds = seconds;
  for (const Sample& s : phase.samples) {
    phase.seconds = std::max(phase.seconds, s.done_s);
  }
  phase.after = Counters::Capture();
  phase.ComputeBacklog(seconds);
  return phase;
}

/// The generator fell behind when it was late by more than 1 ms on a
/// typical send or 20 ms on its worst percent. Its lateness still counts
/// in every latency (they run from the due time); an invalid phase only
/// means the offered load was not what the schedule said.
constexpr double kMaxGeneratorLagP50Ms = 1.0;
constexpr double kMaxGeneratorLagP99Ms = 20.0;

/// The backlog grew when the end-of-phase in-server count exceeds the
/// mid-phase one by more than 50 ms worth of arrivals (plus slack for a
/// single cold-slice stall).
bool PhaseValid(const Phase& phase, std::string* why) {
  const std::vector<double> lags = phase.Lags();
  if (!lags.empty() && (Percentile(lags, 0.5) > kMaxGeneratorLagP50Ms ||
                        Percentile(lags, 0.99) > kMaxGeneratorLagP99Ms)) {
    *why = "generator fell behind";
    return false;
  }
  const double rate = phase.attempted() / std::max(phase.seconds, 1e-9);
  if (phase.backlog > 8.0 + 0.05 * rate) {
    *why = "backlog grew";
    return false;
  }
  return true;
}

/// The server's own SLO (ServeOptions slo_p99_ms and
/// slo_success_objective) on a valid phase.
bool MeetsSlo(const Phase& phase, const ServeOptions& options) {
  std::string why;
  const bool valid = PhaseValid(phase, &why);
  const double success = Ratio(static_cast<double>(phase.ok()),
                               static_cast<double>(phase.attempted()));
  const double p99 = Percentile(phase.OkLatencies(), 0.99);
  const bool meets = valid && success >= options.slo_success_objective &&
                     p99 <= options.slo_p99_ms;
  std::printf("  SLO p99 <= %.0fms, success >= %.2f: %s (p99 %.1fms, "
              "success %.4f%s%s)\n",
              options.slo_p99_ms, options.slo_success_objective,
              meets ? "met" : "missed", p99, success, valid ? "" : ", ",
              valid ? "" : why.c_str());
  return meets;
}

/// Answers per window: enough for a p99 with about 15 samples beyond it.
constexpr size_t kWindowAnswers = 1500;

/// Adds p50_ms and p99_ms, and sets `*rps_out` to the rate of full
/// answers.
/// The phase's full answers, in send order, are split into up to 10
/// windows of equal count (at least kWindowAnswers each); each statistic is
/// computed per window and the median over windows is reported, so a
/// transient stall of the host moves one window, not the result, while a
/// slower program moves every window. `sending_s` is how long requests
/// were sent. False when the phase cannot support a p99 (fewer than 1000
/// answers or fewer than 10 beyond it).
bool AddLatencyMetrics(const Phase& phase, double sending_s, Result* result,
                       double* rps_out) {
  std::vector<const Sample*> answers;
  for (const Sample& s : phase.samples) {
    if (s.FullAnswer()) answers.push_back(&s);
  }
  std::sort(answers.begin(), answers.end(),
            [](const Sample* a, const Sample* b) { return a->send_s < b->send_s; });
  const size_t windows =
      std::clamp<size_t>(answers.size() / kWindowAnswers, 1, 10);
  const size_t per = answers.size() / windows;
  if (per < 1000 || !PercentileSupported(per, 0.99)) {
    std::printf("p99 unsupported: %zu answers (need >= 1000)\n",
                answers.size());
    return false;
  }
  std::vector<double> p50, p99, rps;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * per;
    const size_t end = w + 1 == windows ? answers.size() : begin + per;
    std::vector<double> lat;
    for (size_t i = begin; i < end; ++i) lat.push_back(answers[i]->latency_ms);
    const double t0 = answers[begin]->send_s;
    const double t1 = end < answers.size() ? answers[end]->send_s : sending_s;
    p50.push_back(Percentile(lat, 0.5));
    p99.push_back(Percentile(lat, 0.99));
    rps.push_back(static_cast<double>(lat.size()) / std::max(t1 - t0, 1e-9));
  }
  std::printf("%zu windows of %zu answers: p50", windows, per);
  for (double v : p50) std::printf(" %.2f", v);
  std::printf(" | p99");
  for (double v : p99) std::printf(" %.1f", v);
  std::printf(" | rps");
  for (double v : rps) std::printf(" %.0f", v);
  std::printf("\n");
  result->Add("p50_ms", Median(p50), "ms");
  result->Add("p99_ms", Median(p99), "ms");
  *rps_out = Median(rps);
  return true;
}

/// Per-layer serve metrics from the Response stage breakdown and the
/// serve.* counter deltas of one phase.
void AddServeLayerMetrics(const Phase& phase, Result* result) {
  using SB = bigcity::serve::StageBreakdown;
  const auto& a = phase.after;
  const auto& b = phase.before;
  std::vector<double> batch_sizes;
  for (const Sample& s : phase.samples) {
    if (s.response.status.ok()) batch_sizes.push_back(s.response.batch_size);
  }
  result->Add("serve.queue_wait_ms.p50",
              Percentile(phase.Stage(&SB::queue_wait_us, 1e-3), 0.5), "ms");
  result->Add("serve.queue_wait_ms.p99",
              Percentile(phase.Stage(&SB::queue_wait_us, 1e-3), 0.99), "ms");
  result->Add("serve.batch_wait_ms.p50",
              Percentile(phase.Stage(&SB::batch_wait_us, 1e-3), 0.5), "ms");
  result->Add("serve.batch_size.mean", Mean(batch_sizes), "count");
  result->Add("serve.validate_us.mean",
              Mean(phase.Stage(&SB::validate_us, 1.0)), "us");
  result->Add("serve.tokenize_ms.mean",
              Mean(phase.Stage(&SB::tokenize_us, 1e-3)), "ms");
  result->Add("serve.forward_ms.mean",
              Mean(phase.Stage(&SB::forward_us, 1e-3)), "ms");
  result->Add("serve.forward_ms.p99",
              Percentile(phase.Stage(&SB::forward_us, 1e-3), 0.99), "ms");
  const double kv_hit = a.Delta(b, "serve.cache.kv.hit");
  const double kv_miss = a.Delta(b, "serve.cache.kv.miss");
  result->Add("serve.kv_hit_ratio", Ratio(kv_hit, kv_hit + kv_miss), "ratio");
  const double tok_hit = a.Delta(b, "serve.cache.tokenizer.hit");
  const double tok_miss = a.Delta(b, "serve.cache.tokenizer.miss");
  result->Add("serve.tok_cache_hit_ratio", Ratio(tok_hit, tok_hit + tok_miss),
              "ratio");
  result->Add("serve.batch_fallbacks", a.Delta(b, "serve.batch.fallback"),
              "count");
  result->Add("serve.shed", static_cast<double>(phase.CountOutcome(
                                Outcome::kShed)),
              "count");
  result->Add("serve.degraded",
              static_cast<double>(phase.CountOutcome(Outcome::kDegraded)),
              "count");
  result->Add("kernels.gemm_calls_per_req",
              Ratio(a.Delta(b, "kernels.gemm.calls"),
                    static_cast<double>(phase.attempted())),
              "count");
  const double plan_hit = a.Delta(b, "plan.cache.hit");
  const double plan_miss = a.Delta(b, "plan.cache.miss");
  result->Add("plan.cache_hit_ratio", Ratio(plan_hit, plan_hit + plan_miss),
              "ratio");
  std::printf("serve counters: kv %.0f/%.0f tok %.0f/%.0f plan %.0f/%.0f\n",
              kv_hit, kv_hit + kv_miss, tok_hit, tok_hit + tok_miss, plan_hit,
              plan_hit + plan_miss);
}

double PlanArenaMb() {
  return bigcity::obs::MetricsRegistry::Global()
             .GetGauge("plan.arena.bytes")
             ->Value() /
         (1024.0 * 1024.0);
}

void PrintPhase(const char* name, const Phase& phase) {
  const std::vector<double> lat = phase.OkLatencies();
  std::string why;
  const bool valid = PhaseValid(phase, &why);
  std::printf(
      "phase %s: %.2fs attempted %lld ok %lld shed %lld degraded %lld "
      "p50 %.2fms p99 %.2fms rps %.1f lag p50 %.3fms p99 %.3fms backlog "
      "%.1f %s%s\n",
      name, phase.seconds, static_cast<long long>(phase.attempted()),
      static_cast<long long>(phase.ok()),
      static_cast<long long>(phase.CountOutcome(Outcome::kShed)),
      static_cast<long long>(phase.CountOutcome(Outcome::kDegraded)),
      Percentile(lat, 0.5), Percentile(lat, 0.99),
      phase.ok() / phase.seconds, Percentile(phase.Lags(), 0.5),
      Percentile(phase.Lags(), 0.99), phase.backlog,
      valid ? "valid" : "INVALID: ", why.c_str());
}

/// A measured phase whose generator fell behind or whose backlog grew did
/// not offer the load its schedule says, so its figures must not be
/// compared: the run is marked incorrect.
void FailIfInvalid(const Phase& phase, Result* result) {
  std::string why;
  if (!PhaseValid(phase, &why)) result->Fail("measured phase invalid: " + why);
}

// --- Core-layer replay --------------------------------------------------------

/// Replays requests through StTokenizer / Backbone / GeneralTaskHeads the
/// way BigCityModel's entry points compose them, one span per layer call,
/// and checks each replayed output against the entry point bit for bit.
class CoreReplay {
 public:
  CoreReplay(BigCityModel* model, Tracer* tracer)
      : model_(model), tracer_(tracer) {}

  /// Replays one request; false when its output differs from the entry
  /// point's.
  bool Replay(const Request& request, uint64_t id) {
    bigcity::nn::NoGradGuard no_grad;
    Span root(tracer_, "replay.request", id);
    Tensor out = ReplayOne(request, id, root.index());
    ++replayed_;
    auto expected = RunReference(model_, request);
    return expected.ok() && SameTensor(expected.value(), out);
  }

  /// One KV-cached decode step (the ForwardCached path the KV store
  /// drives): prefill with the walk minus its last hop, then decode the
  /// last hop. False when the decoded logits differ from NextHopLogits.
  bool ReplayDecode(const Trajectory& walk, uint64_t id) {
    bigcity::nn::NoGradGuard no_grad;
    using bigcity::core::TaskTokenKind;
    Trajectory head = walk;
    head.points.pop_back();
    bigcity::nn::KvCache cache;
    auto prompt_for = [&](const Trajectory& t) {
      bigcity::core::PromptInput p =
          Prompt(Task::kNextHop, Tokens(SeqOf(t), Hidden(t.length(), false),
                                        id, -1));
      p.task_tokens = {TaskTokenKind::kClas};
      return p;
    };
    bigcity::core::PromptInput first = prompt_for(head);
    model_->backbone()->ForwardCached(first, &cache);
    bigcity::core::PromptInput next = prompt_for(walk);
    const int64_t shared = std::min<int64_t>(
        cache.length() - 1,
        static_cast<int64_t>(next.text_ids.size()) + walk.length() - 1);
    cache.Truncate(shared);
    bigcity::core::BackboneOutput out;
    {
      Span span(tracer_, "backbone.decode", id);
      out = model_->backbone()->ForwardCached(next, &cache);
    }
    Tensor logits = model_->heads()->SegmentLogits(out.task_outputs);
    auto expected = model_->TryNextHopLogits(walk);
    return expected.ok() && SameTensor(expected.value(), logits);
  }

  /// Times ForwardBatched over the prompts built so far, 8 at a time.
  void ReplayBatched() {
    bigcity::nn::NoGradGuard no_grad;
    for (size_t i = 0; i + 8 <= prompts_.size(); i += 8) {
      std::vector<bigcity::core::PromptInput> batch(
          prompts_.begin() + static_cast<std::ptrdiff_t>(i),
          prompts_.begin() + static_cast<std::ptrdiff_t>(i + 8));
      int64_t rows = 0;
      for (const auto& p : batch) {
        rows += static_cast<int64_t>(p.text_ids.size()) +
                p.st_tokens.shape()[0] +
                static_cast<int64_t>(p.task_tokens.size());
      }
      const double t0 = tracer_->NowUs();
      {
        Span span(tracer_, "backbone.batched");
        model_->backbone()->ForwardBatched(batch);
      }
      batched_ms_ += (tracer_->NowUs() - t0) / 1000.0;
      batched_rows_ += rows;
    }
  }

  void AddMetrics(Result* result) const {
    const auto spatial = tracer_->DurationsMs("tokenizer.spatial");
    result->Add("tokenizer.spatial_ms", Mean(spatial), "ms");
    result->Add("tokenizer.cold_slices_per_req",
                Ratio(static_cast<double>(spatial.size()),
                      static_cast<double>(replayed_)),
                "count");
    const auto tokenize = tracer_->DurationsMs("tokenizer.tokenize");
    result->Add("tokenizer.tokenize_us", Mean(tokenize) * 1000.0, "us");
    result->Add("backbone.forward_ms",
                Mean(tracer_->DurationsMs("backbone.forward")), "ms");
    result->Add("backbone.batched_ms_per_row",
                Ratio(batched_ms_, static_cast<double>(batched_rows_)), "ms");
    result->Add("backbone.decode_ms",
                Mean(tracer_->DurationsMs("backbone.decode")), "ms");
    result->Add("heads.us", Mean(tracer_->DurationsMs("heads")) * 1000.0,
                "us");
    // GEMM rate inside the backbone spans (GFLOP per second of span time).
    result->Add("kernels.gemm_gflops",
                Ratio(backbone_flops_ / 1e9, backbone_ms_ / 1000.0), "GFLOP/s");
  }

 private:
  static std::vector<bool> Hidden(int length, bool value) {
    return std::vector<bool>(static_cast<size_t>(length), value);
  }
  static bigcity::data::StUnitSequence SeqOf(const Trajectory& t) {
    return bigcity::data::StUnitSequence::FromTrajectory(t);
  }

  bigcity::core::PromptInput Prompt(Task task, Tensor st_tokens) const {
    bigcity::core::PromptInput prompt;
    if (model_->config().use_prompts) {
      prompt.text_ids = model_->text_tokenizer().Encode(
          bigcity::core::InstructionFor(task));
    }
    prompt.st_tokens = std::move(st_tokens);
    return prompt;
  }

  /// Tokenizes with the slices first touched by this request computed in
  /// their own spans, so tokenizer.tokenize times only warm work.
  Tensor Tokens(const bigcity::data::StUnitSequence& seq,
                const std::vector<bool>& hide, uint64_t id, int64_t parent) {
    const auto& traffic = model_->dataset()->traffic();
    for (double ts : seq.timestamps) {
      const int slice = traffic.SliceOf(ts);
      if (!warm_.insert(slice).second) continue;
      Span span(tracer_, "tokenizer.spatial", id, parent);
      model_->tokenizer()->SpatialRepresentations(slice);
    }
    Span span(tracer_, "tokenizer.tokenize", id, parent);
    return model_->tokenizer()->TokenizeWithHiddenTimes(seq, hide);
  }

  bigcity::core::BackboneOutput Forward(
      const bigcity::core::PromptInput& prompt, uint64_t id, int64_t parent) {
    prompts_.push_back(prompt);
    const uint64_t flops0 = CounterValue("kernels.gemm.flops");
    const double t0 = tracer_->NowUs();
    bigcity::core::BackboneOutput out;
    {
      Span span(tracer_, "backbone.forward", id, parent);
      out = model_->backbone()->Forward(prompt);
    }
    backbone_ms_ += (tracer_->NowUs() - t0) / 1000.0;
    backbone_flops_ +=
        static_cast<double>(CounterValue("kernels.gemm.flops") - flops0);
    return out;
  }

  Tensor ReplayOne(const Request& request, uint64_t id, int64_t parent) {
    using bigcity::core::TaskTokenKind;
    auto* heads = model_->heads();
    const auto& config = model_->config();
    const auto& traffic = model_->dataset()->traffic();
    switch (request.task) {
      case Task::kNextHop:
      case Task::kTrajClassification:
      case Task::kMostSimilarSearch: {
        const Trajectory t = model_->ClipTrajectory(request.trajectory);
        auto prompt = Prompt(request.task,
                             Tokens(SeqOf(t), Hidden(t.length(), false), id,
                                    parent));
        if (request.task != Task::kMostSimilarSearch) {
          prompt.task_tokens = {TaskTokenKind::kClas};
        }
        auto out = Forward(prompt, id, parent);
        Span span(tracer_, "heads", id, parent);
        if (request.task == Task::kNextHop) {
          return heads->SegmentLogits(out.task_outputs);
        }
        if (request.task == Task::kMostSimilarSearch) {
          return bigcity::nn::MeanRows(out.st_outputs);
        }
        return model_->classifies_users()
                   ? heads->UserLogits(out.task_outputs)
                   : heads->PatternLogits(out.task_outputs);
      }
      case Task::kTravelTimeEstimation: {
        const Trajectory t = model_->ClipTrajectory(request.trajectory);
        std::vector<bool> hide = Hidden(t.length(), true);
        hide[0] = false;
        auto prompt = Prompt(request.task, Tokens(SeqOf(t), hide, id, parent));
        prompt.task_tokens.assign(static_cast<size_t>(t.length() - 1),
                                  TaskTokenKind::kReg);
        auto out = Forward(prompt, id, parent);
        Span span(tracer_, "heads", id, parent);
        return heads->TimeRegression(out.task_outputs);
      }
      case Task::kTrajRecovery: {
        const Trajectory& original = request.trajectory;
        Trajectory kept;
        kept.user_id = original.user_id;
        for (int index : request.kept) {
          kept.points.push_back(original.points[static_cast<size_t>(index)]);
        }
        Tensor kept_tokens = Tokens(SeqOf(kept), Hidden(kept.length(), false),
                                    id, parent);
        std::vector<bool> is_kept(static_cast<size_t>(original.length()),
                                  false);
        for (int index : request.kept) {
          is_kept[static_cast<size_t>(index)] = true;
        }
        std::vector<Tensor> rows;
        std::vector<int> masked;
        Tensor zero_row = Tensor::Zeros({1, config.d_model});
        int cursor = 0;
        for (int l = 0; l < original.length(); ++l) {
          if (is_kept[static_cast<size_t>(l)]) {
            rows.push_back(
                bigcity::nn::SliceRows(kept_tokens, cursor, cursor + 1));
            ++cursor;
          } else {
            rows.push_back(zero_row);
            masked.push_back(l);
          }
        }
        auto prompt = Prompt(request.task, bigcity::nn::Concat(rows, 0));
        prompt.mask_positions = masked;
        prompt.task_tokens.assign(masked.size(), TaskTokenKind::kClas);
        auto out = Forward(prompt, id, parent);
        Span span(tracer_, "heads", id, parent);
        return heads->SegmentLogits(out.task_outputs);
      }
      case Task::kTrafficOneStep:
      case Task::kTrafficMultiStep: {
        const int horizon =
            request.task == Task::kTrafficOneStep ? 1 : request.horizon;
        auto seq = bigcity::data::StUnitSequence::FromTrafficSeries(
            traffic, request.segment, request.start_slice,
            config.traffic_input_steps);
        auto prompt = Prompt(
            horizon == 1 ? Task::kTrafficOneStep : Task::kTrafficMultiStep,
            Tokens(seq, Hidden(seq.length(), false), id, parent));
        prompt.task_tokens.assign(static_cast<size_t>(horizon),
                                  TaskTokenKind::kReg);
        auto out = Forward(prompt, id, parent);
        Span span(tracer_, "heads", id, parent);
        return heads->StateRegression(out.task_outputs);
      }
      case Task::kTrafficImputation: {
        auto seq = bigcity::data::StUnitSequence::FromTrafficSeries(
            traffic, request.segment, request.start_slice, request.window);
        auto prompt = Prompt(request.task,
                             Tokens(seq, Hidden(seq.length(), false), id,
                                    parent));
        prompt.mask_positions = request.masked;
        prompt.task_tokens.assign(request.masked.size(), TaskTokenKind::kReg);
        auto out = Forward(prompt, id, parent);
        Span span(tracer_, "heads", id, parent);
        return heads->StateRegression(out.task_outputs);
      }
    }
    return Tensor();
  }

  BigCityModel* model_;
  Tracer* tracer_;
  std::set<int> warm_;
  std::vector<bigcity::core::PromptInput> prompts_;
  int64_t replayed_ = 0;
  double backbone_ms_ = 0;
  double backbone_flops_ = 0;
  double batched_ms_ = 0;
  int64_t batched_rows_ = 0;
};

/// Replays up to `limit` checked requests of a phase (spread over it) and
/// a decode step for each multi-hop next-hop request among them.
void ReplayPhase(const Phase& phase, BigCityModel* model, Tracer* tracer,
                 size_t limit, Result* result) {
  std::vector<const Sample*> picked;
  for (const Sample& s : phase.samples) {
    if (s.checked) picked.push_back(&s);
  }
  const size_t stride = std::max<size_t>(1, picked.size() / limit);
  CoreReplay replay(model, tracer);
  int64_t replayed = 0, mismatched = 0;
  for (size_t i = 0; i < picked.size() && replayed < int64_t(limit);
       i += stride) {
    const Request& request = picked[i]->request;
    ++replayed;
    if (!replay.Replay(request, picked[i]->response.trace_id)) ++mismatched;
    if (request.task == Task::kNextHop && request.trajectory.length() >= 3 &&
        request.trajectory.length() <= model->config().max_trajectory_tokens) {
      if (!replay.ReplayDecode(request.trajectory,
                               picked[i]->response.trace_id)) {
        ++mismatched;
      }
    }
  }
  replay.ReplayBatched();
  replay.AddMetrics(result);
  std::printf("replay: %lld requests through tokenizer/backbone/heads, "
              "%lld mismatches\n",
              static_cast<long long>(replayed),
              static_cast<long long>(mismatched));
  if (replayed == 0) result->Fail("replay had no requests");
  if (mismatched > 0) result->Fail("replay differs from the model entry point");
}

// --- Workloads ----------------------------------------------------------------

/// Server options shared by the serving workloads: 2 workers, each with
/// its own replica, on 1 kernel thread (set through the model config).
ServeOptions BaseServeOptions() {
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 256;
  return options;
}

void AddHealthMetrics(const Phase& phase, Result* result) {
  result->Add("gen.lag_ms.p99", Percentile(phase.Lags(), 0.99), "ms");
  result->Add("gen.backlog", phase.backlog, "count");
}

/// trace.overhead_frac: how much worse the traced phase's primary metric
/// reads than the untraced phase's (negative when it reads better).
void AddTraceOverhead(double untraced, double traced, bool lower_is_better,
                      Result* result) {
  const double frac = lower_is_better ? Ratio(traced - untraced, untraced)
                                      : Ratio(untraced - traced, untraced);
  result->Add("trace.overhead_frac", frac, "fraction");
}

void ArmStall(const Args& args) {
  if (args.stall_ms <= 0) return;
  bigcity::util::FaultInjection::Arm(bigcity::util::kFaultServeWorkerStall,
                                     /*skip=*/0, /*count=*/INT_MAX,
                                     args.stall_ms);
  std::printf("armed %s: %d ms per request or batch\n",
              bigcity::util::kFaultServeWorkerStall, args.stall_ms);
}

/// A started server, its dataset, and the reference model whose weights
/// every replica copies (the output check's direct-call model).
struct ServeFixture {
  std::unique_ptr<CityDataset> dataset;
  std::unique_ptr<BigCityModel> reference;
  std::unique_ptr<InferenceServer> server;

  /// Replaces the server with a fresh one (cold caches, same weights).
  void StartServer(const BigCityConfig& config, const ServeOptions& options) {
    server.reset();
    server = std::make_unique<InferenceServer>(dataset.get(), config, options,
                                               reference.get());
    if (auto s = server->Start(); !s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }

  /// Builds everything from scratch `count` times: dataset generation,
  /// model construction, server Start. Keeps the last; appends each time.
  void SetUp(const CityDatasetConfig& city, const BigCityConfig& config,
             const ServeOptions& options, int count,
             std::vector<double>* times) {
    for (int i = 0; i < count; ++i) {
      server.reset();
      reference.reset();
      dataset.reset();
      const Clock::time_point t0 = Clock::now();
      dataset = std::make_unique<CityDataset>(city);
      reference = std::make_unique<BigCityModel>(dataset.get(), config);
      StartServer(config, options);
      times->push_back(SecondsBetween(t0, Clock::now()));
    }
  }
};

/// setup_s: the median of nine set-ups, five before the measured phase
/// and four on a scratch fixture after it, so a burst of host noise at
/// start-up moves a minority of them.
constexpr int kSetUpsBefore = 5;
constexpr int kSetUpsAfter = 4;

double SetUpSeconds(const CityDatasetConfig& city, const BigCityConfig& config,
                    const ServeOptions& options, std::vector<double> times) {
  ServeFixture scratch;
  scratch.SetUp(city, config, options, kSetUpsAfter, &times);
  scratch.server->Stop();
  std::printf("set-ups (s):");
  for (double t : times) std::printf(" %.3f", t);
  std::printf("\n");
  return Median(times);
}

/// Output check of the measured phase (and the traced one, if any); fills
/// attempted and failed from the measured phase.
void CheckServePhases(const Phase& phase, const Phase* traced,
                      BigCityModel* reference, Result* result) {
  int64_t checked = 0;
  int64_t mismatches = CheckOutputs(phase, reference, &checked);
  if (traced != nullptr) {
    mismatches += CheckOutputs(*traced, reference, &checked);
  }
  std::printf("output check: %lld of %lld sampled answers differ from the "
              "direct model call\n",
              static_cast<long long>(mismatches),
              static_cast<long long>(checked));
  if (checked == 0) result->Fail("no answers were output-checked");
  result->attempted = phase.attempted();
  result->failed = phase.attempted() - phase.ok() + mismatches;
}

// walk_decode: closed-loop autoregressive next-hop decoding on the XA bench
// city with the serve-scale backbone. Loads the backbone GEMMs, the
// batcher and the KV session store; the tokenizer rep cache holds every
// slice, so tokenization does almost nothing.
Result WalkDecode(const Args& args, Tracer* tracer) {
  constexpr int kSessions = 16;
  Result result;
  const BigCityConfig config = ServeScaleModel();
  ServeOptions options = BaseServeOptions();
  options.kv_sessions = kSessions;  // Store capacity kv_sessions * workers.
  options.tokenizer_cache_slices = 128;  // Every slice of the city.
  ServeFixture fixture;
  std::vector<double> setups;
  fixture.SetUp(XaBenchCity(), config, options, kSetUpsBefore, &setups);
  const CityDataset* dataset = fixture.dataset.get();
  InferenceServer* server = fixture.server.get();
  std::vector<Trajectory> pool = dataset->train();
  pool.insert(pool.end(), dataset->val().begin(), dataset->val().end());
  pool.insert(pool.end(), dataset->test().begin(), dataset->test().end());
  WalkLoad load(&pool, kSessions, config.max_trajectory_tokens, args.seed);
  Tracer off(false);
  load.Run(server, 1.0, 0, &off);  // Warm-up: plans, caches, KV.
  ArmStall(args);
  constexpr int kCheckEvery = 100;
  Phase phase = load.Run(server, args.seconds, kCheckEvery, &off);
  const double peak_rss_mb = PeakRssMb();
  PrintPhase("walk_decode", phase);
  Phase traced;
  if (args.trace) {
    traced = load.Run(server, args.seconds, kCheckEvery, tracer);
    PrintPhase("walk_decode traced", traced);
  }
  bigcity::util::FaultInjection::DisarmAll();
  server->Stop();
  CheckServePhases(phase, args.trace ? &traced : nullptr,
                   fixture.reference.get(), &result);
  FailIfInvalid(phase, &result);
  if (args.trace) FailIfInvalid(traced, &result);

  const double rps = phase.ok() / phase.seconds;
  if (!args.trace) {
    result.Add("setup_s",
               SetUpSeconds(XaBenchCity(), config, options, setups), "s");
    double window_rps = 0;
    if (!AddLatencyMetrics(phase, args.seconds, &result, &window_rps)) {
      std::exit(1);
    }
    result.Add("throughput_rps", window_rps, "req/s");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }
  AddServeLayerMetrics(traced, &result);
  AddHealthMetrics(traced, &result);
  AddTraceOverhead(rps, traced.ok() / traced.seconds, false, &result);
  BigCityModel replay_model(dataset, config);
  ReplayPhase(traced, &replay_model, tracer, 48, &result);
  result.Add("plan.arena_mb", PlanArenaMb(), "MB");
  return result;
}

/// city_mix's nominal offered rate (req/s), well below the knee.
constexpr double kMixNominal = 400;
constexpr double kMixPace = 10.0;  // Simulated slices per second.

/// The sustained-rate search. An overload probe at kMixTop req/s measures
/// the rate the server serves when saturated; the search starts just below
/// it and steps the offered rate by kMixStep (5%) up while the SLO is
/// met, or down until it is. Once a met and a missed rate are one step
/// apart, one bisection probe halves the gap, so the reported rate lies
/// within 2.5% below the knee. city_mix reports it as throughput_rps.
constexpr double kMixTop = 4800;
constexpr double kTopSeconds = 1.5;
constexpr double kMixStep = 1.05;
constexpr double kMixResolution = 1.025;
constexpr double kProbeSeconds = 3.0;
constexpr int kMaxSearchProbes = 7;

/// The highest offered rate that meets the server's SLO times its share
/// of full answers, or 0 when none does. `probe(rate, seconds)` runs one
/// phase on a fresh server; `nominal` is the measured phase at
/// kMixNominal.
template <typename Probe>
double SustainedRate(const Probe& probe, const Phase& nominal,
                     const ServeOptions& options) {
  const Phase top = probe(kMixTop, kTopSeconds);
  PrintPhase("probe top", top);
  if (MeetsSlo(top, options)) {
    std::printf("sustained rate: at least the top probe's\n");
    return top.ok() / top.seconds;
  }
  const double saturated = top.ok() / top.seconds;
  double passed = 0, failed = kMixTop, best = 0;
  if (MeetsSlo(nominal, options)) {
    passed = kMixNominal;
    best = kMixNominal * Ratio(static_cast<double>(nominal.ok()),
                               static_cast<double>(nominal.attempted()));
  }
  double rate = 0.9 * saturated;
  if (rate <= passed) rate = passed * kMixStep;
  if (rate >= failed) rate = failed / kMixStep;
  for (int i = 0; i < kMaxSearchProbes; ++i) {
    const Phase phase = probe(rate, kProbeSeconds);
    char name[48];
    std::snprintf(name, sizeof(name), "probe %.0f", rate);
    PrintPhase(name, phase);
    const bool met = MeetsSlo(phase, options);
    if (met) {
      passed = rate;
      // The offered rate times the success share: the phase's own
      // ok/seconds would also count its Poisson count and drain time.
      best = rate * Ratio(static_cast<double>(phase.ok()),
                          static_cast<double>(phase.attempted()));
    } else {
      failed = rate;
    }
    if (passed > 0 && failed / passed <= kMixResolution) break;
    const bool bracketed = passed > 0 && failed / passed <= kMixStep * 1.001;
    rate = bracketed ? std::sqrt(passed * failed)
           : met     ? rate * kMixStep
                     : rate / kMixStep;
  }
  std::printf("sustained rate: saturated %.0f req/s; SLO met at %.0f, "
              "missed at %.0f (ratio %.3f)\n",
              saturated, passed, failed, failed / std::max(passed, 1e-9));
  return best;
}

// city_mix: open-loop Poisson arrivals of all eight tasks on a 906-segment
// city. Loads cold-slice tokenization (the O(N^2) fusion) and the shared
// rep cache; bypasses the KV store and mostly the batcher.
Result CityMix(const Args& args, Tracer* tracer) {
  Result result;
  const BigCityConfig config = DefaultModel(1);
  const ServeOptions options = BaseServeOptions();
  ServeFixture fixture;
  std::vector<double> setups;
  fixture.SetUp(MixCity(), config, options, kSetUpsBefore, &setups);
  CityMixGenerator generator(fixture.dataset.get(), fixture.reference.get(),
                             args.seed);
  constexpr double kWarmup = 1.0;
  constexpr int kCheckEvery = 25;
  const int first_now = generator.min_now();
  const int measured_now = first_now + static_cast<int>(kWarmup * kMixPace);
  Tracer off(false);
  // One phase on a fresh server (cold caches): a warm-up at the nominal
  // rate, so an overloaded phase starts with an empty queue, then the
  // measured part at the phase's rate, with now advancing across both.
  auto measure = [&](double rate, double seconds, int check_every,
                     Tracer* spans) {
    fixture.StartServer(config, options);
    RunOpenLoop(fixture.server.get(),
                generator.Schedule(kMixNominal, kWarmup, first_now, kMixPace),
                kWarmup, 0, &off);
    return RunOpenLoop(
        fixture.server.get(),
        generator.Schedule(rate, seconds, measured_now, kMixPace), seconds,
        check_every, spans);
  };
  ArmStall(args);
  Phase phase = measure(kMixNominal, args.seconds, kCheckEvery, &off);
  // After the measured phase, before the search's overloaded probes, whose
  // backlogs make the peak depend on how far each one overshot.
  const double peak_rss_mb = PeakRssMb();
  PrintPhase("city_mix nominal", phase);
  Phase traced;
  if (args.trace) {
    traced = measure(kMixNominal, args.seconds, kCheckEvery, tracer);
    PrintPhase("city_mix traced", traced);
  }
  double sustained = 0;
  if (!args.trace) {
    sustained = SustainedRate(
        [&](double rate, double seconds) {
          return measure(rate, seconds, 0, &off);
        },
        phase, options);
  }
  bigcity::util::FaultInjection::DisarmAll();
  fixture.server->Stop();
  CheckServePhases(phase, args.trace ? &traced : nullptr,
                   fixture.reference.get(), &result);
  FailIfInvalid(phase, &result);
  if (args.trace) FailIfInvalid(traced, &result);
  if (!args.trace && sustained == 0) result.Fail("no offered rate met the SLO");

  if (!args.trace) {
    result.Add("setup_s", SetUpSeconds(MixCity(), config, options, setups),
               "s");
    double offered_rps = 0;  // The nominal rate: not a measure of speed.
    if (!AddLatencyMetrics(phase, args.seconds, &result, &offered_rps)) {
      std::exit(1);
    }
    result.Add("throughput_rps", sustained, "req/s");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }
  AddServeLayerMetrics(traced, &result);
  AddHealthMetrics(traced, &result);
  AddTraceOverhead(Percentile(phase.OkLatencies(), 0.5),
                   Percentile(traced.OkLatencies(), 0.5), true, &result);
  BigCityModel replay_model(fixture.dataset.get(), config);
  ReplayPhase(traced, &replay_model, tracer, 64, &result);
  result.Add("plan.arena_mb", PlanArenaMb(), "MB");
  return result;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT — one entry point.
  const Args args = ParseArgs(argc, argv);
  bigcity::util::SetLogLevel(bigcity::util::LogLevel::kWarning);
  PrintHostStamp(args);
  Tracer tracer(args.trace);
  Result result;
  if (args.workload == "walk_decode") {
    result = WalkDecode(args, &tracer);
  } else if (args.workload == "city_mix") {
    result = CityMix(args, &tracer);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace && !args.trace_out.empty() &&
      !tracer.WriteJson(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  PrintResult(result);
  return 0;
}
