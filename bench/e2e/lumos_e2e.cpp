// lumos_e2e — the open-loop end-to-end serving benchmark driver.
//
// One process runs one workload (a traffic mix plus a server configuration)
// against a real serve::Server and reports what a 5G-aware app would see:
// how quickly a prediction comes back under real arrival patterns, and how
// many predictions the box can serve. bench/e2e/README.md defines every
// workload and metric; run.py builds this file and runs it.
//
// Phases, all driven from one thread (the thread pool's caller):
//   setup     training campaign, T+M+C training, compile, artifact save,
//             server construction and session warm-up, repeated
//             kSetupReps times; setup_s is the median repetition.
//   open      arrivals from a schedule generated before timing starts.
//             Latency runs from each request's due time to the return of
//             the poll that answered it, so a stall delays every request
//             due behind it (no coordinated omission).
//   capacity  closed loop with max_batch requests outstanding at the pool
//             size; traced runs then repeat it at pool size 1 on a
//             freshly constructed server.
// The server runs on a ManualClock that the driver advances to the real
// elapsed milliseconds before every submit and poll, so the server sees
// real time and the driver knows exactly which `now` each poll used.
//
// Every submit and response is logged. After the phases a shadow of the
// server's session rules replays the logs and checks exactly-once
// accounting, the deadline and tier-floor decisions, and a 1-in-16 sample
// of predictions bit for bit against a second compiled predictor. Any
// mismatch exits 1 before a metric is printed. The driver times only calls
// into the layers' public functions, from outside.
//
// Usage: lumos_e2e --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
// Prints "workload metric value unit" lines, then one JSON object as the
// last line: the end-to-end metrics untraced, the per-layer ones with
// --trace 1 (which also writes DIR/trace-NAME.json).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/lumos5g.h"
#include "data/column_store.h"
#include "data/features.h"
#include "serve/flat_model.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace {

using namespace lumos;

constexpr double kSloMs = 10.0;         // 1% of the paper's 1 s prediction slot
constexpr std::uint64_t kSampleEvery = 16;  // tickets checked and traced
constexpr int kSetupReps = 3;
constexpr std::size_t kWarmSamples = 8;  // per UE, enough for the C lags
constexpr std::size_t kMaxThreads = 4;
constexpr std::size_t kCapacityPicks = std::size_t{1} << 21;
constexpr std::size_t kMaxReplayPolls = 4000;
constexpr std::size_t kMaxSpans = std::size_t{1} << 21;
constexpr std::size_t kReloadProbes = 3;
constexpr std::uint64_t kTrainSeed = 13;
constexpr std::int64_t kMsNs = 1'000'000;
constexpr std::int64_t kSecondNs = 1'000'000'000;
constexpr std::int64_t kCapacityWindowNs = kSecondNs / 4;
constexpr std::int64_t kLatencyWindowNs = kSecondNs;
constexpr double kMaxGenLagMs = 1.0;
constexpr std::uint32_t kNoTruth = std::numeric_limits<std::uint32_t>::max();

constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInvalid = 3;

std::int64_t g_epoch_ns = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Advances the server's clock to the real milliseconds elapsed since the
/// process started.
void sync_clock(ManualClock& clock, std::int64_t t_ns) {
  const auto ms = static_cast<std::uint64_t>((t_ns - g_epoch_ns) / kMsNs);
  const std::uint64_t cur = clock.now_ms();
  if (ms > cur) clock.advance_ms(ms - cur);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Capacity: the best window. Interference from the rest of the host only
/// ever slows a window down, so the best one is the steadiest estimate.
double best(const std::vector<double>& v) { return quantile(v, 1.0); }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t n_ues = 4096;
  double rate_rps = 0.0;  ///< Poisson arrivals
  bool warm = true;       ///< kWarmSamples per UE before timing
  std::int64_t reload_every_ns = 0;
  serve::ServerConfig cfg;
};

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.cfg.queue_capacity = 4096;
  w.cfg.max_batch = 64;
  w.cfg.max_sessions = 8192;
  if (name == "steady") {
    w.rate_rps = 40'000;
    // The deployment refreshes its model while serving: each reload
    // blocks the serving thread, so reload-path gains move slo_attainment
    // while model-path gains move capacity.
    w.reload_every_ns = 2 * kSecondNs;
  } else if (name == "churn") {
    w.n_ues = 65536;
    w.rate_rps = 700;
    w.warm = false;
    // The open loop keeps ≈2700 sessions alive within the TTL, so they
    // leave by TTL; the capacity phase creates sessions far faster than
    // max_sessions per TTL (1024 req/s), so every first contact evicts the
    // LRU victim. The shadow checks both rules. A capacity phase whose
    // rate nears max_sessions per TTL flips into a TTL-bound regime with
    // no LRU scans, so that rate sits far below the capacity of even a
    // slow host.
    w.cfg.max_sessions = 4096;
    w.cfg.session_ttl_ms = 4'000;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Inputs: the live campaign, per-UE replay and the schedules (all seeded)
// ---------------------------------------------------------------------------

/// The seed's own measurement campaign, separate from the training one:
/// 96 runs, enough that the prediction error barely depends on the seed.
/// Loop runs have no panel geometry, so their UEs fall to L+M+C by
/// themselves: the tier mix comes from the data.
data::Dataset live_campaign(Rng& rng) {
  data::Dataset ds = sim::collect_area_dataset(sim::make_airport(), 16, 0,
                                               rng.next_u64());
  ds.append_all(sim::collect_area_dataset(sim::make_intersection(), 4, 0,
                                          rng.next_u64()));
  ds.append_all(
      sim::collect_area_dataset(sim::make_loop(), 4, 4, rng.next_u64()));
  return ds;
}

/// One request's input: the UE, the sample it submits and the sample one
/// second later (the ground truth of its prediction).
struct Pick {
  std::uint32_t ue = 0;
  std::uint32_t sample = 0;
  std::uint32_t truth = kNoTruth;  ///< none where the replay wraps around
};

/// Each UE replays one run of the live campaign from its own offset.
class Replayer {
 public:
  Replayer(const data::Dataset& live, std::size_t n_ues, Rng& rng)
      : runs_(live.runs()), run_of_(n_ues), pos_(n_ues) {
    for (std::size_t u = 0; u < n_ues; ++u) {
      run_of_[u] = static_cast<std::uint32_t>(rng.uniform_int(runs_.size()));
      pos_[u] = rng.uniform_int(runs_[run_of_[u]].size());
    }
  }

  Pick next(std::uint32_t ue) {
    const auto& run = runs_[run_of_[ue]];
    const std::size_t k = pos_[ue]++ % run.size();
    return {ue, static_cast<std::uint32_t>(run[k]),
            k + 1 < run.size() ? static_cast<std::uint32_t>(run[k + 1])
                               : kNoTruth};
  }

  std::size_t n_ues() const noexcept { return run_of_.size(); }

 private:
  std::vector<std::vector<std::size_t>> runs_;
  std::vector<std::uint32_t> run_of_;
  std::vector<std::uint64_t> pos_;
};

/// What one phase submits: picks in submission order, plus each one's due
/// time (ns after the phase starts) in the open loop.
struct Schedule {
  std::vector<Pick> picks;
  std::vector<std::int64_t> due_ns;
};

Schedule warm_schedule(const Workload& w, Replayer& rp) {
  Schedule s;
  if (!w.warm) return s;
  s.picks.reserve(kWarmSamples * rp.n_ues());
  for (std::size_t round = 0; round < kWarmSamples; ++round) {
    for (std::size_t u = 0; u < rp.n_ues(); ++u) {
      s.picks.push_back(rp.next(static_cast<std::uint32_t>(u)));
    }
  }
  return s;
}

Schedule open_schedule(const Workload& w, std::int64_t duration_ns,
                       Rng& rng, Replayer& rp) {
  Schedule s;
  // Poisson arrivals.
  for (double t = 0.0;;) {
    t += rng.exponential(w.rate_rps) * static_cast<double>(kSecondNs);
    if (t >= static_cast<double>(duration_ns)) break;
    s.due_ns.push_back(static_cast<std::int64_t>(t));
  }
  // UEs are drawn in due order, so each UE's samples arrive in replay order.
  s.picks.reserve(s.due_ns.size());
  for (std::size_t i = 0; i < s.due_ns.size(); ++i) {
    s.picks.push_back(
        rp.next(static_cast<std::uint32_t>(rng.uniform_int(rp.n_ues()))));
  }
  return s;
}

/// Closed-loop picks; a phase that outruns them wraps around.
Schedule closed_schedule(Rng& rng, Replayer& rp) {
  Schedule s;
  s.picks.reserve(kCapacityPicks);
  for (std::size_t i = 0; i < kCapacityPicks; ++i) {
    s.picks.push_back(
        rp.next(static_cast<std::uint32_t>(rng.uniform_int(rp.n_ues()))));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Trace: spans in a preallocated vector, written out when the run ends
// ---------------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kSetup,
  kCampaign,
  kTrain,
  kCompile,
  kSave,
  kConstruct,
  kPhase,
  kSubmit,
  kPoll,
  kReload,
  kRequest,
  kReplayFeatures,
  kReplayWalk,
  kReplayPredict,
};

constexpr const char* kSpanNames[] = {
    "setup",
    "sim.collect_area_dataset",
    "core.Lumos5G.train",
    "serve.Predictor.compile",
    "serve.save_bytes",
    "serve.Server.construct",
    "phase",
    "serve.Server.submit",
    "serve.Server.poll",
    "serve.Server.reload_bytes",
    "request",
    "data.feature_row_into",
    "serve.FlatForest.predict_columnar",
    "serve.Predictor.predict_spans_columnar",
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t ticket = 0;  ///< request ticket, 0 when none
  std::uint32_t parent = 0;  ///< span id, 0 = root
  std::uint32_t items = 0;   ///< requests or rows the call handled
  SpanKind kind = SpanKind::kSetup;
  const char* label = "";    ///< phase name for kPhase spans
};

class Trace {
 public:
  explicit Trace(bool on) : on_(on) {
    if (on_) spans_.reserve(kMaxSpans);
  }

  bool on() const noexcept { return on_; }

  /// Records a span and returns its id (1-based; 0 when tracing is off or
  /// the preallocated buffer is full — the buffer never grows mid-run).
  std::uint32_t add(SpanKind kind, std::int64_t start, std::int64_t end,
                    std::uint32_t parent = 0, std::uint64_t ticket = 0,
                    std::uint32_t items = 0, const char* label = "") {
    if (!on_) return 0;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({start, end, ticket, parent, items, kind, label});
    return static_cast<std::uint32_t>(spans_.size());
  }

  void set_end(std::uint32_t id, std::int64_t end) {
    if (id != 0) spans_[id - 1].end_ns = end;
  }

  const Span& operator[](std::uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Durations (ns) of the spans of `kind`, optionally only the children
  /// of `parent`.
  std::vector<double> durations(
      SpanKind kind, std::optional<std::uint32_t> parent = {}) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.kind == kind && (!parent || s.parent == *parent)) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  bool write(const std::filesystem::path& path, const std::string& workload,
             std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"time\": \"ns since "
                 "process start (steady_clock)\", \"dropped\": %zu,\n"
                 "\"spans\": [\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 dropped_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"label\": \"%s\", "
                   "\"start\": %lld, \"end\": %lld, \"parent\": %u, "
                   "\"ticket\": %llu, \"items\": %u}%s\n",
                   i + 1, kSpanNames[static_cast<std::size_t>(s.kind)],
                   s.label, static_cast<long long>(s.start_ns - g_epoch_ns),
                   static_cast<long long>(s.end_ns - g_epoch_ns), s.parent,
                   static_cast<unsigned long long>(s.ticket), s.items,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Phase logs and the loops that fill them
// ---------------------------------------------------------------------------

enum Status : std::uint8_t { kServed = 0, kExpired = 1, kFailed = 2 };

struct Sent {  ///< one accepted request, in submission order
  std::uint64_t ticket = 0;
  std::uint64_t enqueued_ms = 0;
  std::uint32_t pick = 0;
};

struct Answer {  ///< one response, in response order
  std::uint64_t ticket = 0;
  double mbps = 0.0;
  std::uint8_t status = kServed;
  std::uint8_t tier = 0;
  std::uint8_t min_tier = 0;
  std::uint8_t cls = 0;
};

struct PollRec {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t now_ms = 0;
  std::uint32_t depth = 0;  ///< queue depth the poll started from
  std::uint32_t first = 0;  ///< first Answer index
  std::uint32_t n = 0;
  std::uint32_t span = 0;
};

struct Phase {
  const char* name = "";  ///< a literal: trace spans keep the pointer
  const Schedule* schedule = nullptr;
  std::vector<Sent> sent;
  std::vector<Answer> answers;
  std::vector<PollRec> polls;
  std::vector<double> gen_lag_ms;       ///< open loop, every submit
  std::vector<double> window_rps;       ///< closed loop, served per window
  std::vector<double> traced_window_rps;  ///< closed loop, traced windows
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;
  std::uint64_t behind = 0;  ///< open-loop submits leaving > max_batch queued
  std::int64_t t_begin = 0;
  std::int64_t t_end = 0;
  std::uint32_t span = 0;
  serve::ServerStats before;
  serve::ServerStats after;
};

/// Everything the loops share: the server's clock, the live samples, the
/// reusable request and response buffers, the artifact and the trace.
struct Driver {
  const Workload& w;
  const data::Dataset& live;
  const std::string* artifact = nullptr;
  ManualClock clock;
  Trace trace;
  serve::Request req;
  std::vector<serve::Response> out;
  std::vector<std::string> errors;

  Driver(const Workload& wl, const data::Dataset& ds, bool traced)
      : w(wl), live(ds), trace(traced), out(wl.cfg.max_batch) {}

  void fail(std::string msg) {
    if (errors.size() < 8) errors.push_back(std::move(msg));
    else if (errors.size() == 8) errors.push_back("...");
  }

  void begin(Phase& ph, serve::Server& s, const char* name,
             const Schedule* schedule) {
    ph.name = name;
    ph.schedule = schedule;
    const std::size_t n = schedule != nullptr ? schedule->picks.size() : 0;
    ph.sent.reserve(n);
    ph.answers.reserve(n);
    ph.before = s.stats();
    ph.t_begin = now_ns();
    ph.span = trace.add(SpanKind::kPhase, ph.t_begin, ph.t_begin, 0, 0, 0,
                        ph.name);
  }

  void end(Phase& ph, serve::Server& s) {
    ph.t_end = now_ns();
    ph.after = s.stats();
    trace.set_end(ph.span, ph.t_end);
  }

  /// Submits pick `i` of the phase's schedule; returns when it started.
  std::int64_t submit(serve::Server& s, Phase& ph, std::uint32_t i,
                      bool traced) {
    const Pick& p = ph.schedule->picks[i];
    const std::int64_t t = now_ns();
    sync_clock(clock, t);
    req.ue_id = p.ue;
    req.sample = live[p.sample];
    const bool span = traced && ph.attempted % kSampleEvery == 0;
    const std::int64_t t0 = span ? now_ns() : 0;
    const auto r = s.submit(req);
    if (span) {
      trace.add(SpanKind::kSubmit, t0, now_ns(), ph.span, r ? *r : 0, 1);
    }
    ++ph.attempted;
    if (r) {
      ph.sent.push_back({*r, clock.now_ms(), i});
    } else if (r.error().code == ErrorCode::kOverloaded) {
      ++ph.shed;
    } else {
      fail("submit: unexpected " + r.error().describe());
    }
    return t;
  }

  std::size_t poll(serve::Server& s, Phase& ph, bool traced) {
    sync_clock(clock, now_ns());
    const std::size_t depth = s.queue_depth();
    const std::int64_t t0 = now_ns();
    const std::size_t n = s.poll(out);
    const std::int64_t t1 = now_ns();
    const std::uint64_t now_ms = clock.now_ms();
    ph.polls.push_back(
        {t0, t1, now_ms, static_cast<std::uint32_t>(depth),
         static_cast<std::uint32_t>(ph.answers.size()),
         static_cast<std::uint32_t>(n),
         traced ? trace.add(SpanKind::kPoll, t0, t1, ph.span, 0,
                            static_cast<std::uint32_t>(n))
                : 0});
    for (std::size_t i = 0; i < n; ++i) {
      const serve::Response& r = out[i];
      Answer a;
      a.ticket = r.ticket;
      a.min_tier = static_cast<std::uint8_t>(r.min_tier);
      if (r.result) {
        a.status = kServed;
        a.mbps = r.result->throughput_mbps;
        a.tier = static_cast<std::uint8_t>(r.result->tier);
        a.cls = static_cast<std::uint8_t>(r.result->throughput_class);
      } else {
        a.status = r.result.error().code == ErrorCode::kDeadlineExceeded
                       ? kExpired
                       : kFailed;
      }
      if (r.served_ms != now_ms) fail("poll: served_ms is not the poll's now");
      ph.answers.push_back(a);
    }
    return n;
  }

  void reload(serve::Server& s, Phase& ph) {
    sync_clock(clock, now_ns());
    const std::int64_t t0 = now_ns();
    const auto r = s.reload_bytes(*artifact);
    trace.add(SpanKind::kReload, t0, now_ns(), ph.span);
    if (!r) fail("reload_bytes: " + r.error().describe());
  }

  void drain(serve::Server& s, Phase& ph, bool traced) {
    while (s.queue_depth() > 0) poll(s, ph, traced);
  }

  /// Warm-up: submits the schedule in max_batch chunks, polling between.
  void run_warmup(serve::Server& s, Phase& ph) {
    const auto n = static_cast<std::uint32_t>(ph.schedule->picks.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      submit(s, ph, i, trace.on());
      if (s.queue_depth() >= w.cfg.max_batch) poll(s, ph, trace.on());
    }
    drain(s, ph, trace.on());
  }

  /// Open loop: submits every request once it is due, polls whenever the
  /// queue is non-empty, and spins while idle.
  void run_open(serve::Server& s, Phase& ph) {
    const auto& due = ph.schedule->due_ns;
    const auto n = static_cast<std::uint32_t>(due.size());
    const bool traced = trace.on();
    ph.gen_lag_ms.reserve(n);
    std::int64_t t_free = ph.t_begin;  // when the driver last left the server
    std::int64_t next_reload = w.reload_every_ns > 0
                                   ? ph.t_begin + w.reload_every_ns
                                   : std::numeric_limits<std::int64_t>::max();
    std::uint32_t next = 0;
    while (next < n || s.queue_depth() > 0) {
      std::int64_t t = now_ns();
      if (next < n && t >= next_reload) {
        reload(s, ph);
        next_reload += w.reload_every_ns;
        t_free = now_ns();
        continue;
      }
      while (next < n && ph.t_begin + due[next] <= t) {
        // A request that fell due while the driver was inside the server
        // is late because of the server, not the generator: the
        // generator's lag starts when the driver is free again.
        const std::int64_t due_abs = ph.t_begin + due[next];
        const std::int64_t started = submit(s, ph, next, traced);
        ph.gen_lag_ms.push_back(ns_to_ms(started - std::max(due_abs, t_free)));
        ph.behind += s.queue_depth() > w.cfg.max_batch ? 1 : 0;
        ++next;
        t = now_ns();
      }
      if (s.queue_depth() > 0) {
        poll(s, ph, traced);
        t_free = ph.polls.back().t1;
      }
    }
  }

  /// Closed loop: keeps max_batch requests outstanding for `duration`.
  /// With `alternate` (traced runs) only odd windows record spans, so the
  /// trace's own cost reads off as traced / untraced capacity.
  void run_closed(serve::Server& s, Phase& ph, std::int64_t duration,
                  bool alternate) {
    const std::int64_t end = ph.t_begin + duration;
    std::int64_t next_reload = w.reload_every_ns > 0
                                   ? ph.t_begin + w.reload_every_ns
                                   : std::numeric_limits<std::int64_t>::max();
    const std::size_t n_picks = ph.schedule->picks.size();
    std::size_t k = 0;
    for (;;) {
      const std::int64_t t = now_ns();
      if (t >= end) break;
      if (t >= next_reload) {
        reload(s, ph);
        next_reload += w.reload_every_ns;
        continue;
      }
      const auto window = static_cast<std::size_t>((t - ph.t_begin) /
                                                   kCapacityWindowNs);
      const bool traced = trace.on() && (!alternate || window % 2 == 1);
      while (s.queue_depth() < w.cfg.max_batch) {
        submit(s, ph, static_cast<std::uint32_t>(k++ % n_picks), traced);
      }
      poll(s, ph, traced);
    }
    drain(s, ph, false);
    window_rates(ph, end, alternate);
  }

  /// Predictions served per second in each kCapacityWindowNs window of a
  /// closed-loop phase. A window holds the polls that ended in it, and its
  /// rate runs between the ends of the last polls of it and of the window
  /// before: polls finish max_batch requests at a time, so counting whole
  /// polls per fixed interval would quantize a slow server's rate. The
  /// first third of the windows is warm-in and counts for nothing: a fresh
  /// churn server answers fast until its sessions reach capacity.
  static void window_rates(Phase& ph, std::int64_t end, bool alternate) {
    const auto n_windows =
        static_cast<std::size_t>((end - ph.t_begin) / kCapacityWindowNs);
    std::vector<std::uint64_t> served(n_windows, 0);
    std::vector<std::int64_t> last_end(n_windows, 0);
    for (const PollRec& p : ph.polls) {
      const auto w = static_cast<std::size_t>((p.t1 - ph.t_begin) /
                                              kCapacityWindowNs);
      if (w >= n_windows) break;  // the phase's partial last window, if any
      for (std::uint32_t j = p.first; j < p.first + p.n; ++j) {
        served[w] += ph.answers[j].status == kServed ? 1 : 0;
      }
      last_end[w] = p.t1;
    }
    std::int64_t prev_end = ph.t_begin;
    for (std::size_t i = 0; i < n_windows; ++i) {
      if (last_end[i] == 0) continue;
      const double rps = static_cast<double>(served[i]) * 1e9 /
                         static_cast<double>(last_end[i] - prev_end);
      prev_end = last_end[i];
      if (i < n_windows / 3) continue;
      if (alternate && i % 2 == 1) {
        ph.traced_window_rps.push_back(rps);
      } else {
        ph.window_rps.push_back(rps);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// The shadow: the server's session rules, replayed in response order
// ---------------------------------------------------------------------------

class Shadow {
 public:
  Shadow(std::size_t n_ues, const serve::ServerConfig& cfg)
      : cap_(cfg.session_capacity),
        max_sessions_(cfg.max_sessions),
        ttl_ms_(cfg.session_ttl_ms),
        ue_(n_ues),
        ring_(n_ues * cfg.session_capacity) {}

  /// A live (unexpired) request: touch the UE's session — creating it and
  /// evicting the globally least recently used one at capacity — then
  /// observe its sample, dropping the oldest past session_capacity.
  void touch(std::uint32_t ue, std::uint32_t sample, std::uint64_t now) {
    UeState& s = ue_[ue];
    if (s.seq == 0) {
      if (lru_.size() >= max_sessions_) {
        evict(lru_.begin());
        ++evicted_lru;
      }
      s.head = 0;
      s.size = 0;
    } else {
      lru_.erase(s.seq);
    }
    s.seq = ++use_seq_;
    s.last_ms = now;
    lru_.emplace(s.seq, ue);
    if (s.size == cap_) {
      s.head = (s.head + 1) % cap_;
      --s.size;
    }
    ring_[ue * cap_ + (s.head + s.size) % cap_] = sample;
    ++s.size;
  }

  /// The TTL sweep each poll ends with. The clock only moves forward, so
  /// use order is also idle-time order and the sweep pops from the front.
  void sweep(std::uint64_t now) {
    if (ttl_ms_ == 0) return;
    while (!lru_.empty() && ue_[lru_.begin()->second].last_ms + ttl_ms_ < now) {
      evict(lru_.begin());
      ++evicted_ttl;
    }
  }

  void window(std::uint32_t ue, const data::Dataset& live,
              std::vector<data::SampleRecord>& out) const {
    const UeState& s = ue_[ue];
    out.clear();
    for (std::size_t i = 0; i < s.size; ++i) {
      out.push_back(live[ring_[ue * cap_ + (s.head + i) % cap_]]);
    }
  }

  std::uint64_t evicted_lru = 0;
  std::uint64_t evicted_ttl = 0;

 private:
  struct UeState {
    std::uint64_t seq = 0;  ///< last use; 0 = no session
    std::uint64_t last_ms = 0;
    std::size_t head = 0;
    std::size_t size = 0;
  };

  void evict(std::map<std::uint64_t, std::uint32_t>::iterator it) {
    ue_[it->second].seq = 0;
    lru_.erase(it);
  }

  std::size_t cap_;
  std::size_t max_sessions_;
  std::uint64_t ttl_ms_;
  std::vector<UeState> ue_;
  std::vector<std::uint32_t> ring_;
  std::map<std::uint64_t, std::uint32_t> lru_;  ///< use seq -> UE
  std::uint64_t use_seq_ = 0;
};

bool same_prediction(const Answer& a, const Expected<core::Prediction>& p) {
  return a.status == kServed && p.has_value() &&
         std::bit_cast<std::uint64_t>(a.mbps) ==
             std::bit_cast<std::uint64_t>(p->throughput_mbps) &&
         a.tier == p->tier && a.cls == p->throughput_class;
}

/// Open-loop results, gathered while the shadow walks the log.
struct OpenResult {
  std::vector<double> latency_ms;  ///< due -> answer, served requests
  std::map<std::int64_t, std::vector<double>> latency_by_window;
  std::uint64_t within_slo = 0;
  double abs_err_sum = 0.0;
  std::uint64_t abs_err_n = 0;
  std::vector<std::uint64_t> served_by_tier;
};

/// The model path the traced run replays each sampled poll batch through,
/// outside the server.
struct ReplayKit {
  const core::Lumos5G& facade;
  const serve::Predictor& ref;
  std::vector<serve::FlatForest> flat;  ///< per trained tier
  serve::PredictScratch scratch;
  data::ColumnStore cols;
  std::vector<std::vector<double>> rows;
  std::vector<double> walk_out;
  std::vector<Expected<core::Prediction>> out;

  ReplayKit(const core::Lumos5G& f, const serve::Predictor& p,
            std::size_t max_batch)
      : facade(f),
        ref(p),
        flat(f.tier_specs().size()),
        walk_out(max_batch),
        out(max_batch, Expected<core::Prediction>(
                           Error{ErrorCode::kWindowUnusable, ""})) {
    for (std::size_t t = 0; t < flat.size(); ++t) {
      if (f.tier_trained(t)) {
        flat[t] = serve::FlatForest::flatten(f.tier_regressor(t));
      }
    }
    scratch.reserve(max_batch, p.max_width());
    cols.reshape(max_batch, p.max_width());
    rows.assign(max_batch, std::vector<double>(p.max_width()));
  }
};

/// Replays one poll's batch outside the server, with the same windows and
/// tier floor, through the public model path; spans go under the poll's.
void replay_batch(Driver& d, ReplayKit& kit, const char* phase,
                  const PollRec& poll,
                  const std::vector<std::vector<data::SampleRecord>>& windows,
                  const std::vector<const Answer*>& answers) {
  const std::size_t n = windows.size();
  const std::vector<std::span<const data::SampleRecord>> spans(
      windows.begin(), windows.end());
  std::int64_t t0 = now_ns();
  kit.ref.predict_spans_columnar(spans, std::span{kit.out.data(), n},
                                 kit.scratch, answers[0]->min_tier);
  d.trace.add(SpanKind::kReplayPredict, t0, now_ns(), poll.span, 0,
              static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (answers[i]->status == kServed &&
        !same_prediction(*answers[i], kit.out[i])) {
      d.fail(std::string(phase) + ": replayed batch differs from the server");
    }
  }
  // Per answering model tier: its feature rows, then its columnar walk.
  const data::FeatureConfig& fcfg = kit.facade.config().features;
  for (std::size_t t = 0; t < kit.flat.size(); ++t) {
    const data::FeatureSetSpec& spec = kit.facade.tier_specs()[t];
    const std::size_t width = data::feature_width(spec, fcfg);
    std::size_t m = 0;
    t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (answers[i]->status != kServed || answers[i]->tier != t) continue;
      if (!data::feature_row_into(windows[i], spec, fcfg,
                                  std::span{kit.rows[m].data(), width})) {
        d.fail(std::string(phase) +
               ": the answering tier cannot extract its features");
      }
      ++m;
    }
    const std::int64_t t1 = now_ns();
    if (m == 0) continue;
    d.trace.add(SpanKind::kReplayFeatures, t0, t1, poll.span, 0,
                static_cast<std::uint32_t>(m));
    for (std::size_t i = 0; i < m; ++i) {
      kit.cols.put_row(i, std::span{kit.rows[i].data(), width});
    }
    t0 = now_ns();
    kit.flat[t].predict_columnar(kit.cols.block(0, m),
                                 std::span{kit.walk_out.data(), m});
    d.trace.add(SpanKind::kReplayWalk, t0, now_ns(), poll.span, 0,
                static_cast<std::uint32_t>(m));
  }
}

/// Walks one server's phases in order through the shadow, checking every
/// response; fills `open` for the open-loop phase and, when `kit` is set,
/// replays sampled open-loop batches through the model path.
void verify(Driver& d, const serve::Server& s, std::vector<Phase*> phases,
            const serve::Predictor& ref, OpenResult* open, ReplayKit* kit) {
  const serve::ServerConfig& cfg = s.config();
  Shadow shadow(d.w.n_ues, cfg);
  std::vector<data::SampleRecord> win;
  std::vector<std::vector<data::SampleRecord>> batch_windows;
  std::vector<const Answer*> batch_answers;
  const std::size_t n_tiers = ref.tier_specs().size();

  for (Phase* ph : phases) {
    const std::string phase = ph->name;
    const bool is_open = !ph->schedule->due_ns.empty();
    const std::uint64_t lru0 = shadow.evicted_lru;
    const std::uint64_t ttl0 = shadow.evicted_ttl;
    std::vector<std::uint8_t> answered(ph->sent.size(), 0);
    for (std::size_t i = 1; i < ph->sent.size(); ++i) {
      if (ph->sent[i].ticket <= ph->sent[i - 1].ticket) {
        d.fail(phase + ": tickets not increasing");
        break;
      }
    }
    if (open != nullptr && is_open) open->served_by_tier.assign(n_tiers + 1, 0);
    const std::size_t replay_stride =
        std::max<std::size_t>(1, ph->polls.size() / kMaxReplayPolls);

    for (std::size_t pi = 0; pi < ph->polls.size(); ++pi) {
      const PollRec& poll = ph->polls[pi];
      const bool replay = kit != nullptr && is_open && pi % replay_stride == 0;
      batch_windows.clear();
      batch_answers.clear();
      const std::size_t expect_floor = s.min_tier_for_depth(poll.depth);
      for (std::uint32_t j = poll.first; j < poll.first + poll.n; ++j) {
        const Answer& a = ph->answers[j];
        const auto it = std::lower_bound(
            ph->sent.begin(), ph->sent.end(), a.ticket,
            [](const Sent& x, std::uint64_t t) { return x.ticket < t; });
        if (it == ph->sent.end() || it->ticket != a.ticket) {
          d.fail(phase + ": answer for a ticket never accepted");
          continue;
        }
        const auto si = static_cast<std::size_t>(it - ph->sent.begin());
        if (answered[si]++ != 0) {
          d.fail(phase + ": ticket answered twice");
          continue;
        }
        if (a.min_tier != expect_floor) {
          d.fail(phase + ": tier floor differs from the queue depth's");
        }
        const std::uint64_t budget = cfg.default_deadline_ms;
        const bool late = budget != 0 && poll.now_ms > it->enqueued_ms + budget;
        if ((a.status == kExpired) != late) {
          d.fail(phase + ": deadline decision differs from the rule");
        }
        const Pick& pick = ph->schedule->picks[it->pick];
        if (open != nullptr && is_open && a.status == kServed) {
          const std::int64_t due =
              ph->t_begin + ph->schedule->due_ns[it->pick];
          const double lat = ns_to_ms(poll.t1 - due);
          open->latency_ms.push_back(lat);
          open->latency_by_window[(due - ph->t_begin) / kLatencyWindowNs]
              .push_back(lat);
          open->within_slo += lat <= kSloMs ? 1 : 0;
          ++open->served_by_tier[std::min<std::size_t>(a.tier, n_tiers)];
          if (pick.truth != kNoTruth) {
            open->abs_err_sum +=
                std::abs(a.mbps - d.live[pick.truth].throughput_mbps);
            ++open->abs_err_n;
          }
          if (a.ticket % kSampleEvery == 0) {
            d.trace.add(SpanKind::kRequest, due, poll.t1, poll.span, a.ticket,
                        1);
          }
        }
        if (a.status == kExpired) continue;
        shadow.touch(pick.ue, pick.sample, poll.now_ms);
        const bool check = a.ticket % kSampleEvery == 0;
        if (check || replay) shadow.window(pick.ue, d.live, win);
        if (check && !same_prediction(a, ref.predict(win, a.min_tier))) {
          d.fail(phase + ": prediction for ticket " +
                 std::to_string(a.ticket) +
                 " differs from Predictor::predict on the shadow window");
        }
        if (replay) {
          batch_windows.push_back(win);
          batch_answers.push_back(&a);
        }
      }
      shadow.sweep(poll.now_ms);
      if (replay && !batch_windows.empty()) {
        replay_batch(d, *kit, ph->name, poll, batch_windows, batch_answers);
      }
    }

    // Exactly-once accounting and the server's own counters.
    for (std::size_t i = 0; i < answered.size(); ++i) {
      if (answered[i] == 0) {
        d.fail(phase + ": accepted ticket " +
               std::to_string(ph->sent[i].ticket) + " never answered");
        break;
      }
    }
    const serve::ServerStats& b = ph->before;
    const serve::ServerStats& e = ph->after;
    if (ph->sent.size() + ph->shed != ph->attempted ||
        e.submitted - b.submitted != ph->sent.size() ||
        e.shed - b.shed != ph->shed) {
      d.fail(phase + ": sent != accepted + shed");
    }
    if ((e.served - b.served) + (e.failed - b.failed) +
            (e.deadline_expired - b.deadline_expired) !=
        ph->answers.size()) {
      d.fail(phase + ": server counted a different number of answers");
    }
    if (e.evicted_lru - b.evicted_lru != shadow.evicted_lru - lru0 ||
        e.evicted_ttl - b.evicted_ttl != shadow.evicted_ttl - ttl0) {
      d.fail(phase + ": evictions differ from the LRU/TTL rules");
    }
  }
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

struct System {
  core::Lumos5G facade;
  std::string artifact;
  std::unique_ptr<serve::Server> server;
};

/// Everything a deployment does before its first request, in order. Each
/// step is one call into a layer's public API, timed from outside.
std::unique_ptr<System> set_up(Driver& d, std::uint32_t parent) {
  core::Lumos5GConfig cfg;
  cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  cfg.gbdt.n_estimators = 100;
  cfg.gbdt.seed = kTrainSeed;
  auto sys = std::make_unique<System>(System{core::Lumos5G(cfg), {}, {}});

  std::int64_t t0 = now_ns();
  const data::Dataset train = bench::global_dataset();
  std::int64_t t1 = now_ns();
  d.trace.add(SpanKind::kCampaign, t0, t1, parent);

  t0 = t1;
  if (const auto r = sys->facade.train(train); !r) {
    d.fail("train: " + r.error().describe());
    return nullptr;
  }
  t1 = now_ns();
  d.trace.add(SpanKind::kTrain, t0, t1, parent);

  t0 = t1;
  auto predictor = serve::Predictor::compile(sys->facade);
  t1 = now_ns();
  d.trace.add(SpanKind::kCompile, t0, t1, parent);
  if (!predictor) {
    d.fail("compile: " + predictor.error().describe());
    return nullptr;
  }

  t0 = t1;
  sys->artifact = serve::save_bytes(sys->facade);
  t1 = now_ns();
  d.trace.add(SpanKind::kSave, t0, t1, parent);

  t0 = t1;
  sys->server = std::make_unique<serve::Server>(std::move(*predictor),
                                                d.w.cfg, d.clock);
  d.trace.add(SpanKind::kConstruct, t0, now_ns(), parent);
  return sys;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

void add(Metrics& m, std::string name, double value, std::string unit) {
  m.push_back({std::move(name), value, std::move(unit)});
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double a, double b) {
  return b != 0.0 ? a / b : std::numeric_limits<double>::quiet_NaN();
}

std::vector<double> ns_to_ms(std::vector<double> ns) {
  for (double& x : ns) x /= 1e6;
  return ns;
}

/// Sum of durations over sum of items for the spans of `kind`, in ns.
double ns_per_item(const Trace& tr, SpanKind kind) {
  double ns = 0.0;
  double items = 0.0;
  for (const Span& s : tr.spans()) {
    if (s.kind != kind) continue;
    ns += static_cast<double>(s.end_ns - s.start_ns);
    items += s.items;
  }
  return ratio(ns, items);
}

/// Everything one run measured.
struct Run {
  std::vector<double> setup_s;
  Phase warm;
  Phase open;
  Phase capacity;
  Phase warm_1t;
  Phase capacity_1t;
  OpenResult res;
  double rss_mb = 0.0;
  std::size_t n_tiers = 0;

  std::vector<const Phase*> phases() const {
    return {&warm, &open, &capacity, &warm_1t, &capacity_1t};
  }
  double capacity_rps() const { return best(capacity.window_rps); }
  double capacity_1t_rps() const { return best(capacity_1t.window_rps); }
  double open_sent() const { return static_cast<double>(open.attempted); }
};

std::uint64_t failed_answers(const Phase& ph) {
  std::uint64_t n = 0;
  for (const Answer& a : ph.answers) n += a.status == kFailed ? 1 : 0;
  return n;
}

Metrics end_to_end(const Run& r) {
  Metrics m;
  add(m, "setup_s", median(r.setup_s), "s");
  add(m, "capacity_rps", r.capacity_rps(), "req/s");
  add(m, "slo_attainment",
      static_cast<double>(r.res.within_slo) / r.open_sent(), "fraction");
  add(m, "mae_mbps",
      r.res.abs_err_sum / static_cast<double>(r.res.abs_err_n), "Mbps");
  add(m, "peak_rss_mb", r.rss_mb, "MB");
  return m;
}

/// The per-layer metrics, computed from the traced run's spans and the
/// server's counters; bench/e2e/README.md maps each to the end-to-end
/// metric it should move.
Metrics per_layer(const Run& r, const Trace& tr) {
  Metrics m;
  add(m, "sim.campaign_s", median(tr.durations(SpanKind::kCampaign)) / 1e9,
      "s");
  add(m, "core.train_s", median(tr.durations(SpanKind::kTrain)) / 1e9, "s");
  add(m, "serve.compile_ms",
      median(ns_to_ms(tr.durations(SpanKind::kCompile))), "ms");
  add(m, "serve.model_io.save_ms",
      median(ns_to_ms(tr.durations(SpanKind::kSave))), "ms");
  add(m, "serve.server_construct_ms",
      median(ns_to_ms(tr.durations(SpanKind::kConstruct))), "ms");

  // Model path, from the replayed batches.
  const double predictor_us = ns_per_item(tr, SpanKind::kReplayPredict) / 1e3;
  add(m, "data.feature_row_ns", ns_per_item(tr, SpanKind::kReplayFeatures),
      "ns");
  add(m, "serve.flat_model.walk_ns_per_row",
      ns_per_item(tr, SpanKind::kReplayWalk), "ns");
  add(m, "serve.predictor.us_per_req", predictor_us, "us");
  double replayed_ns = 0.0;
  double replayed_items = 0.0;
  for (const Span& s : tr.spans()) {
    if (s.kind != SpanKind::kReplayPredict) continue;
    replayed_ns += static_cast<double>(tr[s.parent].end_ns -
                                       tr[s.parent].start_ns);
    replayed_items += tr[s.parent].items;
  }
  add(m, "serve.server.overhead_us_per_req",
      ratio(replayed_ns, replayed_items) / 1e3 - predictor_us, "us");
  // Evictions over the open loop and the capacity phase at the pool size.
  const serve::ServerStats& before = r.open.before;
  const serve::ServerStats& after = r.capacity.after;
  add(m, "serve.server.evicted_lru",
      static_cast<double>(after.evicted_lru - before.evicted_lru), "count");
  add(m, "serve.server.evicted_ttl",
      static_cast<double>(after.evicted_ttl - before.evicted_ttl), "count");

  // Per-call timings in the open loop.
  const std::vector<double> poll_ns =
      tr.durations(SpanKind::kPoll, r.open.span);
  double batch_items = 0.0;
  double busy_ns = 0.0;
  for (const Span& s : tr.spans()) {
    if (s.kind == SpanKind::kPoll && s.parent == r.open.span) {
      batch_items += s.items;
      busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  add(m, "serve.server.poll_us_p50", quantile(poll_ns, 0.5) / 1e3, "us");
  add(m, "serve.server.poll_us_p99", quantile(poll_ns, 0.99) / 1e3, "us");
  add(m, "serve.server.poll_batch_mean",
      ratio(batch_items, static_cast<double>(poll_ns.size())), "count");
  add(m, "serve.server.busy_frac",
      ratio(busy_ns, static_cast<double>(r.open.t_end - r.open.t_begin)),
      "fraction");
  const std::vector<double> submit_ns =
      tr.durations(SpanKind::kSubmit, r.open.span);
  add(m, "serve.server.submit_us_p50", quantile(submit_ns, 0.5) / 1e3, "us");
  add(m, "serve.server.submit_us_p99", quantile(submit_ns, 0.99) / 1e3, "us");
  std::vector<double> wait_ms;  // due -> start of the answering poll
  for (const Span& s : tr.spans()) {
    if (s.kind == SpanKind::kRequest) {
      wait_ms.push_back(ns_to_ms(tr[s.parent].start_ns - s.start_ns));
    }
  }
  add(m, "serve.server.queue_wait_ms_p50", quantile(wait_ms, 0.5), "ms");
  add(m, "serve.server.queue_wait_ms_p99", quantile(wait_ms, 0.99), "ms");

  // Queue depth and the tier mix.
  add(m, "serve.server.peak_depth",
      static_cast<double>(r.open.after.peak_depth), "count");
  const auto served = static_cast<double>(r.res.latency_ms.size());
  for (std::size_t t = 0; t < r.n_tiers; ++t) {
    add(m, "serve.tier" + std::to_string(t) + "_frac",
        static_cast<double>(r.res.served_by_tier[t]) / served, "fraction");
  }

  const std::vector<double> reload_ms =
      ns_to_ms(tr.durations(SpanKind::kReload));
  add(m, "serve.reload_stall_ms_p50", quantile(reload_ms, 0.5), "ms");
  add(m, "serve.reload_stall_ms_max", quantile(reload_ms, 1.0), "ms");

  add(m, "common.parallel.scaling",
      ratio(r.capacity_rps(), r.capacity_1t_rps()), "ratio");
  add(m, "common.parallel.capacity_rps", r.capacity_rps(), "req/s");
  add(m, "common.parallel.capacity_1t_rps", r.capacity_1t_rps(), "req/s");

  // Driver validity.
  std::vector<double> p99s;  // each 1 s window's p99, by due time
  for (const auto& [window, lat] : r.res.latency_by_window) {
    p99s.push_back(quantile(lat, 0.99));
  }
  add(m, "driver.gen_lag_ms_p90", quantile(r.open.gen_lag_ms, 0.9), "ms");
  add(m, "driver.gen_lag_ms_max", quantile(r.open.gen_lag_ms, 1.0), "ms");
  add(m, "driver.latency_p50_ms", quantile(r.res.latency_ms, 0.5), "ms");
  add(m, "driver.latency_p99_ms", median(p99s), "ms");
  add(m, "driver.latency_p999_ms", quantile(r.res.latency_ms, 0.999), "ms");
  for (const Phase* ph : r.phases()) {
    const std::string prefix = std::string("driver.") + ph->name;
    add(m, prefix + ".sent", static_cast<double>(ph->attempted), "count");
    add(m, prefix + ".answered", static_cast<double>(ph->answers.size()),
        "count");
  }
  add(m, "trace.overhead_frac",
      ratio(best(r.capacity.traced_window_rps), best(r.capacity.window_rps)),
      "ratio");
  return m;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_build/e2e";
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out-dir") {
      o.out_dir = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(o.seconds >= 4.0)) {
    return std::nullopt;
  }
  return o;
}

int report_errors(const std::vector<std::string>& errors) {
  for (const auto& e : errors) {
    std::fprintf(stderr, "lumos_e2e: %s\n", e.c_str());
  }
  return kExitMismatch;
}

}  // namespace

int main(int argc, char** argv) {
  g_epoch_ns = now_ns();
#ifndef NDEBUG
  std::fprintf(stderr,
               "lumos_e2e: built without NDEBUG; refusing to measure a debug "
               "build\n");
  return kExitUsage;
#endif
  const auto opt = parse(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: lumos_e2e --workload steady|churn "
                 "--seed N --seconds S(>=4) --trace 0|1 [--out-dir DIR]\n");
    return kExitUsage;
  }
  const auto wl = find_workload(opt->workload);
  if (!wl) {
    std::fprintf(stderr, "lumos_e2e: unknown workload '%s'\n",
                 opt->workload.c_str());
    return kExitUsage;
  }
  const Workload& w = *wl;
  const std::size_t pool = std::min(kMaxThreads, configured_threads());
  ThreadPool::global().set_threads(pool);

  // Phase lengths: 30% of the run open loop, the rest capacity at the pool
  // size; the open-loop metrics settle sooner than the best capacity
  // window. A traced run gives half the capacity time to the pool-1 phase
  // its scaling metrics need.
  const auto run_ns = static_cast<std::int64_t>(opt->seconds * 1e9);
  const std::int64_t open_ns = run_ns * 3 / 10;
  const std::int64_t capacity_ns = (run_ns - open_ns) / (opt->trace ? 2 : 1);

  // Inputs, all from the seed and generated before anything is timed.
  Rng rng(opt->seed);
  const data::Dataset live = live_campaign(rng);
  Replayer replayer(live, w.n_ues, rng);
  const Schedule warm = warm_schedule(w, replayer);
  const Schedule open = open_schedule(w, open_ns, rng, replayer);
  const Schedule capacity = closed_schedule(rng, replayer);
  Schedule warm_1t;
  Schedule capacity_1t;
  if (opt->trace) {
    warm_1t = warm_schedule(w, replayer);
    capacity_1t = closed_schedule(rng, replayer);
  }

  Driver d(w, live, opt->trace);
  Run run;

  // Setup, repeated; the last repetition's system serves the run.
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    run.warm = Phase{};
    const std::int64_t t0 = now_ns();
    const std::uint32_t span = d.trace.add(SpanKind::kSetup, t0, t0);
    sys = set_up(d, span);
    if (!sys) return report_errors(d.errors);
    d.artifact = &sys->artifact;
    d.begin(run.warm, *sys->server, "warmup", &warm);
    d.run_warmup(*sys->server, run.warm);
    d.end(run.warm, *sys->server);
    const std::int64_t t1 = now_ns();
    d.trace.set_end(span, t1);
    run.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  serve::Server& server = *sys->server;
  const auto ref = serve::Predictor::compile(sys->facade);
  if (!ref) return report_errors({"compile: " + ref.error().describe()});
  run.n_tiers = ref->tier_specs().size();

  // Open loop, then capacity at the pool size on the same server.
  d.begin(run.open, server, "open", &open);
  d.run_open(server, run.open);
  d.end(run.open, server);
  run.rss_mb = peak_rss_mb();

  d.begin(run.capacity, server, "capacity", &capacity);
  d.run_closed(server, run.capacity, capacity_ns, d.trace.on());
  d.end(run.capacity, server);

  std::optional<serve::Server> server_1t;
  if (d.trace.on()) {
    // Reload stalls for workloads that do not reload while serving.
    Phase probe;
    d.begin(probe, server, "reload_probe", nullptr);
    for (std::size_t i = 0; i < kReloadProbes; ++i) d.reload(server, probe);
    d.end(probe, server);

    // Capacity at pool size 1, on a freshly constructed, freshly warmed
    // server.
    ThreadPool::global().set_threads(1);
    auto pred_1t = serve::Predictor::compile(sys->facade);
    if (!pred_1t) {
      return report_errors({"compile: " + pred_1t.error().describe()});
    }
    server_1t.emplace(std::move(*pred_1t), w.cfg, d.clock);
    d.begin(run.warm_1t, *server_1t, "warmup_1t", &warm_1t);
    d.run_warmup(*server_1t, run.warm_1t);
    d.end(run.warm_1t, *server_1t);
    d.begin(run.capacity_1t, *server_1t, "capacity_1t", &capacity_1t);
    d.run_closed(*server_1t, run.capacity_1t, capacity_ns, false);
    d.end(run.capacity_1t, *server_1t);
    ThreadPool::global().set_threads(pool);
  }

  // Correctness: replay both servers' logs through the shadow.
  std::optional<ReplayKit> kit;
  if (d.trace.on()) kit.emplace(sys->facade, *ref, w.cfg.max_batch);
  verify(d, server, {&run.warm, &run.open, &run.capacity}, *ref, &run.res,
         kit ? &*kit : nullptr);
  if (server_1t) {
    verify(d, *server_1t, {&run.warm_1t, &run.capacity_1t}, *ref, nullptr,
           nullptr);
  }
  if (!d.errors.empty()) return report_errors(d.errors);

  // Validity: a generator or a steady server that stays behind is not a
  // result. One that cannot keep up is late on most requests, while a
  // stall of the host delays only those that fall due during it, so both
  // are judged on most requests.
  const double lag_p90 = quantile(run.open.gen_lag_ms, 0.9);
  if (lag_p90 > kMaxGenLagMs) {
    std::fprintf(stderr,
                 "lumos_e2e: invalid run: generator lag p90 %.3f ms > %.1f "
                 "ms\n",
                 lag_p90, kMaxGenLagMs);
    return kExitInvalid;
  }
  if (w.name == "steady" && 2 * run.open.behind > run.open.attempted) {
    std::fprintf(stderr,
                 "lumos_e2e: invalid run: %llu of steady's %llu submits left "
                 "more than max_batch queued\n",
                 static_cast<unsigned long long>(run.open.behind),
                 static_cast<unsigned long long>(run.open.attempted));
    return kExitInvalid;
  }

  const Metrics metrics =
      d.trace.on() ? per_layer(run, d.trace) : end_to_end(run);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "lumos_e2e: invalid run: %s was not measured\n",
                   m.name.c_str());
      return kExitInvalid;
    }
  }
  if (d.trace.on()) {
    std::filesystem::create_directories(opt->out_dir);
    const auto path =
        std::filesystem::path(opt->out_dir) / ("trace-" + w.name + ".json");
    if (!d.trace.write(path, w.name, opt->seed)) {
      std::fprintf(stderr, "lumos_e2e: cannot write %s\n", path.c_str());
      return kExitUsage;
    }
    if (d.trace.dropped() != 0) {
      std::fprintf(stderr, "lumos_e2e: trace buffer full, %zu spans dropped\n",
                   d.trace.dropped());
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase* ph : run.phases()) {
    attempted += ph->attempted;
    failed += failed_answers(*ph);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s %s %s %s\n", w.name.c_str(), m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
