// Deterministic chaos soak for the serving loop (ctest label: `soak`).
//
// A virtual-clock Server is driven for thousands of requests through a
// seeded ChaosInjector: request floods, duplicated and stale session
// updates, forward clock jumps, and periodic hot reloads whose artifact
// bytes are corrupted or truncated mid-flight. The invariants:
//
//   * zero crashes, zero UB — every response carries a prediction or a
//     typed error, every reload either swaps or rolls back;
//   * zero stuck requests — every admitted ticket is answered exactly once
//     and the queue drains to empty at shutdown;
//   * monotone tier degradation — a deeper queue never gets a *lower*
//     minimum tier than a shallower one;
//   * bit-reproducibility — the same seed replays the same response stream
//     bit for bit, at LUMOS_THREADS=1 and =8 alike (the suite is also run
//     under both pins from CMake).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "serve/chaos.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace lumos::serve {
namespace {

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg;
    cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
    cfg.gbdt.n_estimators = 40;
    cfg.gbdt.max_depth = 5;
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

const std::string& artifact_bytes() {
  static const std::string bytes = save_bytes(facade());
  return bytes;
}

/// FNV-1a accumulator: the soak's entire observable behaviour is folded
/// into one digest, so "bit-reproducible" is a single integer comparison.
struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
};

struct SoakReport {
  std::uint64_t digest = 0;
  std::uint64_t answered = 0;
  std::uint64_t reload_ok = 0;
  std::uint64_t reload_rolled_back = 0;
  std::uint64_t floods = 0;
  std::uint64_t clock_jumps = 0;
};

/// One full soak run: pure function of (seed, ticks) — and, by the
/// serving-layer determinism contract, of nothing else (not the thread
/// count, not the lane count, not real time). `lanes` != 0 builds the
/// server under a pool of that size (the lane count is the pool size at
/// construction) and then serves under a pool of `serve_threads` (0 = the
/// environment default); `lanes` = 0 leaves the pool as it is.
SoakReport run_soak(std::uint64_t seed, std::size_t ticks,
                    std::size_t lanes = 0, std::size_t serve_threads = 0) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();

  ManualClock clock(1'000);
  ServerConfig cfg;
  cfg.queue_capacity = 32;
  cfg.shed_watermark = 0.9;
  cfg.degrade_watermarks = {0.3, 0.5, 0.75};
  cfg.max_batch = 16;
  cfg.default_deadline_ms = 4'000;
  cfg.max_sessions = 12;
  cfg.session_ttl_ms = 60'000;
  cfg.reload_max_attempts = 2;
  cfg.reload_backoff_ms = 5;
  auto compiled = Predictor::compile(facade());
  EXPECT_TRUE(compiled.has_value());
  if (lanes != 0) ThreadPool::global().set_threads(lanes);
  Server server(std::move(*compiled), cfg, clock);
  if (lanes != 0) ThreadPool::global().set_threads(serve_threads);

  ChaosConfig chaos_cfg = ChaosConfig::uniform(0.05);
  chaos_cfg.corrupt_artifact = 0.4;   // reload-path faults hit hard
  chaos_cfg.truncate_artifact = 0.3;
  chaos_cfg.flood_factor = 10;
  ChaosInjector chaos(chaos_cfg, seed);

  // Pid-unique artifact name: the same seeds run concurrently in the
  // LUMOS_THREADS=1 and =8 ctest registrations of this binary, and a
  // shared path would let one process's reload read (or remove) the
  // other's half-written bytes.
  const auto reload_path =
      std::filesystem::temp_directory_path() /
      ("lumos_soak_" + std::to_string(seed) + "_" +
       std::to_string(::getpid()) + ".l5gm");

  Digest digest;
  SoakReport report;
  std::set<std::uint64_t> outstanding;  // tickets admitted, not yet answered
  std::map<std::size_t, std::size_t> tier_floor_by_depth;
  std::size_t stream_pos = 0;

  // One poll's responses land in these max_batch caller-owned slots.
  std::vector<Response> slots(cfg.max_batch);
  const auto consume = [&](std::span<const Response> batch,
                           std::size_t depth_before) {
    // Every batch's tier floor must agree across equal depths and respect
    // monotonicity against every depth seen so far.
    if (!batch.empty()) {
      const std::size_t floor = batch.front().min_tier;
      const auto [it, inserted] =
          tier_floor_by_depth.emplace(depth_before, floor);
      EXPECT_EQ(it->second, floor) << "depth " << depth_before;
      (void)inserted;
      for (const auto& [d, t] : tier_floor_by_depth) {
        if (d <= depth_before) {
          EXPECT_LE(t, floor) << "depth " << d << " vs " << depth_before;
        } else {
          EXPECT_GE(t, floor) << "depth " << d << " vs " << depth_before;
        }
      }
    }
    for (const auto& r : batch) {
      EXPECT_EQ(outstanding.erase(r.ticket), 1u)
          << "response for unknown or already-answered ticket " << r.ticket;
      ++report.answered;
      digest.u64(r.ticket);
      digest.u64(r.ue_id);
      digest.u64(r.min_tier);
      if (r.result.has_value()) {
        digest.byte(1);
        digest.f64(r.result->throughput_mbps);
        digest.byte(static_cast<std::uint8_t>(r.result->throughput_class));
        digest.byte(static_cast<std::uint8_t>(r.result->tier));
      } else {
        digest.byte(0);
        digest.byte(static_cast<std::uint8_t>(r.result.error().code));
      }
    }
  };

  for (std::size_t tick = 0; tick < ticks; ++tick) {
    // --- time: one virtual second, sometimes a scripted jump ---
    clock.advance_ms(1'000);
    const std::uint64_t jump = chaos.clock_jump_ms();
    if (jump != 0) {
      clock.advance_ms(jump);
      ++report.clock_jumps;
    }

    // --- traffic: 1 request normally, a burst on a flood tick ---
    const std::size_t burst = chaos.flood_multiplier();
    if (burst > 1) ++report.floods;
    for (std::size_t b = 0; b < burst; ++b, ++stream_pos) {
      const std::size_t ue = stream_pos % 8;
      const auto& run = runs[ue % runs.size()];
      data::SampleRecord sample = ds[run[stream_pos % run.size()]];
      if (chaos.make_stale(sample)) digest.byte(2);
      const bool dup = chaos.should_duplicate();
      for (int copy = 0; copy < (dup ? 2 : 1); ++copy) {
        const auto ticket = server.submit({ue, sample, 0});
        if (ticket.has_value()) {
          EXPECT_TRUE(outstanding.insert(*ticket).second);
        } else {
          // Shedding is the only legal admission failure mid-run.
          EXPECT_EQ(ticket.error().code, ErrorCode::kOverloaded);
          digest.byte(3);
        }
      }
    }

    // --- serve one batch ---
    const std::size_t depth_before = server.queue_depth();
    consume({slots.data(), server.poll(slots)}, depth_before);

    // --- periodic hot reload through damaged bytes ---
    if (tick % 100 == 50) {
      const std::uint64_t gen_before = server.model_generation();
      const std::string bytes = chaos.damage_artifact(artifact_bytes());
      const auto wrote = write_artifact(reload_path, bytes);
      EXPECT_TRUE(wrote.has_value());
      const auto swapped = server.reload(reload_path);
      if (swapped.has_value()) {
        ++report.reload_ok;
        EXPECT_EQ(server.model_generation(), gen_before + 1);
        digest.byte(4);
      } else {
        ++report.reload_rolled_back;
        EXPECT_EQ(server.model_generation(), gen_before);
        const auto code = swapped.error().code;
        EXPECT_TRUE(code == ErrorCode::kCorrupt ||
                    code == ErrorCode::kTruncated ||
                    code == ErrorCode::kVersionMismatch ||
                    code == ErrorCode::kBadMagic ||
                    code == ErrorCode::kParseError ||
                    code == ErrorCode::kIoError)
            << to_string(code);
        digest.byte(5);
        digest.byte(static_cast<std::uint8_t>(code));
      }
    }
  }

  // --- shutdown: no new admissions, everything queued still answered ---
  server.begin_shutdown();
  const auto late = server.submit({0, ds[runs[0][0]], 0});
  EXPECT_FALSE(late.has_value());
  EXPECT_EQ(late.error().code, ErrorCode::kShuttingDown);
  while (server.queue_depth() > 0) {
    const std::size_t depth_before = server.queue_depth();
    consume({slots.data(), server.poll(slots)}, depth_before);
  }
  EXPECT_TRUE(outstanding.empty())
      << outstanding.size() << " requests stuck without a response";
  EXPECT_EQ(server.stats().submitted, report.answered);

  digest.u64(server.stats().shed);
  digest.u64(server.stats().deadline_expired);
  digest.u64(server.stats().evicted_lru);
  digest.u64(server.stats().evicted_ttl);
  digest.u64(server.model_generation());
  report.digest = digest.h;

  std::error_code ignored;
  std::filesystem::remove(reload_path, ignored);
  return report;
}

constexpr std::size_t kTicks = 3000;

// The comparisons below only check runs against each other, so a change
// that moves every run the same way would pass them. These literals pin
// the absolute response streams of two seeds (the digest is the same at
// any thread or lane count).
constexpr std::uint64_t kSeed1Digest = 0x55e87c7f74e4ee2bULL;
constexpr std::uint64_t kSeed1Answered = 4441;
constexpr std::uint64_t kSeed7Digest = 0xd4e69fba57f9e495ULL;
constexpr std::uint64_t kSeed7Answered = 4623;

TEST(Soak, ChaosRunCompletesWithZeroStuckRequests) {
  const SoakReport r = run_soak(/*seed=*/1, kTicks);
  EXPECT_EQ(r.digest, kSeed1Digest);
  EXPECT_EQ(r.answered, kSeed1Answered);
  // The run must have actually exercised the machinery, not dodged it.
  EXPECT_GT(r.answered, kTicks);  // floods + duplicates outpace the ticks
  EXPECT_GT(r.floods, 0u);
  EXPECT_GT(r.clock_jumps, 0u);
  EXPECT_GT(r.reload_rolled_back, 0u);  // damaged artifacts were offered
  EXPECT_GT(r.reload_ok + r.reload_rolled_back, 5u);
}

TEST(Soak, SameSeedReplaysBitForBit) {
  const SoakReport a = run_soak(/*seed=*/7, kTicks);
  const SoakReport b = run_soak(/*seed=*/7, kTicks);
  EXPECT_EQ(a.digest, kSeed7Digest);
  EXPECT_EQ(a.answered, kSeed7Answered);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.answered, b.answered);
  EXPECT_EQ(a.reload_ok, b.reload_ok);
  EXPECT_EQ(a.reload_rolled_back, b.reload_rolled_back);
}

TEST(Soak, DigestIsIdenticalAtOneAndEightThreads) {
  ThreadPool::global().set_threads(1);
  const SoakReport one = run_soak(/*seed=*/11, kTicks);
  ThreadPool::global().set_threads(8);
  const SoakReport eight = run_soak(/*seed=*/11, kTicks);
  ThreadPool::global().set_threads(0);  // back to the environment default
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.answered, eight.answered);
}

TEST(Soak, DigestIsIdenticalAcrossLaneCounts) {
  const SoakReport one = run_soak(/*seed=*/13, kTicks, /*lanes=*/1);
  const SoakReport eight = run_soak(/*seed=*/13, kTicks, /*lanes=*/8);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_EQ(one.answered, eight.answered);
  EXPECT_EQ(one.reload_ok, eight.reload_ok);
  EXPECT_EQ(one.reload_rolled_back, eight.reload_rolled_back);
}

// The full cross: the response stream is one digest for every pairing of
// the pool size at construction (the lane count) with the pool size while
// serving — the lane fan-out neither reorders nor re-associates anything.
TEST(Soak, DigestIsIdenticalAcrossThreadLaneCross) {
  std::uint64_t expect = 0;
  bool first = true;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const SoakReport r = run_soak(/*seed=*/17, kTicks / 3, lanes, threads);
      if (first) {
        expect = r.digest;
        first = false;
      }
      EXPECT_EQ(r.digest, expect)
          << "lanes=" << lanes << " threads=" << threads;
    }
  }
  ThreadPool::global().set_threads(0);
}

}  // namespace
}  // namespace lumos::serve
