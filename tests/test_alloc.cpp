// Run-time proof that the serving path does not allocate.
//
// lumos_lint's hot-path pass matches names, so it cannot see an allocation
// that spells no allocating name: a closure that outgrows the inline
// buffer of the std::function it is passed as, or a vector returned by
// value (DESIGN §8, documented blind spots). This suite replaces the
// global operator new and operator delete with versions that count every
// allocation, on any thread, while a flag is set around the measured call
// only, so gtest's and the fixtures' own allocations never count. It is
// its own executable because the replacement is process-wide.
//
// Under test:
//   * Server::submit and a one-lane Server::poll never allocate, over polls
//     that answer from the full tier, degrade past the watermarks, fall to
//     the harmonic tail, expire requests, evict by LRU and sweep by TTL;
//   * Predictor::predict_spans_columnar over three row blocks, on a
//     reserved scratch at pool 4, never allocates;
//   * the per-window walks, Lumos5G::predict and Predictor::predict, never
//     allocate after a warm-up call, whichever tier or the tail answers;
//   * a poll that fans out over two or more lanes never allocates either:
//     the pool reuses its one job record.
//
// Each test pins the pool size it needs, so the results do not depend on
// LUMOS_THREADS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/lumos5g.h"
#include "serve/flat_model.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load()) g_allocations.fetch_add(1);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler never inlines free() into a delete site
// and flags the (intended) new/free pairing.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// The ordinary and nothrow forms, with every delete they pair with, so a
// sanitizer runtime never sees one of its own deletes free our malloc.
// The over-aligned forms stay the runtime's: nothing in src/ over-aligns.
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }

namespace lumos::serve {
namespace {

/// Heap allocations, on any thread, while `fn` runs.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  g_counting.store(true);
  std::forward<Fn>(fn)();
  g_counting.store(false);
  return g_allocations.load() - before;
}

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

Predictor make_predictor() {
  auto compiled = Predictor::compile(facade());
  EXPECT_TRUE(compiled.has_value());
  return std::move(*compiled);
}

/// Builds a server whose lane count is `lanes` (the pool size at
/// construction) and leaves the pool at that size.
std::unique_ptr<Server> make_server(const ServerConfig& cfg, Clock& clock,
                                    std::size_t lanes) {
  ThreadPool::global().set_threads(lanes);
  return std::make_unique<Server>(make_predictor(), cfg, clock);
}

/// What drive() counted.
struct Traffic {
  std::size_t submit_allocations = 0;
  std::size_t poll_allocations = 0;
  std::size_t polls = 0;
  std::size_t degraded_responses = 0;  ///< answered under min_tier >= 1
  std::size_t multi_window_polls = 0;  ///< polls that answered 2+ requests
};

/// Drives `server` with seeded traffic: each round submits a burst (now
/// and then deep enough to cross the degrade watermarks), sometimes jumps
/// the clock past the deadline and the TTL, then polls once. UE `u`
/// replays consecutive samples of walk run `u % runs`, so a UE that keeps
/// its session fills a full-tier window. Counts the allocations of every
/// submit and poll.
Traffic drive(Server& server, ManualClock& clock, std::size_t rounds,
              std::size_t n_ues) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  std::vector<std::size_t> cursor(n_ues, 10);
  std::vector<Response> out(server.config().max_batch);
  Rng rng(20261019);
  Traffic t;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::uint64_t burst =
        rng.bernoulli(0.15) ? 40 + rng.uniform_int(24) : rng.uniform_int(14);
    for (std::uint64_t b = 0; b < burst; ++b) {
      // A hot set one larger than the store keeps windows growing while
      // the LRU still churns; the rest are cold first contacts.
      const std::uint64_t ue = rng.bernoulli(0.8)
                                   ? rng.uniform_int(server.config().max_sessions + 1)
                                   : rng.uniform_int(n_ues);
      const auto& run = runs[ue % runs.size()];
      const std::size_t at = cursor[ue]++ % run.size();
      const Request req{ue, ds[run[at]], 0};
      t.submit_allocations +=
          allocations_in([&] { (void)server.submit(req); });
    }
    clock.advance_ms(rng.bernoulli(0.1) ? 250 + rng.uniform_int(300)
                                        : rng.uniform_int(20));
    std::size_t n = 0;
    t.poll_allocations += allocations_in([&] { n = server.poll(out); });
    ++t.polls;
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i].min_tier >= 1) ++t.degraded_responses;
    }
    if (n >= 2) ++t.multi_window_polls;
  }
  return t;
}

ServerConfig mixed_config() {
  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.shed_watermark = 1.0;  // degrade, never shed: every burst is served
  cfg.max_batch = 16;
  cfg.default_deadline_ms = 300;
  cfg.max_sessions = 16;
  cfg.session_ttl_ms = 200;
  cfg.session_capacity = 8;
  return cfg;
}

TEST(AllocFree, OneLaneSubmitAndPollNeverAllocate) {
  ManualClock clock(1'000);
  const auto server = make_server(mixed_config(), clock, /*lanes=*/1);
  const Traffic t = drive(*server, clock, /*rounds=*/400, /*n_ues=*/64);
  ThreadPool::global().set_threads(0);

  const ServerStats s = server->stats();
  std::cout << "[ alloc    ] " << t.polls << " polls: served " << s.served
            << " (tier 0 " << s.served_by_tier.front() << ", tail "
            << s.served_by_tier.back() << "), degraded "
            << t.degraded_responses << ", expired " << s.deadline_expired
            << ", evicted lru " << s.evicted_lru << " ttl " << s.evicted_ttl
            << "; allocations submit " << t.submit_allocations << " poll "
            << t.poll_allocations << '\n';
  // Not vacuous: every serving path the polls can take was taken.
  EXPECT_GE(t.polls, 200u);
  EXPECT_GT(s.served_by_tier.front(), 0u) << "no full-tier answer";
  EXPECT_GT(s.served_by_tier.back(), 0u) << "no harmonic-tail answer";
  EXPECT_GT(t.degraded_responses, 0u) << "no poll past a degrade watermark";
  EXPECT_GT(s.deadline_expired, 0u);
  EXPECT_GT(s.evicted_lru, 0u);
  EXPECT_GT(s.evicted_ttl, 0u);

  EXPECT_EQ(t.submit_allocations, 0u);
  EXPECT_EQ(t.poll_allocations, 0u);
}

TEST(AllocFree, PredictSpansColumnarNeverAllocatesAtPoolFour) {
  // 3 * kColumnarRowBlock + 1 full-context windows; the full tier answers
  // more than 2 * kColumnarRowBlock of them, so its columnar pass walks at
  // least three row blocks.
  const auto& ds = airport_ds();
  std::vector<std::vector<data::SampleRecord>> records;
  for (const auto& run : ds.runs()) {
    for (std::size_t start = 10;
         start + 8 < run.size() && records.size() < 3 * kColumnarRowBlock + 1;
         start += 3) {
      std::vector<data::SampleRecord>& w = records.emplace_back();
      for (std::size_t i = start; i < start + 8; ++i) w.push_back(ds[run[i]]);
    }
  }
  const std::vector<std::span<const data::SampleRecord>> windows(
      records.begin(), records.end());
  const Predictor predictor = make_predictor();
  PredictScratch scratch;
  scratch.reserve(windows.size(), predictor.max_width());
  std::vector<Expected<core::Prediction>> out(
      windows.size(),
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));

  ThreadPool::global().set_threads(4);
  const std::size_t n_tiers = predictor.tier_specs().size();
  for (std::size_t min_tier = 0; min_tier <= n_tiers; ++min_tier) {
    const std::size_t allocs = allocations_in([&] {
      predictor.predict_spans_columnar(windows, out, scratch, min_tier);
    });
    EXPECT_EQ(allocs, 0u) << "min_tier " << min_tier;
    if (min_tier == 0) {
      const auto full = std::count_if(out.begin(), out.end(), [](const auto& p) {
        return p.has_value() && p->tier == 0;
      });
      EXPECT_GT(full, static_cast<std::ptrdiff_t>(2 * kColumnarRowBlock))
          << "the full tier must walk at least three row blocks";
    }
  }
  ThreadPool::global().set_threads(0);
}

// The two per-window walks: Lumos5G::predict, the pointer-tree oracle,
// and Predictor::predict, the flat reference walk. One warm-up call per
// walk grows its thread_local row arena (the blessed amortized growth);
// after that no call allocates, whichever tier answers: full, degraded
// past T, a one-record window only L+M can serve, or the harmonic tail.
TEST(AllocFree, PerWindowWalksNeverAllocate) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  const auto& run = runs.front();
  std::vector<data::SampleRecord> full;
  for (std::size_t i = 10; i < 18; ++i) full.push_back(ds[run[i]]);
  std::vector<data::SampleRecord> no_panel = full;  // T cannot be built
  for (data::SampleRecord& s : no_panel) {
    s.ue_panel_distance_m = data::SampleRecord::nan_value();
    s.theta_p_deg = data::SampleRecord::nan_value();
    s.theta_m_deg = data::SampleRecord::nan_value();
  }
  const std::vector<data::SampleRecord> one(full.end() - 1, full.end());
  // Shorter than the lag history: a C-only chain has nothing but the tail.
  const std::vector<data::SampleRecord> short_window(full.begin(),
                                                     full.begin() + 2);

  core::Lumos5GConfig c_cfg;
  c_cfg.feature_spec = data::FeatureSetSpec::parse("C");
  c_cfg.gbdt.n_estimators = 10;
  c_cfg.gbdt.max_depth = 3;
  core::Lumos5G c_only(c_cfg);
  ASSERT_TRUE(c_only.train(ds).has_value());
  ASSERT_EQ(c_only.tier_specs().size(), 1u);
  const Predictor tmc = make_predictor();
  auto c_compiled = Predictor::compile(c_only);
  ASSERT_TRUE(c_compiled.has_value());
  const std::size_t n_tiers = tmc.tier_specs().size();
  ASSERT_EQ(n_tiers, 3u);

  struct Call {
    const char* what;
    std::span<const data::SampleRecord> window;
    int want_tier;
  };
  // Each walk gets the windows it is checked on; a tier equal to the
  // chain length is the harmonic tail.
  const Call tmc_calls[] = {{"full", full, 0},
                            {"no panel", no_panel, 1},
                            {"one record", one, 2}};
  const Call c_calls[] = {{"C full", full, 0}, {"C short", short_window, 1}};

  std::size_t facade_allocs = 0;
  std::size_t predictor_allocs = 0;
  const auto walk = [](std::size_t& allocs, const Call& call, auto&& predict) {
    int tier = -1;
    allocs += allocations_in([&] {
      const Expected<core::Prediction> p = predict(call.window);
      tier = p.has_value() ? p->tier : -1;
    });
    EXPECT_EQ(tier, call.want_tier) << call.what;
  };
  for (int round = 0; round < 51; ++round) {
    if (round == 1) {
      facade_allocs = 0;  // round 0 is the warm-up
      predictor_allocs = 0;
    }
    for (const Call& call : tmc_calls) {
      walk(facade_allocs, call, [](auto w) { return facade().predict(w); });
      walk(predictor_allocs, call, [&](auto w) { return tmc.predict(w); });
    }
    for (const Call& call : c_calls) {
      walk(facade_allocs, call, [&](auto w) { return c_only.predict(w); });
      walk(predictor_allocs, call,
           [&](auto w) { return c_compiled->predict(w); });
    }
    // The serving floor past the last model tier leaves only the tail.
    walk(predictor_allocs, {"tail floor", full, static_cast<int>(n_tiers)},
         [&](auto w) { return tmc.predict(w, n_tiers); });
  }
  std::cout << "[ alloc    ] 50 rounds: allocations facade " << facade_allocs
            << " predictor " << predictor_allocs << '\n';
  EXPECT_EQ(facade_allocs, 0u)
      << "Lumos5G::predict allocated after its warm-up call";
  EXPECT_EQ(predictor_allocs, 0u)
      << "Predictor::predict allocated after its warm-up call";
}

TEST(AllocFree, MultiLanePollNeverAllocates) {
  ManualClock clock(1'000);
  ServerConfig cfg = mixed_config();
  cfg.default_deadline_ms = 0;  // every drained request is a live window
  const auto server = make_server(cfg, clock, /*lanes=*/4);
  // A poll of n live windows runs min(4, n) lanes over the pool, which
  // reuses its one job record.
  const Traffic t = drive(*server, clock, /*rounds=*/300, /*n_ues=*/64);
  ThreadPool::global().set_threads(0);
  std::cout << "[ alloc    ] " << t.polls << " polls, "
            << t.multi_window_polls << " over 2+ lanes; allocations submit "
            << t.submit_allocations << " poll " << t.poll_allocations << '\n';
  EXPECT_GT(t.multi_window_polls, 100u);
  EXPECT_EQ(t.submit_allocations, 0u);
  EXPECT_EQ(t.poll_allocations, 0u);
}

}  // namespace
}  // namespace lumos::serve
