// Tests for serve::Server — the resilient long-running serving loop.
// Covers admission control (watermark shed, hard cap, shutdown, concurrent
// producers), deadline expiry, watermark-driven tier degradation,
// deterministic session eviction (LRU + TTL, also checked against a
// reference model over seeded random operation sequences), and hot reload
// with rollback. The two
// load-bearing bit-identity invariants: a UE's predictions are unchanged
// by eviction of an *unrelated* session, and unchanged across a hot
// reload of an identical artifact. Both must hold at any LUMOS_THREADS
// (the suite runs pinned to 1 and 8 from CMake).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace lumos::serve {
namespace {

std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

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

/// A one-tier L+M facade: a different tier chain, and a narrower widest
/// feature row, than facade()'s T+M+C chain.
const core::Lumos5G& lm_facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg = facade().config();
    cfg.feature_spec = data::FeatureSetSpec::parse("L+M");
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

Predictor make_predictor(const core::Lumos5G& model = facade()) {
  auto compiled = Predictor::compile(model);
  EXPECT_TRUE(compiled.has_value());
  return std::move(*compiled);
}

/// `n` consecutive full-context samples from one walk run.
std::vector<data::SampleRecord> run_samples(std::size_t run_idx, std::size_t n,
                                            std::size_t offset = 10) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  EXPECT_LT(run_idx, runs.size());
  const auto& run = runs[run_idx];
  EXPECT_LE(offset + n, run.size());
  std::vector<data::SampleRecord> out;
  out.reserve(n);
  for (std::size_t i = offset; i < offset + n; ++i) out.push_back(ds[run[i]]);
  return out;
}

/// Submits one request and serves it immediately (no queue pressure).
Response serve_one(Server& server, std::uint64_t ue,
                   const data::SampleRecord& sample) {
  const auto ticket = server.submit({ue, sample, 0});
  EXPECT_TRUE(ticket.has_value());
  auto out = server.step();
  EXPECT_EQ(out.size(), 1u);
  return std::move(out.front());
}

void expect_same_result(const Expected<core::Prediction>& a,
                        const Expected<core::Prediction>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) {
    EXPECT_EQ(a.error().code, b.error().code);
    return;
  }
  EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
  EXPECT_EQ(a->throughput_class, b->throughput_class);
  EXPECT_EQ(a->tier, b->tier);
  EXPECT_EQ(a->feature_group, b->feature_group);
}

// ---------- admission + basic serving ----------

TEST(Server, ServesLikeDirectPredictorBitwise) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const Predictor direct = make_predictor();
  Session shadow(ServerConfig{}.session_capacity);

  for (const auto& s : run_samples(0, 12)) {
    const Response r = serve_one(server, 1, s);
    shadow.observe(s);
    expect_same_result(r.result, direct.predict(shadow));
    clock.advance_ms(1000);
  }
  EXPECT_EQ(server.stats().submitted, 12u);
  EXPECT_EQ(server.stats().served + server.stats().failed, 12u);
}

TEST(Server, TicketsAreMonotone) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const auto samples = run_samples(0, 4);
  std::uint64_t prev = 0;
  for (const auto& s : samples) {
    const auto t = server.submit({1, s, 0});
    ASSERT_TRUE(t.has_value());
    EXPECT_GT(*t, prev);
    prev = *t;
  }
  EXPECT_EQ(server.drain().size(), samples.size());
}

TEST(Server, OverloadShedsAtWatermarkTyped) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 10;
  cfg.shed_watermark = 0.5;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 1);

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(server.submit({1, samples[0], 0}).has_value()) << i;
  }
  const auto shed = server.submit({1, samples[0], 0});
  ASSERT_FALSE(shed.has_value());
  EXPECT_EQ(shed.error().code, ErrorCode::kOverloaded);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().submitted, 5u);
  EXPECT_EQ(server.stats().peak_depth, 5u);

  // Serving drains the queue; admission reopens below the watermark.
  server.drain();
  EXPECT_TRUE(server.submit({1, samples[0], 0}).has_value());
}

TEST(Server, WatermarkOneShedsOnlyWhenFull) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 4;
  cfg.shed_watermark = 1.0;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(server.submit({1, samples[0], 0}).has_value()) << i;
  }
  const auto full = server.submit({1, samples[0], 0});
  ASSERT_FALSE(full.has_value());
  EXPECT_EQ(full.error().code, ErrorCode::kOverloaded);
}

TEST(Server, ShutdownRejectsNewButDrainsQueued) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const auto samples = run_samples(0, 3);
  for (const auto& s : samples) {
    ASSERT_TRUE(server.submit({1, s, 0}).has_value());
  }
  server.begin_shutdown();
  EXPECT_TRUE(server.shutting_down());
  const auto rejected = server.submit({1, samples[0], 0});
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, ErrorCode::kShuttingDown);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);

  const auto out = server.drain();
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(server.queue_depth(), 0u);
}

// Four producer threads admit into a small queue while this thread polls.
// Some requests shed; every accepted one is answered exactly once, in
// ticket order, and each producer's tickets ascend in the order it
// submitted. stats() is read only after the join.
TEST(Server, ConcurrentProducersAreAnsweredOnceInTicketOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kAttempts = 300;
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 16;
  cfg.shed_watermark = 1.0;
  cfg.max_batch = 8;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 16);

  struct Producer {
    std::vector<std::uint64_t> tickets;  // accepted, in submission order
    std::size_t shed = 0;
    std::size_t other_errors = 0;
  };
  std::vector<Producer> producers(kProducers);
  std::atomic<std::size_t> shed_seen{0};
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Producer& me = producers[p];
      for (std::size_t i = 0; i < kAttempts; ++i) {
        const auto ticket = server.submit({p, samples[i % samples.size()], 0});
        if (ticket.has_value()) {
          me.tickets.push_back(*ticket);
        } else if (ticket.error().code == ErrorCode::kOverloaded) {
          ++me.shed;
          shed_seen.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++me.other_errors;
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Poll only once the queue has overflowed, so the run sheds for certain:
  // with nobody polling, the 17th admission sheds.
  while (shed_seen.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  std::vector<Response> out(cfg.max_batch);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> answered;  // ticket, ue
  for (;;) {
    const bool all_done = done.load(std::memory_order_acquire) == kProducers;
    const std::size_t n = server.poll(out);
    for (std::size_t i = 0; i < n; ++i) {
      answered.emplace_back(out[i].ticket, out[i].ue_id);
    }
    if (all_done && n == 0) break;
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.queue_depth(), 0u);

  std::map<std::uint64_t, std::uint64_t> producer_of;  // ticket -> producer
  std::size_t accepted = 0;
  std::size_t shed = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    const Producer& me = producers[p];
    EXPECT_EQ(me.tickets.size() + me.shed, kAttempts) << "producer " << p;
    EXPECT_EQ(me.other_errors, 0u) << "producer " << p;
    for (std::size_t i = 0; i < me.tickets.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(me.tickets[i - 1], me.tickets[i]) << "producer " << p;
      }
      producer_of.emplace(me.tickets[i], p);
    }
    accepted += me.tickets.size();
    shed += me.shed;
  }
  EXPECT_GT(shed, 0u);
  ASSERT_EQ(answered.size(), accepted);
  ASSERT_EQ(producer_of.size(), accepted);
  for (std::size_t i = 0; i < answered.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(answered[i - 1].first, answered[i].first) << "response " << i;
    }
    const auto it = producer_of.find(answered[i].first);
    ASSERT_NE(it, producer_of.end()) << "ticket " << answered[i].first;
    EXPECT_EQ(answered[i].second, it->second) << "ticket " << it->first;
  }
  EXPECT_EQ(server.stats().submitted, accepted);
  EXPECT_EQ(server.stats().shed, shed);
}

TEST(Server, BatchedSameUeMatchesSequentialBitwise) {
  // A UE submitting twice into one batch must see exactly the windows it
  // would have seen submitting one step at a time.
  const auto samples = run_samples(0, 10);
  ManualClock c1, c2;
  Server batched(make_predictor(), ServerConfig{}, c1);
  Server sequential(make_predictor(), ServerConfig{}, c2);

  std::vector<Response> seq_out;
  for (const auto& s : samples) {
    ASSERT_TRUE(batched.submit({7, s, 0}).has_value());
    seq_out.push_back(serve_one(sequential, 7, s));
  }
  const auto batch_out = batched.step();  // one batch, all ten requests
  ASSERT_EQ(batch_out.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    expect_same_result(batch_out[i].result, seq_out[i].result);
  }
}

// ---------- deadlines ----------

TEST(Server, ExpiredRequestsAreTypedAndCostNoModelWork) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.default_deadline_ms = 100;
  Server server(make_predictor(), cfg, clock);
  for (const auto& s : run_samples(0, 3)) {
    ASSERT_TRUE(server.submit({1, s, 0}).has_value());
  }
  clock.advance_ms(200);  // all three now past their budget
  const auto out = server.step();
  ASSERT_EQ(out.size(), 3u);
  for (const auto& r : out) {
    ASSERT_FALSE(r.result.has_value());
    EXPECT_EQ(r.result.error().code, ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.stats().deadline_expired, 3u);
  EXPECT_EQ(server.stats().served, 0u);
  // No session was created for the expired UE: expiry costs nothing.
  EXPECT_EQ(server.n_sessions(), 0u);
}

TEST(Server, PerRequestDeadlineOverridesDefault) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.default_deadline_ms = 10'000;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 2);
  ASSERT_TRUE(server.submit({1, samples[0], 50}).has_value());   // tight
  ASSERT_TRUE(server.submit({2, samples[1], 0}).has_value());    // default
  clock.advance_ms(100);
  const auto out = server.step();
  ASSERT_EQ(out.size(), 2u);
  ASSERT_FALSE(out[0].result.has_value());
  EXPECT_EQ(out[0].result.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(out[1].result.has_value() ||
              out[1].result.error().code != ErrorCode::kDeadlineExceeded);
}

TEST(Server, ZeroDeadlineNeverExpires) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);  // default 0
  ASSERT_TRUE(server.submit({1, run_samples(0, 1)[0], 0}).has_value());
  clock.advance_ms(1'000'000'000);
  const auto out = server.step();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].result.has_value() ||
              out[0].result.error().code != ErrorCode::kDeadlineExceeded);
}

// A budget that reaches past the end of the clock saturates; it must not
// wrap around into an expiry in the past.
TEST(Server, HugeDeadlineNeverExpires) {
  ManualClock clock(1'000);
  Server server(make_predictor(), ServerConfig{}, clock);
  ASSERT_TRUE(server
                  .submit({1, run_samples(0, 1)[0],
                           std::numeric_limits<std::uint64_t>::max()})
                  .has_value());
  clock.advance_ms(5);
  const auto out = server.step();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].result.has_value() ||
              out[0].result.error().code != ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_expired, 0u);
}

// ---------- watermark degradation ----------

TEST(Server, MinTierForDepthIsMonotone) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.queue_capacity = 100;
  cfg.degrade_watermarks = {0.85, 0.50, 0.70};  // deliberately unsorted
  Server server(make_predictor(), cfg, clock);

  EXPECT_EQ(server.min_tier_for_depth(0), 0u);
  std::size_t prev = 0;
  for (std::size_t d = 0; d <= cfg.queue_capacity; ++d) {
    const std::size_t t = server.min_tier_for_depth(d);
    EXPECT_GE(t, prev) << "depth " << d;
    EXPECT_LE(t, server.predictor().tier_specs().size());
    prev = t;
  }
  EXPECT_EQ(server.min_tier_for_depth(49), 0u);
  EXPECT_EQ(server.min_tier_for_depth(50), 1u);
  EXPECT_EQ(server.min_tier_for_depth(70), 2u);
  EXPECT_EQ(server.min_tier_for_depth(85),
            std::min<std::size_t>(3, server.predictor().tier_specs().size()));
}

TEST(Server, PressureDegradesServedTierHonestly) {
  const auto warm = run_samples(0, 8);
  const auto extra = run_samples(0, 4, 18);

  // Control: no pressure — full-context window answers from tier 0.
  ManualClock c1;
  ServerConfig cfg;
  cfg.queue_capacity = 8;
  cfg.degrade_watermarks = {0.25};
  cfg.shed_watermark = 1.0;
  Server control(make_predictor(), cfg, c1);
  for (const auto& s : warm) serve_one(control, 1, s);
  const Response calm = serve_one(control, 1, extra[0]);
  ASSERT_TRUE(calm.result.has_value());
  ASSERT_EQ(calm.result->tier, 0);
  EXPECT_EQ(calm.min_tier, 0u);

  // Pressured: same warm window, but four requests queued at once crosses
  // the 0.25 watermark -> the whole batch is served with min_tier >= 1 and
  // the responses report the degraded tier honestly.
  ManualClock c2;
  Server pressured(make_predictor(), cfg, c2);
  for (const auto& s : warm) serve_one(pressured, 1, s);
  const std::uint64_t tier0_after_warm = pressured.stats().served_by_tier[0];
  for (const auto& s : extra) {
    ASSERT_TRUE(pressured.submit({1, s, 0}).has_value());
  }
  const auto out = pressured.step();
  ASSERT_EQ(out.size(), 4u);
  for (const auto& r : out) {
    EXPECT_GE(r.min_tier, 1u);
    if (r.result.has_value()) {
      EXPECT_GE(r.result->tier, 1);
    }
  }
  // Nothing in the pressured batch was answered from tier 0.
  EXPECT_EQ(pressured.stats().served_by_tier[0], tier0_after_warm);
}

// ---------- session lifecycle ----------

TEST(Server, UnrelatedEvictionPreservesBitIdentity) {
  // UE A's predictions must be bit-identical whether or not an unrelated
  // UE B ever existed, got evicted, or was rebuilt. Server `with_b`
  // interleaves B traffic and then LRU-evicts B via fresh UEs; A's answer
  // stream must not move by a bit.
  const auto a_samples = run_samples(0, 12);
  const auto b_samples = run_samples(1, 6);

  ManualClock c1, c2;
  ServerConfig cfg;
  cfg.max_sessions = 3;
  Server alone(make_predictor(), cfg, c1);
  Server with_b(make_predictor(), cfg, c2);

  std::vector<Response> a_alone, a_with_b;
  for (std::size_t i = 0; i < a_samples.size(); ++i) {
    a_alone.push_back(serve_one(alone, 1, a_samples[i]));
    if (i < b_samples.size()) serve_one(with_b, 2, b_samples[i]);
    a_with_b.push_back(serve_one(with_b, 1, a_samples[i]));
    if (i == 7) {
      // Two fresh UEs: the 3-session LRU evicts B (A was touched later).
      serve_one(with_b, 30, b_samples[0]);
      serve_one(with_b, 31, b_samples[1]);
      EXPECT_GE(with_b.stats().evicted_lru, 1u);
    }
  }
  ASSERT_EQ(a_alone.size(), a_with_b.size());
  for (std::size_t i = 0; i < a_alone.size(); ++i) {
    expect_same_result(a_alone[i].result, a_with_b[i].result);
  }
}

TEST(Server, LruEvictionIsDeterministicAndRebuildsTransparently) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.max_sessions = 2;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 6);

  serve_one(server, 1, samples[0]);  // A
  serve_one(server, 2, samples[1]);  // B (A is now least recent)
  EXPECT_EQ(server.n_sessions(), 2u);
  serve_one(server, 3, samples[2]);  // C arrives -> A evicted
  EXPECT_EQ(server.n_sessions(), 2u);
  EXPECT_EQ(server.stats().evicted_lru, 1u);

  // A comes back: a fresh session is built transparently — the request is
  // answered (possibly from a lower tier), never an error about eviction.
  const Response r = serve_one(server, 1, samples[3]);
  EXPECT_EQ(server.stats().evicted_lru, 2u);  // B was the next victim
  EXPECT_TRUE(r.result.has_value() ||
              r.result.error().code == ErrorCode::kWindowUnusable);
}

TEST(Server, TtlEvictsIdleSessions) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.session_ttl_ms = 1000;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 2);

  serve_one(server, 1, samples[0]);
  EXPECT_EQ(server.n_sessions(), 1u);
  clock.advance_ms(5000);
  serve_one(server, 2, samples[1]);  // the step's sweep reaps idle UE 1
  EXPECT_EQ(server.n_sessions(), 1u);
  EXPECT_EQ(server.stats().evicted_ttl, 1u);
}

// The longest TTL must keep the session the same poll just created, not
// overflow into evicting it.
TEST(Server, HugeTtlNeverEvicts) {
  ManualClock clock(1'000);
  ServerConfig cfg;
  cfg.session_ttl_ms = std::numeric_limits<std::uint64_t>::max();
  Server server(make_predictor(), cfg, clock);
  serve_one(server, 1, run_samples(0, 1)[0]);
  EXPECT_EQ(server.n_sessions(), 1u);
  EXPECT_EQ(server.stats().evicted_ttl, 0u);
}

// ---------- session store: randomized differential ----------

/// The session rules spelled the slow, obvious way: a map keyed by use
/// sequence is the LRU order, and one Session per UE holds its window.
/// Fed the server's responses in order, it must agree with the server on
/// every window, eviction count and session count.
class SessionModel {
 public:
  explicit SessionModel(const ServerConfig& cfg) : cfg_(cfg) {}

  /// A live (unexpired) request from `ue` served at `now`: touch or
  /// create its session (evicting the LRU victim at capacity), observe
  /// the sample, and return the window the prediction must see.
  std::span<const data::SampleRecord> serve(std::uint64_t ue,
                                            const data::SampleRecord& sample,
                                            std::uint64_t now) {
    auto it = by_ue_.find(ue);
    if (it == by_ue_.end()) {
      if (by_ue_.size() >= cfg_.max_sessions) {
        const auto victim = by_seq_.begin();
        by_ue_.erase(victim->second);
        by_seq_.erase(victim);
        ++evicted_lru;
      }
      it = by_ue_.emplace(ue, Entry{Session(cfg_.session_capacity), 0, 0})
               .first;
    } else {
      by_seq_.erase(it->second.seq);
    }
    it->second.last_used_ms = now;
    it->second.seq = ++seq_;
    by_seq_.emplace(seq_, ue);
    it->second.session.observe(sample);
    return it->second.session.window();
  }

  /// The end-of-poll TTL sweep at the poll's `now`.
  void sweep(std::uint64_t now) {
    if (cfg_.session_ttl_ms == 0) return;
    for (auto it = by_ue_.begin(); it != by_ue_.end();) {
      if (now - it->second.last_used_ms > cfg_.session_ttl_ms) {
        by_seq_.erase(it->second.seq);
        it = by_ue_.erase(it);
        ++evicted_ttl;
      } else {
        ++it;
      }
    }
  }

  std::size_t size() const { return by_ue_.size(); }

  std::uint64_t evicted_lru = 0;
  std::uint64_t evicted_ttl = 0;

 private:
  struct Entry {
    Session session;
    std::uint64_t last_used_ms;
    std::uint64_t seq;
  };
  ServerConfig cfg_;
  std::map<std::uint64_t, Entry> by_ue_;
  std::map<std::uint64_t, std::uint64_t> by_seq_;  ///< use sequence -> ue
  std::uint64_t seq_ = 0;
};

/// Samples drawn from every airport run, so windows mix contexts.
const std::vector<data::SampleRecord>& sample_pool() {
  static const std::vector<data::SampleRecord> pool = [] {
    std::vector<data::SampleRecord> out;
    for (std::size_t r = 0; r < airport_ds().runs().size(); ++r) {
      for (const auto& s : run_samples(r, 24)) out.push_back(s);
    }
    return out;
  }();
  return pool;
}

/// One seeded operation sequence against a real server and the model.
/// Submit bursts (often repeating the previous UE, so one batch holds the
/// same UE twice), polls with `out` both shorter and longer than
/// max_batch, and forward clock steps, some across the TTL and past
/// request deadlines. Checked after every poll.
/// `variant` 1..3 picks the deadline default (odd: 300 ms) and the TTL
/// (200 ms, 2 s, off). `lanes` is the poll fan-out width.
void run_session_differential(std::size_t max_sessions, std::size_t capacity,
                              std::size_t lanes, std::uint64_t variant) {
  SCOPED_TRACE("max_sessions=" + std::to_string(max_sessions) +
               " capacity=" + std::to_string(capacity) +
               " lanes=" + std::to_string(lanes) +
               " variant=" + std::to_string(variant));
  static const Predictor direct = make_predictor();
  const auto& samples = sample_pool();

  ManualClock clock(1'000);
  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.shed_watermark = 1.0;
  cfg.max_batch = 8;
  cfg.default_deadline_ms = variant % 2 == 1 ? 300 : 0;
  cfg.max_sessions = max_sessions;
  cfg.session_ttl_ms = variant == 1 ? 200 : variant == 2 ? 2'000 : 0;
  cfg.session_capacity = capacity;
  // The lane count is the pool size at construction; serving then runs
  // on the environment's pool.
  ThreadPool::global().set_threads(lanes);
  Server server(make_predictor(), cfg, clock);
  ThreadPool::global().set_threads(0);
  SessionModel model(server.config());
  Rng rng(variant * 1'000'003 + max_sessions * 1009 + capacity * 17 + lanes);

  // More UEs than slots, including both ends of the id range.
  std::vector<std::uint64_t> ues = {0, std::numeric_limits<std::uint64_t>::max()};
  while (ues.size() < 2 * max_sessions + 3) ues.push_back(rng.next_u64());

  struct Sent {
    std::uint64_t ue;
    std::size_t sample;
    std::uint64_t budget;
    std::uint64_t enqueued_ms;
  };
  std::map<std::uint64_t, Sent> sent;  // ticket -> request
  std::deque<std::uint64_t> fifo;      // admitted tickets, oldest first
  std::vector<Response> out(cfg.max_batch + 2);
  std::uint64_t ue = ues[0];

  for (int op = 0; op < 400; ++op) {
    const std::uint64_t kind = rng.uniform_int(20);
    if (kind < 7) {
      const std::uint64_t burst = 1 + rng.uniform_int(cfg.max_batch);
      for (std::uint64_t b = 0; b < burst; ++b) {
        // Repeat the last UE, revisit a hot set one larger than the store
        // (windows grow, LRU still churns), or pick from the whole pool.
        const double pick = rng.uniform();
        if (pick >= 0.7) {
          ue = ues[rng.uniform_int(ues.size())];
        } else if (pick >= 0.3) {
          ue = ues[rng.uniform_int(max_sessions + 1)];
        }
        const Sent req{ue, rng.uniform_int(samples.size()),
                       rng.bernoulli(0.2) ? 1 + rng.uniform_int(400) : 0,
                       clock.now_ms()};
        const auto ticket =
            server.submit({req.ue, samples[req.sample], req.budget});
        if (ticket.has_value()) {
          sent.emplace(*ticket, req);
          fifo.push_back(*ticket);
        } else {
          ASSERT_EQ(ticket.error().code, ErrorCode::kOverloaded);
        }
      }
    } else if (kind < 17) {
      const std::size_t depth = server.queue_depth();
      const std::size_t room = rng.uniform_int(out.size() + 1);
      const std::uint64_t now = clock.now_ms();
      const std::size_t n = server.poll({out.data(), room});
      ASSERT_EQ(n, std::min({cfg.max_batch, depth, room}));
      for (std::size_t i = 0; i < n; ++i) {
        const Response& r = out[i];
        ASSERT_EQ(r.ticket, fifo.front());
        fifo.pop_front();
        const Sent req = sent.at(r.ticket);
        sent.erase(r.ticket);
        EXPECT_EQ(r.ue_id, req.ue);
        EXPECT_EQ(r.enqueued_ms, req.enqueued_ms);
        EXPECT_EQ(r.served_ms, now);
        EXPECT_EQ(r.min_tier, server.min_tier_for_depth(depth));
        const std::uint64_t budget =
            req.budget != 0 ? req.budget : cfg.default_deadline_ms;
        if (budget != 0 && now - req.enqueued_ms > budget) {
          ASSERT_FALSE(r.result.has_value());
          EXPECT_EQ(r.result.error().code, ErrorCode::kDeadlineExceeded);
          continue;
        }
        const auto window = model.serve(req.ue, samples[req.sample], now);
        expect_same_result(r.result, direct.predict(window, r.min_tier));
      }
      model.sweep(now);
      ASSERT_EQ(server.stats().evicted_lru, model.evicted_lru) << "op " << op;
      ASSERT_EQ(server.stats().evicted_ttl, model.evicted_ttl) << "op " << op;
      ASSERT_EQ(server.n_sessions(), model.size()) << "op " << op;
    } else if (kind < 19) {
      clock.advance_ms(rng.uniform_int(60));
    } else {
      clock.advance_ms(100 + rng.uniform_int(2'200));
    }
  }
}

class SessionDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SessionDifferential, MatchesReferenceModel) {
  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{3}, std::size_t{32}}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
      for (std::uint64_t variant = 1; variant <= 3; ++variant) {
        run_session_differential(GetParam(), capacity, lanes, variant);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Slots, SessionDifferential,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{7}, std::size_t{64}));

// ---------- hot reload ----------

TEST(Server, ReloadIdenticalArtifactPreservesBitIdentity) {
  const auto samples = run_samples(0, 12);
  ManualClock c1, c2;
  Server control(make_predictor(), ServerConfig{}, c1);
  Server reloaded(make_predictor(), ServerConfig{}, c2);

  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == 6) {
      const auto swapped = reloaded.reload_bytes(save_bytes(facade()));
      ASSERT_TRUE(swapped.has_value()) << swapped.error().message;
      EXPECT_EQ(reloaded.model_generation(), 2u);
      EXPECT_EQ(reloaded.stats().reloads_ok, 1u);
    }
    expect_same_result(serve_one(control, 1, samples[i]).result,
                       serve_one(reloaded, 1, samples[i]).result);
  }
}

TEST(Server, ReloadRollsBackOnCorruptArtifact) {
  const auto samples = run_samples(0, 10);
  ManualClock c1, c2;
  Server control(make_predictor(), ServerConfig{}, c1);
  Server server(make_predictor(), ServerConfig{}, c2);

  std::string damaged = save_bytes(facade());
  damaged[damaged.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(damaged[damaged.size() / 2]) ^
                        0x40);

  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == 5) {
      const auto swapped = server.reload_bytes(damaged);
      ASSERT_FALSE(swapped.has_value());
      EXPECT_EQ(swapped.error().code, ErrorCode::kCorrupt);
      EXPECT_NE(swapped.error().message.find("rolled back"),
                std::string::npos);
      EXPECT_EQ(server.model_generation(), 1u);
      EXPECT_EQ(server.stats().reloads_failed, 1u);
    }
    // The failed reload must be invisible to the request stream.
    expect_same_result(serve_one(control, 1, samples[i]).result,
                       serve_one(server, 1, samples[i]).result);
  }
}

TEST(Server, ReloadRollsBackOnTruncatedArtifact) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const std::string full = save_bytes(facade());
  const auto swapped = server.reload_bytes(full.substr(0, full.size() / 2));
  ASSERT_FALSE(swapped.has_value());
  EXPECT_EQ(swapped.error().code, ErrorCode::kTruncated);
  EXPECT_EQ(server.model_generation(), 1u);
}

TEST(Server, ReloadRetriesTransientIoWithBackoffThenGivesUp) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.reload_max_attempts = 3;
  cfg.reload_backoff_ms = 10;
  Server server(make_predictor(), cfg, clock);

  const std::uint64_t t0 = clock.now_ms();
  const auto r = server.reload("/nonexistent/lumos/model.l5gm");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
  EXPECT_NE(r.error().message.find("gave up after 3"), std::string::npos);
  // Exponential backoff between attempts: 10 + 20 ms slept on the clock.
  EXPECT_EQ(clock.now_ms() - t0, 30u);
  EXPECT_EQ(server.stats().reload_attempts, 3u);
  EXPECT_EQ(server.model_generation(), 1u);
}

TEST(Server, ReloadValidationFailureDoesNotRetry) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.reload_max_attempts = 5;
  cfg.reload_backoff_ms = 10;
  Server server(make_predictor(), cfg, clock);

  // Private to this process: ctest runs this binary under three
  // LUMOS_THREADS registrations at once, and a fixed name would let one
  // process overwrite or delete another's file mid-test.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lumos_test_server_reload." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "bad.l5gm";
  std::string damaged = save_bytes(facade());
  damaged[damaged.size() - 1] = static_cast<char>(
      static_cast<unsigned char>(damaged[damaged.size() - 1]) ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }

  const std::uint64_t t0 = clock.now_ms();
  const auto r = server.reload(path);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kCorrupt);
  // Retrying identical bytes cannot help: exactly one attempt, no backoff.
  EXPECT_EQ(server.stats().reload_attempts, 1u);
  EXPECT_EQ(clock.now_ms(), t0);
  std::filesystem::remove_all(dir);
}

TEST(Server, ReloadFromFileSwapsAndBumpsGeneration) {
  ManualClock clock;
  Server server(make_predictor(), ServerConfig{}, clock);
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("lumos_test_server_reload_ok." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.l5gm";
  ASSERT_TRUE(write_artifact(path, save_bytes(facade())).has_value());

  const auto r = server.reload(path);
  ASSERT_TRUE(r.has_value()) << r.error().message;
  EXPECT_EQ(server.model_generation(), 2u);
  EXPECT_EQ(server.stats().reloads_ok, 1u);
  std::filesystem::remove_all(dir);
}

// A reload may change the tier chain and the widest feature row: from the
// one-tier L+M model to the three-tier T+M+C chain (wider rows, so the
// columnar scratch must grow) and back (narrower: the scratch is kept).
// Every answer matches a server built fresh on the model that gave it,
// bit for bit, and the per-tier counters take the new chain's shape.
TEST(Server, ReloadAcrossTierChains) {
  const Predictor lm = make_predictor(lm_facade());
  const Predictor tmc = make_predictor();
  ASSERT_EQ(lm.tier_specs().size(), 1u);
  ASSERT_EQ(tmc.tier_specs().size(), 3u);
  ASSERT_LT(lm.max_width(), tmc.max_width());
  const std::string lm_bytes = save_bytes(lm_facade());
  const std::string tmc_bytes = save_bytes(facade());

  const auto samples = run_samples(0, 18);
  ManualClock c_lm, c_tmc, c_live;
  Server fresh_lm(Predictor(lm), ServerConfig{}, c_lm);
  Server fresh_tmc(Predictor(tmc), ServerConfig{}, c_tmc);
  Server live(Predictor(lm), ServerConfig{}, c_live);
  EXPECT_EQ(live.stats().served_by_tier.size(), 2u);

  std::uint64_t served_since_reload = 0;
  std::size_t models_disagree = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == 6 || i == 12) {
      const auto swapped = live.reload_bytes(i == 6 ? tmc_bytes : lm_bytes);
      ASSERT_TRUE(swapped.has_value()) << swapped.error().message;
      EXPECT_EQ(live.stats().served_by_tier.size(), i == 6 ? 4u : 2u);
      served_since_reload = 0;
    }
    // Sessions survive a reload, so each fresh server sees every sample.
    const Response want_lm = serve_one(fresh_lm, 1, samples[i]);
    const Response want_tmc = serve_one(fresh_tmc, 1, samples[i]);
    const Response got = serve_one(live, 1, samples[i]);
    const bool on_tmc = i >= 6 && i < 12;
    expect_same_result(got.result, on_tmc ? want_tmc.result : want_lm.result);
    if (on_tmc && want_tmc.result.has_value() && want_lm.result.has_value() &&
        want_tmc.result->feature_group != want_lm.result->feature_group) {
      ++models_disagree;
    }
    if (got.result.has_value()) ++served_since_reload;
    if (i >= 6) {
      const auto& by_tier = live.stats().served_by_tier;
      EXPECT_EQ(std::accumulate(by_tier.begin(), by_tier.end(),
                                std::uint64_t{0}),
                served_since_reload)
          << "sample " << i;
    }
  }
  EXPECT_EQ(live.model_generation(), 3u);
  EXPECT_EQ(live.stats().reloads_ok, 2u);
  // The two chains answer from different feature groups, so the matches
  // above tell the models apart.
  EXPECT_GT(models_disagree, 0u);
}

// ---------- accounting ----------

TEST(Server, StatsPartitionEveryAdmittedRequest) {
  ManualClock clock;
  ServerConfig cfg;
  cfg.default_deadline_ms = 100;
  Server server(make_predictor(), cfg, clock);
  const auto samples = run_samples(0, 8);

  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.submit({1, samples[i], 0}).has_value());
  }
  clock.advance_ms(200);  // first four expire
  for (std::size_t i = 4; i < 8; ++i) {
    ASSERT_TRUE(server.submit({1, samples[i], 0}).has_value());
  }
  server.drain();

  const auto& st = server.stats();
  EXPECT_EQ(st.submitted, 8u);
  EXPECT_EQ(st.served + st.failed + st.deadline_expired, st.submitted);
  std::uint64_t by_tier = 0;
  for (const auto n : st.served_by_tier) by_tier += n;
  EXPECT_EQ(by_tier, st.served);
}

}  // namespace
}  // namespace lumos::serve
