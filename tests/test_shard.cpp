// Batch-split serving suite (DESIGN §12).
//
// Bit-identity contracts under test:
//   * FlatForest::predict_columnar at batch sizes that are NOT multiples
//     of the 64-row block (1, 63, 65, 127) matches the pointer-tree
//     predict() bitwise;
//   * a Server whose poll fans out over 8 lanes answers the same response
//     stream, bit for bit, as a 1-lane Server — including when one UE's
//     windows fill every lane, and when a poll holds fewer live windows
//     than there are lanes;
//   * more lanes than pool threads still answers every admitted ticket
//     exactly once, with the 1-lane stream.
//
// The lane count is the pool size at construction, so the servers below
// are built under a pinned pool and then serve under the environment's.
// Every assertion must hold at any LUMOS_THREADS (the suite runs under
// those pins from CMake).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "core/lumos5g.h"
#include "data/column_store.h"
#include "data/features.h"
#include "ml/gbdt.h"
#include "serve/flat_model.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace lumos::serve {
namespace {

std::uint64_t bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

const data::BuiltFeatures& built() {
  static const data::BuiltFeatures b = data::build_features(
      airport_ds(), data::FeatureSetSpec::parse("L+M+C"), {});
  return b;
}

const ml::GbdtRegressor& gbdt() {
  static const ml::GbdtRegressor* model = [] {
    ml::GbdtConfig cfg;
    cfg.n_estimators = 40;
    cfg.max_depth = 5;
    auto* m = new ml::GbdtRegressor(cfg);
    m->fit(built().x, built().y_reg);
    return m;
  }();
  return *model;
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

/// `n` consecutive full-context samples from one walk run.
std::vector<data::SampleRecord> run_samples(std::size_t run_idx,
                                            std::size_t n,
                                            std::size_t offset = 10) {
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  EXPECT_LT(run_idx, runs.size());
  const auto& run = runs[run_idx % runs.size()];
  EXPECT_LE(offset + n, run.size());
  std::vector<data::SampleRecord> out;
  out.reserve(n);
  for (std::size_t i = offset; i < offset + n; ++i) out.push_back(ds[run[i]]);
  return out;
}

void expect_same_response(const Response& a, const Response& b) {
  EXPECT_EQ(a.ticket, b.ticket);
  EXPECT_EQ(a.ue_id, b.ue_id);
  EXPECT_EQ(a.min_tier, b.min_tier);
  ASSERT_EQ(a.result.has_value(), b.result.has_value());
  if (!a.result.has_value()) {
    EXPECT_EQ(a.result.error().code, b.result.error().code);
    return;
  }
  EXPECT_EQ(bits(a.result->throughput_mbps), bits(b.result->throughput_mbps));
  EXPECT_EQ(a.result->throughput_class, b.result->throughput_class);
  EXPECT_EQ(a.result->tier, b.result->tier);
}

// ---------- columnar walk: tail sizes ----------

// Batch sizes straddling the 64-row block: 1 (pure tail), 63 (one short
// block), 65 (full block + 1-row tail), 127 (block + 63 tail). Each must
// match the pointer tree's per-row predict() bitwise.
TEST(ShardWalk, ColumnarMatchesRowPredictAtTailSizes) {
  const FlatForest flat = FlatForest::flatten(gbdt());
  const data::ColumnStore cols = data::ColumnStore::from_matrix(built().x);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                              std::size_t{65}, std::size_t{127}}) {
    ASSERT_LE(n, built().x.rows());
    std::vector<double> out(n);
    flat.predict_columnar(cols.block(0, n), out);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(bits(out[r]), bits(gbdt().predict(built().x.row(r))))
          << "row " << r << " of " << n;
    }
  }
}

// ---------- lane split vs one lane ----------

/// Drives `samples` through a server (UE id = sample index % n_ues,
/// polling every `batch` submissions, then until the queue is empty) and
/// returns the response stream in arrival order.
std::vector<Response> drive(Server& server, ManualClock& clock,
                            const std::vector<data::SampleRecord>& samples,
                            std::size_t n_ues, std::size_t batch) {
  std::vector<Response> out;
  std::vector<Response> slots(server.config().max_batch);
  const auto poll = [&] {
    const std::size_t n = server.poll(slots);
    out.insert(out.end(), slots.begin(), slots.begin() + n);
  };
  std::size_t i = 0;
  for (const auto& s : samples) {
    const auto ticket = server.submit({i % n_ues, s, 0});
    EXPECT_TRUE(ticket.has_value());
    if (++i % batch == 0) {
      clock.advance_ms(1'000);
      poll();
    }
  }
  while (server.queue_depth() > 0) poll();
  return out;
}

ServerConfig lane_cfg() {
  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  return cfg;
}

/// A server whose polls fan out over `lanes` lanes (at most max_batch):
/// built under a pool of that size, which then returns to the
/// environment default for serving.
std::unique_ptr<Server> lane_server(std::size_t lanes, ManualClock& clock) {
  ThreadPool::global().set_threads(lanes);
  auto server = std::make_unique<Server>(make_predictor(), lane_cfg(), clock);
  ThreadPool::global().set_threads(0);
  return server;
}

void expect_same_stream(const std::vector<Response>& a,
                        const std::vector<Response>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same_response(a[i], b[i]);
}

TEST(LaneServer, EightLanesMatchOneLaneBitwise) {
  const auto samples = run_samples(0, 48);
  ManualClock clock1, clock8;
  const auto one = lane_server(1, clock1);
  const auto eight = lane_server(8, clock8);
  const auto r1 = drive(*one, clock1, samples, /*n_ues=*/6, /*batch=*/12);
  const auto r8 = drive(*eight, clock8, samples, /*n_ues=*/6, /*batch=*/12);
  ASSERT_EQ(r1.size(), samples.size());
  expect_same_stream(r1, r8);
  EXPECT_EQ(one->stats().served, eight->stats().served);
  EXPECT_EQ(one->stats().failed, eight->stats().failed);
}

// Single-UE flood: each 16-request poll holds sixteen windows of one UE,
// each a snapshot one observation later than the last, so the lane split
// cuts one session's history across all eight lanes. The stream must
// still match the 1-lane server.
TEST(LaneServer, SingleUeFloodSplitsAcrossLanesAndMatches) {
  const auto samples = run_samples(0, 40);
  ManualClock clock1, clock8;
  const auto one = lane_server(1, clock1);
  const auto eight = lane_server(8, clock8);
  const auto r1 = drive(*one, clock1, samples, /*n_ues=*/1, /*batch=*/16);
  const auto r8 = drive(*eight, clock8, samples, /*n_ues=*/1, /*batch=*/16);
  ASSERT_EQ(r1.size(), samples.size());
  expect_same_stream(r1, r8);
}

// An empty poll returns nothing at any lane count, and polls of 1 to 7
// live windows — fewer than the 8 lanes, so only that many lanes run —
// match the 1-lane server.
TEST(LaneServer, EmptyAndNarrowPollsMatchOneLane) {
  ManualClock clock1, clock8;
  const auto one = lane_server(1, clock1);
  const auto eight = lane_server(8, clock8);
  std::vector<Response> slots(lane_cfg().max_batch);
  EXPECT_EQ(one->poll(slots), 0u);
  EXPECT_EQ(eight->poll(slots), 0u);
  EXPECT_EQ(eight->queue_depth(), 0u);
  for (std::size_t batch = 1; batch < 8; ++batch) {
    const auto samples = run_samples(batch % 4, 3 * batch);
    const auto r1 = drive(*one, clock1, samples, /*n_ues=*/5, batch);
    const auto r8 = drive(*eight, clock8, samples, /*n_ues=*/5, batch);
    ASSERT_EQ(r1.size(), samples.size()) << "batch " << batch;
    expect_same_stream(r1, r8);
  }
}

// More lanes than pool threads: built at pool 8, served at pool 2, so each
// worker walks several lanes. Every admitted ticket must be answered
// exactly once, and the stream must equal the 1-lane stream.
TEST(LaneServer, MoreLanesThanThreadsDrains) {
  const auto samples = run_samples(0, 32);
  ManualClock clock1, clock8;
  const auto one = lane_server(1, clock1);
  const auto r1 = drive(*one, clock1, samples, /*n_ues=*/8, /*batch=*/16);
  ThreadPool::global().set_threads(8);
  Server eight(make_predictor(), lane_cfg(), clock8);
  ThreadPool::global().set_threads(2);
  const auto r8 = drive(eight, clock8, samples, /*n_ues=*/8, /*batch=*/16);
  ThreadPool::global().set_threads(0);
  ASSERT_EQ(r8.size(), samples.size());
  EXPECT_EQ(eight.queue_depth(), 0u);
  std::set<std::uint64_t> answered;
  for (const auto& r : r8) {
    EXPECT_TRUE(answered.insert(r.ticket).second) << "ticket " << r.ticket;
  }
  EXPECT_EQ(answered.size(), eight.stats().submitted);
  expect_same_stream(r1, r8);
}

}  // namespace
}  // namespace lumos::serve
