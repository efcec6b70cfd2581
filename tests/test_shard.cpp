// Sharded serving suite (DESIGN §12).
//
// Bit-identity contracts under test:
//   * FlatForest::predict_columnar at batch sizes that are NOT multiples
//     of the 64-row block (1, 63, 65, 127) matches the pointer-tree
//     predict() bitwise;
//   * a Server with 8 shards answers the same response stream, bit for
//     bit, as a Server with 1 shard — including when every request lands
//     on one shard (the other seven stay empty all run);
//   * more shards than pool threads still drains every admitted ticket,
//     at any LUMOS_GRAIN floor.
//
// Every assertion must hold at any LUMOS_THREADS (the suite runs under
// those pins from CMake).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

// ---------- sharded server vs single shard ----------

/// Drives `samples` through a server (UE id = sample index % n_ues,
/// stepping every `batch` submissions) and returns the response stream in
/// arrival order.
std::vector<Response> drive(Server& server, ManualClock& clock,
                            const std::vector<data::SampleRecord>& samples,
                            std::size_t n_ues, std::size_t batch) {
  std::vector<Response> out;
  std::size_t i = 0;
  for (const auto& s : samples) {
    const auto ticket = server.submit({i % n_ues, s, 0});
    EXPECT_TRUE(ticket.has_value());
    if (++i % batch == 0) {
      clock.advance_ms(1'000);
      for (auto& r : server.step()) out.push_back(std::move(r));
    }
  }
  for (auto& r : server.drain()) out.push_back(std::move(r));
  return out;
}

ServerConfig shard_cfg(std::size_t num_shards) {
  ServerConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.num_shards = num_shards;
  return cfg;
}

TEST(ShardServer, EightShardsMatchOneShardBitwise) {
  const auto samples = run_samples(0, 48);
  ManualClock clock1, clock8;
  Server one(make_predictor(), shard_cfg(1), clock1);
  Server eight(make_predictor(), shard_cfg(8), clock8);
  EXPECT_EQ(one.n_shards(), 1u);
  EXPECT_EQ(eight.n_shards(), 8u);
  const auto r1 = drive(one, clock1, samples, /*n_ues=*/6, /*batch=*/12);
  const auto r8 = drive(eight, clock8, samples, /*n_ues=*/6, /*batch=*/12);
  ASSERT_EQ(r1.size(), samples.size());
  ASSERT_EQ(r8.size(), r1.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    expect_same_response(r1[i], r8[i]);
  }
  EXPECT_EQ(one.stats().served, eight.stats().served);
  EXPECT_EQ(one.stats().failed, eight.stats().failed);
}

// Single-UE flood: every request hashes to the same shard, so seven of
// the eight shards stay empty through every poll — the merge must not
// stall on them, and the stream must still match the 1-shard server.
TEST(ShardServer, SingleUeFloodLandsOnOneShardAndMatches) {
  const auto samples = run_samples(0, 40);
  ManualClock clock1, clock8;
  Server one(make_predictor(), shard_cfg(1), clock1);
  Server eight(make_predictor(), shard_cfg(8), clock8);
  const auto r1 = drive(one, clock1, samples, /*n_ues=*/1, /*batch=*/16);
  const auto r8 = drive(eight, clock8, samples, /*n_ues=*/1, /*batch=*/16);
  ASSERT_EQ(r1.size(), samples.size());
  ASSERT_EQ(r8.size(), r1.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    expect_same_response(r1[i], r8[i]);
  }
}

// An empty server polls to an empty batch regardless of shard count.
TEST(ShardServer, EmptyShardsPollToNothing) {
  ManualClock clock;
  Server server(make_predictor(), shard_cfg(8), clock);
  EXPECT_TRUE(server.step().empty());
  EXPECT_EQ(server.queue_depth(), 0u);
}

// More shards than pool threads: the fork-join fan-out hands several
// shards to one worker; every admitted ticket must still be answered
// exactly once — including with the grain floor forced so high that the
// whole fan-out collapses into a single chunk.
TEST(ShardServer, MoreShardsThanThreadsDrains) {
  const auto samples = run_samples(0, 32);
  ThreadPool::global().set_threads(2);
  for (const std::size_t floor : {std::size_t{0}, std::size_t{16}}) {
    set_grain_floor(floor);
    ManualClock clock;
    Server server(make_predictor(), shard_cfg(8), clock);
    const auto responses =
        drive(server, clock, samples, /*n_ues=*/8, /*batch=*/16);
    EXPECT_EQ(responses.size(), samples.size()) << "grain floor " << floor;
    EXPECT_EQ(server.queue_depth(), 0u);
  }
  set_grain_floor(0);
  ThreadPool::global().set_threads(0);
}

}  // namespace
}  // namespace lumos::serve
