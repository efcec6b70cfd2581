// Tests for lumos::serve — the versioned binary artifact format
// (deterministic saves, bit-exact round-trips, typed failure on truncated /
// bit-flipped / wrong-version / wrong-kind / wrong-width / non-adjacent
// artifacts, the same code from both loaders), the flattened inference
// layout (bit-identical to the pointer-layout models), and the batched
// serving Predictor (bit-identical to the Lumos5G facade, batch ==
// individual, loaded == compiled).
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "core/lumos5g.h"
#include "data/features.h"
#include "ml/gbdt.h"
#include "serve/flat_model.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

namespace lumos::serve {
namespace {

/// Bit-pattern comparison: "bit-identical" is the contract, not "close".
std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }

const data::Dataset& airport_ds() {
  static const data::Dataset ds = [] {
    const sim::Area area = sim::make_airport();
    return sim::collect_area_dataset(area, /*walk_runs=*/6, 0, 4242);
  }();
  return ds;
}

/// L+M+C supervised matrix shared by the plain-model tests.
const data::BuiltFeatures& lmc() {
  static const data::BuiltFeatures bf =
      data::build_features(airport_ds(), data::FeatureSetSpec::parse("L+M+C"));
  return bf;
}

ml::GbdtConfig small_gbdt() {
  ml::GbdtConfig cfg;
  cfg.n_estimators = 40;
  cfg.max_depth = 5;
  return cfg;
}

const ml::GbdtRegressor& gbdt_reg() {
  static const ml::GbdtRegressor* m = [] {
    auto* r = new ml::GbdtRegressor(small_gbdt());
    r->fit(lmc().x, lmc().y_reg);
    return r;
  }();
  return *m;
}

const ml::GbdtClassifier& gbdt_cls() {
  static const ml::GbdtClassifier* m = [] {
    auto* c = new ml::GbdtClassifier(small_gbdt());
    c->fit(lmc().x, lmc().y_cls, data::kNumThroughputClasses);
    return c;
  }();
  return *m;
}

core::Lumos5GConfig facade_config() {
  core::Lumos5GConfig cfg;
  cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  cfg.gbdt = small_gbdt();
  return cfg;
}

/// A trained T+M+C facade (three-tier fallback chain), shared.
const core::Lumos5G& facade() {
  static const core::Lumos5G* m = [] {
    auto* f = new core::Lumos5G(facade_config());
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

/// A deliberately tiny facade (few, shallow trees) whose artifact is small
/// enough for the damage matrix to load it hundreds of times.
const core::Lumos5G& small_facade() {
  static const core::Lumos5G* m = [] {
    core::Lumos5GConfig cfg = facade_config();
    cfg.gbdt.n_estimators = 4;
    cfg.gbdt.max_depth = 3;
    auto* f = new core::Lumos5G(cfg);
    const auto ok = f->train(airport_ds());
    EXPECT_TRUE(ok.has_value());
    return f;
  }();
  return *m;
}

const std::string& small_artifact() {
  static const std::string bytes = save_bytes(small_facade());
  return bytes;
}

/// An independent copy of the v2 envelope hash: word j of the hashed
/// prefix (8 bytes, little-endian) goes to lane j % 4 through one
/// multiply-rotate round, the zero-padded tail word to the next lane, and
/// the lanes then fold into the prefix length. Lets a test rewrite a
/// header field and still present a hash-valid artifact; `rehash(a) == a`
/// pins the on-disk algorithm.
std::string rehash(std::string bytes) {
  const std::size_t hash_at = bytes.size() - 8;
  const auto word = [&bytes](std::size_t at, std::size_t n) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
    }
    return w;
  };
  const auto round = [](std::uint64_t lane, std::uint64_t w) {
    return std::rotl(lane + w * 0xC2B2AE3D27D4EB4FULL, 31) *
           0x9E3779B185EBCA87ULL;
  };
  std::uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                           0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  const std::size_t words = hash_at / 8;
  for (std::size_t j = 0; j < words; ++j) {
    lane[j % 4] = round(lane[j % 4], word(8 * j, 8));
  }
  lane[words % 4] = round(lane[words % 4], word(8 * words, hash_at % 8));
  std::uint64_t h = hash_at;
  for (const std::uint64_t l : lane) h = round(h, l);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[hash_at + i] = static_cast<char>((h >> (8 * i)) & 0xFFU);
  }
  return bytes;
}

/// The damage matrix runs every damaged input through both loaders:
/// load_lumos5g and load_predictor must each reject it, with the same
/// ErrorCode (anything else fails the calling test). Returns that code.
std::optional<ErrorCode> rejected_as(std::string_view bytes) {
  const auto facade = load_lumos5g(bytes);
  const auto flat = load_predictor(bytes);
  if (facade.has_value() || flat.has_value()) {
    ADD_FAILURE() << "damaged input loaded: load_lumos5g "
                  << facade.has_value() << ", load_predictor "
                  << flat.has_value();
    return std::nullopt;
  }
  EXPECT_EQ(facade.error().code, flat.error().code)
      << facade.error().describe() << " | " << flat.error().describe();
  return facade.error().code;
}

/// A temp path private to this process: ctest runs this binary's suite,
/// per-case and LUMOS_THREADS registrations concurrently, so a fixed name
/// would let one process see (or delete) another's files.
std::filesystem::path private_temp(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "." + std::to_string(::getpid()));
}

/// Query windows exercising every tier outcome: full context (tier 0),
/// missing panel geometry (tier 1+), and short histories.
std::vector<std::vector<data::SampleRecord>> query_windows() {
  std::vector<std::vector<data::SampleRecord>> windows;
  const auto& ds = airport_ds();
  const auto runs = ds.runs();
  for (std::size_t r = 0; r < runs.size() && windows.size() < 24; ++r) {
    const auto& run = runs[r];
    for (std::size_t start = 10; start + 8 < run.size() && windows.size() < 24;
         start += 37) {
      std::vector<data::SampleRecord> w;
      for (std::size_t i = start; i < start + 8; ++i) w.push_back(ds[run[i]]);
      windows.push_back(w);

      // Same window with panel geometry knocked out: T can't fire.
      auto degraded = w;
      for (auto& s : degraded) {
        s.ue_panel_distance_m = data::SampleRecord::nan_value();
        s.theta_p_deg = data::SampleRecord::nan_value();
        s.theta_m_deg = data::SampleRecord::nan_value();
      }
      windows.push_back(degraded);

      // Short history: lag features (group C) unavailable.
      windows.emplace_back(w.begin(), w.begin() + 2);
    }
  }
  return windows;
}

// ---------- artifact format ----------

TEST(ModelIo, SaveIsDeterministic) {
  const std::string fa = save_bytes(facade());
  const std::string fb = save_bytes(facade());
  EXPECT_EQ(fa, fb);
  EXPECT_GT(fa.size(), 25u);  // header + payload + hash
  EXPECT_EQ(static_cast<unsigned char>(fa[8]),
            static_cast<unsigned char>(ModelKind::kLumos5G));
}

// The GBDT payloads inside a Lumos5G artifact: every trained tier's
// regressor reloads bit-identically on that tier's own feature rows.
TEST(ModelIo, GbdtRegressorRoundTripBitIdentical) {
  const auto loaded = load_lumos5g(save_bytes(facade()));
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t t = 0; t < facade().tier_specs().size(); ++t) {
    if (!facade().tier_trained(t)) continue;
    const ml::GbdtRegressor& a = facade().tier_regressor(t);
    const ml::GbdtRegressor& b = loaded->tier_regressor(t);
    EXPECT_EQ(b.n_features(), a.n_features()) << "tier " << t;
    EXPECT_EQ(b.trees().size(), a.trees().size()) << "tier " << t;
    const auto built = data::build_features(
        airport_ds(), facade().tier_specs()[t], facade().config().features);
    for (std::size_t r = 0; r < built.x.rows(); ++r) {
      ASSERT_EQ(bits(b.predict(built.x.row(r))),
                bits(a.predict(built.x.row(r))))
          << "tier " << t << " row " << r;
    }
  }
}

// Same for every tier's classifier, per-class score by score.
TEST(ModelIo, GbdtClassifierRoundTripBitIdentical) {
  const auto loaded = load_lumos5g(save_bytes(facade()));
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t t = 0; t < facade().tier_specs().size(); ++t) {
    if (!facade().tier_trained(t)) continue;
    const ml::GbdtClassifier& a = facade().tier_classifier(t);
    const ml::GbdtClassifier& b = loaded->tier_classifier(t);
    EXPECT_EQ(b.n_classes(), a.n_classes()) << "tier " << t;
    const auto built = data::build_features(
        airport_ds(), facade().tier_specs()[t], facade().config().features);
    for (std::size_t r = 0; r < built.x.rows(); ++r) {
      const auto row = built.x.row(r);
      ASSERT_EQ(b.predict(row), a.predict(row)) << "tier " << t << " row " << r;
      const auto da = a.decision_function(row);
      const auto db = b.decision_function(row);
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t c = 0; c < da.size(); ++c) {
        ASSERT_EQ(bits(db[c]), bits(da[c]))
            << "tier " << t << " row " << r << " class " << c;
      }
    }
  }
}

TEST(ModelIo, Lumos5GRoundTripThroughFileBitIdentical) {
  const auto path = private_temp("lumos_test_serve_facade.l5gm");
  ASSERT_TRUE(save_model(facade(), path).has_value());
  const auto bytes = read_artifact(path);
  ASSERT_TRUE(bytes.has_value());
  const auto loaded = load_lumos5g(*bytes);
  ASSERT_TRUE(loaded.has_value());
  std::filesystem::remove(path);

  EXPECT_TRUE(loaded->trained());
  ASSERT_EQ(loaded->tier_specs().size(), facade().tier_specs().size());
  for (std::size_t t = 0; t < facade().tier_specs().size(); ++t) {
    EXPECT_EQ(loaded->tier_trained(t), facade().tier_trained(t)) << "tier " << t;
  }

  for (const auto& w : query_windows()) {
    const auto a = facade().predict(w);
    const auto b = loaded->predict(w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) {
      EXPECT_EQ(a.error().code, b.error().code);
      continue;
    }
    EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
    EXPECT_EQ(a->throughput_class, b->throughput_class);
    EXPECT_EQ(a->tier, b->tier);
    EXPECT_EQ(a->feature_group, b->feature_group);
  }
}

TEST(ModelIo, EveryTruncationIsTypedTruncated) {
  const std::string& full = small_artifact();
  // Every strict prefix must fail as kTruncated — sample lengths densely
  // near the header and stride through the payload.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 32 && n < full.size(); ++n) lengths.push_back(n);
  const std::size_t stride = std::max<std::size_t>(1, full.size() / 64);
  for (std::size_t n = 32; n < full.size(); n += stride) lengths.push_back(n);
  lengths.push_back(full.size() - 1);
  for (const std::size_t n : lengths) {
    EXPECT_EQ(rejected_as(full.substr(0, n)), ErrorCode::kTruncated)
        << "prefix length " << n;
  }
}

TEST(ModelIo, BitFlipsAreTypedNeverUb) {
  const std::string& full = small_artifact();
  const std::size_t stride = std::max<std::size_t>(1, full.size() / 96);
  for (std::size_t pos = 0; pos < full.size(); pos += stride) {
    for (const int bit : {0, 7}) {
      std::string damaged = full;
      damaged[pos] = static_cast<char>(
          static_cast<unsigned char>(damaged[pos]) ^ (1u << bit));
      const auto rejected = rejected_as(damaged);
      ASSERT_TRUE(rejected.has_value()) << "byte " << pos << " bit " << bit;
      const ErrorCode code = *rejected;
      EXPECT_TRUE(code == ErrorCode::kBadMagic ||
                  code == ErrorCode::kVersionMismatch ||
                  code == ErrorCode::kTruncated ||
                  code == ErrorCode::kCorrupt || code == ErrorCode::kParseError)
          << "byte " << pos << " bit " << bit << " -> " << to_string(code);
    }
  }
}

TEST(ModelIo, WrongMagicRejected) {
  std::string bytes = small_artifact();
  bytes[0] = 'X';
  EXPECT_EQ(rejected_as(bytes), ErrorCode::kBadMagic);
}

TEST(ModelIo, FutureVersionRejectedBeforeHashCheck) {
  // Patch the u32 version field at offset 4 to kFormatVersion + 1. The
  // hash no longer matches either, but version must win: the reader can't
  // trust its own layout knowledge on a future format. The previous
  // version fails the same way: v1 artifacts (FNV-1a envelope) are
  // rejected, never parsed.
  for (const std::uint32_t version : {kFormatVersion + 1, kFormatVersion - 1}) {
    std::string bytes = small_artifact();
    bytes[4] = static_cast<char>(version);
    EXPECT_EQ(rejected_as(bytes), ErrorCode::kVersionMismatch)
        << "version " << version;
  }
}

// The kind byte (offset 8) of a valid artifact rewritten to each retired
// tag (0-3: standalone GBDT / Random Forest models, 5: Seq2Seq) and to a
// never-assigned one, with the hash recomputed so only the kind is wrong.
TEST(ModelIo, WrongKindRejected) {
  ASSERT_EQ(rehash(small_artifact()), small_artifact());
  for (const int tag : {0, 1, 2, 3, 5, 200}) {
    std::string bytes = small_artifact();
    bytes[8] = static_cast<char>(tag);
    EXPECT_EQ(rejected_as(rehash(std::move(bytes))), ErrorCode::kParseError)
        << "tag " << tag;
  }
}

TEST(ModelIo, TrailingBytesRejected) {
  std::string bytes = small_artifact();
  bytes.push_back('\0');
  EXPECT_EQ(rejected_as(bytes), ErrorCode::kCorrupt);
}

TEST(ModelIo, EmptyAndTinyBuffersTruncated) {
  for (const std::string_view bytes : {std::string_view{}, std::string_view{"L"},
                                       std::string_view{"L5G"}}) {
    EXPECT_EQ(rejected_as(bytes), ErrorCode::kTruncated)
        << "length " << bytes.size();
  }
}

/// Copy of `base` whose regressor declares `n_features` and holds one
/// tree splitting on feature n_features - 1 — structurally valid for its
/// own stored width, whatever the tier's row width is.
ml::GbdtRegressor wide_regressor(const ml::GbdtRegressor& base,
                                 std::size_t n_features) {
  using Node = ml::GradientTree::Node;
  Node split;
  split.feature = static_cast<int>(n_features - 1);
  split.threshold = 0.5;
  split.bin = 0;
  split.left = 1;
  split.right = 2;
  Node lo;
  lo.value = 1.0;
  Node hi;
  hi.value = 2.0;
  ml::GradientTree tree;
  tree.restore({split, lo, hi}, {1.0, 0.0, 0.0}, 0);
  ml::GbdtRegressor wide(base.config());
  wide.restore(base.mapper(), base.base(), {tree}, n_features);
  return wide;
}

ml::GbdtClassifier wide_classifier(const ml::GbdtClassifier& base,
                                   std::size_t n_features) {
  ml::GbdtClassifier wide(base.config());
  wide.restore(base.mapper(), base.n_classes(), base.base(), base.trees(),
               n_features);
  return wide;
}

/// A hash-valid artifact both loaders reject with kParseError also rolls a
/// live server back: the generation stays put and the old model (the
/// small facade) still answers, bit for bit.
void expect_parse_error_and_rollback(const std::string& bytes) {
  EXPECT_EQ(rejected_as(bytes), ErrorCode::kParseError);

  const core::Lumos5G& good = small_facade();
  auto compiled = Predictor::compile(good);
  ASSERT_TRUE(compiled.has_value());
  ManualClock clock;
  Server server(std::move(*compiled), ServerConfig{}, clock);
  const auto reload = server.reload_bytes(bytes);
  ASSERT_FALSE(reload.has_value());
  EXPECT_EQ(reload.error().code, ErrorCode::kParseError);
  EXPECT_EQ(server.model_generation(), 1u);

  const auto windows = query_windows();
  const auto& window = windows.front();
  for (std::size_t i = 0; i < window.size(); ++i) {
    ASSERT_TRUE(server.submit({7, window[i], 0}).has_value());
  }
  const auto responses = server.drain();
  ASSERT_EQ(responses.size(), window.size());
  const auto expect = good.predict(window);
  const auto& got = responses.back().result;
  ASSERT_TRUE(expect.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(bits(got->throughput_mbps), bits(expect->throughput_mbps));
  EXPECT_EQ(got->tier, expect->tier);
}

// A hash-valid artifact whose tier-0 model declares more features than the
// tier's row holds must not load: serving would walk that split past the
// end of the feature row. Reloading it into a live server rolls back.
TEST(ModelIo, TierWiderThanItsRowRejected) {
  const core::Lumos5G& good = small_facade();
  ASSERT_TRUE(good.tier_trained(0));
  const std::size_t width =
      data::feature_width(good.tier_specs()[0], good.config().features);
  ASSERT_EQ(good.tier_regressor(0).n_features(), width);

  core::Lumos5G wide_reg = good;
  wide_reg.restore_tier(0, wide_regressor(good.tier_regressor(0), width + 101),
                        good.tier_classifier(0));
  core::Lumos5G wide_cls = good;
  wide_cls.restore_tier(0, good.tier_regressor(0),
                        wide_classifier(good.tier_classifier(0), width + 1));
  for (const core::Lumos5G* bad : {&wide_reg, &wide_cls}) {
    SCOPED_TRACE(bad == &wide_reg ? "wide regressor" : "wide classifier");
    expect_parse_error_and_rollback(save_bytes(*bad));
  }
}

/// Copy of `base` holding one four-node tree whose split sends rows to
/// children `left` and `right`: forward and in range, so format v1
/// accepted it, but not necessarily an adjacent pair.
ml::GbdtRegressor split_regressor(const ml::GbdtRegressor& base, int left,
                                  int right) {
  using Node = ml::GradientTree::Node;
  Node split;
  split.feature = 0;
  split.threshold = 0.5;
  split.bin = 0;
  split.left = left;
  split.right = right;
  Node leaf;
  leaf.value = 1.0;
  ml::GradientTree tree;
  tree.restore({split, leaf, leaf, leaf}, {1.0, 0.0, 0.0, 0.0}, 0);
  ml::GbdtRegressor out(base.config());
  out.restore(base.mapper(), base.base(), {tree}, base.n_features());
  return out;
}

// Format v2 requires every split's children to be an adjacent pair
// (right == left + 1), which lets the serving loader copy a tree without
// relinking it. A hash-valid artifact breaking only that rule fails with
// kParseError from both loaders, and a live server rolls back.
TEST(ModelIo, NonAdjacentChildrenRejected) {
  const core::Lumos5G& good = small_facade();
  ASSERT_TRUE(good.tier_trained(0));
  {
    // The control: the same tree with an adjacent pair loads.
    core::Lumos5G adjacent = good;
    adjacent.restore_tier(0, split_regressor(good.tier_regressor(0), 1, 2),
                          good.tier_classifier(0));
    EXPECT_TRUE(load_lumos5g(save_bytes(adjacent)).has_value());
    EXPECT_TRUE(load_predictor(save_bytes(adjacent)).has_value());
  }
  for (const auto& [left, right] : {std::pair{1, 3}, std::pair{2, 1}}) {
    SCOPED_TRACE("left " + std::to_string(left) + " right " +
                 std::to_string(right));
    core::Lumos5G bad = good;
    bad.restore_tier(0, split_regressor(good.tier_regressor(0), left, right),
                     good.tier_classifier(0));
    expect_parse_error_and_rollback(save_bytes(bad));
  }
}

TEST(ModelIo, MissingFileIsIoError) {
  const auto r = read_artifact("/nonexistent/lumos/model.l5gm");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
}

// ---------- flattened layout ----------

TEST(FlatModel, GbdtForestMatchesPointerBitwise) {
  const FlatForest flat = FlatForest::flatten(gbdt_reg());
  EXPECT_EQ(flat.n_trees(), gbdt_reg().trees().size());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    ASSERT_EQ(bits(flat.predict(lmc().x.row(r))),
              bits(gbdt_reg().predict(lmc().x.row(r))))
        << "row " << r;
  }
}

TEST(FlatModel, GbdtClassifierMatchesPointerBitwise) {
  const FlatClassifier flat = FlatClassifier::flatten(gbdt_cls());
  EXPECT_EQ(flat.n_classes(), gbdt_cls().n_classes());
  for (std::size_t r = 0; r < lmc().x.rows(); ++r) {
    const auto row = lmc().x.row(r);
    ASSERT_EQ(flat.predict(row), gbdt_cls().predict(row)) << "row " << r;
    const auto da = flat.decision_function(row);
    const auto db = gbdt_cls().decision_function(row);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t c = 0; c < da.size(); ++c) {
      ASSERT_EQ(bits(da[c]), bits(db[c])) << "row " << r << " class " << c;
    }
  }
}

TEST(FlatModel, NanRoutingMatchesPointer) {
  const FlatForest flat = FlatForest::flatten(gbdt_reg());
  // Knock out each feature in turn: missing values must take the learned
  // default branch, exactly as the pointer layout does.
  for (std::size_t r = 0; r < std::min<std::size_t>(lmc().x.rows(), 40); ++r) {
    for (std::size_t f = 0; f < lmc().x.cols(); ++f) {
      std::vector<double> row(lmc().x.row(r).begin(), lmc().x.row(r).end());
      row[f] = data::SampleRecord::nan_value();
      ASSERT_EQ(bits(flat.predict(row)), bits(gbdt_reg().predict(row)))
          << "row " << r << " feature " << f;
    }
  }
}

// ---------- serving predictor ----------

TEST(Predictor, CompileRejectsUntrained) {
  const core::Lumos5G untrained;
  const auto p = Predictor::compile(untrained);
  ASSERT_FALSE(p.has_value());
  EXPECT_EQ(p.error().code, ErrorCode::kNotTrained);
  // Its artifact is well formed (the facade loader restores it) but has
  // nothing to serve.
  const std::string bytes = save_bytes(untrained);
  EXPECT_TRUE(load_lumos5g(bytes).has_value());
  const auto loaded = load_predictor(bytes);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, ErrorCode::kNotTrained);
}

TEST(Predictor, MatchesFacadeBitwise) {
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());
  EXPECT_GT(compiled->n_nodes(), 0u);
  ASSERT_EQ(compiled->tier_specs().size(), facade().tier_specs().size());

  for (const auto& w : query_windows()) {
    const auto a = facade().predict(w);
    const auto b = compiled->predict(w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) {
      EXPECT_EQ(a.error().code, b.error().code);
      continue;
    }
    EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
    EXPECT_EQ(a->throughput_class, b->throughput_class);
    EXPECT_EQ(a->tier, b->tier);
    EXPECT_EQ(a->feature_group, b->feature_group);
  }
}

TEST(Predictor, ReloadedFacadeCompilesToSamePredictions) {
  // The full consumer story: train -> save -> reload in a "fresh" facade ->
  // compile -> serve. Every step must preserve bit-identity.
  const auto reloaded = load_lumos5g(save_bytes(facade()));
  ASSERT_TRUE(reloaded.has_value());
  const auto compiled = Predictor::compile(*reloaded);
  ASSERT_TRUE(compiled.has_value());
  for (const auto& w : query_windows()) {
    const auto a = facade().predict(w);
    const auto b = compiled->predict(w);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(bits(a->throughput_mbps), bits(b->throughput_mbps));
      EXPECT_EQ(a->tier, b->tier);
    }
  }
}

// The serving loader parses an artifact straight into flat tiers, which
// must match what compile() flattens from the trained facade: the same
// nodes, and bit-identical answers at every degradation floor.
TEST(Predictor, LoadedPredictorMatchesCompiled) {
  const auto loaded = load_predictor(save_bytes(facade()));
  ASSERT_TRUE(loaded.has_value()) << loaded.error().describe();
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(loaded->n_nodes(), compiled->n_nodes());
  EXPECT_EQ(loaded->max_width(), compiled->max_width());
  ASSERT_EQ(loaded->tier_specs(), compiled->tier_specs());

  const auto windows = query_windows();
  const std::vector<std::span<const data::SampleRecord>> spans(
      windows.begin(), windows.end());
  PredictScratch scratch;
  scratch.reserve(spans.size(), compiled->max_width());
  const Expected<core::Prediction> unset(Error{ErrorCode::kWindowUnusable, ""});
  for (std::size_t min_tier = 0; min_tier <= compiled->tier_specs().size();
       ++min_tier) {
    std::vector<Expected<core::Prediction>> got(spans.size(), unset);
    std::vector<Expected<core::Prediction>> want(spans.size(), unset);
    loaded->predict_spans_columnar(spans, got, scratch, min_tier);
    compiled->predict_spans_columnar(spans, want, scratch, min_tier);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      ASSERT_EQ(got[i].has_value(), want[i].has_value())
          << "min_tier " << min_tier << " window " << i;
      if (!want[i].has_value()) {
        EXPECT_EQ(got[i].error().code, want[i].error().code);
        continue;
      }
      EXPECT_EQ(bits(got[i]->throughput_mbps), bits(want[i]->throughput_mbps))
          << "min_tier " << min_tier << " window " << i;
      EXPECT_EQ(got[i]->throughput_class, want[i]->throughput_class);
      EXPECT_EQ(got[i]->tier, want[i]->tier);
      EXPECT_EQ(got[i]->feature_group, want[i]->feature_group);
    }
  }
}

TEST(Predictor, BatchMatchesIndividual) {
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());

  std::vector<Session> sessions;
  for (const auto& w : query_windows()) {
    Session s;
    for (const auto& sample : w) s.observe(sample);
    sessions.push_back(std::move(s));
  }
  sessions.emplace_back();  // empty session: typed error expected

  // The batched API is the columnar walk the server runs.
  std::vector<std::span<const data::SampleRecord>> windows;
  for (const Session& s : sessions) windows.push_back(s.window());
  std::vector<Expected<core::Prediction>> batch(
      sessions.size(),
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  PredictScratch scratch;
  scratch.reserve(windows.size(), compiled->max_width());
  compiled->predict_spans_columnar(windows, batch, scratch);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto single = compiled->predict(sessions[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value()) << "session " << i;
    if (!single.has_value()) {
      EXPECT_EQ(batch[i].error().code, single.error().code);
      continue;
    }
    EXPECT_EQ(bits(batch[i]->throughput_mbps), bits(single->throughput_mbps));
    EXPECT_EQ(batch[i]->throughput_class, single->throughput_class);
    EXPECT_EQ(batch[i]->tier, single->tier);
  }
}

// ---------- write_artifact hygiene ----------

/// Number of "<stem>.tmp.*" siblings of `path` — write_artifact must never
/// leave one behind, success or failure.
std::size_t count_temp_files(const std::filesystem::path& path) {
  const std::string prefix = path.filename().string() + ".tmp.";
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(path.parent_path())) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(ModelIo, WriteArtifactCleansTempOnRenameFailure) {
  const auto dir = private_temp("lumos_test_serve_write_hygiene");
  std::filesystem::create_directories(dir / "occupied");
  // The destination is an existing directory: the temp write succeeds but
  // the rename over a directory cannot, so the error path must run and
  // must take the temp file with it.
  const auto r = write_artifact(dir / "occupied", "payload");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().code, ErrorCode::kIoError);
  EXPECT_EQ(count_temp_files(dir / "occupied"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ModelIo, RacingWritersProduceWholeArtifacts) {
  const auto dir = private_temp("lumos_test_serve_write_race");
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.l5gm";
  const std::string a = save_bytes(facade());
  const std::string& b = small_artifact();
  ASSERT_NE(a, b);

  // Two pool threads race full write->rename cycles at the same
  // destination. Whatever the interleaving, the destination must always
  // hold one writer's bytes in full — never a torn mix — and no temp file
  // may survive.
  ThreadPool pool(2);
  for (int round = 0; round < 16; ++round) {
    pool.parallel_for(0, 2, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const auto w = write_artifact(path, i == 0 ? a : b);
        EXPECT_TRUE(w.has_value());
      }
    });
    const auto got = read_artifact(path);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == a || *got == b) << "torn artifact on round " << round;
    EXPECT_EQ(count_temp_files(path), 0u) << "round " << round;
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, RollingWindowDropsOldest) {
  Session s(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    data::SampleRecord rec;
    rec.timestamp_s = static_cast<double>(i);
    s.observe(rec);
  }
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.window().front().timestamp_s, 2.0);
  EXPECT_EQ(s.window().back().timestamp_s, 5.0);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

}  // namespace
}  // namespace lumos::serve
