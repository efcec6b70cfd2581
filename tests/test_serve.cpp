// Tests for lumos::serve — the versioned binary artifact format
// (deterministic saves, bit-exact round-trips, typed failure on truncated /
// bit-flipped / wrong-version / wrong-kind / out-of-row / out-of-range /
// bad-config artifacts, a seeded mutate-and-rehash fuzz of the reader),
// the flattened inference layout (bit-identical to the pointer-layout
// models), and the batched serving Predictor (bit-identical to the
// Lumos5G facade, batch == individual, loaded == compiled node for node).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
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

/// The n-byte little-endian word at `at` (n <= 8).
std::uint64_t get_le(std::string_view bytes, std::size_t at, std::size_t n) {
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    w |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return w;
}

/// Overwrites the n-byte little-endian word at `at` (n <= 8).
void put_le(std::string& bytes, std::size_t at, std::size_t n,
            std::uint64_t v) {
  for (std::size_t i = 0; i < n; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
  }
}

/// An independent copy of the envelope hash: word j of the hashed
/// prefix (8 bytes, little-endian) goes to lane j % 4 through one
/// multiply-rotate round, the zero-padded tail word to the next lane, and
/// the lanes then fold into the prefix length. Lets a test rewrite a
/// field and still present a hash-valid artifact; `rehash(a) == a` pins
/// the on-disk algorithm.
std::string rehash(std::string bytes) {
  const std::size_t hash_at = bytes.size() - 8;
  const auto round = [](std::uint64_t lane, std::uint64_t w) {
    return std::rotl(lane + w * 0xC2B2AE3D27D4EB4FULL, 31) *
           0x9E3779B185EBCA87ULL;
  };
  std::uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                           0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  const std::size_t words = hash_at / 8;
  for (std::size_t j = 0; j < words; ++j) {
    lane[j % 4] = round(lane[j % 4], get_le(bytes, 8 * j, 8));
  }
  lane[words % 4] =
      round(lane[words % 4], get_le(bytes, 8 * words, hash_at % 8));
  std::uint64_t h = hash_at;
  for (const std::uint64_t l : lane) h = round(h, l);
  put_le(bytes, hash_at, 8, h);
  return bytes;
}

/// The damage matrix runs every damaged input through the one reader,
/// which must reject it (a load fails the calling test). Returns the code.
std::optional<ErrorCode> rejected_as(std::string_view bytes) {
  const auto loaded = load_predictor(bytes);
  if (loaded.has_value()) {
    ADD_FAILURE() << "damaged input loaded";
    return std::nullopt;
  }
  return loaded.error().code;
}

// Offsets that follow from the v4 layout model_io.h documents.
constexpr std::size_t kSizeAt = 9;
constexpr std::size_t kLagsAt = 21;
/// Tier 0's regressor forest: past the 17-byte header, the 36-byte config
/// block, the u64 tier count and tier 0's trained byte.
constexpr std::size_t kTier0Forest = 17 + 36 + 8 + 1;

/// Node k's 16-byte record (f64 value, i32 feature, u32 left) in the
/// forest record at `forest`: past base, scale, the root and node counts
/// and the u32 roots.
std::size_t node_at(std::string_view bytes, std::size_t forest,
                    std::size_t k) {
  return forest + 32 + 4 * get_le(bytes, forest + 16, 8) + 16 * k;
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

// The consumer story through a file: save_model, read_artifact, then the
// one reader answers every query window bit for bit as the facade does.
TEST(ModelIo, PredictorRoundTripThroughFileMatchesFacade) {
  const auto path = private_temp("lumos_test_serve_facade.l5gm");
  ASSERT_TRUE(save_model(facade(), path).has_value());
  const auto bytes = read_artifact(path);
  ASSERT_TRUE(bytes.has_value());
  const auto loaded = load_predictor(*bytes);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().describe();
  std::filesystem::remove(path);

  ASSERT_EQ(loaded->tier_specs(), facade().tier_specs());
  for (std::size_t t = 0; t < facade().tier_specs().size(); ++t) {
    EXPECT_EQ(loaded->tier_compiled(t), facade().tier_trained(t)) << "tier " << t;
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
  // version fails the same way: v3 artifacts (with the fallback settings
  // in their config block) are rejected, never parsed.
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

/// A hash-valid artifact the reader rejects with kParseError also rolls a
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
  std::vector<Response> responses(server.config().max_batch);
  ASSERT_EQ(server.poll(responses), window.size());
  const auto expect = good.predict(window);
  const auto& got = responses[window.size() - 1].result;
  ASSERT_TRUE(expect.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(bits(got->throughput_mbps), bits(expect->throughput_mbps));
  EXPECT_EQ(got->tier, expect->tier);
}

// A hash-valid artifact whose tier-0 regressor splits on a feature at or
// past the tier's row width must not load: serving would walk that split
// past the end of the feature row. Reloading it into a live server rolls
// back.
TEST(ModelIo, TierWiderThanItsRowRejected) {
  const core::Lumos5G& good = small_facade();
  ASSERT_TRUE(good.tier_trained(0));
  const std::size_t width =
      data::feature_width(good.tier_specs()[0], good.config().features);
  const std::size_t feature_at = node_at(small_artifact(), kTier0Forest, 0) + 8;
  ASSERT_LT(get_le(small_artifact(), feature_at, 4), width)
      << "node 0 of tier 0's regressor is not a split";
  for (const std::size_t feature : {width, width + 100}) {
    SCOPED_TRACE("feature " + std::to_string(feature));
    std::string bytes = small_artifact();
    put_le(bytes, feature_at, 4, feature);
    expect_parse_error_and_rollback(rehash(std::move(bytes)));
  }
}

// A flat node stores only its left child; the right one is left + 1. A
// split whose left child is not after it (the walk could loop) or whose
// right child falls off the forest's end is kParseError, and a live server
// rolls back. The unedited artifact is the control.
TEST(ModelIo, ChildOutOfRangeRejected) {
  const std::string& good = small_artifact();
  ASSERT_TRUE(load_predictor(good).has_value());
  ASSERT_NE(get_le(good, node_at(good, kTier0Forest, 0) + 8, 4), 0xFFFFFFFFU)
      << "node 0 of tier 0's regressor is not a split";
  const std::size_t left_at = node_at(good, kTier0Forest, 0) + 12;
  const std::uint64_t n_nodes = get_le(good, kTier0Forest + 24, 8);
  const std::uint64_t default_left =
      get_le(good, left_at, 4) & FlatNode::kDefaultLeftBit;
  for (const std::uint64_t left : {std::uint64_t{0}, n_nodes - 1}) {
    SCOPED_TRACE("left " + std::to_string(left));
    std::string bytes = good;
    put_le(bytes, left_at, 4, default_left | left);
    expect_parse_error_and_rollback(rehash(std::move(bytes)));
  }
}

// The stored FeatureConfig obeys the same rule build_features does
// (data::feature_config_error). An artifact storing lags 0 or -1 would
// make a C tier index before its window's start; one storing 2^30 would
// derive a 2^30-wide feature row that a reload then reserves scratch for.
TEST(ModelIo, InvalidFeatureConfigRejected) {
  ASSERT_EQ(get_le(small_artifact(), kLagsAt, 4),
            static_cast<std::uint64_t>(small_facade().config().features.throughput_lags));
  for (const std::int32_t lags : {0, -1, 1 << 30}) {
    SCOPED_TRACE("throughput_lags " + std::to_string(lags));
    std::string bytes = small_artifact();
    put_le(bytes, kLagsAt, 4, static_cast<std::uint32_t>(lags));
    expect_parse_error_and_rollback(rehash(std::move(bytes)));
  }
  std::string bytes = small_artifact();
  put_le(bytes, kLagsAt + 4, 4, 0);  // horizon
  expect_parse_error_and_rollback(rehash(std::move(bytes)));
}

// ---------- seeded mutate-and-rehash fuzz of the reader ----------

/// One 4- or 8-byte field of an artifact, found by walking the v4 layout
/// model_io.h documents, with the node count and row width of the forest
/// and tier it sits in (outside a forest: those of the first forest).
struct Field {
  std::size_t at = 0;
  std::size_t size = 0;
  std::uint64_t n_nodes = 0;
  std::uint64_t width = 0;
};

/// Every 4- and 8-byte field of `model`'s artifact `bytes`, grouped by
/// what it holds (the version, one config field, a count, a root, a
/// node's value, feature or left link, ...), so an edit can pick a kind
/// of field first: the few config and count fields are as likely a
/// target as the thousands of node fields. Ends by asserting the walk
/// lands on the hash, which pins the documented layout.
std::vector<std::vector<Field>> artifact_fields(std::string_view bytes,
                                                const core::Lumos5G& model) {
  std::map<std::string, std::vector<Field>> by_kind;
  const auto add = [&by_kind](const char* kind, Field f) {
    by_kind[kind].push_back(f);
  };
  add("version", {4, 4});
  add("size", {kSizeAt, 8});
  add("throughput_lags", {kLagsAt, 4});
  add("horizon", {kLagsAt + 4, 4});
  std::size_t at = kLagsAt + 8;
  for (const char* kind : {"low_mbps", "high_mbps", "max_gap_s"}) {
    add(kind, {at, 8});
    at += 8;
  }
  add("tier count", {at, 8});
  at += 8;
  const auto forest = [&](std::uint64_t width) {
    const std::uint64_t n_roots = get_le(bytes, at + 16, 8);
    const std::uint64_t n_nodes = get_le(bytes, at + 24, 8);
    for (const char* kind : {"base", "scale", "root count", "node count"}) {
      add(kind, {at, 8, n_nodes, width});
      at += 8;
    }
    for (std::uint64_t k = 0; k < n_roots; ++k, at += 4) {
      add("root", {at, 4, n_nodes, width});
    }
    for (std::uint64_t k = 0; k < n_nodes; ++k, at += 16) {
      add("node value", {at, 8, n_nodes, width});
      add("node feature", {at + 8, 4, n_nodes, width});
      add("node left", {at + 12, 4, n_nodes, width});
    }
  };
  for (std::size_t t = 0; t < model.tier_specs().size(); ++t) {
    if (bytes[at++] == 0) continue;
    const std::uint64_t width =
        data::feature_width(model.tier_specs()[t], model.config().features);
    forest(width);
    const std::uint64_t n_classes = get_le(bytes, at, 8);
    add("class count", {at, 8});
    at += 8;
    for (std::uint64_t c = 0; c < n_classes; ++c) forest(width);
  }
  EXPECT_EQ(at + 8, bytes.size()) << "layout walk missed the hash";
  const Field first = by_kind["base"].front();
  std::vector<std::vector<Field>> out;
  for (auto& [kind, fields] : by_kind) {
    for (Field& f : fields) {
      if (f.width == 0) {
        f.n_nodes = first.n_nodes;
        f.width = first.width;
      }
    }
    out.push_back(std::move(fields));
  }
  return out;
}

// 10,000 seeds of 1-3 edits each to the small facade's artifact — a bit
// flip, a 4- or 8-byte field of a randomly chosen kind set to a boundary
// value (0, 1, -1, 2^31 - 1, its forest's node count and that count less
// one, its tier's row width), a copied byte range, or a cut — with the size field and hash
// then fixed, so nearly every mutant reaches the payload rules instead of
// stopping at kCorrupt. Each must
// come back as a typed error or as a predictor that answers every query
// window, and an empty one, through predict and predict_spans_columnar at
// every degradation floor, the two bit-identical.
TEST(ModelIoFuzz, MutatedArtifactsAreTypedErrorsOrServe) {
  const std::string& good = small_artifact();
  const auto fields = artifact_fields(good, small_facade());
  auto windows = query_windows();
  windows.emplace_back();  // the empty window
  const std::vector<std::span<const data::SampleRecord>> spans(
      windows.begin(), windows.end());
  const Expected<core::Prediction> unset(Error{ErrorCode::kWindowUnusable, ""});

  std::map<std::string, int> outcomes;
  for (std::uint64_t seed = 1; seed <= 10000; ++seed) {
    Rng rng(seed);
    std::string bytes = good;
    const std::uint64_t n_edits = 1 + rng.uniform_int(3);
    for (std::uint64_t e = 0; e < n_edits; ++e) {
      const std::size_t size = bytes.size();
      switch (rng.uniform_int(4)) {
        case 0: {  // bit flip
          const std::size_t at = rng.uniform_int(size);
          bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                        (1U << rng.uniform_int(8)));
          break;
        }
        case 1: {  // a field of a random kind set to a boundary value
          const auto& kind = fields[rng.uniform_int(fields.size())];
          const Field& f = kind[rng.uniform_int(kind.size())];
          if (f.at + f.size > size) break;  // cut away by an earlier edit
          const std::uint64_t values[] = {0, 1, ~std::uint64_t{0}, 0x7FFFFFFF,
                                          f.n_nodes, f.n_nodes - 1, f.width};
          put_le(bytes, f.at, f.size, values[rng.uniform_int(7)]);
          break;
        }
        case 2: {  // a copied byte range
          const std::size_t len = 1 + rng.uniform_int(64);
          const std::size_t from = rng.uniform_int(size - len);
          const std::size_t to = rng.uniform_int(size - len);
          bytes.replace(to, len, std::string(bytes, from, len));
          break;
        }
        default: {  // a cut inside the payload
          const std::size_t at = 17 + rng.uniform_int(size - 25);
          bytes.erase(at, 1 + rng.uniform_int(std::min<std::size_t>(
                                  64, size - 8 - at)));
          break;
        }
      }
    }
    put_le(bytes, kSizeAt, 8, bytes.size());
    bytes = rehash(std::move(bytes));

    const auto loaded = load_predictor(bytes);
    if (!loaded.has_value()) {
      const ErrorCode code = loaded.error().code;
      ASSERT_TRUE(code == ErrorCode::kParseError ||
                  code == ErrorCode::kNotTrained ||
                  code == ErrorCode::kVersionMismatch ||
                  code == ErrorCode::kBadMagic)
          << "seed " << seed << ": " << loaded.error().describe();
      ++outcomes[to_string(code)];
      continue;
    }
    ++outcomes["loaded"];
    const Predictor& p = *loaded;
    PredictScratch scratch;
    scratch.reserve(spans.size(), p.max_width());
    for (std::size_t min_tier = 0; min_tier <= p.tier_specs().size();
         ++min_tier) {
      std::vector<Expected<core::Prediction>> batch(spans.size(), unset);
      p.predict_spans_columnar(spans, batch, scratch, min_tier);
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto single = p.predict(spans[i], min_tier);
        ASSERT_EQ(batch[i].has_value(), single.has_value())
            << "seed " << seed << " min_tier " << min_tier << " window " << i;
        if (!single.has_value()) {
          ASSERT_EQ(batch[i].error().code, single.error().code);
          continue;
        }
        ASSERT_LE(single->tier, static_cast<int>(p.tier_specs().size()));
        ASSERT_EQ(bits(batch[i]->throughput_mbps), bits(single->throughput_mbps))
            << "seed " << seed << " min_tier " << min_tier << " window " << i;
        ASSERT_EQ(batch[i]->throughput_class, single->throughput_class);
        ASSERT_EQ(batch[i]->tier, single->tier);
      }
    }
  }
  std::cout << "[ fuzz     ] 10000 mutants:";
  for (const auto& [outcome, n] : outcomes) std::cout << ' ' << outcome << '=' << n;
  std::cout << '\n';
  // Not vacuous: some mutants load and serve, some break a payload rule.
  EXPECT_GT(outcomes["loaded"], 0);
  EXPECT_GT(outcomes[to_string(ErrorCode::kParseError)], 0);
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
    const auto scores = gbdt_cls().decision_function(row);
    ASSERT_EQ(flat.per_class().size(), scores.size());
    for (std::size_t c = 0; c < scores.size(); ++c) {
      ASSERT_EQ(bits(flat.per_class()[c].predict(row)), bits(scores[c]))
          << "row " << r << " class " << c;
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
  // Its artifact is well formed but has nothing to serve.
  const std::string bytes = save_bytes(untrained);
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
  }
}

/// Bit-pattern equality of two flat forests' stored form.
void expect_same_forest(const FlatForest& a, const FlatForest& b) {
  EXPECT_EQ(bits(a.base()), bits(b.base()));
  EXPECT_EQ(bits(a.scale()), bits(b.scale()));
  ASSERT_TRUE(std::ranges::equal(a.roots(), b.roots()));
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const FlatNode& x = a.nodes()[i];
    const FlatNode& y = b.nodes()[i];
    ASSERT_TRUE(bits(x.value) == bits(y.value) && x.feature == y.feature &&
                x.left == y.left)
        << "node " << i;
  }
}

/// Every 8-record window of the airport campaign.
std::vector<std::vector<data::SampleRecord>> campaign_windows() {
  std::vector<std::vector<data::SampleRecord>> windows;
  const auto& ds = airport_ds();
  for (const auto& run : ds.runs()) {
    for (std::size_t end = 8; end <= run.size(); ++end) {
      std::vector<data::SampleRecord> w;
      for (std::size_t i = end - 8; i < end; ++i) w.push_back(ds[run[i]]);
      windows.push_back(std::move(w));
    }
  }
  return windows;
}

// The one reader must rebuild exactly what compile() flattens from the
// trained facade: the same node arrays, and bit-identical answers on
// every 8-record window of the campaign at every degradation floor.
TEST(Predictor, LoadedPredictorMatchesCompiled) {
  const auto loaded = load_predictor(save_bytes(facade()));
  ASSERT_TRUE(loaded.has_value()) << loaded.error().describe();
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(loaded->n_nodes(), compiled->n_nodes());
  EXPECT_EQ(loaded->max_width(), compiled->max_width());
  ASSERT_EQ(loaded->tier_specs(), compiled->tier_specs());
  for (std::size_t t = 0; t < compiled->tier_specs().size(); ++t) {
    SCOPED_TRACE("tier " + std::to_string(t));
    ASSERT_EQ(loaded->tier_compiled(t), compiled->tier_compiled(t));
    if (!compiled->tier_compiled(t)) continue;
    expect_same_forest(loaded->tier_regressor(t), compiled->tier_regressor(t));
    const auto a = loaded->tier_classifier(t).per_class();
    const auto b = compiled->tier_classifier(t).per_class();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) expect_same_forest(a[c], b[c]);
  }

  const auto windows = campaign_windows();
  ASSERT_GT(windows.size(), 1000u);
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
      ASSERT_EQ(bits(got[i]->throughput_mbps), bits(want[i]->throughput_mbps))
          << "min_tier " << min_tier << " window " << i;
      ASSERT_EQ(got[i]->throughput_class, want[i]->throughput_class);
      ASSERT_EQ(got[i]->tier, want[i]->tier);
    }
  }
}

TEST(Predictor, BatchMatchesIndividual) {
  const auto compiled = Predictor::compile(facade());
  ASSERT_TRUE(compiled.has_value());

  auto records = query_windows();
  records.emplace_back();  // empty window: typed error expected

  // The batched API is the columnar walk the server runs.
  const std::vector<std::span<const data::SampleRecord>> windows(
      records.begin(), records.end());
  std::vector<Expected<core::Prediction>> batch(
      windows.size(),
      Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
  PredictScratch scratch;
  scratch.reserve(windows.size(), compiled->max_width());
  compiled->predict_spans_columnar(windows, batch, scratch);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto single = compiled->predict(windows[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value()) << "window " << i;
    if (!single.has_value()) {
      EXPECT_EQ(batch[i].error().code, single.error().code);
      continue;
    }
    EXPECT_EQ(bits(batch[i]->throughput_mbps), bits(single->throughput_mbps));
    EXPECT_EQ(batch[i]->throughput_class, single->throughput_class);
    EXPECT_EQ(batch[i]->tier, single->tier);
  }
}

// ---------- the harmonic tail ----------

// The one tail both walks end on, pinned to hand-computed answers: the
// harmonic mean of the newest core::kHarmonicWindow positive finite
// throughputs (NaN, zero, negative and infinite ones are skipped), classed
// by the config's thresholds and reported as tier = chain length. Each
// window goes through core::harmonic_tail, through Predictor::predict with
// the walk starting past the last model tier, and through the batched walk
// at that floor.
TEST(HarmonicTail, HandComputedWindows) {
  const auto compiled = Predictor::compile(small_facade());
  ASSERT_TRUE(compiled.has_value());
  const std::size_t n_tiers = compiled->tier_specs().size();
  const data::FeatureConfig& features = small_facade().config().features;
  ASSERT_EQ(features.low_mbps, 300.0);
  ASSERT_EQ(features.high_mbps, 700.0);
  ASSERT_EQ(core::kHarmonicWindow, 5u);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::vector<double> mbps;  ///< oldest first
    double want_mbps;          ///< NaN: kWindowUnusable
    int want_class;
  };
  const Case cases[] = {
      // Newest first the usable values are 25, 800, 50, 200 and 400 (the
      // 100 is past the window): 5 / (1/25 + 1/800 + 1/50 + 1/200 + 1/400)
      // = 5 / (11/160) = 800/11, below 300 Mbps.
      {"newest five of six usable",
       {100, 400, kNaN, 0, -5, 200, 50, kInf, 800, 25},
       800.0 / 11.0,
       0},
      // Only 900, 600 and 300: 3 / (1/900 + 1/600 + 1/300) = 3 / (11/1800)
      // = 5400/11, between 300 and 700 Mbps.
      {"three usable", {kNaN, 300, 0, 600, -kInf, 900, -1}, 5400.0 / 11.0, 1},
      {"none usable", {0, -3, kNaN, kInf, -kInf}, kNaN, 0},
  };

  std::vector<std::vector<data::SampleRecord>> records;
  for (const Case& c : cases) {
    std::vector<data::SampleRecord>& w = records.emplace_back();
    for (std::size_t i = 0; i < c.mbps.size(); ++i) {
      data::SampleRecord s;
      s.timestamp_s = static_cast<double>(i);
      s.throughput_mbps = c.mbps[i];
      w.push_back(s);
    }
  }
  const std::vector<std::span<const data::SampleRecord>> windows(
      records.begin(), records.end());
  std::vector<Expected<core::Prediction>> batch(
      windows.size(),
      Expected<core::Prediction>(Error{ErrorCode::kNotTrained, ""}));
  PredictScratch scratch;
  scratch.reserve(windows.size(), compiled->max_width());
  compiled->predict_spans_columnar(windows, batch, scratch, n_tiers);

  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(c.name);
    const Expected<core::Prediction> answers[] = {
        core::harmonic_tail(windows[i], features, n_tiers),
        compiled->predict(windows[i], n_tiers), batch[i]};
    for (const Expected<core::Prediction>& got : answers) {
      if (std::isnan(c.want_mbps)) {
        ASSERT_FALSE(got.has_value());
        EXPECT_EQ(got.error().code, ErrorCode::kWindowUnusable);
        continue;
      }
      ASSERT_TRUE(got.has_value());
      EXPECT_DOUBLE_EQ(got->throughput_mbps, c.want_mbps);
      EXPECT_EQ(bits(got->throughput_mbps), bits(answers[0]->throughput_mbps));
      EXPECT_EQ(got->throughput_class, c.want_class);
      EXPECT_EQ(got->tier, static_cast<int>(n_tiers));
    }
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

}  // namespace
}  // namespace lumos::serve
