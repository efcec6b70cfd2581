#include "serve/model_io.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "data/features.h"
#include "ml/gbdt.h"
#include "serve/flat_model.h"
#include "serve/predictor.h"

namespace lumos::serve {
namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 1 + 8;  // magic, version, kind, size
constexpr std::size_t kSizeAt = 9;                  // offset of the size field
constexpr std::size_t kHashSize = 8;
/// One tree node record: feature, threshold, bin, left, right, value,
/// default_left.
constexpr std::size_t kNodeBytes = 4 + 8 + 4 + 4 + 4 + 8 + 1;
/// The smallest tree record: a zero node count and the missing code.
constexpr std::size_t kMinTreeBytes = 8 + 2;

// ---------------------------------------------------------------------------
// Words. The one definition of the on-disk byte order: an N-byte field is
// an N-byte little-endian word — one memcpy on little-endian hosts, byte
// composition elsewhere, so artifacts are identical across hosts. The
// Reader, the Writer and the hash all go through these two.
// ---------------------------------------------------------------------------

template <std::size_t N>
std::uint64_t load_le(const char* p) noexcept {
  static_assert(N >= 1 && N <= 8);
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, N);
  } else {
    for (std::size_t i = 0; i < N; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
  }
  return v;
}

template <std::size_t N>
void store_le(char* p, std::uint64_t v) noexcept {
  static_assert(N >= 1 && N <= 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, N);
  } else {
    for (std::size_t i = 0; i < N; ++i) {
      p[i] = static_cast<char>((v >> (8 * i)) & 0xFFU);
    }
  }
}

/// The v2 envelope hash. Four independent lanes each absorb every fourth
/// 8-byte word with one multiply-rotate round,
///   lane = rotl(lane + word * kWordMul, 31) * kLaneMul,
/// the last 0-7 bytes enter as one zero-padded word, and the four lanes
/// then fold into the byte length through the same round. Both
/// multipliers are odd, so for a fixed word a round is a bijection of the
/// lane state and for a fixed state it is injective in the word: a
/// flipped bit changes its lane, no later round can merge the difference
/// away, and any single-bit flip changes the hash. Four lanes keep four
/// multiply chains in flight. An integrity check against bit rot and
/// torn writes, not a MAC.
std::uint64_t artifact_hash(std::string_view bytes) noexcept {
  constexpr std::uint64_t kWordMul = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kLaneMul = 0x9E3779B185EBCA87ULL;
  const auto round = [](std::uint64_t lane, std::uint64_t word) noexcept {
    return std::rotl(lane + word * kWordMul, 31) * kLaneMul;
  };
  std::uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                           0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  const char* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t at = 0;
  for (; at + 32 <= n; at += 32) {
    lane[0] = round(lane[0], load_le<8>(p + at));
    lane[1] = round(lane[1], load_le<8>(p + at + 8));
    lane[2] = round(lane[2], load_le<8>(p + at + 16));
    lane[3] = round(lane[3], load_le<8>(p + at + 24));
  }
  std::size_t k = 0;
  for (; at + 8 <= n; at += 8, ++k) lane[k] = round(lane[k], load_le<8>(p + at));
  char tail[8] = {};
  std::copy(p + at, p + n, tail);
  lane[k] = round(lane[k], load_le<8>(tail));
  std::uint64_t h = n;
  for (const std::uint64_t l : lane) h = round(h, l);
  return h;
}

/// Appends fixed-width fields as little-endian words to one buffer that
/// save_bytes reserves up front.
class Writer {
 public:
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void raw(const char* p, std::size_t n) { buf_.append(p, n); }
  void u8(std::uint8_t v) { word<1>(v); }
  void u16(std::uint16_t v) { word<2>(v); }
  void u32(std::uint32_t v) { word<4>(v); }
  void u64(std::uint64_t v) { word<8>(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Overwrites the u64 written earlier at offset `at`.
  void patch_u64(std::size_t at, std::uint64_t v) noexcept {
    store_le<8>(buf_.data() + at, v);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  std::string_view view() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }

 private:
  template <std::size_t N>
  void word(std::uint64_t v) {
    char le[N];
    store_le<N>(le, v);
    buf_.append(le, N);
  }

  std::string buf_;
};

/// Bounds-checked little-endian cursor. The first broken rule — a read
/// past the end (possible only for a hand-crafted payload: the envelope
/// hash already passed) or a failed structural check — is recorded by
/// fail(); every later read returns 0, and the loader reports the reason
/// as a typed error instead of touching out-of-range memory.
class Reader {
 public:
  explicit Reader(std::string_view d) noexcept : d_(d) {}

  bool ok() const noexcept { return why_ == nullptr; }
  /// The first rule that failed ("" while ok()).
  const char* why() const noexcept { return why_ != nullptr ? why_ : ""; }
  std::size_t remaining() const noexcept { return d_.size() - pos_; }

  /// Records `why` unless an earlier failure stands. Returns false, so a
  /// check can end with `return r.fail(...)`.
  bool fail(const char* why) noexcept {
    if (why_ == nullptr) why_ = why;
    return false;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(word<1>()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(word<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(word<4>()); }
  std::uint64_t u64() { return word<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  /// Steps over `n` bytes the caller does not build.
  void skip(std::size_t n) noexcept {
    if (!ok() || remaining() < n) {
      fail(kShort);
      return;
    }
    pos_ += n;
  }

  /// Reads an element count and rejects it when even minimally-sized
  /// elements could not fit in the remaining bytes — so a corrupt count
  /// fails fast instead of driving a multi-gigabyte allocation.
  std::size_t count(std::size_t min_elem_size) {
    const std::uint64_t c = u64();
    if (ok() && min_elem_size > 0 && c > remaining() / min_elem_size) {
      fail("element count exceeds the bytes left");
    }
    return ok() ? static_cast<std::size_t>(c) : 0;
  }

 private:
  static constexpr const char* kShort = "payload ends inside a record";

  template <std::size_t N>
  std::uint64_t word() noexcept {
    if (!ok() || remaining() < N) {
      fail(kShort);
      return 0;
    }
    const std::uint64_t v = load_le<N>(d_.data() + pos_);
    pos_ += N;
    return v;
  }

  std::string_view d_;
  std::size_t pos_ = 0;
  const char* why_ = nullptr;
};

Error parse_error(std::string message) {
  return Error{ErrorCode::kParseError, std::move(message)};
}

// ---------------------------------------------------------------------------
// Component writers and readers. Every rule a payload must satisfy has one
// definition below, called by both loaders — load_lumos5g, which builds
// the facade's pointer models, and load_predictor, which parses straight
// into flat node arrays — so the two cannot drift apart.
// ---------------------------------------------------------------------------

void write_gbdt_config(Writer& w, const ml::GbdtConfig& c) {
  w.u64(c.n_estimators);
  w.i32(c.max_depth);
  w.f64(c.learning_rate);
  w.u64(c.min_samples_leaf);
  w.f64(c.lambda);
  w.i32(c.n_bins);
  w.f64(c.subsample);
  w.u64(c.seed);
}

ml::GbdtConfig read_gbdt_config(Reader& r) {
  ml::GbdtConfig c;
  c.n_estimators = static_cast<std::size_t>(r.u64());
  c.max_depth = r.i32();
  c.learning_rate = r.f64();
  c.min_samples_leaf = static_cast<std::size_t>(r.u64());
  c.lambda = r.f64();
  c.n_bins = r.i32();
  c.subsample = r.f64();
  c.seed = r.u64();
  return c;
}

void write_mapper(Writer& w, const ml::BinMapper& m) {
  w.i32(m.max_bins());
  w.u64(m.n_features());
  for (const auto& e : m.edges()) {
    w.u64(e.size());
    for (const double v : e) w.f64(v);
  }
}

/// Reads a bin mapper into `out` — or, when `out` is null (the serving
/// loader walks raw feature values, never bin codes), bounds-checks it and
/// steps over it without building anything.
bool read_mapper(Reader& r, ml::BinMapper* out) {
  const std::int32_t max_bins = r.i32();
  const std::size_t d = r.count(8);
  std::vector<std::vector<double>> edges(out != nullptr ? d : 0);
  for (std::size_t f = 0; f < d; ++f) {
    const std::size_t n = r.count(8);
    if (out == nullptr) {
      r.skip(8 * n);
      continue;
    }
    edges[f].resize(n);
    for (double& v : edges[f]) v = r.f64();
  }
  if (max_bins < 0) return r.fail("negative mapper bin count");
  if (!r.ok()) return false;
  if (out != nullptr) out->restore(std::move(edges), max_bins);
  return true;
}

void write_tree(Writer& w, const ml::GradientTree& t) {
  w.u64(t.nodes().size());
  for (const auto& n : t.nodes()) {
    w.i32(n.feature);
    w.f64(n.threshold);
    w.i32(n.bin);
    w.i32(n.left);
    w.i32(n.right);
    w.f64(n.value);
    w.boolean(n.default_left);
  }
  for (const double g : t.gains()) w.f64(g);
  w.u16(t.missing_code());
}

ml::GradientTree::Node read_node(Reader& r) {
  ml::GradientTree::Node n;
  n.feature = r.i32();
  n.threshold = r.f64();
  n.bin = r.i32();
  n.left = r.i32();
  n.right = r.i32();
  n.value = r.f64();
  n.default_left = r.boolean();
  return n;
}

/// The per-node rule. A leaf (negative feature) has no children. A split
/// names a feature below the tier's row width and a bin code in range,
/// and its children are adjacent (right == left + 1, the pairs
/// GradientTree::fit allocates, so the flat copy needs no relinking),
/// forward (so every walk terminates) and inside the tree.
bool check_node(Reader& r, const ml::GradientTree::Node& node, std::size_t i,
                std::size_t n_nodes, std::size_t width) {
  if (node.feature < 0) {
    return (node.left == -1 && node.right == -1) ||
           r.fail("leaf node with children");
  }
  if (static_cast<std::size_t>(node.feature) >= width) {
    return r.fail("split feature outside its tier's feature row");
  }
  if (node.bin < 0 || node.bin > 0xFFFF) {
    return r.fail("split bin code out of range");
  }
  const std::int64_t left = node.left;
  if (static_cast<std::int64_t>(node.right) != left + 1) {
    return r.fail("split children not adjacent (right != left + 1)");
  }
  if (left <= static_cast<std::int64_t>(i) ||
      left + 1 >= static_cast<std::int64_t>(n_nodes)) {
    return r.fail("split children not forward and in range");
  }
  return true;
}

/// One pointer tree (load_lumos5g). Node count 0 is legal: an unfit tree
/// predicts 0.0.
bool read_tree(Reader& r, std::size_t width, ml::GradientTree& out) {
  const std::size_t n = r.count(kNodeBytes);
  std::vector<ml::GradientTree::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i] = read_node(r);
    if (!check_node(r, nodes[i], i, n, width)) return false;
  }
  std::vector<double> gains(n);
  for (double& g : gains) g = r.f64();
  const std::uint16_t missing = r.u16();
  if (!r.ok()) return false;
  out.restore(std::move(nodes), std::move(gains), missing);
  return true;
}

/// The per-tier width rule: a tier's models must declare exactly its
/// row's feature width (data::feature_width), or a crafted split could
/// make serving read past the row.
bool read_width(Reader& r, std::size_t width) {
  return r.u64() == width ||
         r.fail("model width disagrees with its tier's feature row");
}

/// What a GBDT payload stores before its trees. A regressor has one base
/// score; a classifier one per class and a multiple of its class count in
/// trees, interleaved [stage * n_classes + c].
struct ModelHead {
  ml::GbdtConfig cfg;
  std::vector<double> base;
  std::size_t n_trees = 0;
};

bool read_head(Reader& r, std::size_t width, bool classifier,
               ml::BinMapper* mapper, ModelHead& out) {
  out.cfg = read_gbdt_config(r);
  if (!read_width(r, width)) return false;
  std::size_t n_base = 1;
  if (classifier) {
    const std::int32_t n_classes = r.i32();
    if (!r.ok()) return false;
    if (n_classes < 0 || static_cast<std::size_t>(n_classes) > r.remaining() / 8) {
      return r.fail("classifier class count out of range");
    }
    n_base = static_cast<std::size_t>(n_classes);
  }
  out.base.resize(n_base);
  for (double& b : out.base) b = r.f64();
  if (!read_mapper(r, mapper)) return false;
  out.n_trees = r.count(kMinTreeBytes);
  if (classifier && (n_base == 0 ? out.n_trees != 0 : out.n_trees % n_base != 0)) {
    return r.fail("classifier tree count is not a multiple of its classes");
  }
  return r.ok();
}

/// One tier's regressor and classifier as the facade's pointer models.
bool read_pointer_tier(Reader& r, std::size_t width, ml::GbdtRegressor& reg,
                       ml::GbdtClassifier& cls) {
  ModelHead head[2];  // regressor, classifier
  ml::BinMapper mapper[2];
  std::vector<ml::GradientTree> trees[2];
  for (int m = 0; m < 2; ++m) {
    if (!read_head(r, width, m == 1, &mapper[m], head[m])) return false;
    trees[m].resize(head[m].n_trees);
    for (ml::GradientTree& t : trees[m]) {
      if (!read_tree(r, width, t)) return false;
    }
  }
  reg = ml::GbdtRegressor(head[0].cfg);
  reg.restore(std::move(mapper[0]), head[0].base.front(), std::move(trees[0]),
              width);
  const auto n_classes = static_cast<int>(head[1].base.size());
  cls = ml::GbdtClassifier(head[1].cfg);
  cls.restore(std::move(mapper[1]), n_classes, std::move(head[1].base),
              std::move(trees[1]), width);
  return true;
}

/// One flat forest of a model, parsed straight from its tree records.
struct FlatParts {
  std::vector<FlatNode> nodes;
  std::vector<std::uint32_t> roots;
  double base = 0.0;
  double scale = 1.0;
};

/// Parses `n_trees` tree records into `forests`, tree t into forest
/// t % forests.size() (one forest per regressor, one per class). Each
/// tree is one linear copy — node i lands at root + i, its left child at
/// root + left — because the per-node rule guarantees adjacent pairs.
/// Split gains and missing codes are bounds-checked and skipped.
bool read_flat_trees(Reader& r, std::size_t n_trees, std::size_t width,
                     std::span<FlatParts> forests) {
  if (n_trees == 0) return r.ok();
  const std::size_t k = forests.size();
  {
    // Size every array exactly, from one pass over the tree records'
    // node counts, so a reload holds no spare capacity.
    Reader scan = r;
    std::vector<std::size_t> total(k, 0);
    for (std::size_t t = 0; t < n_trees; ++t) {
      const std::size_t n = scan.count(kNodeBytes);
      scan.skip(n * (kNodeBytes + 8) + 2);
      total[t % k] += std::max<std::size_t>(n, 1);
    }
    for (std::size_t f = 0; f < k; ++f) {
      forests[f].nodes.reserve(total[f]);
      forests[f].roots.reserve((n_trees + k - 1) / k);
    }
  }
  for (std::size_t t = 0; t < n_trees; ++t) {
    FlatParts& forest = forests[t % k];
    const std::size_t n = r.count(kNodeBytes);
    const std::size_t root = forest.nodes.size();
    // Every flat index must fit the 31-bit child field.
    if (std::max<std::size_t>(n, 1) > FlatNode::kChildMask - root) {
      return r.fail("flat forest exceeds the 31-bit child index");
    }
    forest.roots.push_back(static_cast<std::uint32_t>(root));
    if (n == 0) forest.nodes.push_back(FlatNode{});  // unfit tree: 0.0 leaf
    for (std::size_t i = 0; i < n; ++i) {
      const ml::GradientTree::Node node = read_node(r);
      if (!check_node(r, node, i, n, width)) return false;
      const auto left =
          node.feature < 0 ? 0U : static_cast<std::uint32_t>(root + node.left);
      forest.nodes.push_back(FlatNode::from(node, left));
    }
    r.skip(8 * n + 2);
  }
  return r.ok();
}

/// One model's flat forests (load_predictor): the regressor as one forest
/// of base + learning_rate * Σ trees, a classifier as one per class.
bool read_flat_model(Reader& r, std::size_t width, bool classifier,
                     std::vector<FlatParts>& out) {
  ModelHead head;
  if (!read_head(r, width, classifier, nullptr, head)) return false;
  const double lr = head.cfg.learning_rate;
  const auto n_classes = static_cast<int>(head.base.size());
  out.resize(head.base.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c].base = head.base[c];
    out[c].scale = classifier ? FlatClassifier::class_scale(lr, n_classes) : lr;
  }
  return read_flat_trees(r, head.n_trees, width, out);
}

void write_spec(Writer& w, const data::FeatureSetSpec& s) {
  w.boolean(s.L);
  w.boolean(s.M);
  w.boolean(s.T);
  w.boolean(s.C);
}

data::FeatureSetSpec read_spec(Reader& r) {
  data::FeatureSetSpec s;
  s.L = r.boolean();
  s.M = r.boolean();
  s.T = r.boolean();
  s.C = r.boolean();
  return s;
}

void write_feature_config(Writer& w, const data::FeatureConfig& c) {
  w.i32(c.throughput_lags);
  w.i32(c.horizon);
  w.f64(c.low_mbps);
  w.f64(c.high_mbps);
  w.f64(c.max_gap_s);
}

data::FeatureConfig read_feature_config(Reader& r) {
  data::FeatureConfig c;
  c.throughput_lags = r.i32();
  c.horizon = r.i32();
  c.low_mbps = r.f64();
  c.high_mbps = r.f64();
  c.max_gap_s = r.f64();
  return c;
}

void write_fallback_config(Writer& w, const core::FallbackConfig& c) {
  w.boolean(c.enabled);
  w.u64(c.tiers.size());
  for (const auto& s : c.tiers) write_spec(w, s);
  w.boolean(c.harmonic_tail);
  w.u64(c.harmonic_window);
}

core::FallbackConfig read_fallback_config(Reader& r) {
  core::FallbackConfig c;
  c.enabled = r.boolean();
  const std::size_t n = r.count(4);
  c.tiers.resize(n);
  for (auto& s : c.tiers) s = read_spec(r);
  c.harmonic_tail = r.boolean();
  c.harmonic_window = static_cast<std::size_t>(r.u64());
  return c;
}

// --- the Lumos5G payload --------------------------------------------------

void write_gbdt_regressor_payload(Writer& w, const ml::GbdtRegressor& m) {
  write_gbdt_config(w, m.config());
  w.u64(m.n_features());
  w.f64(m.base());
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

void write_gbdt_classifier_payload(Writer& w, const ml::GbdtClassifier& m) {
  write_gbdt_config(w, m.config());
  w.u64(m.n_features());
  w.i32(m.n_classes());
  for (const double b : m.base()) w.f64(b);
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

void write_lumos5g_payload(Writer& w, const core::Lumos5G& m) {
  const core::Lumos5GConfig& cfg = m.config();
  write_spec(w, cfg.feature_spec);
  write_feature_config(w, cfg.features);
  write_gbdt_config(w, cfg.gbdt);
  write_fallback_config(w, cfg.fallback);
  w.u64(m.tier_specs().size());
  for (std::size_t i = 0; i < m.tier_specs().size(); ++i) {
    w.boolean(m.tier_trained(i));
    if (m.tier_trained(i)) {
      write_gbdt_regressor_payload(w, m.tier_regressor(i));
      write_gbdt_classifier_payload(w, m.tier_classifier(i));
    }
  }
}

/// A GBDT payload's size, for save_bytes to reserve its buffer once: the
/// trees and mapper edges exactly, the fixed-size fields within the slack.
std::size_t payload_hint(const auto& model) {
  std::size_t n = 256;
  for (const auto& e : model.mapper().edges()) n += 8 + 8 * e.size();
  for (const auto& t : model.trees()) {
    n += kMinTreeBytes + t.nodes().size() * (kNodeBytes + 8);
  }
  return n;
}

// ---------------------------------------------------------------------------
// Envelope: header + hash around a payload.
// ---------------------------------------------------------------------------

/// Validates magic/version/size/hash and hands back the payload slice.
Expected<std::string_view> check_envelope(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic)) {
    return Error{ErrorCode::kTruncated,
                 "model artifact shorter than the 4-byte magic"};
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Error{ErrorCode::kBadMagic,
                 "not a Lumos5G model artifact (magic != \"L5GM\")"};
  }
  if (bytes.size() < kHeaderSize + kHashSize) {
    return Error{ErrorCode::kTruncated,
                 "model artifact shorter than its fixed header"};
  }
  Reader header(bytes.substr(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    return Error{ErrorCode::kVersionMismatch,
                 "model artifact is format v" + std::to_string(version) +
                     "; this build reads exactly v" +
                     std::to_string(kFormatVersion)};
  }
  const std::uint8_t kind = header.u8();
  const std::uint64_t declared = header.u64();
  if (declared < kHeaderSize + kHashSize) {
    return Error{ErrorCode::kCorrupt,
                 "declared artifact size smaller than header + hash"};
  }
  if (bytes.size() < declared) {
    return Error{ErrorCode::kTruncated,
                 "model artifact declares " + std::to_string(declared) +
                     " bytes but only " + std::to_string(bytes.size()) +
                     " are present"};
  }
  if (bytes.size() > declared) {
    return Error{ErrorCode::kCorrupt,
                 std::to_string(bytes.size() - declared) +
                     " trailing bytes after the declared artifact end"};
  }
  const std::size_t hash_at = static_cast<std::size_t>(declared) - kHashSize;
  Reader stored_hash(bytes.substr(hash_at));
  if (artifact_hash(bytes.substr(0, hash_at)) != stored_hash.u64()) {
    return Error{ErrorCode::kCorrupt,
                 "model artifact failed its integrity hash (bit rot or "
                 "partial write)"};
  }
  if (kind != static_cast<std::uint8_t>(ModelKind::kLumos5G)) {
    // Tags 0-3 and 5 are retired kinds; anything else was never assigned.
    return parse_error("model kind tag " + std::to_string(kind) +
                       " is not a lumos5g artifact (tag 4)");
  }
  return bytes.substr(kHeaderSize, hash_at - kHeaderSize);
}

/// An artifact up to its first tier record.
struct Opened {
  Reader r;  ///< positioned at the first tier record
  core::Lumos5GConfig cfg;
  std::vector<data::FeatureSetSpec> chain;  ///< derived from cfg
};

/// Everything before the first tier record, for both loaders: the
/// envelope, the config block, and the stored tier count against the
/// chain the config derives (so an artifact cannot silently rebind
/// tiers).
Expected<Opened> open_artifact(std::string_view bytes) {
  const auto payload = check_envelope(bytes);
  if (!payload) return payload.error();
  Opened o{Reader(*payload), {}, {}};
  o.cfg.feature_spec = read_spec(o.r);
  o.cfg.features = read_feature_config(o.r);
  o.cfg.gbdt = read_gbdt_config(o.r);
  o.cfg.fallback = read_fallback_config(o.r);
  if (!o.r.ok()) return parse_error("malformed lumos5g config block");
  o.chain = core::derive_tiers(o.cfg.feature_spec, o.cfg.fallback);
  if (o.r.count(1) != o.chain.size() || !o.r.ok()) {
    return parse_error("stored tier count disagrees with the tier chain "
                       "derived from the stored config");
  }
  return o;
}

Error tier_error(const Reader& r, std::size_t tier) {
  return parse_error("malformed models for tier " + std::to_string(tier) +
                     ": " + r.why());
}

/// The last rule: the payload ends exactly where its last tier does.
Expected<void> finish(const Reader& r) {
  if (!r.ok()) {
    return parse_error(std::string("malformed lumos5g payload: ") + r.why());
  }
  if (r.remaining() != 0) {
    return parse_error("malformed lumos5g payload: " +
                       std::to_string(r.remaining()) +
                       " bytes after the last tier");
  }
  return {};
}

}  // namespace

std::string save_bytes(const core::Lumos5G& model) {
  std::size_t hint = kHeaderSize + 1024 + kHashSize;
  for (std::size_t i = 0; i < model.tier_specs().size(); ++i) {
    if (!model.tier_trained(i)) continue;
    hint += payload_hint(model.tier_regressor(i)) +
            payload_hint(model.tier_classifier(i));
  }
  Writer w(hint);
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(ModelKind::kLumos5G));
  w.u64(0);  // total size: patched once the payload is written
  write_lumos5g_payload(w, model);
  w.patch_u64(kSizeAt, w.size() + kHashSize);
  w.u64(artifact_hash(w.view()));
  return w.take();
}

Expected<core::Lumos5G> load_lumos5g(std::string_view bytes) {
  auto opened = open_artifact(bytes);
  if (!opened) return opened.error();
  Reader& r = opened->r;
  core::Lumos5G model(opened->cfg);
  for (std::size_t i = 0; i < opened->chain.size(); ++i) {
    if (!r.boolean()) continue;
    const std::size_t width =
        data::feature_width(opened->chain[i], opened->cfg.features);
    ml::GbdtRegressor reg;
    ml::GbdtClassifier cls;
    if (!read_pointer_tier(r, width, reg, cls)) return tier_error(r, i);
    model.restore_tier(i, std::move(reg), std::move(cls));
  }
  if (const auto done = finish(r); !done) return done.error();
  return model;
}

Expected<Predictor> load_predictor(std::string_view bytes) {
  auto opened = open_artifact(bytes);
  if (!opened) return opened.error();
  Reader& r = opened->r;
  Predictor p(opened->cfg.features, opened->cfg.fallback,
              std::move(opened->chain));
  const auto forest = [](FlatParts& f) {
    return FlatForest(std::move(f.nodes), std::move(f.roots), f.base, f.scale);
  };
  bool any_tier = false;
  for (std::size_t i = 0; i < p.specs_.size(); ++i) {
    if (!r.boolean()) continue;
    std::vector<FlatParts> reg;
    std::vector<FlatParts> cls;
    if (!read_flat_model(r, p.tier_widths_[i], false, reg) ||
        !read_flat_model(r, p.tier_widths_[i], true, cls)) {
      return tier_error(r, i);
    }
    std::vector<FlatForest> per_class;
    per_class.reserve(cls.size());
    for (FlatParts& c : cls) per_class.push_back(forest(c));
    Predictor::FlatTier& tier = p.tiers_[i];
    tier.regressor = forest(reg.front());
    tier.classifier = FlatClassifier(std::move(per_class));
    tier.compiled = true;
    any_tier = true;
  }
  if (const auto done = finish(r); !done) return done.error();
  if (!any_tier) {
    return Error{ErrorCode::kNotTrained,
                 "load_predictor: artifact has no trained tier"};
  }
  return p;
}

Expected<void> write_artifact(const std::filesystem::path& path,
                              const std::string& bytes) {
  // Each writer gets its own temp name: two threads saving to the same
  // destination must never interleave bytes in a shared ".tmp" file. The
  // final rename is atomic, so concurrent writers race to whole artifacts,
  // not to torn ones.
  static std::atomic<std::uint64_t> temp_serial{0};
  const std::filesystem::path tmp =
      path.string() + ".tmp." +
      std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
  const auto fail = [&tmp](std::string message) -> Expected<void> {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);  // never leave a temp behind
    return Error{ErrorCode::kIoError, std::move(message)};
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return fail("cannot open " + tmp.string() + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return fail("short write to " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return fail("cannot rename " + tmp.string() + " to " + path.string() +
                ": " + ec.message());
  }
  return {};
}

Expected<std::string> read_artifact(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{ErrorCode::kIoError, "cannot open " + path.string()};
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Error{ErrorCode::kIoError, "read failure on " + path.string()};
  }
  return bytes;
}

}  // namespace lumos::serve
