#include "serve/model_io.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "data/features.h"
#include "ml/gbdt.h"

namespace lumos::serve {
namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 1 + 8;  // magic, version, kind, size
constexpr std::size_t kHashSize = 8;

/// FNV-1a 64-bit over a byte range — endian-free, dependency-free, and
/// plenty to catch truncation and bit rot (this is an integrity check, not
/// an authenticity one).
std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Byte-level primitives. Everything is composed/decomposed byte by byte in
// little-endian order, so artifacts are identical across hosts regardless
// of endianness or struct padding.
// ---------------------------------------------------------------------------

class Writer {
 public:
  void raw(const char* p, std::size_t n) { buf_.append(p, n); }
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { append_le(v, 2); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  const std::string& view() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }

 private:
  void append_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFU));
    }
  }
  std::string buf_;
};

/// Bounds-checked little-endian cursor. A read past the end (possible only
/// for a hand-crafted payload — the envelope hash already passed) trips the
/// fail flag; every subsequent read returns 0 and the loader reports a
/// typed error instead of touching out-of-range memory.
class Reader {
 public:
  explicit Reader(std::string_view d) noexcept : d_(d) {}

  bool ok() const noexcept { return ok_; }
  /// ok() and fully consumed — trailing payload bytes are a parse error.
  bool done() const noexcept { return ok_ && pos_ == d_.size(); }
  std::size_t remaining() const noexcept { return d_.size() - pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  /// Reads an element count and rejects it when even minimally-sized
  /// elements could not fit in the remaining bytes — so a corrupt count
  /// fails fast instead of driving a multi-gigabyte allocation.
  std::size_t count(std::size_t min_elem_size) {
    const std::uint64_t c = u64();
    if (ok_ && min_elem_size > 0 &&
        c > remaining() / min_elem_size) {
      ok_ = false;
      return 0;
    }
    return ok_ ? static_cast<std::size_t>(c) : 0;
  }

 private:
  std::uint64_t le(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(d_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  std::string_view d_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

Error parse_error(std::string message) {
  return Error{ErrorCode::kParseError, std::move(message)};
}

// ---------------------------------------------------------------------------
// Component writers/readers. Readers only signal through the Reader fail
// flag plus a returned bool for structural checks; loaders translate.
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

bool read_mapper(Reader& r, ml::BinMapper& out) {
  const std::int32_t max_bins = r.i32();
  const std::size_t d = r.count(8);
  std::vector<std::vector<double>> edges(d);
  for (auto& e : edges) {
    const std::size_t n = r.count(8);
    e.resize(n);
    for (auto& v : e) v = r.f64();
  }
  if (!r.ok() || max_bins < 0) return false;
  out.restore(std::move(edges), max_bins);
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

/// Structural soundness of a decoded node array: children always point
/// forward (the builder allocates them after their parent, and forwardness
/// makes traversal provably terminating), stay in range, and splits name a
/// feature the model actually has.
bool valid_tree(const std::vector<ml::GradientTree::Node>& nodes,
                std::size_t n_features) {
  const auto n = static_cast<std::int64_t>(nodes.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& node = nodes[static_cast<std::size_t>(i)];
    if (node.feature < 0) {
      if (node.left != -1 || node.right != -1) return false;
    } else {
      if (static_cast<std::size_t>(node.feature) >= n_features) return false;
      if (node.bin < 0 || node.bin > 0xFFFF) return false;
      if (node.left <= i || node.left >= n) return false;
      if (node.right <= i || node.right >= n) return false;
    }
  }
  return true;
}

/// Node count 0 is legal (an unfit tree predicts 0.0); `n_features` bounds
/// the split features a node may reference.
bool read_tree(Reader& r, std::size_t n_features, ml::GradientTree& out) {
  constexpr std::size_t kNodeBytes = 4 + 8 + 4 + 4 + 4 + 8 + 1;
  const std::size_t n = r.count(kNodeBytes);
  std::vector<ml::GradientTree::Node> nodes(n);
  for (auto& node : nodes) {
    node.feature = r.i32();
    node.threshold = r.f64();
    node.bin = r.i32();
    node.left = r.i32();
    node.right = r.i32();
    node.value = r.f64();
    node.default_left = r.boolean();
  }
  std::vector<double> gains(n);
  for (auto& g : gains) g = r.f64();
  const std::uint16_t missing = r.u16();
  if (!r.ok() || !valid_tree(nodes, n_features)) return false;
  out.restore(std::move(nodes), std::move(gains), missing);
  return true;
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

// --- per-model payloads ---------------------------------------------------

void write_gbdt_regressor_payload(Writer& w, const ml::GbdtRegressor& m) {
  write_gbdt_config(w, m.config());
  w.u64(m.n_features());
  w.f64(m.base());
  write_mapper(w, m.mapper());
  w.u64(m.trees().size());
  for (const auto& t : m.trees()) write_tree(w, t);
}

bool read_gbdt_regressor_payload(Reader& r, ml::GbdtRegressor& out) {
  const ml::GbdtConfig cfg = read_gbdt_config(r);
  const std::size_t n_features = static_cast<std::size_t>(r.u64());
  const double base = r.f64();
  ml::BinMapper mapper;
  if (!read_mapper(r, mapper)) return false;
  const std::size_t n_trees = r.count(8 + 2);
  std::vector<ml::GradientTree> trees(n_trees);
  for (auto& t : trees) {
    if (!read_tree(r, n_features, t)) return false;
  }
  if (!r.ok()) return false;
  out = ml::GbdtRegressor(cfg);
  out.restore(std::move(mapper), base, std::move(trees), n_features);
  return true;
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

bool read_gbdt_classifier_payload(Reader& r, ml::GbdtClassifier& out) {
  const ml::GbdtConfig cfg = read_gbdt_config(r);
  const std::size_t n_features = static_cast<std::size_t>(r.u64());
  const std::int32_t n_classes = r.i32();
  if (!r.ok() || n_classes < 0 ||
      static_cast<std::size_t>(n_classes) > r.remaining() / 8) {
    return false;
  }
  std::vector<double> base(static_cast<std::size_t>(n_classes));
  for (auto& b : base) b = r.f64();
  ml::BinMapper mapper;
  if (!read_mapper(r, mapper)) return false;
  const std::size_t n_trees = r.count(8 + 2);
  if (n_classes > 0 && n_trees % static_cast<std::size_t>(n_classes) != 0) {
    return false;
  }
  if (n_classes == 0 && n_trees != 0) return false;
  std::vector<ml::GradientTree> trees(n_trees);
  for (auto& t : trees) {
    if (!read_tree(r, n_features, t)) return false;
  }
  if (!r.ok()) return false;
  out = ml::GbdtClassifier(cfg);
  out.restore(std::move(mapper), n_classes, std::move(base), std::move(trees),
              n_features);
  return true;
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

// ---------------------------------------------------------------------------
// Envelope: header + hash around a payload.
// ---------------------------------------------------------------------------

std::string finalize(const std::string& payload) {
  Writer w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(ModelKind::kLumos5G));
  w.u64(kHeaderSize + payload.size() + kHashSize);
  w.raw(payload.data(), payload.size());
  w.u64(fnv1a(w.view()));
  return w.take();
}

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
  if (fnv1a(bytes.substr(0, hash_at)) != stored_hash.u64()) {
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

}  // namespace

std::string save_bytes(const core::Lumos5G& model) {
  Writer w;
  write_lumos5g_payload(w, model);
  return finalize(w.view());
}

Expected<core::Lumos5G> load_lumos5g(std::string_view bytes) {
  const auto payload = check_envelope(bytes);
  if (!payload) return payload.error();
  Reader r(*payload);
  core::Lumos5GConfig cfg;
  cfg.feature_spec = read_spec(r);
  cfg.features = read_feature_config(r);
  cfg.gbdt = read_gbdt_config(r);
  cfg.fallback = read_fallback_config(r);
  if (!r.ok()) return parse_error("malformed lumos5g config block");
  core::Lumos5G model(cfg);
  const std::size_t n_tiers = r.count(1);
  // The tier chain is derived deterministically from the config, so the
  // stored tier count must match what the rebuilt facade derived.
  if (!r.ok() || n_tiers != model.tier_specs().size()) {
    return parse_error("stored tier count disagrees with the tier chain "
                       "derived from the stored config");
  }
  for (std::size_t i = 0; i < n_tiers; ++i) {
    const bool tier_trained = r.boolean();
    if (!tier_trained) continue;
    ml::GbdtRegressor reg;
    ml::GbdtClassifier cls;
    if (!read_gbdt_regressor_payload(r, reg) ||
        !read_gbdt_classifier_payload(r, cls)) {
      return parse_error("malformed models for tier " + std::to_string(i));
    }
    // read_tree bounds each split by the model's *stored* n_features; the
    // serving walk indexes a row of the tier's feature width, so the two
    // must agree or a crafted split could read past the row.
    const std::size_t width =
        data::feature_width(model.tier_specs()[i], cfg.features);
    if (reg.n_features() != width || cls.n_features() != width) {
      return parse_error("tier " + std::to_string(i) +
                         " models disagree with the tier's feature width " +
                         std::to_string(width));
    }
    model.restore_tier(i, std::move(reg), std::move(cls));
  }
  if (!r.done()) return parse_error("malformed lumos5g payload");
  return model;
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
