#include "serve/model_io.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "data/features.h"
#include "serve/flat_model.h"
#include "serve/predictor.h"

namespace lumos::serve {
namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 1 + 8;  // magic, version, kind, size
constexpr std::size_t kSizeAt = 9;                  // offset of the size field
constexpr std::size_t kHashSize = 8;
/// One FlatNode record: value, feature, left.
constexpr std::size_t kNodeBytes = 8 + 4 + 4;
/// The smallest forest record: base, scale and two zero counts.
constexpr std::size_t kMinForestBytes = 8 + 8 + 8 + 8;

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

/// The envelope hash (since v2). Four independent lanes each absorb every fourth
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
  std::uint32_t u32() { return static_cast<std::uint32_t>(word<4>()); }
  std::uint64_t u64() { return word<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  /// The next `n` bytes, consumed whole — or nullptr, recording the
  /// failure, when fewer remain.
  const char* bytes(std::size_t n) noexcept {
    if (!ok() || remaining() < n) {
      fail(kShort);
      return nullptr;
    }
    const char* p = d_.data() + pos_;
    pos_ += n;
    return p;
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
// Payload writers and readers. The payload is the serving snapshot: the
// config block, then per trained tier the FlatForest/FlatClassifier node
// arrays that Predictor::compile builds and FlatForest::eval_block walks.
// ---------------------------------------------------------------------------

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

/// A forest record's size, for save_bytes to reserve its buffer once.
std::size_t forest_bytes(const FlatForest& f) noexcept {
  return kMinForestBytes + 4 * f.roots().size() + kNodeBytes * f.nodes().size();
}

void write_forest(Writer& w, const FlatForest& f) {
  w.f64(f.base());
  w.f64(f.scale());
  w.u64(f.roots().size());
  w.u64(f.nodes().size());
  for (const std::uint32_t root : f.roots()) w.u32(root);
  for (const FlatNode& n : f.nodes()) {
    w.f64(n.value);
    w.i32(n.feature);
    w.u32(n.left);
  }
}

/// The per-node rule. A leaf is feature -1. A split names a feature below
/// the tier's row width, and its left child comes after it with the right
/// child (left + 1) still inside the forest — so every walk moves forward
/// and ends on a leaf inside `n_nodes`.
bool check_node(Reader& r, const FlatNode& node, std::size_t i,
                std::size_t n_nodes, std::size_t width) {
  if (node.feature == -1) return true;
  if (node.feature < 0 || static_cast<std::size_t>(node.feature) >= width) {
    return r.fail("split feature outside its tier's feature row");
  }
  const std::size_t left = node.left & FlatNode::kChildMask;
  if (left <= i || left + 1 >= n_nodes) {
    return r.fail("split children not after it and inside its forest");
  }
  return true;
}

/// One forest's parts, checked, for load_predictor to move into the
/// private FlatForest constructor.
struct FlatParts {
  std::vector<FlatNode> nodes;
  std::vector<std::uint32_t> roots;
  double base = 0.0;
  double scale = 1.0;
};

/// Reads one forest record into arrays sized from its stored counts:
/// every index must fit the 31-bit child field, every root must lie
/// inside the forest, and every node must pass check_node.
bool read_forest(Reader& r, std::size_t width, FlatParts& out) {
  out.base = r.f64();
  out.scale = r.f64();
  const std::size_t n_roots = r.count(4);
  const std::size_t n_nodes = r.count(kNodeBytes);
  if (!r.ok()) return false;
  if (n_nodes > FlatNode::kChildMask) {
    return r.fail("forest exceeds the 31-bit child index");
  }
  out.roots.resize(n_roots);
  for (std::uint32_t& root : out.roots) {
    root = r.u32();
    if (root >= n_nodes) return r.fail("tree root outside its forest");
  }
  const char* p = r.bytes(kNodeBytes * n_nodes);
  if (p == nullptr) return false;
  out.nodes.resize(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i, p += kNodeBytes) {
    FlatNode& node = out.nodes[i];
    node.value = std::bit_cast<double>(load_le<8>(p));
    node.feature = static_cast<std::int32_t>(load_le<4>(p + 8));
    node.left = static_cast<std::uint32_t>(load_le<4>(p + 12));
    if (!check_node(r, node, i, n_nodes, width)) return false;
  }
  return true;
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

Error tier_error(const Reader& r, std::size_t tier) {
  return parse_error("malformed models for tier " + std::to_string(tier) +
                     ": " + r.why());
}

}  // namespace

std::string save_bytes(const core::Lumos5G& model) {
  // The node arrays compile builds; an untrained facade (kNotTrained)
  // stores every tier untrained.
  const auto snapshot = Predictor::compile(model);
  const auto stored = [&snapshot](std::size_t i) {
    return snapshot.has_value() && snapshot->tier_compiled(i);
  };
  const std::size_t n_tiers = model.tier_specs().size();
  std::size_t size = kHeaderSize + 1024 + kHashSize;  // + config and counts
  for (std::size_t i = 0; i < n_tiers; ++i) {
    if (!stored(i)) continue;
    size += forest_bytes(snapshot->tier_regressor(i));
    for (const FlatForest& c : snapshot->tier_classifier(i).per_class()) {
      size += forest_bytes(c);
    }
  }
  Writer w(size);
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(ModelKind::kLumos5G));
  w.u64(0);  // total size: patched once the payload is written
  const core::Lumos5GConfig& cfg = model.config();
  write_spec(w, cfg.feature_spec);
  write_feature_config(w, cfg.features);
  w.u64(n_tiers);
  for (std::size_t i = 0; i < n_tiers; ++i) {
    w.boolean(stored(i));
    if (!stored(i)) continue;
    write_forest(w, snapshot->tier_regressor(i));
    const auto classes = snapshot->tier_classifier(i).per_class();
    w.u64(classes.size());
    for (const FlatForest& c : classes) write_forest(w, c);
  }
  w.patch_u64(kSizeAt, w.size() + kHashSize);
  w.u64(artifact_hash(w.view()));
  return w.take();
}

Expected<Predictor> load_predictor(std::string_view bytes) {
  const auto payload = check_envelope(bytes);
  if (!payload) return payload.error();
  Reader r(*payload);
  const data::FeatureSetSpec spec = read_spec(r);
  const data::FeatureConfig features = read_feature_config(r);
  if (!r.ok()) return parse_error("malformed lumos5g config block");
  if (const char* why = data::feature_config_error(features)) {
    return parse_error(std::string("invalid stored feature config: ") + why);
  }
  // The stored tier count must match the chain the spec derives, so an
  // artifact cannot silently rebind tiers.
  auto chain = core::derive_tiers(spec);
  if (r.count(1) != chain.size() || !r.ok()) {
    return parse_error("stored tier count disagrees with the tier chain "
                       "derived from the stored feature spec");
  }
  Predictor p(features, std::move(chain));
  const auto forest = [](FlatParts& f) {
    return FlatForest(std::move(f.nodes), std::move(f.roots), f.base, f.scale);
  };
  bool any_tier = false;
  for (std::size_t i = 0; i < p.specs_.size(); ++i) {
    if (!r.boolean()) continue;
    const std::size_t width = p.tier_widths_[i];
    FlatParts reg;
    if (!read_forest(r, width, reg)) return tier_error(r, i);
    std::vector<FlatForest> per_class(r.count(kMinForestBytes));
    for (FlatForest& c : per_class) {
      FlatParts part;
      if (!read_forest(r, width, part)) return tier_error(r, i);
      c = forest(part);
    }
    if (!r.ok()) return tier_error(r, i);
    Predictor::FlatTier& tier = p.tiers_[i];
    tier.regressor = forest(reg);
    tier.classifier = FlatClassifier(std::move(per_class));
    tier.compiled = true;
    any_tier = true;
  }
  // The last rule: the payload ends exactly where its last tier does.
  if (!r.ok()) {
    return parse_error(std::string("malformed lumos5g payload: ") + r.why());
  }
  if (r.remaining() != 0) {
    return parse_error("malformed lumos5g payload: " +
                       std::to_string(r.remaining()) +
                       " bytes after the last tier");
  }
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
