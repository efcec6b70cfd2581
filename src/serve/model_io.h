// Versioned binary model serialization — the artifact side of the paper's
// consumer story (§2.3, Fig. 4): a per-area predictor is trained once,
// saved to a file, shipped to devices, and reloaded for online queries.
//
// Format v4 (every fixed-width field a little-endian word — independent
// of host endianness and padding):
//
//   offset 0   u32  magic "L5GM"
//   offset 4   u32  format version (kFormatVersion)
//   offset 8   u8   model kind (ModelKind)
//   offset 9   u64  total artifact size in bytes (header + payload + hash)
//   offset 17  ...  payload
//   last 8     u64  hash of every byte before it
//
// The payload is the serving snapshot Predictor::compile builds:
//
//   config block
//     4 x u8   feature spec L, M, T, C (nonzero = set)
//     i32      FeatureConfig::throughput_lags   (offset 21)
//     i32      FeatureConfig::horizon
//     f64      low_mbps, high_mbps, max_gap_s
//   u64        tier count (must equal the chain core::derive_tiers gives)
//   per tier   u8 trained; when nonzero:
//                forest   the regressor
//                u64      class count
//                forest   one per class, in class order
//   forest     f64 base, f64 scale, u64 root count R, u64 node count N,
//              R x u32 roots, N x 16-byte FlatNode records
//              (f64 value, i32 feature, u32 left with the default-left
//              bit on top)
//
// A forest predicts base + scale * Σ trees, folded in root order: exactly
// FlatForest's arrays, which FlatForest::eval_block walks.
//
// The hash reads 8-byte words into four independent multiply-rotate
// lanes. Each lane round is a bijection of the lane state for a fixed
// word, so any single-bit flip changes the hash. It is an integrity check
// against bit rot and torn writes, not a MAC: anyone can hash hand-built
// bytes, so load_predictor — the one reader — checks everything inside:
//   * Config rule: data::feature_config_error(FeatureConfig) is null
//     (1 <= throughput_lags <= data::kMaxThroughputLags, horizon >= 1),
//     so the row width each tier derives from it is sane.
//   * Node rules, per forest: N fits the 31-bit child field; every root
//     is below N; a leaf has feature == -1, and any other node is a split
//     whose feature lies in [0, its tier's row width) (data::feature_width)
//     and whose left child — an index into the forest's node array —
//     comes after it with left + 1 < N. Every walk therefore moves
//     forward, ends on a leaf and never reads past a feature row.
//   * Counts are checked against the bytes left before any allocation,
//     and the payload must end exactly after its last tier.
//
// Guarantees:
//   * Deterministic: saving the same fitted model twice yields identical
//     bytes (no timestamps, no addresses, no locale).
//   * Round-trip exact: every double is stored as its IEEE-754 bit
//     pattern, so load_predictor(save_bytes(m)) is node for node the
//     snapshot Predictor::compile(m) builds.
//   * Fail-typed, never UB: a wrong magic, incompatible version, short
//     file, or flipped bit yields Expected<T> carrying kBadMagic /
//     kVersionMismatch / kTruncated / kCorrupt; structural impossibilities
//     that survive the hash (hand-crafted files) yield kParseError.
//
// Versioning policy: any change to the byte layout or the hash bumps
// kFormatVersion. Readers accept exactly the version they were built for —
// a serving fleet upgrades its binary before its model artifacts, never
// the other way around. Other-version artifacts (v1 to v3 included) are
// rejected with kVersionMismatch (carrying both versions in the message)
// rather than best-effort parsed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/error.h"
#include "core/lumos5g.h"
#include "serve/predictor.h"

namespace lumos::serve {

/// First four artifact bytes, in file order.
inline constexpr char kMagic[4] = {'L', '5', 'G', 'M'};

/// Current (and only accepted) format version. v2 replaced v1's FNV-1a
/// envelope hash; v3 replaced the training-side tree records (pointer
/// nodes, split gains, bin mappers, GBDT settings) with the 16-byte
/// serving nodes; v4 dropped the fallback settings from the config block
/// (the tier chain and the harmonic tail are fixed rules).
inline constexpr std::uint32_t kFormatVersion = 4;

/// Kind tag stored in the artifact header. The trained Lumos5G facade is
/// the only kind: tags 0-3 (standalone GBDT and Random Forest models) and
/// 5 (Seq2Seq) are retired, never reused, and the loader rejects them —
/// and any unknown tag — with kParseError.
enum class ModelKind : std::uint8_t {
  kLumos5G = 4,
};

// --- byte-buffer API ------------------------------------------------------
// The in-memory half: save_bytes is pure and deterministic; the reader
// parses a buffer without touching the filesystem. File I/O wraps these.

/// Writes the node arrays Predictor::compile(model) builds, under the
/// model's config. An untrained facade stores every tier untrained.
[[nodiscard]] std::string save_bytes(const core::Lumos5G& model);

/// The one artifact reader: checks the envelope, the config rule and
/// every node (see the file comment), then moves each tier's arrays,
/// sized from the stored counts, into the serving snapshot. A broken rule
/// is kParseError. Errors with kNotTrained when no tier is trained, as
/// compile does.
[[nodiscard]] Expected<Predictor> load_predictor(std::string_view bytes);

// --- file API -------------------------------------------------------------

/// Writes `bytes` atomically enough for a model store: to a sibling temp
/// file first, then renamed over `path`. Errors with kIoError.
[[nodiscard]] Expected<void> write_artifact(const std::filesystem::path& path,
                                            const std::string& bytes);

/// Reads a whole artifact file. Errors with kIoError when the file cannot
/// be opened or read.
[[nodiscard]] Expected<std::string> read_artifact(
    const std::filesystem::path& path);

[[nodiscard]] inline Expected<void> save_model(
    const core::Lumos5G& model, const std::filesystem::path& path) {
  return write_artifact(path, save_bytes(model));
}

}  // namespace lumos::serve
