// Versioned binary model serialization — the artifact side of the paper's
// consumer story (§2.3, Fig. 4): a per-area predictor is trained once,
// saved to a file, shipped to devices, and reloaded for online queries.
//
// Format v2 (every fixed-width field a little-endian word — independent
// of host endianness and padding):
//
//   offset 0   u32  magic "L5GM"
//   offset 4   u32  format version (kFormatVersion)
//   offset 8   u8   model kind (ModelKind)
//   offset 9   u64  total artifact size in bytes (header + payload + hash)
//   offset 17  ...  kind-specific payload
//   last 8     u64  hash of every byte before it
//
// The hash reads 8-byte words into four independent multiply-rotate
// lanes. Each lane round is a bijection of the lane state for a fixed
// word, so any single-bit flip changes the hash. It is an integrity check
// against bit rot and torn writes, not a MAC.
//
// Layout rule: every split's children are adjacent (right == left + 1),
// as GradientTree::fit allocates them. A tree then flattens by one linear
// copy, node i to root + i, which is what load_predictor does.
//
// Two loaders call one definition of every check — envelope, config
// block, tier count, tier width, per-node rule, end of payload — so they
// cannot drift apart:
//   * load_lumos5g rebuilds the whole facade, pointer trees, bin mappers
//     and split gains included — for round trips and training-side users.
//   * load_predictor parses each tier straight into the flat node arrays
//     serving walks, skipping (after bounds checks) what serving never
//     reads. Server::reload_bytes calls only this one.
//
// Guarantees:
//   * Deterministic: saving the same fitted model twice yields identical
//     bytes (no timestamps, no addresses, no locale).
//   * Round-trip exact: every double is stored as its IEEE-754 bit
//     pattern, so a loaded model predicts bit-identically to the saved
//     one.
//   * Fail-typed, never UB: a wrong magic, incompatible version, short
//     file, or flipped bit yields Expected<T> carrying kBadMagic /
//     kVersionMismatch / kTruncated / kCorrupt; structural impossibilities
//     that survive the hash (hand-crafted files) yield kParseError.
//
// Versioning policy: any change to the byte layout or the hash bumps
// kFormatVersion. Readers accept exactly the version they were built for —
// a serving fleet upgrades its binary before its model artifacts, never
// the other way around. Other-version artifacts (v1 included) are rejected
// with kVersionMismatch (carrying both versions in the message) rather
// than best-effort parsed.
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
/// envelope hash and added the adjacent-children rule.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Kind tag stored in the artifact header. The trained Lumos5G facade is
/// the only kind: tags 0-3 (standalone GBDT and Random Forest models) and
/// 5 (Seq2Seq) are retired, never reused, and the loader rejects them —
/// and any unknown tag — with kParseError.
enum class ModelKind : std::uint8_t {
  kLumos5G = 4,
};

// --- byte-buffer API ------------------------------------------------------
// The in-memory half: save_bytes is pure and deterministic; the loader
// parses a buffer without touching the filesystem. File I/O wraps these.

[[nodiscard]] std::string save_bytes(const core::Lumos5G& model);

/// Parses a Lumos5G artifact into the full facade. Beyond the envelope
/// checks, the stored tier count must match the chain the stored config
/// derives; every trained tier's regressor and classifier must declare
/// the feature width of its tier (data::feature_width); and every split
/// must name a feature below it, a bin code in range, and children that
/// are adjacent, forward and inside its tree — so a hash-valid but
/// hand-built artifact cannot make serving read past a feature row or
/// loop: kParseError otherwise.
[[nodiscard]] Expected<core::Lumos5G> load_lumos5g(std::string_view bytes);

/// Parses a Lumos5G artifact straight into the serving snapshot, with the
/// same checks and error codes as load_lumos5g: each tier's trees become
/// FlatForest/FlatClassifier node arrays without building pointer trees,
/// bin mappers or split gains. The result is node-for-node identical to
/// Predictor::compile(*load_lumos5g(bytes)). Errors with kNotTrained when
/// no tier is trained, as compile does.
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
