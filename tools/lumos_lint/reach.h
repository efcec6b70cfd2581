// Reachability pass: the hot-path proof.
//
// A checked-in roots table names the serving entry points (Server::submit,
// Server::poll/poll_lane, Predictor::predict/predict_spans_columnar, the
// FlatForest/FlatClassifier walks down to FlatForest::eval_block,
// core::Lumos5G::predict). analyze_sources() builds the call graph over the
// whole src/ tree, walks every root's reachable set, and reports each
// banned effect (heap allocation, lock acquisition, throw, blocking I/O,
// wall-clock read) together with the full call chain from root to effect —
// the finding a developer sees is not "push_back here" but "Server::poll
// -> Predictor::predict -> feature_row_from_window -> push_back".
//
// Escapes are deliberate and all spelled in source:
//   * `// lumos-lint: allow(hot-path-<effect>) reason` on the effect line
//     blesses that one site (e.g. the amortized thread_local arena resize);
//   * `// lumos-lint: allow(hot-path) reason` on a call line blesses that
//     edge — the walk does not continue through it;
//   * the blessed-paths table exempts whole files with a recorded reason
//     (the virtual clock seam, the deterministic thread pool).
//
// Two sibling policy passes reuse the same graph:
//   * lock-order: every lock site in src/serve/ must name only mutexes
//     from the declared acquisition order, acquired in table order;
//   * unordered-accumulate: a range-for over an unordered container whose
//     body accumulates or emits is order-dependent and breaks the
//     bit-identical-at-any-thread-count guarantee.
#pragma once

#include <string>
#include <vector>

#include "callgraph.h"
#include "lint.h"

namespace lumos::lint {

/// A file-prefix exemption from the hot-path rules, with the reason
/// recorded next to it (the table is the documentation).
struct BlessedPath {
  std::string prefix;
  std::string reason;
};

struct AnalysisConfig {
  /// Qualified names (lumos:: stripped) of the serving entry points.
  std::vector<std::string> roots;
  std::vector<BlessedPath> blessed_paths;
  /// Declared mutex acquisition order for src/serve/ (names as declared,
  /// e.g. "mu_"). A lock site naming an unlisted mutex, or listing mutexes
  /// out of table order, is a lock-order finding.
  std::vector<std::string> lock_order;
};

/// The checked-in serving-path configuration this repo is linted against.
[[nodiscard]] const AnalysisConfig& default_analysis();

/// Runs the whole-program passes (reachability, lock-order, determinism)
/// over `files` as one program. Only rules present in `rules` (and whose
/// dir scoping matches the finding's path) are reported.
[[nodiscard]] std::vector<Finding> analyze_sources(
    const std::vector<SourceFile>& files, const std::vector<Rule>& rules,
    const AnalysisConfig& cfg);

/// Same, against default_analysis().
[[nodiscard]] std::vector<Finding> analyze_sources(
    const std::vector<SourceFile>& files, const std::vector<Rule>& rules);

}  // namespace lumos::lint
