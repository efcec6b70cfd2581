// Call-graph pass: one graph over a set of source files.
//
// Each function definition from the symbol pass becomes a Node. Scanning
// its body token range yields
//
//   * call sites — `name(`, with the explicit qualifier (`FlatForest::
//     flatten(`) or the receiver chain (`tier.regressor.predict(` gives
//     {"tier", "regressor"}) recorded for resolution;
//   * effect sites — banned-by-name operations: heap allocation (new,
//     make_unique/shared, container growth methods, to_string, ...),
//     lock acquisition (scoped_lock/lock_guard/..., .lock()), `throw`,
//     blocking I/O (fopen/ifstream/printf/sleep_for/...), and wall-clock
//     reads (steady_clock/system_clock/...).
//
// Resolution is conservative but type-assisted, in precedence order:
//
//   1. explicit qualifier: defs whose qualified name ends with
//      `Qual::name`; an unmatched qualified call (std::..., macro-like)
//      resolves to nothing;
//   2. receiver chain: the leftmost receiver resolves through local
//      `Type var` declarations, the enclosing class's member hints, then
//      the union of every class's same-named member hint; subsequent
//      elements walk member hints forward. The final type's methods plus
//      those of its base closure and its derived closure (virtual
//      dispatch; never a sibling sharing a base) match;
//      an unresolvable receiver contributes NO edge (precision over
//      recall — binding `x.predict(` to every predict in the repo would
//      drown the analysis in false paths);
//   3. unqualified free call: same-class methods (incl. base closure)
//      plus free functions of that name anywhere in the file set.
//
// Calls whose line carries `// lumos-lint: allow(hot-path)` are marked
// blessed: the reachability pass does not walk through them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"
#include "symbols.h"

namespace lumos::lint {

enum class EffectKind : std::uint8_t { kAlloc, kLock, kThrow, kIo, kClock };

/// "hot-path-alloc", "hot-path-lock", ... — the rule id for a kind.
[[nodiscard]] const char* effect_rule(EffectKind k);

struct EffectSite {
  EffectKind kind = EffectKind::kAlloc;
  std::string what;  ///< the offending identifier ("push_back", "throw"…)
  std::uint32_t line = 0;
};

struct CallSite {
  std::string name;               ///< callee identifier
  std::string qualifier;          ///< explicit "A::B" prefix, or ""
  std::vector<std::string> recv;  ///< receiver chain, leftmost first
  std::uint32_t line = 0;
  bool blessed = false;  ///< allow(hot-path) on this line: edge not walked
};

/// One lock-acquisition site (`std::scoped_lock lock(mu_, other.mu_);`)
/// with the mutex names it grabs, in argument order.
struct LockSite {
  std::vector<std::string> mutexes;
  std::uint32_t line = 0;
};

/// One range-for over an unordered container whose body accumulates or
/// emits (determinism pass raw material).
struct UnorderedLoop {
  std::string range;  ///< the iterated expression's first identifier
  std::uint32_t line = 0;
};

struct Node {
  FunctionDef def;
  std::string path;  ///< file the definition lives in
  std::vector<CallSite> calls;
  std::vector<EffectSite> effects;
  std::vector<LockSite> locks;
  std::vector<UnorderedLoop> unordered_loops;
  /// Resolved edges: out[k] lists node indices calls[k] may reach.
  std::vector<std::vector<std::size_t>> out;
};

/// Line-level allow directives of one file, as the analysis passes consume
/// them (a directive covers its own line and the next, exactly like
/// scan_file's).
struct AllowSet {
  std::set<std::pair<std::uint32_t, std::string>> lines;
  std::set<std::string> whole_file;

  [[nodiscard]] bool covers(std::uint32_t line, const std::string& id) const {
    return whole_file.count(id) > 0 || lines.count({line, id}) > 0;
  }
};

struct CallGraph {
  std::vector<Node> nodes;
  std::vector<ClassDef> classes;          ///< all files merged
  std::map<std::string, AllowSet> allows;  ///< per path

  /// First node whose qualified name equals `qual`, or npos.
  [[nodiscard]] std::size_t find(const std::string& qual) const;
};

/// Lexes every file, extracts symbols, scans bodies, resolves edges.
[[nodiscard]] CallGraph build_callgraph(const std::vector<SourceFile>& files);

}  // namespace lumos::lint
