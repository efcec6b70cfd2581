// Tests for tools/lumos_lint: every rule in the table must fire on its
// seeded fixture snippet (tests/lint_fixtures/), suppression directives
// must silence findings, and the real tree must scan clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "lexer.h"
#include "lint.h"
#include "reach.h"
#include "symbols.h"

namespace {

using lumos::lint::Finding;
using lumos::lint::SourceFile;
using lumos::lint::analyze_sources;
using lumos::lint::build_callgraph;
using lumos::lint::default_rules;
using lumos::lint::extract_symbols;
using lumos::lint::lex_file;
using lumos::lint::scan_file;
using lumos::lint::scan_tree;
using lumos::lint::TokKind;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(LUMOS_LINT_FIXTURES_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Scans fixture `name` under the pretend repo path `as_path`.
std::vector<Finding> scan_fixture(const std::string& name,
                                  const std::string& as_path) {
  return scan_file(as_path, read_fixture(name), default_rules());
}

bool fires(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

struct FixtureCase {
  const char* fixture;
  const char* as_path;  ///< pretend location; picks up dir-scoped rules
  const char* rule;
};

TEST(LumosLint, EveryRuleFiresOnItsFixture) {
  const FixtureCase cases[] = {
      {"banned_rand.cpp", "src/ml/banned_rand.cpp", "banned-rand"},
      {"banned_std_random.cpp", "src/sim/banned_std_random.cpp",
       "banned-std-random"},
      {"unordered_container.cpp", "src/core/unordered_container.cpp",
       "unordered-container"},
      {"wall_clock.cpp", "src/data/wall_clock.cpp", "wall-clock"},
      {"thread_outside_pool.cpp", "src/ml/thread_outside_pool.cpp",
       "thread-outside-pool"},
      {"throw_query_path.cpp", "src/core/throw_query_path.cpp",
       "throw-on-query-path"},
      {"naked_assert.cpp", "src/nn/naked_assert.cpp", "naked-assert"},
      {"layering.cpp", "src/ml/layering.cpp", "layering"},
      {"missing_pragma_once.h", "src/geo/missing_pragma_once.h",
       "pragma-once"},
      {"bad_suppression.cpp", "src/ml/bad_suppression.cpp",
       "bad-suppression"},
  };
  for (const auto& c : cases) {
    const auto findings = scan_fixture(c.fixture, c.as_path);
    EXPECT_TRUE(fires(findings, c.rule))
        << c.fixture << " did not trigger rule " << c.rule;
  }
}

TEST(LumosLint, FindingCarriesLocationAndExcerpt) {
  const auto findings =
      scan_fixture("banned_rand.cpp", "src/ml/banned_rand.cpp");
  ASSERT_TRUE(fires(findings, "banned-rand"));
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [](const Finding& f) { return f.rule == "banned-rand"; });
  EXPECT_EQ(it->path, "src/ml/banned_rand.cpp");
  EXPECT_EQ(it->line, 2u);
  EXPECT_NE(it->excerpt.find("rand()"), std::string::npos);
}

TEST(LumosLint, SuppressionSilencesBothPlacements) {
  const auto findings =
      scan_fixture("suppressed_ok.cpp", "src/ml/suppressed_ok.cpp");
  EXPECT_TRUE(findings.empty())
      << "unexpected finding: " << lumos::lint::format(findings.front());
}

TEST(LumosLint, CleanFixtureProducesNoFindings) {
  const auto findings = scan_fixture("clean.cpp", "src/ml/clean.cpp");
  EXPECT_TRUE(findings.empty())
      << "unexpected finding: " << lumos::lint::format(findings.front());
}

TEST(LumosLint, DirScopedRulesIgnoreBenchAndTests) {
  // The same wall-clock read is a finding in src/ but fine in bench/
  // (timing harnesses legitimately read clocks).
  EXPECT_TRUE(fires(scan_fixture("wall_clock.cpp", "src/data/wall_clock.cpp"),
                    "wall-clock"));
  EXPECT_FALSE(fires(
      scan_fixture("wall_clock.cpp", "bench/wall_clock.cpp"), "wall-clock"));
  // throw is an error-discipline violation only on the core/ml query path.
  EXPECT_FALSE(fires(
      scan_fixture("throw_query_path.cpp", "src/data/throw_query_path.cpp"),
      "throw-on-query-path"));
}

TEST(LumosLint, ExemptPathsAreExempt) {
  // The blessed RNG header may reference std:: engines (it documents and
  // replaces them); everywhere else the rule fires.
  const std::string body = read_fixture("banned_std_random.cpp");
  EXPECT_FALSE(fires(scan_file("src/common/rng.h", body, default_rules()),
                     "banned-std-random"));
  EXPECT_TRUE(fires(scan_file("src/stats/rng2.h", body, default_rules()),
                    "banned-std-random"));
}

TEST(LumosLint, CommentsAndStringsDoNotFire) {
  const std::string body =
      "// rand() in a comment\n"
      "/* std::unordered_map<int,int> in a block comment */\n"
      "const char* s = \"std::mt19937 in a string\";\n";
  const auto findings = scan_file("src/ml/ok.cpp", body, default_rules());
  EXPECT_TRUE(findings.empty())
      << "unexpected finding: " << lumos::lint::format(findings.front());
}

TEST(LumosLint, RuleTableHasAtLeastEightRules) {
  EXPECT_GE(default_rules().size(), 8u);
}

// ---- lexer pass ----------------------------------------------------------

TEST(LumosLintLexer, TokenGolden) {
  const auto lexed = lex_file("int x = a->b::c(42);\n");
  std::vector<std::pair<TokKind, std::string>> got;
  for (const auto& t : lexed.tokens) got.emplace_back(t.kind, t.text);
  const std::vector<std::pair<TokKind, std::string>> want = {
      {TokKind::kIdent, "int"}, {TokKind::kIdent, "x"},
      {TokKind::kPunct, "="},   {TokKind::kIdent, "a"},
      {TokKind::kPunct, "->"},  {TokKind::kIdent, "b"},
      {TokKind::kPunct, "::"},  {TokKind::kIdent, "c"},
      {TokKind::kPunct, "("},   {TokKind::kNumber, "42"},
      {TokKind::kPunct, ")"},   {TokKind::kPunct, ";"},
  };
  EXPECT_EQ(got, want);
}

TEST(LumosLintLexer, CommentsAndStringsAreBlankedNotTokenized) {
  const auto lexed = lex_file(
      "// rand() here\n"
      "/* srand(1) there */\n"
      "const char* s = \"time(nullptr)\";\n");
  for (const auto& t : lexed.tokens) {
    EXPECT_EQ(t.text.find("rand"), std::string::npos) << t.text;
    EXPECT_EQ(t.text.find("time"), std::string::npos) << t.text;
  }
  // ...but the comments view keeps them for the suppression parser.
  EXPECT_NE(lexed.comments.find("rand()"), std::string::npos);
}

TEST(LumosLintLexer, RawStringBodyIsNotCode) {
  const auto lexed =
      lex_file("const char* k = R\"x(rand(); \")\" still raw)x\"; int after;\n");
  bool saw_rand = false, saw_after = false;
  for (const auto& t : lexed.tokens) {
    if (t.text == "rand") saw_rand = true;
    if (t.text == "after") saw_after = true;
  }
  EXPECT_FALSE(saw_rand) << "raw-string body leaked into tokens";
  EXPECT_TRUE(saw_after) << "lexer lost sync after the raw string";
}

TEST(LumosLintLexer, SplicedDirectiveIsOneLogicalDirective) {
  const auto lexed = lex_file("#inc\\\nlude \\\n  \"sim/faults.h\"\nint x;\n");
  ASSERT_EQ(lexed.directives.size(), 1u);
  EXPECT_NE(lexed.directives[0].text.find("#include"), std::string::npos);
  EXPECT_NE(lexed.directives[0].text.find("sim/faults.h"), std::string::npos);
  // The directive's continuation lines must not leak into the token stream.
  for (const auto& t : lexed.tokens) {
    EXPECT_EQ(t.text.find("lude"), std::string::npos) << t.text;
  }
}

TEST(LumosLintLexer, LineNumbersSurviveStripping) {
  const auto lexed = lex_file("/* a\nb\nc */\nint x;\n");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.front().text, "int");
  EXPECT_EQ(lexed.tokens.front().line, 4u);
}

// ---- symbol pass ---------------------------------------------------------

TEST(LumosLintSymbols, QualifiedFunctionAndClassExtraction) {
  const std::string src =
      "namespace lumos::serve {\n"
      "class Server {\n"
      " public:\n"
      "  int submit() { return 0; }\n"
      " private:\n"
      "  Helper helper_;\n"
      "};\n"
      "int free_fn(int a) { return a; }\n"
      "}  // namespace\n";
  const auto syms = extract_symbols("src/serve/x.cpp", lex_file(src));
  ASSERT_EQ(syms.functions.size(), 2u);
  EXPECT_EQ(syms.functions[0].qual, "serve::Server::submit");
  EXPECT_EQ(syms.functions[0].cls, "serve::Server");
  EXPECT_EQ(syms.functions[1].qual, "serve::free_fn");
  EXPECT_EQ(syms.functions[1].cls, "");
  ASSERT_EQ(syms.classes.size(), 1u);
  EXPECT_EQ(syms.classes[0].name, "Server");
  ASSERT_TRUE(syms.classes[0].members.count("helper_"));
  EXPECT_EQ(syms.classes[0].members.at("helper_"), "Helper");
}

TEST(LumosLintSymbols, OutOfLineDefinitionAndBases) {
  const std::string src =
      "namespace lumos {\n"
      "class ManualClock final : public Clock {\n"
      " public:\n"
      "  void tick();\n"
      "};\n"
      "void ManualClock::tick() { ++t_; }\n"
      "}  // namespace\n";
  const auto syms = extract_symbols("src/common/x.cpp", lex_file(src));
  ASSERT_EQ(syms.classes.size(), 1u);
  ASSERT_EQ(syms.classes[0].bases.size(), 1u);
  EXPECT_EQ(syms.classes[0].bases[0], "Clock");
  ASSERT_EQ(syms.functions.size(), 1u);
  EXPECT_EQ(syms.functions[0].qual, "ManualClock::tick");
}

TEST(LumosLintSymbols, NestedClassAfterAccessLabel) {
  // `private:` directly before a nested struct must not hide it: the
  // receiver chains through its members depend on its member hints.
  const std::string src =
      "namespace lumos::serve {\n"
      "class Predictor {\n"
      " private:\n"
      "  struct FlatTier {\n"
      "    FlatForest regressor;\n"
      "  };\n"
      "  std::vector<FlatTier> tiers_;\n"
      "};\n"
      "}  // namespace\n";
  const auto syms = extract_symbols("src/serve/x.cpp", lex_file(src));
  ASSERT_EQ(syms.classes.size(), 2u);
  EXPECT_EQ(syms.classes[1].name, "FlatTier");
  ASSERT_TRUE(syms.classes[1].members.count("regressor"));
  EXPECT_EQ(syms.classes[1].members.at("regressor"), "FlatForest");
  ASSERT_TRUE(syms.classes[0].members.count("tiers_"));
  EXPECT_EQ(syms.classes[0].members.at("tiers_"), "FlatTier");
}

// ---- call-graph pass -----------------------------------------------------

TEST(LumosLintCallgraph, ReceiverChainResolvesThroughMemberHints) {
  const std::string src =
      "namespace lumos::serve {\n"
      "class Forest { public: double predict() { return 1.0; } };\n"
      "class Tier { public: Forest regressor; };\n"
      "class Predictor {\n"
      " public:\n"
      "  double run() {\n"
      "    const Tier& tier = tiers_[0];\n"
      "    return tier.regressor.predict();\n"
      "  }\n"
      " private:\n"
      "  std::vector<Tier> tiers_;\n"
      "};\n"
      "}\n";
  const auto g = build_callgraph({{"src/serve/x.cpp", src}});
  const std::size_t run = g.find("serve::Predictor::run");
  const std::size_t predict = g.find("serve::Forest::predict");
  ASSERT_NE(run, static_cast<std::size_t>(-1));
  ASSERT_NE(predict, static_cast<std::size_t>(-1));
  bool edge = false;
  for (const auto& targets : g.nodes[run].out) {
    for (std::size_t t : targets) edge |= (t == predict);
  }
  EXPECT_TRUE(edge) << "tier.regressor.predict() did not resolve";
}

TEST(LumosLintCallgraph, UnresolvableReceiverContributesNoEdge) {
  // `mystery.predict()` has no declaration anywhere: binding it to every
  // predict in the program would drown the analysis, so it must bind to
  // nothing at all.
  const std::string src =
      "namespace lumos::serve {\n"
      "class Forest { public: double predict() { return 1.0; } };\n"
      "double run(const Opaque& mystery) { return mystery.predict(); }\n"
      "}\n";
  const auto g = build_callgraph({{"src/serve/x.cpp", src}});
  const std::size_t run = g.find("serve::run");
  ASSERT_NE(run, static_cast<std::size_t>(-1));
  for (const auto& targets : g.nodes[run].out) {
    EXPECT_TRUE(targets.empty());
  }
}

TEST(LumosLintCallgraph, VirtualDispatchCoversDerivedOverrides) {
  const std::string src =
      "namespace lumos {\n"
      "class Clock { public: virtual long now() { return 0; } };\n"
      "class SteadyClock : public Clock {\n"
      " public: long now() { return 1; } };\n"
      "class User {\n"
      " public:\n"
      "  long read() { return clock_->now(); }\n"
      " private:\n"
      "  Clock* clock_;\n"
      "};\n"
      "}\n";
  const auto g = build_callgraph({{"src/common/x.cpp", src}});
  const std::size_t read = g.find("User::read");
  const std::size_t derived = g.find("SteadyClock::now");
  ASSERT_NE(read, static_cast<std::size_t>(-1));
  ASSERT_NE(derived, static_cast<std::size_t>(-1));
  bool edge = false;
  for (const auto& targets : g.nodes[read].out) {
    for (std::size_t t : targets) edge |= (t == derived);
  }
  EXPECT_TRUE(edge) << "call through Clock* must cover derived overrides";
}

TEST(LumosLintCallgraph, SiblingOverridesAreNotCallees) {
  // A call on a concrete Gbdt cannot dispatch to Knn just because both
  // derive from Regressor; the edge set must stay Gbdt-only.
  const std::string src =
      "namespace lumos {\n"
      "class Regressor { public: virtual double predict() = 0; };\n"
      "class Gbdt final : public Regressor {\n"
      " public: double predict() { return 1.0; } };\n"
      "class Knn final : public Regressor {\n"
      " public: double predict() { return 2.0; } };\n"
      "class User {\n"
      " public:\n"
      "  double run() { return model_.predict(); }\n"
      " private:\n"
      "  Gbdt model_;\n"
      "};\n"
      "}\n";
  const auto g = build_callgraph({{"src/ml/x.cpp", src}});
  const std::size_t run = g.find("User::run");
  const std::size_t gbdt = g.find("Gbdt::predict");
  const std::size_t knn = g.find("Knn::predict");
  ASSERT_NE(run, static_cast<std::size_t>(-1));
  bool to_gbdt = false;
  bool to_knn = false;
  for (const auto& targets : g.nodes[run].out) {
    for (std::size_t t : targets) {
      to_gbdt |= (t == gbdt);
      to_knn |= (t == knn);
    }
  }
  EXPECT_TRUE(to_gbdt);
  EXPECT_FALSE(to_knn) << "a sibling override is not a possible callee";
}

// ---- reachability / policy passes over the fixtures ----------------------

std::vector<Finding> analyze_fixture(const std::string& name,
                                     const std::string& as_path) {
  return analyze_sources({{as_path, read_fixture(name)}}, default_rules());
}

TEST(LumosLintReach, HotPathAllocReportsFullChain) {
  const auto findings =
      analyze_fixture("hot_path_reach.cpp", "src/serve/hot_path_reach.cpp");
  ASSERT_TRUE(fires(findings, "hot-path-alloc"));
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "hot-path-alloc"; });
  ASSERT_GE(it->chain.size(), 2u) << "expected root -> helper chain";
  EXPECT_NE(it->chain.front().find("serve::Server::submit"),
            std::string::npos);
  EXPECT_NE(it->chain.back().find("DiagnosticBuffer::record"),
            std::string::npos);
}

TEST(LumosLintReach, BlessedEdgeStopsTheWalk) {
  std::string body = read_fixture("hot_path_reach.cpp");
  const std::string call = "diag_.record(7);";
  const auto at = body.find(call);
  ASSERT_NE(at, std::string::npos);
  body.insert(at + call.size(),
              "  // lumos-lint: allow(hot-path) fixture bless");
  const auto findings =
      analyze_sources({{"src/serve/hot_path_reach.cpp", body}},
                      default_rules());
  EXPECT_FALSE(fires(findings, "hot-path-alloc"))
      << "a blessed call edge must not be walked";
}

TEST(LumosLintReach, LockOrderFixtureFires) {
  const auto findings =
      analyze_fixture("lock_order.cpp", "src/serve/lock_order.cpp");
  EXPECT_TRUE(fires(findings, "lock-order"));
}

TEST(LumosLintReach, LockOrderIsServeScoped) {
  const auto findings =
      analyze_fixture("lock_order.cpp", "src/stats/lock_order.cpp");
  EXPECT_FALSE(fires(findings, "lock-order"))
      << "the lock-order table only governs src/serve/";
}

TEST(LumosLintReach, UnorderedAccumulateFixtureFires) {
  const auto findings = analyze_fixture("unordered_accumulate.cpp",
                                        "src/stats/unordered_accumulate.cpp");
  EXPECT_TRUE(fires(findings, "unordered-accumulate"));
}

/// The call graph over the real src/ tree.
lumos::lint::CallGraph real_callgraph() {
  namespace fs = std::filesystem;
  std::vector<SourceFile> sources;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(LUMOS_SOURCE_ROOT) / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back(
        {fs::relative(entry.path(), LUMOS_SOURCE_ROOT).generic_string(),
         text.str()});
  }
  return build_callgraph(sources);
}

/// Whether the graph has the edge `from -> to`.
bool has_edge(const lumos::lint::CallGraph& g, std::size_t from,
              std::size_t to) {
  for (const auto& targets : g.nodes[from].out) {
    for (const std::size_t t : targets) {
      if (t == to) return true;
    }
  }
  return false;
}

TEST(LumosLintReach, RealServingPathIsProvenNotVacuous) {
  // The clean tree scan is only a proof if the roots actually exist and
  // have bodies in the graph. Guard against silent rot: the real sources
  // must yield nodes for every default root, and poll_lane must reach
  // the tree kernel through the batched columnar walk.
  const auto g = real_callgraph();
  for (const std::string& root : lumos::lint::default_analysis().roots) {
    EXPECT_NE(g.find(root), static_cast<std::size_t>(-1))
        << "hot-path root " << root << " has no definition in src/";
  }
  // The chain serving actually runs must be edges in the graph, down to
  // the tree kernel — otherwise the batched roots are vacuously clean.
  const std::vector<std::string> chain = {
      "serve::Server::poll_lane",
      "serve::Predictor::predict_spans_columnar",
      "serve::FlatForest::predict_columnar",
      "serve::FlatForest::eval_block",
  };
  for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
    const std::size_t from = g.find(chain[k]);
    const std::size_t to = g.find(chain[k + 1]);
    ASSERT_NE(from, static_cast<std::size_t>(-1)) << chain[k];
    ASSERT_NE(to, static_cast<std::size_t>(-1)) << chain[k + 1];
    EXPECT_TRUE(has_edge(g, from, to))
        << chain[k] << " no longer reaches " << chain[k + 1];
  }
}

TEST(LumosLintReach, ReloadPathBuildsNoPointerTrees) {
  // Hot reload reads an artifact's stored flat node arrays. Nothing
  // reachable from Server::reload_bytes may fit pointer trees or flatten
  // them — and the check is only meaningful while reload_bytes really
  // calls the one artifact reader.
  const auto g = real_callgraph();
  const std::size_t reload = g.find("serve::Server::reload_bytes");
  const std::size_t loader = g.find("serve::load_predictor");
  ASSERT_NE(reload, static_cast<std::size_t>(-1));
  ASSERT_NE(loader, static_cast<std::size_t>(-1))
      << "serve::load_predictor has no definition in src/";
  EXPECT_TRUE(has_edge(g, reload, loader))
      << "Server::reload_bytes no longer calls load_predictor";

  std::vector<bool> seen(g.nodes.size(), false);
  std::vector<std::size_t> todo{reload};
  seen[reload] = true;
  while (!todo.empty()) {
    const std::size_t n = todo.back();
    todo.pop_back();
    for (const auto& targets : g.nodes[n].out) {
      for (const std::size_t t : targets) {
        if (!seen[t]) {
          seen[t] = true;
          todo.push_back(t);
        }
      }
    }
  }
  for (const char* banned :
       {"ml::GradientTree::fit", "serve::FlatForest::flatten",
        "serve::FlatClassifier::flatten", "serve::Predictor::compile"}) {
    // Overloads share a qualified name; check every definition, and that
    // the name still has one (a rename must not empty the check).
    std::size_t defs = 0;
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.nodes[i].def.qual != banned) continue;
      ++defs;
      EXPECT_FALSE(seen[i]) << banned << " is reachable from "
                            << "Server::reload_bytes";
    }
    EXPECT_GT(defs, 0u) << banned << " has no definition in src/";
  }
}

// ---- stripper regressions through the full scan --------------------------

TEST(LumosLint, RawStringFixtureScansClean) {
  const auto findings =
      scan_fixture("raw_string.cpp", "src/ml/raw_string.cpp");
  EXPECT_TRUE(findings.empty())
      << "unexpected finding: " << lumos::lint::format(findings.front());
}

TEST(LumosLint, SplicedIncludeCannotDodgeLayering) {
  const auto findings =
      scan_fixture("spliced_include.cpp", "src/ml/spliced_include.cpp");
  EXPECT_TRUE(fires(findings, "layering"))
      << "backslash-spliced #include dodged the layering pass";
}

TEST(LumosLint, RealTreeScansClean) {
  const auto findings = scan_tree(LUMOS_SOURCE_ROOT, default_rules());
  for (const auto& f : findings) {
    ADD_FAILURE() << lumos::lint::format(f);
  }
  EXPECT_TRUE(findings.empty());
}

}  // namespace
