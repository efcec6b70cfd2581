#include "reach.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>

namespace lumos::lint {
namespace {

bool path_blessed(const AnalysisConfig& cfg, const std::string& path) {
  for (const BlessedPath& b : cfg.blessed_paths) {
    if (path.compare(0, b.prefix.size(), b.prefix) == 0) return true;
  }
  return false;
}

/// Rule lookup restricted to the analysis rules actually registered.
const Rule* find_rule(const std::vector<Rule>& rules, const std::string& id) {
  for (const Rule& r : rules) {
    if (r.kind == RuleKind::kAnalysis && r.id == id) return &r;
  }
  return nullptr;
}

bool rule_covers_path(const Rule& rule, const std::string& path) {
  for (const std::string& ex : rule.exempt) {
    if (path.compare(0, ex.size(), ex) == 0) return false;
  }
  if (rule.dirs.empty()) return true;
  for (const std::string& d : rule.dirs) {
    if (path.compare(0, d.size(), d) == 0) return true;
  }
  return false;
}

std::string hop(const Node& n) {
  return n.def.qual + " (" + n.path + ":" + std::to_string(n.def.line) + ")";
}

}  // namespace

const AnalysisConfig& default_analysis() {
  static const AnalysisConfig kCfg = {
      // The serving entry points: the server's admission and poll, the
      // batched columnar walk poll runs, the per-window reference walk,
      // and the one flattened tree kernel beneath both.
      {
          "serve::Server::submit",
          "serve::Server::poll",
          "serve::Server::poll_lane",
          "serve::Predictor::predict",
          "serve::Predictor::predict_spans_columnar",
          "serve::FlatForest::predict",
          "serve::FlatForest::predict_columnar",
          "serve::FlatForest::eval_block",
          "serve::FlatClassifier::predict",
          "serve::FlatClassifier::predict_columnar",
          "core::Lumos5G::predict",
      },
      {
          {"src/common/clock.",
           "virtual clock seam; SteadyClock is the one sanctioned "
           "wall-clock site and tests inject ManualClock"},
          {"src/common/parallel.",
           "deterministic fork-join pool; worker parking/wakeup is the "
           "pool's contract, not the serving path's"},
      },
      {"mu_"},
  };
  return kCfg;
}

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const std::vector<Rule>& rules,
                                     const AnalysisConfig& cfg) {
  std::vector<Finding> out;
  if (files.empty()) return out;
  const CallGraph g = build_callgraph(files);

  const auto allowed = [&](const std::string& path, std::uint32_t line,
                           const std::string& id) {
    const auto it = g.allows.find(path);
    return it != g.allows.end() && it->second.covers(line, id);
  };

  // ---- reachability -------------------------------------------------------
  std::set<std::tuple<std::string, std::uint32_t, std::string>> seen;
  for (const std::string& root : cfg.roots) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.nodes[i].def.qual == root) starts.push_back(i);
    }
    // Per-root BFS with predecessor links so the reported chain is the
    // shortest route from this root to the effect.
    std::map<std::size_t, std::size_t> pred;
    std::set<std::size_t> visited;
    std::deque<std::size_t> work;
    for (std::size_t s : starts) {
      if (visited.insert(s).second) work.push_back(s);
    }
    while (!work.empty()) {
      const std::size_t cur = work.front();
      work.pop_front();
      const Node& n = g.nodes[cur];

      if (!path_blessed(cfg, n.path)) {
        for (const EffectSite& e : n.effects) {
          const std::string rule_id = effect_rule(e.kind);
          const Rule* rule = find_rule(rules, rule_id);
          if (rule == nullptr || !rule_covers_path(*rule, n.path)) continue;
          if (allowed(n.path, e.line, rule_id)) continue;
          if (!seen.insert({n.path, e.line, rule_id}).second) continue;
          Finding f;
          f.path = n.path;
          f.line = e.line;
          f.rule = rule_id;
          f.excerpt = e.what;
          f.message = rule->summary + " (reachable from " + root + ")";
          // chain: root first, effect's function last
          std::vector<std::string> chain;
          std::size_t at = cur;
          chain.push_back(hop(g.nodes[at]));
          while (pred.count(at) > 0) {
            at = pred.at(at);
            chain.push_back(hop(g.nodes[at]));
          }
          std::reverse(chain.begin(), chain.end());
          f.chain = std::move(chain);
          out.push_back(std::move(f));
        }
      }

      for (std::size_t c = 0; c < n.calls.size(); ++c) {
        if (n.calls[c].blessed) continue;
        for (std::size_t target : n.out[c]) {
          if (path_blessed(cfg, g.nodes[target].path)) continue;
          if (visited.insert(target).second) {
            pred[target] = cur;
            work.push_back(target);
          }
        }
      }
    }
  }

  // ---- lock-order ---------------------------------------------------------
  if (const Rule* rule = find_rule(rules, "lock-order")) {
    for (const Node& n : g.nodes) {
      if (!rule_covers_path(*rule, n.path)) continue;
      for (const LockSite& site : n.locks) {
        if (allowed(n.path, site.line, rule->id)) continue;
        std::size_t last_rank = 0;
        bool first = true;
        for (const std::string& m : site.mutexes) {
          const auto it =
              std::find(cfg.lock_order.begin(), cfg.lock_order.end(), m);
          if (it == cfg.lock_order.end()) {
            if (seen.insert({n.path, site.line, rule->id}).second) {
              out.push_back({n.path, site.line, rule->id, m,
                             rule->summary + " (mutex '" + m +
                                 "' is not in the declared acquisition "
                                 "order)",
                             {hop(n)}});
            }
            continue;
          }
          const std::size_t rank =
              static_cast<std::size_t>(it - cfg.lock_order.begin());
          if (!first && rank < last_rank &&
              seen.insert({n.path, site.line, rule->id}).second) {
            out.push_back({n.path, site.line, rule->id, m,
                           rule->summary + " (mutex '" + m +
                               "' acquired out of declared order)",
                           {hop(n)}});
          }
          last_rank = rank;
          first = false;
        }
      }
    }
  }

  // ---- unordered-accumulate ----------------------------------------------
  if (const Rule* rule = find_rule(rules, "unordered-accumulate")) {
    for (const Node& n : g.nodes) {
      if (!rule_covers_path(*rule, n.path)) continue;
      for (const UnorderedLoop& loop : n.unordered_loops) {
        if (allowed(n.path, loop.line, rule->id)) continue;
        if (!seen.insert({n.path, loop.line, rule->id}).second) continue;
        out.push_back({n.path, loop.line, rule->id, loop.range,
                       rule->summary,
                       {hop(n)}});
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule) <
           std::tie(b.path, b.line, b.rule);
  });
  return out;
}

std::vector<Finding> analyze_sources(const std::vector<SourceFile>& files,
                                     const std::vector<Rule>& rules) {
  return analyze_sources(files, rules, default_analysis());
}

}  // namespace lumos::lint
