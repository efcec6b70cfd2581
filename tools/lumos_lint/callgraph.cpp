#include "callgraph.h"

#include <algorithm>
#include <regex>

namespace lumos::lint {
namespace {

const std::set<std::string>& alloc_calls() {
  // Fire only as `name(`; the *_back/insert family additionally needs a
  // member-access receiver so a same-named free function cannot trip it.
  static const std::set<std::string> kNames = {
      "make_unique", "make_shared", "malloc",       "calloc",
      "realloc",     "strdup",      "to_string",    "push_back",
      "emplace_back", "emplace",    "emplace_front", "push_front",
      "resize",      "reserve",     "insert",       "append",
      "assign",      "substr",      "shrink_to_fit", "free",
  };
  return kNames;
}

bool alloc_needs_receiver(const std::string& name) {
  static const std::set<std::string> kMethods = {
      "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
      "resize",    "reserve",      "insert",  "append",        "assign",
      "substr",    "shrink_to_fit",
  };
  return kMethods.count(name) > 0;
}

const std::set<std::string>& lock_types() {
  static const std::set<std::string> kNames = {"scoped_lock", "lock_guard",
                                               "unique_lock", "shared_lock"};
  return kNames;
}

const std::set<std::string>& lock_calls() {
  static const std::set<std::string> kNames = {"lock", "try_lock",
                                               "lock_shared"};
  return kNames;
}

const std::set<std::string>& clock_idents() {
  static const std::set<std::string> kNames = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime", "gmtime", "mktime"};
  return kNames;
}

const std::set<std::string>& io_idents() {
  static const std::set<std::string> kNames = {
      "ifstream", "ofstream", "fstream", "cin", "cout", "cerr", "clog"};
  return kNames;
}

const std::set<std::string>& io_calls() {
  static const std::set<std::string> kNames = {
      "fopen",  "fclose", "fread",   "fwrite",   "fseek",  "fprintf",
      "fscanf", "printf", "scanf",   "puts",     "fputs",  "fgets",
      "getline", "getchar", "putchar", "perror", "fflush", "system",
      "popen",  "sleep_for", "sleep_until", "usleep", "nanosleep"};
  return kNames;
}

bool not_a_call(const std::string& ident) {
  static const std::set<std::string> kKw = {
      "if",     "for",     "while",  "switch",       "catch",
      "return", "sizeof",  "alignof", "static_assert", "decltype",
      "new",    "delete",  "throw",  "noexcept",     "alignas",
      "assert", "defined",
  };
  return kKw.count(ident) > 0;
}

std::string short_name(const std::string& qual) {
  const std::size_t sep = qual.rfind("::");
  return sep == std::string::npos ? qual : qual.substr(sep + 2);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct Registry {
  std::map<std::string, std::vector<std::size_t>> free_by_name;
  /// class short name -> method name -> node indices
  std::map<std::string, std::map<std::string, std::vector<std::size_t>>>
      methods;
  std::map<std::string, std::vector<const ClassDef*>> class_by_short;
  /// member name -> union of type hints across every class
  std::map<std::string, std::set<std::string>> member_union;
  /// member name -> declared-with-unordered-container anywhere
  std::set<std::string> unordered_members;
  /// base short -> derived shorts (one level; closed over in related())
  std::map<std::string, std::set<std::string>> derived;

  /// {T} ∪ bases*(T) ∪ derived*(T) — the virtual-dispatch set. A call
  /// on static type T binds to T's own or inherited methods or to an
  /// override below T, never to a sibling that merely shares a base, so
  /// the two closures are walked separately.
  std::set<std::string> related(const std::string& t) const {
    std::set<std::string> out{t};
    std::vector<std::string> up{t};
    while (!up.empty()) {
      const std::string cur = up.back();
      up.pop_back();
      const auto ci = class_by_short.find(cur);
      if (ci == class_by_short.end()) continue;
      for (const ClassDef* cd : ci->second) {
        for (const std::string& b : cd->bases) {
          if (out.insert(b).second) up.push_back(b);
        }
      }
    }
    std::vector<std::string> down{t};
    while (!down.empty()) {
      const std::string cur = down.back();
      down.pop_back();
      const auto di = derived.find(cur);
      if (di == derived.end()) continue;
      for (const std::string& d : di->second) {
        if (out.insert(d).second) down.push_back(d);
      }
    }
    return out;
  }

  /// Type hints for member `m` as seen from any type in `types`.
  std::set<std::string> member_hint(const std::set<std::string>& types,
                                    const std::string& m) const {
    std::set<std::string> out;
    for (const std::string& t : types) {
      for (const std::string& r : related(t)) {
        const auto ci = class_by_short.find(r);
        if (ci == class_by_short.end()) continue;
        for (const ClassDef* cd : ci->second) {
          const auto mi = cd->members.find(m);
          if (mi != cd->members.end()) out.insert(mi->second);
        }
      }
    }
    return out;
  }
};

/// Per-file working state while scanning bodies.
struct FileCtx {
  LexedFile lex;
  FileSymbols syms;
};

AllowSet parse_allows(const LexedFile& lexed) {
  static const std::regex kDirective(
      R"(lumos-lint:[[:space:]]*allow(-file)?\(([A-Za-z0-9_-]+)\))");
  AllowSet out;
  std::uint32_t line = 1;
  std::size_t start = 0;
  const std::string& c = lexed.comments;
  for (std::size_t i = 0; i <= c.size(); ++i) {
    if (i != c.size() && c[i] != '\n') continue;
    const std::string text = c.substr(start, i - start);
    auto begin = std::sregex_iterator(text.begin(), text.end(), kDirective);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string id = (*it)[2].str();
      if ((*it)[1].matched) {
        out.whole_file.insert(id);
      } else {
        out.lines.insert({line, id});
        out.lines.insert({line + 1, id});
      }
    }
    start = i + 1;
    ++line;
  }
  return out;
}

}  // namespace

const char* effect_rule(EffectKind k) {
  switch (k) {
    case EffectKind::kAlloc: return "hot-path-alloc";
    case EffectKind::kLock: return "hot-path-lock";
    case EffectKind::kThrow: return "hot-path-throw";
    case EffectKind::kIo: return "hot-path-io";
    case EffectKind::kClock: return "hot-path-clock";
  }
  return "hot-path-alloc";
}

std::size_t CallGraph::find(const std::string& qual) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].def.qual == qual) return i;
  }
  return static_cast<std::size_t>(-1);
}

CallGraph build_callgraph(const std::vector<SourceFile>& files) {
  CallGraph g;
  std::vector<FileCtx> ctx(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    ctx[f].lex = lex_file(files[f].text);
    ctx[f].syms = extract_symbols(files[f].path, ctx[f].lex);
    g.allows[files[f].path] = parse_allows(ctx[f].lex);
  }

  // ---- registries ---------------------------------------------------------
  Registry reg;
  for (FileCtx& fc : ctx) {
    for (const ClassDef& cd : fc.syms.classes) g.classes.push_back(cd);
  }
  for (const ClassDef& cd : g.classes) {
    reg.class_by_short[cd.name].push_back(&cd);
    for (const std::string& b : cd.bases) reg.derived[b].insert(cd.name);
    for (const auto& [member, hint] : cd.members) {
      reg.member_union[member].insert(hint);
    }
    for (const std::string& m : cd.unordered_members) {
      reg.unordered_members.insert(m);
    }
  }
  for (std::size_t f = 0; f < ctx.size(); ++f) {
    for (const FunctionDef& fn : ctx[f].syms.functions) {
      Node n;
      n.def = fn;
      n.path = files[f].path;
      g.nodes.push_back(std::move(n));
    }
  }
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const FunctionDef& d = g.nodes[i].def;
    if (d.cls.empty()) {
      reg.free_by_name[d.name].push_back(i);
    } else {
      reg.methods[short_name(d.cls)][d.name].push_back(i);
    }
  }

  // ---- body scans ---------------------------------------------------------
  // Local `Type var` hints per node, kept alive for edge resolution below.
  std::vector<std::map<std::string, std::string>> node_hints(g.nodes.size());
  std::size_t node_i = 0;
  for (std::size_t f = 0; f < ctx.size(); ++f) {
    const std::vector<Token>& t = ctx[f].lex.tokens;
    const AllowSet& allows = g.allows[files[f].path];
    const auto is_p = [&](std::size_t i, const char* s) {
      return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
    };
    const auto is_ident = [&](std::size_t i) {
      return i < t.size() && t[i].kind == TokKind::kIdent;
    };

    for (const FunctionDef& fn : ctx[f].syms.functions) {
      const std::size_t node_idx = node_i++;
      Node& node = g.nodes[node_idx];

      // Local type hints: `Type [<...>] [&*]* name` over signature + body.
      std::map<std::string, std::string>& local_hints = node_hints[node_idx];
      std::set<std::string> local_unordered;
      for (std::size_t i = fn.sig_begin; i < fn.body_end; ++i) {
        if (!is_ident(i)) continue;
        const std::string& ty = t[i].text;
        const bool unordered = ty.compare(0, 10, "unordered_") == 0;
        if (reg.class_by_short.find(ty) == reg.class_by_short.end() &&
            !unordered) {
          continue;
        }
        std::size_t j = i + 1;
        if (is_p(j, "<")) {  // skip template arguments
          int angle = 0;
          while (j < fn.body_end) {
            if (is_p(j, "<")) ++angle;
            if (is_p(j, ">") && --angle == 0) {
              ++j;
              break;
            }
            ++j;
          }
        }
        while (is_p(j, "&") || is_p(j, "*")) ++j;
        if (!is_ident(j)) continue;
        const std::string& var = t[j].text;
        if (is_p(j + 1, ";") || is_p(j + 1, "=") || is_p(j + 1, "(") ||
            is_p(j + 1, "{") || is_p(j + 1, ",") || is_p(j + 1, ")") ||
            is_p(j + 1, ":")) {
          if (unordered) {
            local_unordered.insert(var);
          } else {
            local_hints.emplace(var, ty);
          }
        }
      }

      // Calls + effects + locks + unordered loops over the body.
      for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
        if (!is_ident(i)) continue;
        const std::string& w = t[i].text;
        const std::uint32_t line = t[i].line;
        const bool called = is_p(i + 1, "(");
        const bool member_access = i > 0 && (is_p(i - 1, ".") ||
                                             is_p(i - 1, "->"));

        // ---- effects ----
        if (w == "throw") {
          node.effects.push_back({EffectKind::kThrow, "throw", line});
        } else if (w == "new" && !member_access &&
                   !(i > 0 && is_p(i - 1, "::"))) {
          node.effects.push_back({EffectKind::kAlloc, "new", line});
        } else if (called && alloc_calls().count(w) > 0 &&
                   (!alloc_needs_receiver(w) || member_access)) {
          node.effects.push_back({EffectKind::kAlloc, w, line});
        } else if (lock_types().count(w) > 0 ||
                   (called && member_access && lock_calls().count(w) > 0)) {
          node.effects.push_back({EffectKind::kLock, w, line});
        } else if (clock_idents().count(w) > 0) {
          node.effects.push_back({EffectKind::kClock, w, line});
        } else if (io_idents().count(w) > 0 ||
                   (called && io_calls().count(w) > 0)) {
          node.effects.push_back({EffectKind::kIo, w, line});
        }

        // ---- lock sites (mutex names for the lock-order pass) ----
        if (lock_types().count(w) > 0) {
          std::size_t j = i + 1;
          while (j < fn.body_end && is_ident(j)) ++j;  // variable name
          if (is_p(j, "(")) {
            LockSite site;
            site.line = line;
            int depth = 0;
            for (; j < fn.body_end; ++j) {
              if (is_p(j, "(") && ++depth == 1) continue;
              if (is_p(j, ")") && --depth == 0) break;
              if (depth == 1 && is_ident(j) &&
                  (is_p(j + 1, ",") || is_p(j + 1, ")"))) {
                static const std::set<std::string> kTags = {
                    "adopt_lock", "defer_lock", "try_to_lock"};
                if (kTags.count(t[j].text) == 0 &&
                    !is_hint_noise(t[j].text)) {
                  site.mutexes.push_back(t[j].text);
                }
              }
            }
            node.locks.push_back(std::move(site));
          }
        }

        // ---- range-for over an unordered container ----
        if (w == "for" && is_p(i + 1, "(")) {
          int depth = 0;
          std::size_t colon = 0, close = 0;
          for (std::size_t j = i + 1; j < fn.body_end; ++j) {
            if (is_p(j, "(")) ++depth;
            if (is_p(j, ")") && --depth == 0) {
              close = j;
              break;
            }
            if (depth == 1 && colon == 0 && is_p(j, ":")) colon = j;
          }
          if (colon != 0 && close != 0) {
            std::string range_var;
            bool unordered_range = false;
            for (std::size_t j = colon + 1; j < close; ++j) {
              if (!is_ident(j)) continue;
              if (range_var.empty()) range_var = t[j].text;
              if (t[j].text.compare(0, 10, "unordered_") == 0 ||
                  local_unordered.count(t[j].text) > 0 ||
                  reg.unordered_members.count(t[j].text) > 0) {
                unordered_range = true;
              }
            }
            if (unordered_range) {
              // does the loop body accumulate or emit?
              std::size_t body_from = close + 1;
              std::size_t body_to;
              if (is_p(body_from, "{")) {
                int bd = 0;
                body_to = body_from;
                for (std::size_t j = body_from; j < fn.body_end; ++j) {
                  if (is_p(j, "{")) ++bd;
                  if (is_p(j, "}") && --bd == 0) {
                    body_to = j;
                    break;
                  }
                }
              } else {
                body_to = body_from;
                while (body_to < fn.body_end && !is_p(body_to, ";")) {
                  ++body_to;
                }
              }
              static const std::set<std::string> kAccum = {
                  "push_back", "emplace_back", "insert", "append"};
              bool accum = false;
              for (std::size_t j = body_from; j < body_to; ++j) {
                if (is_ident(j) && kAccum.count(t[j].text) > 0) accum = true;
                if (is_p(j, "+") && is_p(j + 1, "=")) accum = true;
                if (is_p(j, "<") && is_p(j + 1, "<")) accum = true;
                if (is_p(j, "|") && is_p(j + 1, "=")) accum = true;
              }
              if (accum) {
                node.unordered_loops.push_back({range_var, line});
              }
            }
          }
        }

        // ---- call sites ----
        if (!called || not_a_call(w)) continue;
        CallSite call;
        call.name = w;
        call.line = line;
        call.blessed = allows.covers(line, "hot-path");
        if (i > 0 && is_p(i - 1, "::")) {
          // explicit qualifier chain
          std::size_t k = i - 1;
          std::vector<std::string> parts;
          while (k >= 1 && is_p(k, "::") && is_ident(k - 1)) {
            parts.push_back(t[k - 1].text);
            if (k < 2) break;
            k -= 2;
          }
          std::reverse(parts.begin(), parts.end());
          std::string q;
          for (const std::string& p : parts) {
            if (!q.empty()) q += "::";
            q += p;
          }
          call.qualifier = q;
        } else if (member_access) {
          // receiver chain, rightmost to leftmost
          std::size_t k = i - 1;  // the '.'/'->'
          std::vector<std::string> chain;
          while (true) {
            if (k == 0) break;
            std::size_t before = k - 1;
            if (is_ident(before)) {
              chain.push_back(t[before].text);
              if (before >= 1 &&
                  (is_p(before - 1, ".") || is_p(before - 1, "->"))) {
                k = before - 1;
                continue;
              }
              break;
            }
            if (is_p(before, "]")) {  // indexed receiver: skip [ ... ]
              int depth = 0;
              std::size_t j = before;
              while (true) {
                if (is_p(j, "]")) ++depth;
                if (is_p(j, "[") && --depth == 0) break;
                if (j == 0) break;
                --j;
              }
              if (j >= 1 && is_ident(j - 1)) {
                chain.push_back(t[j - 1].text);
                if (j >= 2 && (is_p(j - 2, ".") || is_p(j - 2, "->"))) {
                  k = j - 2;
                  continue;
                }
                break;
              }
              chain.push_back("?");
              break;
            }
            if (is_p(before, ")")) {  // f().g() — opaque receiver
              chain.push_back("?");
              break;
            }
            chain.push_back("?");
            break;
          }
          std::reverse(chain.begin(), chain.end());
          call.recv = std::move(chain);
        }
        node.calls.push_back(std::move(call));
      }
    }
  }

  // ---- edge resolution ----------------------------------------------------
  for (std::size_t ni = 0; ni < g.nodes.size(); ++ni) {
    Node& node = g.nodes[ni];
    const std::map<std::string, std::string>& local_hints = node_hints[ni];
    node.out.resize(node.calls.size());
    const std::string cls_short =
        node.def.cls.empty() ? "" : short_name(node.def.cls);
    for (std::size_t c = 0; c < node.calls.size(); ++c) {
      const CallSite& call = node.calls[c];
      std::vector<std::size_t>& out = node.out[c];
      const auto add_methods = [&](const std::set<std::string>& types) {
        for (const std::string& ty : types) {
          for (const std::string& r : reg.related(ty)) {
            const auto mi = reg.methods.find(r);
            if (mi == reg.methods.end()) continue;
            const auto found = mi->second.find(call.name);
            if (found == mi->second.end()) continue;
            out.insert(out.end(), found->second.begin(),
                       found->second.end());
          }
        }
      };

      if (!call.qualifier.empty()) {
        const std::string want = call.qualifier + "::" + call.name;
        for (std::size_t i = 0; i < g.nodes.size(); ++i) {
          const std::string& q = g.nodes[i].def.qual;
          if (q == want || ends_with(q, "::" + want)) out.push_back(i);
        }
      } else if (!call.recv.empty()) {
        std::set<std::string> types;
        const std::string& r0 = call.recv.front();
        if (r0 == "this") {
          if (!cls_short.empty()) types.insert(cls_short);
        } else if (r0 != "?") {
          // local `Type var` declaration first, then the enclosing class's
          // member hint (incl. base closure), then the global union.
          const auto li = local_hints.find(r0);
          if (li != local_hints.end()) {
            types.insert(li->second);
          }
          if (types.empty() && !cls_short.empty()) {
            types = reg.member_hint({cls_short}, r0);
          }
          if (types.empty()) {
            const auto mi = reg.member_union.find(r0);
            if (mi != reg.member_union.end()) types = mi->second;
          }
        }
        for (std::size_t step = 1; step < call.recv.size() && !types.empty();
             ++step) {
          std::set<std::string> next =
              reg.member_hint(types, call.recv[step]);
          if (next.empty()) {
            const auto mi = reg.member_union.find(call.recv[step]);
            if (mi != reg.member_union.end()) next = mi->second;
          }
          types = std::move(next);
        }
        add_methods(types);
      } else {
        if (!cls_short.empty()) add_methods({cls_short});
        const auto fi = reg.free_by_name.find(call.name);
        if (fi != reg.free_by_name.end()) {
          out.insert(out.end(), fi->second.begin(), fi->second.end());
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
  }
  return g;
}

}  // namespace lumos::lint
