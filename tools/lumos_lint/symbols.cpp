#include "symbols.h"

#include <algorithm>
#include <regex>
#include <set>

namespace lumos::lint {
namespace {

const std::set<std::string>& hint_noise() {
  static const std::set<std::string> kNoise = {
      // cv / storage / specifiers
      "const", "constexpr", "consteval", "constinit", "static", "mutable",
      "inline", "volatile", "extern", "explicit", "virtual", "friend",
      "typename", "register", "thread_local", "noexcept", "final",
      "override", "nodiscard", "maybe_unused",
      // builtin types
      "unsigned", "signed", "long", "short", "int", "double", "float",
      "bool", "char", "wchar_t", "char8_t", "char16_t", "char32_t", "void",
      "auto", "size_t", "ssize_t", "ptrdiff_t", "nullptr_t", "byte",
      "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
      "uint32_t", "uint64_t", "intptr_t", "uintptr_t",
      // std vocabulary and containers (the hint wants the *element* type)
      "std", "string", "string_view", "vector", "deque", "array", "span",
      "optional", "variant", "map", "set", "multimap", "multiset", "list",
      "pair", "tuple", "function", "unique_ptr", "shared_ptr", "weak_ptr",
      "atomic", "mutex", "shared_mutex", "recursive_mutex",
      "condition_variable", "filesystem", "path", "initializer_list",
      "chrono", "milliseconds", "reference_wrapper", "bitset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  return kNoise;
}

bool is_keyword_not_callable(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",     "for",   "while",   "switch",        "catch",
      "return", "sizeof", "alignof", "static_assert", "decltype",
      "new",    "delete", "throw",   "co_await",      "co_return",
      "co_yield",
  };
  return kKw.count(s) > 0;
}

struct Scope {
  enum Kind { kNamespace, kClass, kOther } kind = kOther;
  std::string name;           ///< may be "a::b" for namespace a::b, or ""
  std::size_t class_index = 0;  ///< into FileSymbols::classes (kClass only)
};

/// Joined scope names + optional trailing chain, `lumos::` stripped.
std::string make_qual(const std::vector<Scope>& scopes,
                      const std::string& tail) {
  std::string q;
  for (const Scope& s : scopes) {
    if (s.name.empty()) continue;
    if (!q.empty()) q += "::";
    q += s.name;
  }
  if (!tail.empty()) {
    if (!q.empty()) q += "::";
    q += tail;
  }
  if (q.compare(0, 7, "lumos::") == 0) q = q.substr(7);
  return q;
}

}  // namespace

bool is_hint_noise(const std::string& ident) {
  return hint_noise().count(ident) > 0;
}

FileSymbols extract_symbols(const std::string& path, const LexedFile& lexed) {
  FileSymbols out;
  out.path = path;

  static const std::regex kIncludePath(
      R"rx(^#[[:space:]]*include[[:space:]]*"([^"]+)")rx");
  for (const Directive& d : lexed.directives) {
    std::smatch m;
    if (std::regex_search(d.text, m, kIncludePath)) {
      out.includes.push_back(m[1].str());
    }
  }

  const std::vector<Token>& t = lexed.tokens;
  const std::size_t n = t.size();
  std::vector<Scope> scopes;
  std::vector<std::size_t> decl;  // token indices of the pending declaration
  int paren_depth = 0;

  const auto is_p = [&](std::size_t i, const char* s) {
    return t[i].kind == TokKind::kPunct && t[i].text == s;
  };
  const auto is_id = [&](std::size_t i, const char* s) {
    return t[i].kind == TokKind::kIdent && t[i].text == s;
  };

  /// Index past the matching '}' for the '{' at `open` (or n).
  const auto skip_braces = [&](std::size_t open) {
    int depth = 0;
    for (std::size_t j = open; j < n; ++j) {
      if (is_p(j, "{")) ++depth;
      if (is_p(j, "}") && --depth == 0) return j + 1;
    }
    return n;
  };

  /// decl index of the first top-level '(' whose preceding token is a
  /// plausible function name; npos when the declaration cannot be one.
  const auto find_param_paren = [&]() -> std::size_t {
    int depth = 0;
    for (std::size_t k = 0; k < decl.size(); ++k) {
      const std::size_t i = decl[k];
      if (is_p(i, "(")) {
        if (depth == 0) {
          if (k == 0) return std::string::npos;
          const std::size_t prev = decl[k - 1];
          if (t[prev].kind != TokKind::kIdent ||
              is_keyword_not_callable(t[prev].text)) {
            return std::string::npos;
          }
          return k;
        }
        ++depth;
      } else if (is_p(i, ")")) {
        --depth;
      } else if (depth == 0 && is_p(i, "=")) {
        // `T x = init(...)...` — an initializer, not a parameter list.
        return std::string::npos;
      }
    }
    return std::string::npos;
  };

  /// Walks `Foo::Bar::name` (and `~name`) backwards from decl[k]; returns
  /// the joined chain.
  const auto name_chain = [&](std::size_t k) {
    std::string chain = t[decl[k]].text;
    while (k >= 1 && is_p(decl[k - 1], "~")) {
      chain = "~" + chain;
      --k;
    }
    while (k >= 2 && is_p(decl[k - 1], "::") &&
           t[decl[k - 2]].kind == TokKind::kIdent) {
      chain = t[decl[k - 2]].text + "::" + chain;
      k -= 2;
    }
    return chain;
  };

  /// Records a member-variable hint from the declaration ending at ';'
  /// while directly inside a class scope.
  const auto record_member = [&]() {
    if (scopes.empty() || scopes.back().kind != Scope::kClass) return;
    ClassDef& cls = out.classes[scopes.back().class_index];
    // Skip anything that is not a plain data member.
    int depth = 0;
    std::size_t name_k = std::string::npos;
    for (std::size_t k = 0; k < decl.size(); ++k) {
      const std::size_t i = decl[k];
      if (is_p(i, "(")) {
        if (depth == 0) return;  // function declaration / fn-pointer
        ++depth;
        continue;
      }
      if (is_p(i, ")")) {
        --depth;
        continue;
      }
      if (depth > 0) continue;
      if (is_id(i, "using") || is_id(i, "typedef") || is_id(i, "friend") ||
          is_id(i, "operator") || is_id(i, "class") || is_id(i, "struct") ||
          is_id(i, "union") || is_id(i, "enum") || is_id(i, "namespace") ||
          is_id(i, "template") || is_id(i, "static_assert")) {
        return;
      }
      if (is_p(i, "=") || is_p(i, "{")) break;  // initializer starts
      if (t[i].kind == TokKind::kIdent) name_k = k;
    }
    if (name_k == std::string::npos || name_k == 0) return;
    const std::string member = t[decl[name_k]].text;
    bool unordered = false;
    std::string hint;
    for (std::size_t k = 0; k < name_k; ++k) {
      const std::size_t i = decl[k];
      if (t[i].kind != TokKind::kIdent) continue;
      if (t[i].text.compare(0, 10, "unordered_") == 0) unordered = true;
      if (!is_hint_noise(t[i].text)) hint = t[i].text;
    }
    if (!hint.empty()) cls.members[member] = hint;
    if (unordered) cls.unordered_members.push_back(member);
  };

  std::size_t i = 0;
  while (i < n) {
    if (is_p(i, "(")) ++paren_depth;
    if (is_p(i, ")")) paren_depth = std::max(0, paren_depth - 1);
    if (paren_depth > 0) {
      decl.push_back(i++);
      continue;
    }
    // An access label (`private:`) is not part of the next declaration:
    // left in, it would hide a nested class declared right after it.
    if (i + 1 < n && is_p(i + 1, ":") &&
        (is_id(i, "public") || is_id(i, "protected") ||
         is_id(i, "private"))) {
      decl.clear();
      i += 2;
      continue;
    }
    if (is_p(i, ";")) {
      record_member();
      decl.clear();
      ++i;
      continue;
    }
    if (is_p(i, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      decl.clear();
      ++i;
      continue;
    }
    if (!is_p(i, "{")) {
      decl.push_back(i++);
      continue;
    }

    // ---- classify the declaration ending at this top-level '{' ----------
    // 1. namespace?
    std::size_t ns_k = std::string::npos;
    for (std::size_t k = 0; k < decl.size(); ++k) {
      if (is_id(decl[k], "namespace")) {
        ns_k = k;
        break;
      }
    }
    if (ns_k != std::string::npos) {
      std::string name;
      for (std::size_t k = ns_k + 1; k < decl.size(); ++k) {
        if (t[decl[k]].kind == TokKind::kIdent) {
          if (!name.empty()) name += "::";
          name += t[decl[k]].text;
        }
      }
      scopes.push_back({Scope::kNamespace, name, 0});
      decl.clear();
      ++i;
      continue;
    }

    // 2. enum? (before class: `enum class X` must not push a class scope)
    bool is_enum = false;
    for (std::size_t k = 0; k < decl.size(); ++k) {
      if (is_id(decl[k], "enum")) is_enum = true;
    }
    if (is_enum) {
      scopes.push_back({Scope::kOther, "", 0});
      decl.clear();
      ++i;
      continue;
    }

    // 3. class/struct/union? Only when the keyword opens the declaration
    // (skipping template<...> heads and attributes): `struct X s{...};`
    // initializers and return types like `std::vector<X>` never do.
    std::size_t cls_k = std::string::npos;
    {
      std::size_t k = 0;
      // skip `template` `<` ... `>` heads
      while (k < decl.size()) {
        if (is_id(decl[k], "template")) {
          int angle = 0;
          ++k;
          while (k < decl.size()) {
            if (is_p(decl[k], "<")) ++angle;
            if (is_p(decl[k], ">") && --angle == 0) {
              ++k;
              break;
            }
            ++k;
          }
          continue;
        }
        if (is_p(decl[k], "[") || is_p(decl[k], "]")) {
          ++k;  // attribute brackets
          continue;
        }
        if (t[decl[k]].kind == TokKind::kIdent &&
            (is_id(decl[k], "alignas"))) {
          ++k;  // alignas(...) — parens were accumulated; idents inside too
          continue;
        }
        break;
      }
      if (k < decl.size() &&
          (is_id(decl[k], "class") || is_id(decl[k], "struct") ||
           is_id(decl[k], "union"))) {
        cls_k = k;
      }
    }
    if (cls_k != std::string::npos) {
      // name = first ident after the keyword that is not an attribute
      std::string name;
      std::size_t base_from = std::string::npos;
      for (std::size_t k = cls_k + 1; k < decl.size(); ++k) {
        if (name.empty() && t[decl[k]].kind == TokKind::kIdent &&
            !is_id(decl[k], "final") && !is_id(decl[k], "alignas") &&
            !is_hint_noise(t[decl[k]].text)) {
          name = t[decl[k]].text;
          continue;
        }
        if (!name.empty() && is_p(decl[k], ":")) {
          base_from = k + 1;
          break;
        }
      }
      ClassDef cls;
      cls.qual = make_qual(scopes, name);
      cls.name = name;
      if (base_from != std::string::npos) {
        for (std::size_t k = base_from; k < decl.size(); ++k) {
          const std::size_t idx = decl[k];
          if (t[idx].kind != TokKind::kIdent) continue;
          const std::string& b = t[idx].text;
          if (b == "public" || b == "protected" || b == "private" ||
              b == "virtual" || b == "final" || is_hint_noise(b)) {
            continue;
          }
          // keep the last segment of a qualified base
          if (k + 1 < decl.size() && is_p(decl[k + 1], "::")) continue;
          if (std::find(cls.bases.begin(), cls.bases.end(), b) ==
              cls.bases.end()) {
            cls.bases.push_back(b);
          }
        }
      }
      out.classes.push_back(std::move(cls));
      scopes.push_back({Scope::kClass, name, out.classes.size() - 1});
      decl.clear();
      ++i;
      continue;
    }

    // 4. function definition? Needs a parameter list introduced by a named
    // '(' — plus, for constructors, member-init groups between ')' and the
    // body brace: `Foo() : a_{1}, b_(2) {`. A '{' directly preceded by an
    // identifier after a top-level ':' is a member initializer, not the
    // body.
    const std::size_t param_k = find_param_paren();
    bool has_operator = false;
    for (std::size_t k = 0; k < decl.size(); ++k) {
      if (is_id(decl[k], "operator")) has_operator = true;
    }
    if (param_k != std::string::npos || has_operator) {
      bool in_init_list = false;
      if (param_k != std::string::npos) {
        int depth = 0;
        for (std::size_t k = param_k; k < decl.size(); ++k) {
          if (is_p(decl[k], "(")) ++depth;
          if (is_p(decl[k], ")")) --depth;
          if (depth == 0 && k > param_k && is_p(decl[k], ":")) {
            in_init_list = true;
            break;
          }
        }
      }
      if (in_init_list && !decl.empty() &&
          t[decl.back()].kind == TokKind::kIdent) {
        // member-init brace group: absorb it into the declaration
        const std::size_t past = skip_braces(i);
        if (past > 0 && past <= n) decl.push_back(past - 1);  // the '}'
        i = past;
        continue;
      }
      FunctionDef fn;
      if (has_operator && param_k == std::string::npos) {
        fn.name = "operator";
      } else {
        std::string chain = name_chain(param_k - 1);
        const std::size_t sep = chain.rfind("::");
        fn.name = sep == std::string::npos ? chain : chain.substr(sep + 2);
        if (sep != std::string::npos) {
          fn.cls = make_qual(scopes, chain.substr(0, sep));
        } else if (!scopes.empty() && scopes.back().kind == Scope::kClass) {
          fn.cls = out.classes[scopes.back().class_index].qual;
        }
        fn.qual = make_qual(scopes, chain);
      }
      if (fn.qual.empty()) fn.qual = make_qual(scopes, fn.name);
      fn.line = t[i].line;
      fn.sig_begin = decl.empty() ? i : decl.front();
      fn.body_begin = i;
      fn.body_end = skip_braces(i) - 1;
      out.functions.push_back(std::move(fn));
      i = out.functions.back().body_end + 1;
      decl.clear();
      continue;
    }

    // 5. anything else: an `= {...}` initializer, a bare block, an
    // extern/linkage block. Skip the brace group; an initializer keeps its
    // declaration alive until the ';'.
    if (decl.empty()) {
      scopes.push_back({Scope::kOther, "", 0});
      ++i;
    } else {
      const std::size_t past = skip_braces(i);
      if (past > 0 && past <= n) decl.push_back(past - 1);
      i = past;
    }
  }
  return out;
}

}  // namespace lumos::lint
