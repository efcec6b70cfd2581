#include "lexer.h"

#include <cctype>
#include <cstddef>

namespace lumos::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Raw-string opener at text[i]? The optional encoding prefix (u8, u, U,
/// L) must not itself be the tail of a longer identifier. On success sets
/// `prefix_len` to the characters before the opening quote (e.g. 3 for
/// `u8R"`).
bool raw_string_opens(const std::string& text, std::size_t i,
                      std::size_t& prefix_len) {
  std::size_t r = i;  // position of the 'R'
  if (text[i] == 'u' && i + 1 < text.size() && text[i + 1] == '8') {
    r = i + 2;
  } else if (text[i] == 'u' || text[i] == 'U' || text[i] == 'L') {
    r = i + 1;
  }
  if (r >= text.size() || text[r] != 'R') return false;
  if (r + 1 >= text.size() || text[r + 1] != '"') return false;
  if (i > 0 && ident_char(text[i - 1])) return false;
  prefix_len = r + 1 - i;
  return true;
}

}  // namespace

LexedFile lex_file(const std::string& text) {
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };

  LexedFile out;
  const std::size_t n = text.size();
  out.code.assign(n, ' ');
  out.comments.assign(n, ' ');

  St st = St::kCode;
  std::string raw_close;        // ")delim\"" of the open raw string
  bool in_directive = false;    // accumulating a preprocessor directive
  bool line_has_code = false;   // non-ws code seen on this physical line
  std::uint32_t line = 1;
  Directive dir;

  const auto close_directive = [&] {
    if (in_directive) {
      out.directives.push_back(dir);
      dir = Directive{};
      in_directive = false;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';

    // Line splice: backslash-newline joins logical lines inside line
    // comments, directives, and string literals. The physical newline is
    // kept in both views so line arithmetic stays exact.
    if (c == '\\' && next == '\n' &&
        (in_directive || st == St::kLineComment || st == St::kString)) {
      // Directive splices keep the backslash in the code view so the token
      // pass knows the next physical line is still preprocessor text.
      if (in_directive) out.code[i] = '\\';
      out.code[i + 1] = '\n';
      out.comments[i + 1] = '\n';
      ++line;
      line_has_code = true;  // a '#' after a splice is directive content
      ++i;
      continue;
    }

    if (c == '\n') {
      out.code[i] = '\n';
      out.comments[i] = '\n';
      if (st == St::kLineComment) st = St::kCode;
      // An unterminated string at end of line is malformed input; close
      // the directive anyway rather than swallowing the rest of the file.
      if (st == St::kCode || st == St::kString || st == St::kChar) {
        close_directive();
        if (st != St::kCode) st = St::kCode;
      }
      ++line;
      line_has_code = false;
      continue;
    }

    switch (st) {
      case St::kCode: {
        std::size_t prefix_len = 0;
        if (c == '/' && next == '/') {
          st = St::kLineComment;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          if (in_directive) dir.text.push_back(' ');
          ++i;  // don't let "/*/" open and close at once
        } else if (raw_string_opens(text, i, prefix_len)) {
          // R"delim( ... )delim" — delimiter is at most 16 chars and may
          // not contain spaces, parens or backslashes. A malformed opener
          // degrades to an ordinary string literal.
          const std::size_t q = i + prefix_len;  // the opening quote
          std::size_t open = std::string::npos;
          bool ok = true;
          for (std::size_t k = q + 1; k < n && k <= q + 17; ++k) {
            if (text[k] == '(') {
              open = k;
              break;
            }
            if (text[k] == ' ' || text[k] == ')' || text[k] == '\\' ||
                text[k] == '\n') {
              ok = false;
              break;
            }
          }
          if (ok && open != std::string::npos) {
            raw_close.assign(1, ')');
            raw_close.append(text, q + 1, open - (q + 1));
            raw_close.push_back('"');
            st = St::kRaw;
            if (in_directive) dir.text.append("\"\"");
            i = open;  // prefix + delimiter dropped from both views
          } else {
            st = St::kString;
            if (in_directive) dir.text.push_back('"');
            i = q;  // treat the prefix as dropped, scan as a string
          }
        } else if (c == '"') {
          st = St::kString;
          if (in_directive) dir.text.push_back('"');
        } else if (c == '\'') {
          st = St::kChar;
          if (in_directive) dir.text.push_back('\'');
        } else {
          if (c == '#' && !line_has_code && !in_directive) {
            in_directive = true;
            dir = Directive{"", line};
          }
          if (!std::isspace(static_cast<unsigned char>(c))) {
            line_has_code = true;
          }
          out.code[i] = c;
          if (in_directive) dir.text.push_back(c);
        }
        break;
      }
      case St::kLineComment:
        out.comments[i] = c;
        break;
      case St::kBlockComment:
        out.comments[i] = c;
        if (c == '*' && next == '/') {
          out.comments[i + 1] = '/';
          ++i;
          st = St::kCode;
        }
        break;
      case St::kString:
        if (in_directive && c != '\\') dir.text.push_back(c);
        if (c == '\\') {
          if (next != '\n') ++i;  // escaped char stays blank in the view
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (in_directive && c != '\\') dir.text.push_back(c);
        if (c == '\\') {
          if (next != '\n') ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
      case St::kRaw:
        if (text.compare(i, raw_close.size(), raw_close) == 0) {
          i += raw_close.size() - 1;
          st = St::kCode;
        } else if (c == '\n') {
          // unreachable: the newline branch above runs first; kept for
          // clarity that raw strings preserve line structure.
        }
        break;
    }
  }
  close_directive();

  // ---- token pass over the blanked code view ------------------------------
  // Comments, literal bodies and quotes are spaces here, so tokenization is
  // a straightforward scan. Preprocessor text is present in the view but
  // excluded from the token stream: the structural passes reason about
  // directives through `directives`, not tokens.
  std::uint32_t tok_line = 1;
  bool in_pp_line = false;
  bool pp_splice = false;  // directive continues past the next newline
  const std::string& code = out.code;
  for (std::size_t i = 0; i < n;) {
    const char c = code[i];
    if (c == '\n') {
      ++tok_line;
      in_pp_line = in_pp_line && pp_splice;
      pp_splice = false;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#' && !in_pp_line) {
      in_pp_line = true;  // skip the directive; tokens never include it
      ++i;
      continue;
    }
    if (in_pp_line) {
      // A kept `\` right before the newline marks a spliced directive: the
      // next physical line is still preprocessor text, not code.
      if (c == '\\' && i + 1 < n && code[i + 1] == '\n') pp_splice = true;
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(code[j])) ++j;
      out.tokens.push_back({TokKind::kIdent, code.substr(i, j - i), tok_line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // pp-number: digits, idents chars, dots, digit separators, and
      // exponent signs.
      std::size_t j = i + 1;
      while (j < n) {
        const char d = code[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                    code[j - 1] == 'p' || code[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      out.tokens.push_back({TokKind::kNumber, code.substr(i, j - i), tok_line});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      out.tokens.push_back({TokKind::kPunct, "::", tok_line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && code[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "->", tok_line});
      i += 2;
      continue;
    }
    out.tokens.push_back({TokKind::kPunct, std::string(1, c), tok_line});
    ++i;
  }
  return out;
}

}  // namespace lumos::lint
