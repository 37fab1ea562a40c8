#include "tools/analyze/lexer.h"

#include <cctype>

namespace juggler::analyze {

namespace {

bool IsIdentStartChar(char c) {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Multi-character punctuators the analyses care about. Longest match wins;
/// anything not listed is emitted one character at a time. Deliberately
/// absent: trigraphs, `<=>`, `->*` (none appear in this codebase; `->*`
/// would lex as "->" "*", which is still unambiguous for our passes).
const char* const kPuncts[] = {
    "<<=", ">>=", "...", "::", "->", "<<", ">>", "<=", ">=", "==", "!=",
    "&&",  "||",  "+=",  "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--",
};

/// If a raw-string literal starts at `i` (at the 'R'), returns one past its
/// end; otherwise returns `i`. Updates `line` for embedded newlines.
size_t SkipRawString(const std::string& s, size_t i, int* line) {
  // R"delim( ... )delim"  — delim is up to 16 chars, no parens/space.
  if (s[i] != 'R' || i + 1 >= s.size() || s[i + 1] != '"') return i;
  size_t j = i + 2;
  std::string delim;
  while (j < s.size() && s[j] != '(' && delim.size() <= 16) {
    delim.push_back(s[j]);
    ++j;
  }
  if (j >= s.size() || s[j] != '(') return i;  // Not a raw string after all.
  const std::string closer = ")" + delim + "\"";
  const size_t end = s.find(closer, j + 1);
  if (end == std::string::npos) {  // Unterminated: consume to EOF.
    for (size_t k = i; k < s.size(); ++k) {
      if (s[k] == '\n') ++*line;
    }
    return s.size();
  }
  for (size_t k = i; k < end + closer.size(); ++k) {
    if (s[k] == '\n') ++*line;
  }
  return end + closer.size();
}

/// One past the end of the number literal starting at `i`: 0x1F,
/// 1'000'000, 1.5e-3 and suffixes, digit separators included.
size_t SkipNumber(const std::string& s, size_t i) {
  size_t j = i;
  while (j < s.size() &&
         (IsIdentChar(s[j]) || s[j] == '.' || s[j] == '\'' ||
          ((s[j] == '+' || s[j] == '-') && j > i &&
           (s[j - 1] == 'e' || s[j - 1] == 'E' || s[j - 1] == 'p' ||
            s[j - 1] == 'P')))) {
    ++j;
  }
  return j;
}

}  // namespace

bool IsIdentChar(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

std::vector<Token> Lex(const std::string& content, std::string* code) {
  std::vector<Token> tokens;
  std::string blanked = content;
  // Blanks [begin, end) of `blanked`, keeping its newlines.
  const auto blank = [&blanked](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      if (blanked[k] != '\n') blanked[k] = ' ';
    }
  };
  int line = 1;
  size_t i = 0;
  const size_t n = content.size();
  bool at_line_start = true;  // Only whitespace seen since the last newline.
  // Start of the preprocessor directive being scanned, or npos. Inside one,
  // comments and literals are skipped and blanked as in code, other tokens
  // are not emitted, and the whole directive becomes one token at its end.
  size_t directive = std::string::npos;
  int directive_line = 0;
  const auto emit = [&](TokenKind kind, std::string text, int at) {
    if (directive == std::string::npos) {
      tokens.push_back(Token{kind, std::move(text), at});
    }
  };
  const auto end_directive = [&](size_t end) {
    tokens.push_back(Token{TokenKind::kPreprocessor,
                           content.substr(directive, end - directive),
                           directive_line});
    directive = std::string::npos;
  };

  while (i < n) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';

    if (directive != std::string::npos && c == '\\' && next == '\n') {
      ++line;  // A continued directive.
      i += 2;
      continue;
    }
    if (c == '\n') {
      if (directive != std::string::npos) end_directive(i);
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }

    // Comments.
    if (c == '/' && next == '/') {
      const size_t start = i;
      while (i < n && content[i] != '\n') ++i;
      blank(start, i);
      continue;
    }
    if (c == '/' && next == '*') {
      const size_t start = i;
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      blank(start, i);
      continue;
    }

    if (c == '#' && at_line_start) {
      directive = i;
      directive_line = line;
      at_line_start = false;
      ++i;
      continue;
    }
    at_line_start = false;

    // Identifier / keyword, or the (prefixed) R of a raw string literal.
    if (IsIdentStartChar(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(content[j])) ++j;
      std::string word = content.substr(i, j - i);
      if ((word == "R" || word == "LR" || word == "uR" || word == "UR" ||
           word == "u8R") &&
          j < n && content[j] == '"') {
        const size_t after = SkipRawString(content, j - 1, &line);
        if (after != j - 1) {
          blank(j - 1, after);
          emit(TokenKind::kString, "", line);
          i = after;
          continue;
        }
      }
      emit(TokenKind::kIdentifier, std::move(word), line);
      i = j;
      continue;
    }

    // Number (covers 0x1F, 1'000'000, 1.5e-3, trailing suffixes).
    if (IsDigit(c) || (c == '.' && IsDigit(next))) {
      const size_t j = SkipNumber(content, i);
      emit(TokenKind::kNumber, content.substr(i, j - i), line);
      i = j;
      continue;
    }

    // String / char literal. One left open ends with its line, so a stray
    // quote (an apostrophe in `#error don't`) cannot hide the lines below.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      ++i;
      const size_t body = i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) {
          if (content[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (content[i] == '\n') break;
        ++i;
      }
      blank(body, i);
      if (i < n && content[i] == quote) ++i;
      emit(quote == '"' ? TokenKind::kString : TokenKind::kCharLiteral, "",
           start_line);
      continue;
    }

    // Punctuation: longest listed match, else a single character.
    size_t len = 1;
    for (const char* p : kPuncts) {
      const size_t plen = std::char_traits<char>::length(p);
      if (content.compare(i, plen, p) == 0) {
        len = plen;
        break;
      }
    }
    emit(TokenKind::kPunct, content.substr(i, len), line);
    i += len;
  }
  if (directive != std::string::npos) end_directive(n);
  if (code != nullptr) *code = std::move(blanked);
  return tokens;
}

}  // namespace juggler::analyze
