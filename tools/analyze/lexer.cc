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

std::vector<Token> Lex(const std::string& content) {
  std::vector<Token> tokens;
  int line = 1;
  size_t i = 0;
  const size_t n = content.size();
  bool at_line_start = true;  // Only whitespace seen since the last newline.

  while (i < n) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';

    if (c == '\n') {
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
      while (i < n && content[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && next == '*') {
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      continue;
    }

    // Preprocessor directive: one token for the whole (continued) line.
    if (c == '#' && at_line_start) {
      std::string text;
      const int start_line = line;
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n && content[i + 1] == '\n') {
          ++line;
          i += 2;
          text.push_back(' ');
          continue;
        }
        if (content[i] == '\n') break;
        // Strip comments inside the directive.
        if (content[i] == '/' && i + 1 < n && content[i + 1] == '/') {
          while (i < n && content[i] != '\n') ++i;
          break;
        }
        text.push_back(content[i]);
        ++i;
      }
      tokens.push_back(Token{TokenKind::kPreprocessor, text, start_line});
      continue;
    }
    at_line_start = false;

    // Raw string literal (must be checked before plain identifiers).
    if (c == 'R' && next == '"') {
      const size_t after = SkipRawString(content, i, &line);
      if (after != i) {
        tokens.push_back(Token{TokenKind::kString, "", line});
        i = after;
        continue;
      }
    }

    // Identifier / keyword.
    if (IsIdentStartChar(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(content[j])) ++j;
      tokens.push_back(
          Token{TokenKind::kIdentifier, content.substr(i, j - i), line});
      i = j;
      continue;
    }

    // Number (covers 0x1F, 1'000'000, 1.5e-3, trailing suffixes).
    if (IsDigit(c) || (c == '.' && IsDigit(next))) {
      const size_t j = SkipNumber(content, i);
      tokens.push_back(
          Token{TokenKind::kNumber, content.substr(i, j - i), line});
      i = j;
      continue;
    }

    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      ++i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) {
          if (content[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (content[i] == '\n') {  // Unterminated literal: stop at the line.
          break;
        }
        ++i;
      }
      if (i < n && content[i] == quote) ++i;
      tokens.push_back(Token{quote == '"' ? TokenKind::kString
                                          : TokenKind::kCharLiteral,
                             "", start_line});
      continue;
    }

    // Punctuation: longest listed match, else a single character.
    bool matched = false;
    for (const char* p : kPuncts) {
      const size_t len = std::char_traits<char>::length(p);
      if (content.compare(i, len, p) == 0) {
        tokens.push_back(Token{TokenKind::kPunct, p, line});
        i += len;
        matched = true;
        break;
      }
    }
    if (!matched) {
      tokens.push_back(Token{TokenKind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return tokens;
}

std::string StripCommentsAndStrings(const std::string& content) {
  std::string out = content;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"') {
          // Raw string: blank the whole literal (newlines preserved).
          int dummy_line = 0;
          const size_t after = SkipRawString(content, i, &dummy_line);
          if (after != i) {
            for (size_t k = i; k < after; ++k) {
              if (content[k] != '\n') out[k] = ' ';
            }
            i = after - 1;
          }
        } else if ((IsDigit(c) || (c == '.' && IsDigit(next))) &&
                   (i == 0 || !IsIdentChar(content[i - 1]))) {
          // A number is code, and its digit separators are not quotes.
          i = SkipNumber(content, i) - 1;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace juggler::analyze
