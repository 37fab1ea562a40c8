#ifndef JUGGLER_TOOLS_ANALYZE_LEXER_H_
#define JUGGLER_TOOLS_ANALYZE_LEXER_H_

#include <string>
#include <vector>

namespace juggler::analyze {

/// \brief Token kinds produced by `Lex`.
///
/// The lexer is deliberately shallow: it classifies just enough for
/// scope-tracked, identifier-level analysis (see engine.h). Numbers are not
/// split into int/float; punctuation is emitted one operator per token with
/// the few multi-char operators that matter for analysis (`->`, `::`, `<<`,
/// `>>`, comparison and logical operators) glued together.
enum class TokenKind {
  kIdentifier,   ///< [A-Za-z_][A-Za-z0-9_]*
  kNumber,       ///< Numeric literal (ints, floats, hex, digit separators).
  kString,       ///< String literal, including raw strings. Text is omitted.
  kCharLiteral,  ///< Character literal. Text is omitted.
  kPunct,        ///< Operator / punctuation, e.g. "{", "->", "<=", "::".
  kPreprocessor  ///< A whole preprocessor directive line ("#include <x>").
};

struct Token {
  TokenKind kind;
  std::string text;  ///< Spelled text ("" for string/char literal bodies).
  int line = 0;      ///< 1-based line of the token's first character.
};

/// Tokenizes C++ source. Comments are skipped entirely; string and character
/// literals (including raw strings and escape sequences) become single
/// content-less tokens so no analysis ever matches inside them; each
/// preprocessor directive (with line continuations) becomes one
/// kPreprocessor token carrying its source text. A literal left open ends
/// with its line.
///
/// When `code` is given, it receives `content` with every comment, every
/// raw string and the contents of every other literal replaced by spaces,
/// newlines kept, for the line-scoped rules that match per line rather than
/// over the token stream. Both come from the same pass, so they always
/// agree on what is code.
std::vector<Token> Lex(const std::string& content,
                       std::string* code = nullptr);

/// True for [A-Za-z0-9_].
bool IsIdentChar(char c);

}  // namespace juggler::analyze

#endif  // JUGGLER_TOOLS_ANALYZE_LEXER_H_
