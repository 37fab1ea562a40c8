#include "tools/analyze/engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/analyze/passes.h"

namespace juggler::analyze {

namespace {

namespace fs = std::filesystem;

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

/// Keywords that can never be a function or variable name in the positions
/// the scanner probes.
bool IsStatementKeyword(const std::string& s) {
  static const char* const kWords[] = {
      "if",     "while",   "for",      "switch",  "do",      "return",
      "else",   "case",    "default",  "break",   "continue", "goto",
      "new",    "delete",  "throw",    "using",   "typedef", "namespace",
      "class",  "struct",  "enum",     "union",   "template", "public",
      "private", "protected", "friend", "extern", "operator", "sizeof",
      "alignof", "co_return", "co_await", "co_yield", "catch",
  };
  for (const char* w : kWords) {
    if (s == w) return true;
  }
  return false;
}

bool IsStorageOrCv(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "static" ||
         s == "mutable" || s == "volatile" || s == "inline" ||
         s == "register" || s == "thread_local" || s == "consteval" ||
         s == "constinit";
}

/// Index of the matching ')' for the '(' at `open`, or kNpos. Preprocessor
/// tokens are transparent.
size_t MatchParen(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "(")) ++depth;
    if (IsPunct(toks[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return kNpos;
}

/// Index of the matching '}' for the '{' at `open`, or kNpos.
size_t MatchBrace(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "{")) ++depth;
    if (IsPunct(toks[i], "}")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return kNpos;
}

/// From the ':' that opens a constructor member-init list, returns the index
/// of the body '{', or kNpos when the shape is not an init list.
size_t SkipInitList(const std::vector<Token>& toks, size_t colon) {
  size_t i = colon + 1;
  const size_t n = toks.size();
  while (i < n) {
    // Entry: qualified-ident ( ... ) or qualified-ident { ... }.
    while (i < n && (IsIdent(toks[i]) || IsPunct(toks[i], "::"))) ++i;
    if (i >= n) return kNpos;
    if (IsPunct(toks[i], "(")) {
      i = MatchParen(toks, i);
    } else if (IsPunct(toks[i], "{")) {
      i = MatchBrace(toks, i);
    } else {
      return kNpos;
    }
    if (i == kNpos || i + 1 >= n) return kNpos;
    ++i;
    if (IsPunct(toks[i], ",")) {
      ++i;
      continue;
    }
    if (IsPunct(toks[i], "{")) return i;  // The body.
    return kNpos;
  }
  return kNpos;
}

std::string JoinTokens(const std::vector<Token>& toks, size_t begin,
                       size_t end, size_t skip = kNpos) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (i == skip) continue;
    if (toks[i].kind == TokenKind::kString) {
      out += "\"\" ";
      continue;
    }
    if (!out.empty() && out.back() != ':' && toks[i].text != "::") {
      out += ' ';
    }
    out += toks[i].text;
  }
  return out;
}

/// Parses the parameter list between `open` ('(') and `close` (')').
std::vector<Variable> ParseParams(const std::vector<Token>& toks, size_t open,
                                  size_t close) {
  std::vector<Variable> params;
  std::vector<std::pair<size_t, size_t>> chunks;
  size_t start = open + 1;
  int paren = 0;
  int angle = 0;
  for (size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(" || t.text == "[" || t.text == "{") ++paren;
      if (t.text == ")" || t.text == "]" || t.text == "}") --paren;
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = angle > 0 ? angle - 1 : 0;
      if (t.text == ">>") angle = angle > 1 ? angle - 2 : 0;
      if (t.text == "," && paren == 0 && angle == 0) {
        chunks.emplace_back(start, i);
        start = i + 1;
      }
    }
  }
  if (start < close) chunks.emplace_back(start, close);
  for (const auto& [begin, end] : chunks) {
    // Drop a default argument.
    size_t stop = end;
    for (size_t i = begin; i < end; ++i) {
      if (IsPunct(toks[i], "=")) {
        stop = i;
        break;
      }
    }
    // Name = last identifier; needs at least a type token before it.
    size_t name_idx = kNpos;
    int idents = 0;
    for (size_t i = begin; i < stop; ++i) {
      if (IsIdent(toks[i])) {
        ++idents;
        name_idx = i;
      }
    }
    if (idents < 2 || name_idx == kNpos) continue;  // Unnamed or "void".
    params.push_back(Variable{JoinTokens(toks, begin, stop, name_idx),
                              toks[name_idx].text});
  }
  return params;
}

/// Attempts to match a variable declaration starting at `i` (statement
/// start). On success fills `var` and returns the index of the terminator
/// token ('=', ';', '(', '{', '['); else returns kNpos.
size_t TryMatchDecl(const std::vector<Token>& toks, size_t i, size_t end,
                    Variable* var) {
  // Leading storage/cv words.
  while (i < end && IsIdent(toks[i]) && IsStorageOrCv(toks[i].text)) ++i;
  if (i >= end || !IsIdent(toks[i]) || IsStatementKeyword(toks[i].text)) {
    return kNpos;
  }
  const size_t type_begin = i;
  size_t last_ident = kNpos;
  int idents = 0;
  while (i < end) {
    const Token& t = toks[i];
    if (IsIdent(t)) {
      if (IsStatementKeyword(t.text)) return kNpos;
      last_ident = i;
      ++idents;
      ++i;
      continue;
    }
    if (IsPunct(t, "::") || IsPunct(t, "*") || IsPunct(t, "&") ||
        IsPunct(t, "&&")) {
      ++i;
      continue;
    }
    if (IsPunct(t, "<")) {
      // Balanced template group; abort on statement punctuation (so a
      // comparison like `i < n;` never swallows the rest of the line).
      int depth = 0;
      size_t j = i;
      size_t guard = 0;
      for (; j < end && guard < 64; ++j, ++guard) {
        if (IsPunct(toks[j], "<")) ++depth;
        if (IsPunct(toks[j], ">")) --depth;
        if (IsPunct(toks[j], ">>")) depth -= 2;
        if (IsPunct(toks[j], ";") || IsPunct(toks[j], "{") ||
            IsPunct(toks[j], "}")) {
          return kNpos;
        }
        if (depth <= 0) break;
      }
      if (j >= end || guard >= 64) return kNpos;
      i = j + 1;
      continue;
    }
    break;
  }
  if (i >= end || idents < 2 || last_ident == kNpos ||
      last_ident != i - 1) {  // The run must *end* with the name.
    return kNpos;
  }
  const Token& term = toks[i];
  if (!(IsPunct(term, "=") || IsPunct(term, ";") || IsPunct(term, "(") ||
        IsPunct(term, "{") || IsPunct(term, "["))) {
    return kNpos;
  }
  var->type = JoinTokens(toks, type_begin, last_ident);
  var->name = toks[last_ident].text;
  return i;
}

void ScanLocals(const std::vector<Token>& toks, size_t begin, size_t end,
                std::vector<Variable>* locals) {
  bool stmt_start = true;
  size_t i = begin;
  while (i < end) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t.kind == TokenKind::kPreprocessor) {
      stmt_start = true;
      ++i;
      continue;
    }
    if (stmt_start) {
      if (IsIdent(t, "for") && i + 1 < end && IsPunct(toks[i + 1], "(")) {
        i += 2;  // The init clause of a for is a statement start.
        continue;
      }
      Variable var;
      const size_t term = TryMatchDecl(toks, i, end, &var);
      if (term != kNpos) {
        locals->push_back(std::move(var));
        i = term;
        stmt_start = false;
        continue;
      }
      stmt_start = false;
    }
    ++i;
  }
}

}  // namespace

const std::string* FunctionInfo::TypeOf(const std::string& ident) const {
  for (const Variable& v : params) {
    if (v.name == ident) return &v.type;
  }
  for (const Variable& v : locals) {
    if (v.name == ident) return &v.type;
  }
  return nullptr;
}

std::vector<FunctionInfo> ScanFunctions(const std::vector<Token>& toks) {
  std::vector<FunctionInfo> out;
  const size_t n = toks.size();
  size_t i = 0;
  while (i < n) {
    if (!IsIdent(toks[i]) || IsStatementKeyword(toks[i].text)) {
      ++i;
      continue;
    }
    if (i + 1 >= n || !IsPunct(toks[i + 1], "(")) {
      ++i;
      continue;
    }
    // `class CAPABILITY("mutex") Mutex {`: an annotation macro directly after
    // class/struct is not a function.
    if (i > 0 && IsIdent(toks[i - 1]) &&
        (toks[i - 1].text == "class" || toks[i - 1].text == "struct" ||
         toks[i - 1].text == "enum" || toks[i - 1].text == "union")) {
      ++i;
      continue;
    }
    const size_t close = MatchParen(toks, i + 1);
    if (close == kNpos) {
      ++i;
      continue;
    }
    // Walk qualifiers after the parameter list looking for a body.
    size_t j = close + 1;
    std::vector<std::string> requires_held;
    bool is_def = false;
    while (j < n) {
      const Token& t = toks[j];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          is_def = true;
          break;
        }
        if (t.text == ":") {  // Constructor member-init list.
          const size_t body = SkipInitList(toks, j);
          if (body != kNpos) {
            j = body;
            is_def = true;
          }
          break;
        }
        if (t.text == "->" || t.text == "::" || t.text == "&" ||
            t.text == "&&" || t.text == "*" || t.text == "<" ||
            t.text == ">") {
          ++j;
          continue;
        }
        break;  // ';', '=', ',', ')' ...: declaration or expression.
      }
      if (IsIdent(t)) {
        if (j + 1 < n && IsPunct(toks[j + 1], "(")) {
          // Annotation macro with arguments (REQUIRES, ACQUIRE, EXCLUDES...).
          const size_t macro_close = MatchParen(toks, j + 1);
          if (macro_close == kNpos) break;
          if (t.text == "REQUIRES" || t.text == "REQUIRES_SHARED") {
            for (size_t k = j + 2; k < macro_close; ++k) {
              if (IsIdent(toks[k])) requires_held.push_back(toks[k].text);
            }
          }
          j = macro_close + 1;
          continue;
        }
        ++j;  // const / noexcept / override / final / try / macro.
        continue;
      }
      if (t.kind == TokenKind::kNumber ||
          t.kind == TokenKind::kPreprocessor) {
        ++j;
        continue;
      }
      break;
    }
    if (!is_def) {
      i = close + 1;
      continue;
    }
    const size_t body_open = j;
    const size_t body_close = MatchBrace(toks, body_open);
    if (body_close == kNpos) {
      i = close + 1;
      continue;
    }
    FunctionInfo fn;
    fn.name = toks[i].text;
    if (i > 0 && IsPunct(toks[i - 1], "~")) fn.name = "~" + fn.name;
    const size_t before = fn.name[0] == '~' ? i - 1 : i;
    if (before >= 2 && IsPunct(toks[before - 1], "::") &&
        IsIdent(toks[before - 2])) {
      fn.qualifier = toks[before - 2].text;
    }
    fn.line = toks[i].line;
    fn.body_begin = body_open;
    fn.body_end = body_close + 1;
    fn.params = ParseParams(toks, i + 1, close);
    fn.requires_held = std::move(requires_held);
    ScanLocals(toks, body_open + 1, body_close, &fn.locals);
    out.push_back(std::move(fn));
    i = body_close + 1;
  }
  return out;
}

std::string FileStem(const std::string& rel_path) {
  const size_t dot = rel_path.rfind('.');
  if (dot == std::string::npos) return rel_path;
  return rel_path.substr(0, dot);
}

void CollectTreeContext(const FileUnit& unit, TreeContext* ctx) {
  const std::string stem = FileStem(unit.rel_path);
  const std::vector<Token>& toks = unit.tokens;
  const size_t n = toks.size();
  for (size_t i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (!IsIdent(t)) continue;

    if ((t.text == "GUARDED_BY" || t.text == "PT_GUARDED_BY") && i > 0 &&
        IsIdent(toks[i - 1]) && i + 1 < n && IsPunct(toks[i + 1], "(")) {
      const size_t close = MatchParen(toks, i + 1);
      if (close == kNpos) continue;
      // Mutex = last identifier of the argument ("mu_", "shard.mu").
      std::string mu;
      for (size_t k = i + 2; k < close; ++k) {
        if (IsIdent(toks[k])) mu = toks[k].text;
      }
      if (!mu.empty()) {
        ctx->guarded_fields[stem][toks[i - 1].text] = mu;
      }
      continue;
    }

    if ((t.text == "REQUIRES" || t.text == "REQUIRES_SHARED") && i + 1 < n &&
        IsPunct(toks[i + 1], "(")) {
      const size_t close = MatchParen(toks, i + 1);
      if (close == kNpos) continue;
      // Find the declaration's name: walk back over qualifier tokens to the
      // ')' that closes its parameter list, then to the '(' and the name.
      size_t back = i;
      while (back > 0 &&
             !(IsPunct(toks[back - 1], ")") || IsPunct(toks[back - 1], ";") ||
               IsPunct(toks[back - 1], "}") || IsPunct(toks[back - 1], "{"))) {
        --back;
      }
      if (back == 0 || !IsPunct(toks[back - 1], ")")) continue;
      // Match backwards to the '('.
      int depth = 0;
      size_t open = back - 1;
      bool found = false;
      for (size_t k = back - 1; k != kNpos && k > 0; --k) {
        if (IsPunct(toks[k], ")")) ++depth;
        if (IsPunct(toks[k], "(")) {
          --depth;
          if (depth == 0) {
            open = k;
            found = true;
            break;
          }
        }
      }
      if (!found || open == 0 || !IsIdent(toks[open - 1])) continue;
      const std::string method = toks[open - 1].text;
      for (size_t k = i + 2; k < close; ++k) {
        if (IsIdent(toks[k])) {
          ctx->requires_methods[stem][method].insert(toks[k].text);
        }
      }
      continue;
    }

    if ((t.text == "class" || t.text == "struct") && i + 1 < n) {
      // The name may follow an annotation macro: class SCOPED_CAPABILITY X.
      size_t j = i + 1;
      std::string last_ident;
      while (j < n && !IsPunct(toks[j], "{") && !IsPunct(toks[j], ";") &&
             !IsPunct(toks[j], ":") && !IsPunct(toks[j], ")") &&
             !IsPunct(toks[j], ",") && !IsPunct(toks[j], ">")) {
        if (IsIdent(toks[j])) last_ident = toks[j].text;
        if (IsPunct(toks[j], "(")) {  // Annotation args.
          const size_t c = MatchParen(toks, j);
          if (c == kNpos) break;
          j = c;
        }
        ++j;
      }
      if (j < n && IsPunct(toks[j], "{") && !last_ident.empty()) {
        ctx->class_names[stem].insert(last_ident);
      }
      continue;
    }

    if (t.text == "StatusOr" || t.text == "optional") {
      // `StatusOr<...> Name(` declares/defines a StatusOr-returning
      // function named Name.
      if (i + 1 >= n || !IsPunct(toks[i + 1], "<")) continue;
      int depth = 0;
      size_t j = i + 1;
      size_t guard = 0;
      for (; j < n && guard < 64; ++j, ++guard) {
        if (IsPunct(toks[j], "<")) ++depth;
        if (IsPunct(toks[j], ">")) --depth;
        if (IsPunct(toks[j], ">>")) depth -= 2;
        if (IsPunct(toks[j], ";") || IsPunct(toks[j], "{")) break;
        if (depth <= 0) break;
      }
      if (j >= n || guard >= 64 || depth > 0) continue;
      if (j + 2 < n && IsIdent(toks[j + 1]) && IsPunct(toks[j + 2], "(")) {
        if (t.text == "StatusOr") {
          ctx->statusor_returning.insert(toks[j + 1].text);
        } else {
          ctx->optional_returning.insert(toks[j + 1].text);
        }
      }
      continue;
    }
  }
}

bool IsSuppressed(const std::string& raw_line) {
  return raw_line.find("NOLINT") != std::string::npos;
}

namespace {

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

void RunPasses(const FileUnit& unit, const TreeContext& ctx,
               std::vector<Finding>* findings) {
  for (const Pass* pass : AllPasses()) pass->Run(unit, ctx, findings);
  // Suppression and sorting are engine duties so no pass re-implements them.
  findings->erase(
      std::remove_if(findings->begin(), findings->end(),
                     [&](const Finding& f) {
                       const size_t idx = static_cast<size_t>(f.line) - 1;
                       return f.line > 0 && idx < unit.raw_lines.size() &&
                              IsSuppressed(unit.raw_lines[idx]);
                     }),
      findings->end());
  SortFindings(findings);
}

}  // namespace

FileUnit BuildFileUnit(const std::string& rel_path,
                       const std::string& content) {
  FileUnit unit;
  unit.rel_path = rel_path;
  unit.raw_lines = SplitLines(content);
  std::string code;
  unit.tokens = Lex(content, &code);
  unit.code_lines = SplitLines(code);
  unit.functions = ScanFunctions(unit.tokens);
  return unit;
}

std::vector<Finding> AnalyzeFile(const std::string& rel_path,
                                 const std::string& content,
                                 const TreeContext* tree_ctx) {
  const FileUnit unit = BuildFileUnit(rel_path, content);
  TreeContext local_ctx;
  if (tree_ctx == nullptr) {
    CollectTreeContext(unit, &local_ctx);
    tree_ctx = &local_ctx;
  }
  std::vector<Finding> findings;
  RunPasses(unit, *tree_ctx, &findings);
  return findings;
}

std::vector<Finding> AnalyzeTree(const std::string& root) {
  static const char* const kRoots[] = {"src",   "tools",    "tests",
                                       "bench", "examples", "fuzz"};
  // Pass 1: read every file, build units, and collect the cross-file
  // context (guarded fields, REQUIRES methods, StatusOr-returning names).
  std::vector<FileUnit> units;
  TreeContext ctx;
  for (const char* top : kRoots) {
    const fs::path dir = fs::path(root) / top;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string rel =
          fs::relative(entry.path(), root, ec).generic_string();
      units.push_back(BuildFileUnit(rel, buffer.str()));
      CollectTreeContext(units.back(), &ctx);
    }
  }
  // Pass 2: run the passes with the full context in view.
  std::vector<Finding> findings;
  for (const FileUnit& unit : units) {
    std::vector<Finding> file_findings;
    RunPasses(unit, ctx, &file_findings);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  SortFindings(&findings);
  return findings;
}

std::string CanonicalGuard(const std::string& rel_path) {
  std::string path = rel_path;
  if (path.rfind("src/", 0) == 0) path = path.substr(4);
  std::string guard = "JUGGLER_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

const std::vector<const Pass*>& AllPasses() {
  static const std::vector<const Pass*>* all = [] {
    auto* v = new std::vector<const Pass*>(LinePasses());
    const auto& dataflow = DataflowPasses();
    v->insert(v->end(), dataflow.begin(), dataflow.end());
    return v;
  }();
  return *all;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream out;
  out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return out.str();
}

}  // namespace juggler::analyze
