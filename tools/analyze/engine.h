#ifndef JUGGLER_TOOLS_ANALYZE_ENGINE_H_
#define JUGGLER_TOOLS_ANALYZE_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/lexer.h"

namespace juggler::analyze {

/// One finding: `file:line: [rule] message`.
struct Finding {
  std::string file;  ///< Repo-relative path, '/' separators.
  int line = 0;      ///< 1-based.
  std::string rule;
  std::string message;
};

/// "file:line: [rule] message" — the single format the CLI and the tests
/// rely on.
std::string FormatFinding(const Finding& f);

/// Canonical include-guard macro for a repo-relative header path
/// (e.g. "src/common/status.h" -> "JUGGLER_COMMON_STATUS_H_").
std::string CanonicalGuard(const std::string& rel_path);

/// A function parameter or local variable: declared type text (normalized,
/// single spaces) and name.
struct Variable {
  std::string type;
  std::string name;
};

/// One function definition found in a file: enough symbol-table and extent
/// information for intraprocedural passes. Produced by `ScanFunctions`.
struct FunctionInfo {
  std::string name;            ///< Unqualified name ("Next", "~Router").
  std::string qualifier;       ///< "Class" for "Class::Next", else "".
  int line = 0;                ///< Line of the name token.
  size_t body_begin = 0;       ///< Token index of the opening '{'.
  size_t body_end = 0;         ///< Token index one past the closing '}'.
  std::vector<Variable> params;
  std::vector<Variable> locals;  ///< Declarations found in the body.
  /// Mutex names from REQUIRES(...) on this definition, if any.
  std::vector<std::string> requires_held;

  /// Declared type of `ident` (param first, then locals), or "".
  const std::string* TypeOf(const std::string& ident) const;
};

/// Everything a pass can see about one file.
struct FileUnit {
  std::string rel_path;
  std::vector<std::string> raw_lines;   ///< Verbatim (for NOLINT checks).
  std::vector<std::string> code_lines;  ///< Comments/literals blanked.
  std::vector<Token> tokens;            ///< From the same Lex() pass.
  std::vector<FunctionInfo> functions;  ///< From ScanFunctions().
};

/// Builds the unit: splits lines, lexes (tokens and blanked code lines in
/// one pass), scans functions.
FileUnit BuildFileUnit(const std::string& rel_path,
                       const std::string& content);

/// Token-stream function scanner: finds function definitions (free,
/// qualified member, and class-inline), their parameter lists, and the
/// local-variable declarations in their bodies. Heuristic by design — it has
/// no type system — but handles this repo's style: one statement per
/// declaration, Google-style formatting. Known envelope: function-try-blocks
/// and K&R oddities are unsupported; lambdas contribute their body's locals
/// to the enclosing function.
std::vector<FunctionInfo> ScanFunctions(const std::vector<Token>& tokens);

/// Cross-file facts gathered in a pre-pass over the whole tree, keyed by
/// file stem ("src/service/model_registry" for both .h and .cc) so a .cc
/// pass can see its header's declarations.
struct TreeContext {
  /// stem -> field name -> mutex name, from `GUARDED_BY(mu)` declarations.
  std::map<std::string, std::map<std::string, std::string>> guarded_fields;
  /// stem -> method name -> mutex names, from `REQUIRES(mu)` declarations.
  std::map<std::string, std::map<std::string, std::set<std::string>>>
      requires_methods;
  /// stem -> class/struct names declared in the stem's header.
  std::map<std::string, std::set<std::string>> class_names;
  /// Function names declared anywhere to return StatusOr<...> (e.g.
  /// "Parse"), used to type `auto x = Foo::Parse(...)` locals.
  std::set<std::string> statusor_returning;
  /// Function names declared to return std::optional<...>.
  std::set<std::string> optional_returning;
};

/// Path minus extension: "src/net/http.cc" -> "src/net/http".
std::string FileStem(const std::string& rel_path);

/// Scans one file's tokens into `ctx` (guarded fields, REQUIRES methods,
/// class names, StatusOr/optional-returning declarations).
void CollectTreeContext(const FileUnit& unit, TreeContext* ctx);

/// True when the raw line carries `NOLINT`. Rule-blind; the documented
/// convention is `NOLINT(<rule>): reason` so suppressions stay auditable.
bool IsSuppressed(const std::string& raw_line);

/// A registered analysis. Passes are stateless; `Run` appends findings.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual void Run(const FileUnit& unit, const TreeContext& ctx,
                   std::vector<Finding>* findings) const = 0;
};

/// The full registry: the eleven line-scoped rules plus the four
/// scope/dataflow analyses. Order is stable.
const std::vector<const Pass*>& AllPasses();

/// Runs every pass over one file. `ctx` may be empty (single-file mode used
/// by most tests); cross-file analyses then see only this file's own
/// declarations (CollectTreeContext is applied to the unit itself first).
std::vector<Finding> AnalyzeFile(const std::string& rel_path,
                                 const std::string& content,
                                 const TreeContext* tree_ctx = nullptr);

/// Walks `root`'s source directories (src, tools, tests, bench, examples,
/// fuzz), builds the TreeContext, analyzes every .h/.cc/.cpp file, and
/// returns all findings sorted by (file, line, rule).
std::vector<Finding> AnalyzeTree(const std::string& root);

}  // namespace juggler::analyze

#endif  // JUGGLER_TOOLS_ANALYZE_ENGINE_H_
