// Tests for the tools/analyze engine: lexer and function-scanner units,
// positive/negative fixtures for each of the four dataflow analyses, NOLINT
// escapes, and the check that the real tree has no findings.
//
// The line-scoped rules' own tests are in tests/lint_test.cc; here they
// only appear through AnalyzeFile, so fixtures are written to not trip them.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/analyze/engine.h"
#include "tools/analyze/lexer.h"

namespace juggler::analyze {
namespace {

std::vector<Finding> RuleFindings(const std::string& rule,
                                  const std::string& rel_path,
                                  const std::string& content) {
  std::vector<Finding> out;
  for (const Finding& f : AnalyzeFile(rel_path, content)) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesIdentifiersNumbersAndPunctuation) {
  const std::vector<Token> toks = Lex("int x = 42 + y_2;\n");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[2].kind, TokenKind::kPunct);
  EXPECT_EQ(toks[2].text, "=");
  EXPECT_EQ(toks[3].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[3].text, "42");
  EXPECT_EQ(toks[5].text, "y_2");
  EXPECT_EQ(toks[0].line, 1);
}

TEST(LexerTest, SkipsCommentsAndFoldsStrings) {
  const std::vector<Token> toks = Lex(
      "a = \"no ; tokens { here\";  // trailing ; comment\n"
      "/* block ; comment */ b = 'c';\n");
  std::vector<std::string> idents;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier) idents.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"a", "b"}));
  int semis = 0;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kPunct && t.text == ";") ++semis;
  }
  EXPECT_EQ(semis, 2);  // Only the real statement terminators.
}

TEST(LexerTest, HandlesRawStringsAndPreprocessorLines) {
  const std::vector<Token> toks = Lex(
      "#include <map>\n"
      "auto s = R\"(unbalanced { ) \" ;)\";\n"
      "int n;\n");
  // The #include line folds to one preprocessor token; the raw string to
  // one token; `int n ;` survives intact after both.
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, TokenKind::kPreprocessor);
  std::vector<std::string> idents;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier) idents.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"auto", "s", "int", "n"}));
}

TEST(LexerTest, PrefixedRawStringsAreOneLiteral) {
  std::string code;
  const std::vector<Token> toks =
      Lex("auto w = LR\"(x\"y)\";\nint u8R = 0;\n", &code);
  std::vector<std::string> idents;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier) idents.push_back(t.text);
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"auto", "w", "int", "u8R"}));
  EXPECT_EQ(code, "auto w = L        ;\nint u8R = 0;\n");
}

TEST(LexerTest, RawStringSpanningLinesHasItsFirstLine) {
  const std::vector<Token> toks = Lex("auto s = R\"(a\nb\nc)\";\nint n;\n");
  const auto str = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == TokenKind::kString;
  });
  ASSERT_NE(str, toks.end());
  EXPECT_EQ(str->line, 1);
  EXPECT_EQ(toks.back().line, 4);  // Lines after the literal still count.
}

// ---------------------------------------------------------------------------
// Function scanner.
// ---------------------------------------------------------------------------

TEST(ScanFunctionsTest, FindsQualifiedDefinitionWithParamsAndLocals) {
  const std::vector<Token> toks = Lex(
      "int Codec::Decode(const std::string& payload, size_t offset) {\n"
      "  uint32_t value = 0;\n"
      "  char buffer[8];\n"
      "  return value;\n"
      "}\n");
  const std::vector<FunctionInfo> fns = ScanFunctions(toks);
  ASSERT_EQ(fns.size(), 1u);
  const FunctionInfo& fn = fns[0];
  EXPECT_EQ(fn.name, "Decode");
  EXPECT_EQ(fn.qualifier, "Codec");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].name, "payload");
  EXPECT_NE(fn.params[0].type.find('&'), std::string::npos);
  EXPECT_EQ(fn.params[1].name, "offset");
  ASSERT_NE(fn.TypeOf("value"), nullptr);
  EXPECT_EQ(*fn.TypeOf("value"), "uint32_t");
  EXPECT_NE(fn.TypeOf("buffer"), nullptr);
  EXPECT_EQ(fn.TypeOf("nope"), nullptr);
}

TEST(ScanFunctionsTest, DeclarationsAndCallsAreNotDefinitions) {
  const std::vector<Token> toks = Lex(
      "int Decode(const char* p);\n"
      "void Run() {\n"
      "  Decode(nullptr);\n"
      "  if (true) { Decode(nullptr); }\n"
      "}\n");
  const std::vector<FunctionInfo> fns = ScanFunctions(toks);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "Run");
}

TEST(ScanFunctionsTest, CapturesRequiresAnnotation) {
  const std::vector<Token> toks = Lex(
      "void Registry::Publish(int v) REQUIRES(mu_) {\n"
      "  version_ = v;\n"
      "}\n");
  const std::vector<FunctionInfo> fns = ScanFunctions(toks);
  ASSERT_EQ(fns.size(), 1u);
  ASSERT_EQ(fns[0].requires_held.size(), 1u);
  EXPECT_EQ(fns[0].requires_held[0], "mu_");
}

// ---------------------------------------------------------------------------
// analyze-taint-bounds.
// ---------------------------------------------------------------------------

constexpr char kTaintRule[] = "analyze-taint-bounds";

TEST(TaintBoundsTest, FlagsUncheckedSubscript) {
  const auto findings = RuleFindings(kTaintRule, "src/net/fixture.cc",
                                     "void DecodeFrame(const std::string& "
                                     "payload, size_t offset) {\n"
                                     "  char buffer[8];\n"
                                     "  buffer[offset] = 'x';\n"
                                     "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("offset"), std::string::npos);
  EXPECT_NE(findings[0].message.find("subscript"), std::string::npos);
}

TEST(TaintBoundsTest, DominatingBoundsComparisonRetiresTaint) {
  const auto findings = RuleFindings(kTaintRule, "src/net/fixture.cc",
                                     "void DecodeFrame(const std::string& "
                                     "payload, size_t offset) {\n"
                                     "  char buffer[8];\n"
                                     "  if (offset >= sizeof(buffer)) "
                                     "return;\n"
                                     "  buffer[offset] = 'x';\n"
                                     "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(TaintBoundsTest, BufferSizeComparisonChecksTheBuffer) {
  // `bytes.size() < k` is the bounds check for reads through bytes.data():
  // values derived from the checked buffer inherit "checked".
  const auto findings = RuleFindings(
      kTaintRule, "src/net/fixture.cc",
      "void DecodeHeader(const std::string& bytes, std::string* out) {\n"
      "  if (bytes.size() < 8) return;\n"
      "  const char* p = bytes.data();\n"
      "  out->assign(p, p + 4);\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(TaintBoundsTest, FlagsMemcpyLengthAndPointerArithmetic) {
  const auto findings = RuleFindings(
      kTaintRule, "src/net/fixture.cc",
      "void DecodeBody(const char* data, size_t len) {\n"
      "  char buffer[16];\n"
      "  memcpy(buffer, data, len);\n"
      "  const char* end = data + len;\n"
      "  (void)end;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("memcpy"), std::string::npos);
  EXPECT_EQ(findings[1].line, 4);
  EXPECT_NE(findings[1].message.find("pointer offset"), std::string::npos);
}

// memcpy(&n, wire, sizeof(n)) is the idiomatic length-prefix read: the
// destination scalar inherits taint from the wire bytes, but the defining
// call itself must not be flagged as a use.
TEST(TaintBoundsTest, MemcpyLengthPrefixReadPropagatesTaint) {
  const auto findings = RuleFindings(
      kTaintRule, "src/net/fixture.cc",
      "void DecodeFrame(const char* data, char* out) {\n"
      "  unsigned long n = 0;\n"
      "  memcpy(&n, data, sizeof(n));\n"
      "  memcpy(out, data, n);\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("'n'"), std::string::npos);
}

TEST(TaintBoundsTest, MemcpyLengthPrefixReadThenCheckedIsClean) {
  const auto findings = RuleFindings(
      kTaintRule, "src/net/fixture.cc",
      "void DecodeFrame(const char* data, size_t cap, char* out) {\n"
      "  uint32_t n = 0;\n"
      "  memcpy(&n, data, sizeof(n));\n"
      "  if (n > cap) return;\n"
      "  memcpy(out, data, n);\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(TaintBoundsTest, StdMinClampRetiresTaint) {
  const auto findings = RuleFindings(
      kTaintRule, "src/net/fixture.cc",
      "void DecodeBody(const char* data, size_t len) {\n"
      "  char buffer[16];\n"
      "  const size_t n = std::min(len, sizeof(buffer));\n"
      "  memcpy(buffer, data, n);\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(TaintBoundsTest, NonDecoderFilesAndFunctionsAreOutOfScope) {
  const std::string body =
      "void DecodeFrame(const std::string& payload, size_t offset) {\n"
      "  char buffer[8];\n"
      "  buffer[offset] = 'x';\n"
      "}\n";
  EXPECT_TRUE(RuleFindings(kTaintRule, "src/math/fixture.cc", body).empty());
  EXPECT_TRUE(RuleFindings(kTaintRule, "src/net/fixture.cc",
                           "void Emit(const std::string& payload, size_t "
                           "offset) {\n"
                           "  char buffer[8];\n"
                           "  buffer[offset] = 'x';\n"
                           "}\n")
                  .empty());
}

TEST(TaintBoundsTest, NolintSuppressesTheLine) {
  const auto findings = RuleFindings(
      kTaintRule, "src/net/fixture.cc",
      "void DecodeFrame(const std::string& payload, size_t offset) {\n"
      "  char buffer[8];\n"
      "  buffer[offset] = 'x';  // NOLINT(analyze-taint-bounds): fixture.\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// analyze-narrowing.
// ---------------------------------------------------------------------------

constexpr char kNarrowRule[] = "analyze-narrowing";

TEST(NarrowingTest, FlagsUncheckedStaticCastOfWireDouble) {
  const auto findings = RuleFindings(
      kNarrowRule, "src/net/fixture.cc",
      "int ParseCount(const Json& json) {\n"
      "  return static_cast<int>(json.NumberOr(\"count\", 0.0));\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("json"), std::string::npos);
}

TEST(NarrowingTest, FlagsNarrowDeclFromWideTaintedValue) {
  const auto findings = RuleFindings(
      kNarrowRule, "src/net/fixture.cc",
      "void ParseCount(const Json& json, uint64_t wire) {\n"
      "  int n = 0;\n"
      "  n = wire;\n"
      "  (void)n;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("wire"), std::string::npos);
}

TEST(NarrowingTest, DominatingRangeCheckClearsTheCast) {
  const auto findings = RuleFindings(
      kNarrowRule, "src/net/fixture.cc",
      "int ParseCount(const Json& json) {\n"
      "  const double v = json.NumberOr(\"count\", 0.0);\n"
      "  if (v < 0.0 || v > 100.0) return -1;\n"
      "  return static_cast<int>(v);\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(NarrowingTest, ComparisonAgainstStringOrNullptrDoesNotCount) {
  // `kind == "x"` compares content, not range: it must not retire taint on
  // anything, so the cast two lines later still fires.
  const auto findings = RuleFindings(
      kNarrowRule, "src/net/fixture.cc",
      "int ParseCount(const Json& json) {\n"
      "  const std::string kind = json.StringOr(\"kind\", \"\");\n"
      "  if (kind == \"count\") {\n"
      "    return static_cast<int>(json.NumberOr(\"count\", 0.0));\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(NarrowingTest, ByteLoadThroughTaintedPointerIsWidening) {
  const auto findings = RuleFindings(
      kNarrowRule, "src/net/fixture.cc",
      "uint16_t ReadU16(const char* p) {\n"
      "  const auto* b = reinterpret_cast<const unsigned char*>(p);\n"
      "  return static_cast<uint16_t>((static_cast<uint16_t>(b[0]) << 8) |"
      " b[1]);\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(NarrowingTest, NolintSuppressesTheLine) {
  const auto findings = RuleFindings(
      kNarrowRule, "src/net/fixture.cc",
      "int ParseCount(const Json& json) {\n"
      "  return static_cast<int>(json.NumberOr(\"count\", 0.0));"
      "  // NOLINT(analyze-narrowing): fixture.\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// analyze-unchecked-deref.
// ---------------------------------------------------------------------------

constexpr char kDerefRule[] = "analyze-unchecked-deref";

TEST(UncheckedDerefTest, FlagsAllThreeDerefForms) {
  const auto findings = RuleFindings(
      kDerefRule, "src/service/fixture.cc",
      "int UseStar(StatusOr<int> result) { return *result; }\n"
      "int UseArrow(StatusOr<Widget> result) { return result->field; }\n"
      "int UseValue(std::optional<int> v) { return v.value(); }\n");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("operator*"), std::string::npos);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_NE(findings[1].message.find("operator->"), std::string::npos);
  EXPECT_EQ(findings[2].line, 3);
  EXPECT_NE(findings[2].message.find(".value()"), std::string::npos);
}

TEST(UncheckedDerefTest, OkAndHasValueChecksValidate) {
  const auto findings = RuleFindings(
      kDerefRule, "src/service/fixture.cc",
      "int UseStar(StatusOr<int> result) {\n"
      "  if (!result.ok()) return -1;\n"
      "  return *result;\n"
      "}\n"
      "int UseValue(std::optional<int> v) {\n"
      "  if (v.has_value()) return v.value();\n"
      "  return -1;\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UncheckedDerefTest, ReassignmentInvalidatesTheCheck) {
  const auto findings = RuleFindings(
      kDerefRule, "src/service/fixture.cc",
      "int Use(std::optional<int> v) {\n"
      "  if (!v.has_value()) return -1;\n"
      "  const int a = v.value();\n"
      "  v = Reload();\n"
      "  return a + *v;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);
}

TEST(UncheckedDerefTest, AutoLocalFromStatusOrReturningFunctionIsTracked) {
  // The declaration `StatusOr<int> ParseCount(...)` in the same unit feeds
  // TreeContext.statusor_returning, typing the `auto` local below.
  const auto findings = RuleFindings(
      kDerefRule, "src/service/fixture.cc",
      "StatusOr<int> ParseCount(const std::string& text);\n"
      "int Use(const std::string& text) {\n"
      "  auto result = ParseCount(text);\n"
      "  return *result;\n"
      "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(UncheckedDerefTest, SubscriptedContainerElementsValidateThroughIndex) {
  const auto findings = RuleFindings(
      kDerefRule, "src/service/fixture.cc",
      "int Sum(const std::vector<StatusOr<int>>& results) {\n"
      "  int total = 0;\n"
      "  for (size_t i = 0; i < results.size(); ++i) {\n"
      "    if (results[i].ok()) total += *results[i];\n"
      "  }\n"
      "  return total;\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(UncheckedDerefTest, NolintSuppressesTheLine) {
  const auto findings = RuleFindings(
      kDerefRule, "src/service/fixture.cc",
      "int Use(StatusOr<int> result) {\n"
      "  return *result;  // NOLINT(analyze-unchecked-deref): fixture.\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// analyze-guarded-field.
// ---------------------------------------------------------------------------

constexpr char kGuardRule[] = "analyze-guarded-field";

constexpr char kGuardedClassPrefix[] =
    "class Counter {\n"
    " public:\n";
constexpr char kGuardedClassSuffix[] =
    " private:\n"
    "  Mutex mu_;\n"
    "  int count_ GUARDED_BY(mu_) = 0;\n"
    "};\n";

TEST(GuardedFieldTest, FlagsAccessWithNoLockInScope) {
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      std::string(kGuardedClassPrefix) +
          "  void Broken() { count_ += 1; }\n" + kGuardedClassSuffix);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("count_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("mu_"), std::string::npos);
}

TEST(GuardedFieldTest, MutexLockScopeCovers) {
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      std::string(kGuardedClassPrefix) +
          "  void Bump() {\n"
          "    MutexLock lock(&mu_);\n"
          "    count_ += 1;\n"
          "  }\n" +
          kGuardedClassSuffix);
  EXPECT_TRUE(findings.empty());
}

TEST(GuardedFieldTest, MutexLockScopeEndsAtItsBrace) {
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      std::string(kGuardedClassPrefix) +
          "  void Bump() {\n"
          "    {\n"
          "      MutexLock lock(&mu_);\n"
          "      count_ += 1;\n"
          "    }\n"
          "    count_ += 1;\n"
          "  }\n" +
          kGuardedClassSuffix);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 8);
}

TEST(GuardedFieldTest, AssertHeldAndRequiresCover) {
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      std::string(kGuardedClassPrefix) +
          "  void Asserted() {\n"
          "    mu_.AssertHeld();\n"
          "    count_ += 1;\n"
          "  }\n"
          "  void Required() REQUIRES(mu_) { count_ += 1; }\n" +
          kGuardedClassSuffix);
  EXPECT_TRUE(findings.empty());
}

TEST(GuardedFieldTest, RequiresOnHeaderDeclarationCoversTheDefinition) {
  // The REQUIRES lives on the in-class declaration; the out-of-line
  // definition in the same stem picks it up through TreeContext.
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      "class Counter {\n"
      " public:\n"
      "  void Bump() REQUIRES(mu_);\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int count_ GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "void Counter::Bump() { count_ += 1; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(GuardedFieldTest, ConstructorsAndShadowingLocalsAreExempt) {
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      "class Counter {\n"
      " public:\n"
      "  Counter() { count_ = 0; }\n"
      "  void Local() {\n"
      "    int count_ = 7;\n"
      "    (void)count_;\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int count_ GUARDED_BY(mu_) = 0;\n"
      "};\n");
  EXPECT_TRUE(findings.empty());
}

TEST(GuardedFieldTest, NolintSuppressesTheLine) {
  const auto findings = RuleFindings(
      kGuardRule, "src/service/fixture.cc",
      std::string(kGuardedClassPrefix) +
          "  void Broken() { count_ += 1; }"
          "  // NOLINT(analyze-guarded-field): fixture.\n" +
          kGuardedClassSuffix);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// The real tree.
// ---------------------------------------------------------------------------

// The tree the analyzer ships in has no findings; juggler_analyze fails on
// any. JUGGLER_SOURCE_DIR is injected by tests/CMakeLists.txt.
TEST(RealTreeTest, HasNoFindings) {
  for (const Finding& f : AnalyzeTree(JUGGLER_SOURCE_DIR)) {
    ADD_FAILURE() << "fix it or NOLINT it: " << FormatFinding(f);
  }
}

}  // namespace
}  // namespace juggler::analyze
