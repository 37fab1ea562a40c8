#include "tools/analyze/engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace juggler::analyze {
namespace {

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------------

TEST(LintNondeterminism, FlagsRandAndRandomDevice) {
  const std::string bad =
      "int Jitter() {\n"
      "  return rand() % 7;\n"
      "}\n"
      "std::random_device rd;\n"
      "std::mt19937 gen(rd());\n";
  const auto findings = AnalyzeFile("src/minispark/engine.cc", bad);
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 3);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintNondeterminism, AllowsRngHomeAndNonSrc) {
  const std::string uses = "std::random_device rd;\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/common/random.h",
                                   "#ifndef JUGGLER_COMMON_RANDOM_H_\n"
                                   "#define JUGGLER_COMMON_RANDOM_H_\n" +
                                       uses + "#endif\n"),
                       "nondeterminism"));
  EXPECT_FALSE(HasRule(AnalyzeFile("bench/bench_micro.cpp", uses),
                       "nondeterminism"));
}

TEST(LintNondeterminism, IgnoresCommentsStringsAndSubstrings) {
  const std::string ok =
      "// rand() is banned here\n"
      "const char* msg = \"do not call rand()\";\n"
      "int operand = 3;  /* srand */\n"
      "int random_device_count = 0;  // identifier, not std type? no:\n";
  // `random_device_count` is a longer identifier; boundary check must not
  // fire on the `random_device` prefix.
  EXPECT_FALSE(HasRule(AnalyzeFile("src/minispark/engine.cc", ok),
                       "nondeterminism"));
}

TEST(LintNondeterminism, NolintSuppresses) {
  const std::string suppressed =
      "int x = rand();  // NOLINT(nondeterminism): seeding torture test\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/minispark/engine.cc", suppressed),
                       "nondeterminism"));
}

// ---------------------------------------------------------------------------
// iostream-in-header
// ---------------------------------------------------------------------------

TEST(LintIostream, FlagsIostreamInLibraryHeader) {
  const std::string bad =
      "#ifndef JUGGLER_CORE_FOO_H_\n"
      "#define JUGGLER_CORE_FOO_H_\n"
      "#include <iostream>\n"
      "#endif\n";
  const auto findings = AnalyzeFile("src/core/foo.h", bad);
  EXPECT_TRUE(HasRule(findings, "iostream-in-header"));
}

TEST(LintIostream, AllowsIostreamInSourcesAndNonSrcHeaders) {
  EXPECT_FALSE(HasRule(AnalyzeFile("src/core/foo.cc", "#include <iostream>\n"),
                       "iostream-in-header"));
  EXPECT_FALSE(HasRule(
      AnalyzeFile("bench/bench_common.h",
                  "#ifndef JUGGLER_BENCH_BENCH_COMMON_H_\n"
                  "#define JUGGLER_BENCH_BENCH_COMMON_H_\n"
                  "#include <iostream>\n#endif\n"),
      "iostream-in-header"));
  EXPECT_FALSE(HasRule(AnalyzeFile("src/core/foo.cc", "#include <ostream>\n"),
                       "iostream-in-header"));
}

// ---------------------------------------------------------------------------
// naked-new
// ---------------------------------------------------------------------------

TEST(LintNakedNew, FlagsNewAndDelete) {
  EXPECT_TRUE(HasRule(AnalyzeFile("src/core/foo.cc", "auto* p = new Foo();\n"),
                      "naked-new"));
  EXPECT_TRUE(
      HasRule(AnalyzeFile("src/core/foo.cc", "delete p;\n"), "naked-new"));
  EXPECT_TRUE(
      HasRule(AnalyzeFile("src/core/foo.cc", "delete[] arr;\n"), "naked-new"));
}

TEST(LintNakedNew, AllowsDeletedMembersMakeUniqueAndNonSrc) {
  const std::string ok =
      "Foo(const Foo&) = delete;\n"
      "Foo& operator=(const Foo&) =\n"
      "    delete;\n"
      "auto p = std::make_unique<Foo>();\n"
      "int renewed = news();\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/core/foo.h", ok +
                                   std::string("#ifndef JUGGLER_CORE_FOO_H_\n"
                                               "#define JUGGLER_CORE_FOO_H_\n"
                                               "#endif\n")),
                       "naked-new"));
  EXPECT_FALSE(
      HasRule(AnalyzeFile("tests/foo_test.cc", "auto* p = new Foo();\n"),
              "naked-new"));
}

TEST(LintNakedNew, DigitSeparatorsDoNotOpenCharLiterals) {
  // Numbers with digit separators, then comments that say "new": the
  // separators' apostrophes must not be read as quotes, or the quoting goes
  // out of step and an apostrophe in a later comment turns its text into
  // code.
  for (const std::string ok : {
           "constexpr int kMillion = 1'000'000;  // a new cap\n",
           "constexpr long kBillion = 1'000'000'000;\n"
           "// The registry's new snapshot\n",
           "constexpr int kThousand = 1'000;\n"
           "// it's new\n",
           "constexpr double kStep = 0x1'0p-4;  // isn't new\n",
           "const char kQuote = '\\'';  // it's new\n",
       }) {
    EXPECT_FALSE(HasRule(AnalyzeFile("src/core/foo.cc", ok), "naked-new"))
        << ok;
  }
  // A real `new` after a separated number is still found.
  EXPECT_TRUE(HasRule(
      AnalyzeFile("src/core/foo.cc", "int n = 1'000; auto* p = new Foo();\n"),
      "naked-new"));
}

TEST(LintNakedNew, ApostropheInDirectiveDoesNotHideLaterLines) {
  // An apostrophe in a directive opens no literal past its own line, so the
  // code below it is still checked.
  const std::string bad =
      "#error don't do this\n"
      "auto* p = new Foo();\n";
  EXPECT_EQ(CountRule(AnalyzeFile("src/core/foo.cc", bad), "naked-new"), 1);
}

// ---------------------------------------------------------------------------
// raw-sync-primitive
// ---------------------------------------------------------------------------

TEST(LintRawSync, FlagsStdMutexFamilyInService) {
  const std::string bad =
      "std::mutex mu;\n"
      "std::lock_guard<std::mutex> lock(mu);\n"
      "std::condition_variable cv;\n";
  const auto findings = AnalyzeFile("src/service/foo.cc", bad);
  EXPECT_EQ(CountRule(findings, "raw-sync-primitive"), 3);
}

TEST(LintRawSync, AllowsWrappersAndOtherLayers) {
  EXPECT_FALSE(HasRule(
      AnalyzeFile("src/service/foo.cc", "MutexLock lock(mu_);\nCondVar cv_;\n"),
      "raw-sync-primitive"));
  // common/mutex.h legitimately wraps std::mutex; the rule is scoped to
  // src/service/ and src/net/.
  EXPECT_FALSE(HasRule(AnalyzeFile("src/common/other.cc", "std::mutex mu;\n"),
                       "raw-sync-primitive"));
}

TEST(LintRawSync, AppliesToNetSubsystem) {
  EXPECT_TRUE(HasRule(AnalyzeFile("src/net/foo.cc", "std::mutex mu;\n"),
                      "raw-sync-primitive"));
}

// ---------------------------------------------------------------------------
// raw-socket
// ---------------------------------------------------------------------------

TEST(LintRawSocket, FlagsSocketCallsOutsideNet) {
  const std::string bad =
      "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"
      "::send(fd, data, size, 0);\n"
      "recv(fd, buffer, size, 0);\n"
      "epoll_wait(ep, events, 64, -1);\n";
  const auto findings = AnalyzeFile("src/service/foo.cc", bad);
  EXPECT_EQ(CountRule(findings, "raw-socket"), 4);
}

TEST(LintRawSocket, AllowsNetSubsystemTestsAndBench) {
  const std::string uses = "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n";
  EXPECT_FALSE(
      HasRule(AnalyzeFile("src/net/socket_util.cc", uses), "raw-socket"));
  EXPECT_FALSE(
      HasRule(AnalyzeFile("tests/http_server_test.cc", uses), "raw-socket"));
  EXPECT_FALSE(
      HasRule(AnalyzeFile("bench/bench_http_server.cpp", uses), "raw-socket"));
  EXPECT_FALSE(
      HasRule(AnalyzeFile("examples/juggler_serve.cpp", uses), "raw-socket"));
}

TEST(LintRawSocket, IgnoresCommentsAndLongerIdentifiers) {
  const std::string ok =
      "// a socket front end would apply backpressure here\n"
      "int websocket_count = 0;\n"
      "void sender();\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/service/foo.cc", ok), "raw-socket"));
}

// ---------------------------------------------------------------------------
// unchecked-parse
// ---------------------------------------------------------------------------

TEST(LintUncheckedParse, FlagsEveryConversionFamilyOnUntrustedSurfaces) {
  const std::string bad =
      "int n = atoi(s.c_str());\n"
      "long l = std::strtol(s.c_str(), &end, 10);\n"
      "double d = strtod(s.c_str(), &end);\n"
      "int i = std::stoi(s);\n"
      "sscanf(s.c_str(), \"%d\", &n);\n";
  EXPECT_EQ(CountRule(AnalyzeFile("src/net/http.cc", bad), "unchecked-parse"),
            5);
  EXPECT_EQ(CountRule(AnalyzeFile("src/core/serialization.cc", bad),
                      "unchecked-parse"),
            5);
  EXPECT_EQ(CountRule(AnalyzeFile("src/minispark/cache_plan.cc", bad),
                      "unchecked-parse"),
            5);
  EXPECT_TRUE(HasRule(AnalyzeFile("src/net/json.cc", "v = atof(tok);\n"),
                      "unchecked-parse"));
}

TEST(LintUncheckedParse, ScopedToUntrustedSurfacesOnly) {
  const std::string uses = "int n = atoi(s.c_str());\n";
  // The helper's home and the rest of the tree are out of scope: the rule
  // exists to funnel the untrusted surfaces through common/parse.h, not to
  // ban the functions globally.
  EXPECT_FALSE(
      HasRule(AnalyzeFile("src/common/parse.h", uses), "unchecked-parse"));
  EXPECT_FALSE(
      HasRule(AnalyzeFile("src/minispark/engine.cc", uses), "unchecked-parse"));
  EXPECT_FALSE(
      HasRule(AnalyzeFile("tests/net_test.cc", uses), "unchecked-parse"));
}

TEST(LintUncheckedParse, IgnoresCommentsStringsHelpersAndNolint) {
  const std::string ok =
      "// strtod would accept \"inf\"; ParseFiniteDouble does not\n"
      "const char* kMsg = \"do not use atoi here\";\n"
      "uint64_t parsed = 0;\n"
      "if (!common::ParseUnsigned(value, &parsed)) return Fail(400);\n"
      "int histogram_count = 0;\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/net/http.cc", ok), "unchecked-parse"));
  const std::string suppressed =
      "int n = atoi(s.c_str());  // NOLINT: bounded by caller\n";
  EXPECT_FALSE(
      HasRule(AnalyzeFile("src/net/http.cc", suppressed), "unchecked-parse"));
}

// ---------------------------------------------------------------------------
// unannotated-mutex
// ---------------------------------------------------------------------------

TEST(LintUnannotatedMutex, FlagsMutexMemberWithoutGuardedBy) {
  const std::string bad =
      "#ifndef JUGGLER_SERVICE_FOO_H_\n"
      "#define JUGGLER_SERVICE_FOO_H_\n"
      "class Foo {\n"
      "  mutable Mutex mu_;\n"
      "  int counter_ = 0;\n"
      "};\n"
      "#endif\n";
  EXPECT_TRUE(HasRule(AnalyzeFile("src/service/foo.h", bad),
                      "unannotated-mutex"));
}

TEST(LintUnannotatedMutex, SatisfiedByGuardedBy) {
  const std::string good =
      "#ifndef JUGGLER_SERVICE_FOO_H_\n"
      "#define JUGGLER_SERVICE_FOO_H_\n"
      "class Foo {\n"
      "  mutable Mutex mu_;\n"
      "  int counter_ GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "#endif\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/service/foo.h", good),
                       "unannotated-mutex"));
}

// ---------------------------------------------------------------------------
// include-guard
// ---------------------------------------------------------------------------

TEST(LintIncludeGuard, FlagsPragmaOnce) {
  EXPECT_TRUE(HasRule(AnalyzeFile("src/core/foo.h", "#pragma once\n"),
                      "include-guard"));
}

TEST(LintIncludeGuard, FlagsMissingAndMismatchedGuards) {
  EXPECT_TRUE(
      HasRule(AnalyzeFile("src/core/foo.h", "int x;\n"), "include-guard"));
  const std::string mismatched =
      "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n";
  EXPECT_TRUE(HasRule(AnalyzeFile("src/core/foo.h", mismatched),
                      "include-guard"));
  const std::string unpaired =
      "#ifndef JUGGLER_CORE_FOO_H_\n#define SOMETHING_ELSE\n#endif\n";
  EXPECT_TRUE(
      HasRule(AnalyzeFile("src/core/foo.h", unpaired), "include-guard"));
}

TEST(LintIncludeGuard, AcceptsCanonicalGuard) {
  const std::string good =
      "#ifndef JUGGLER_CORE_FOO_H_\n"
      "#define JUGGLER_CORE_FOO_H_\n"
      "int x;\n"
      "#endif  // JUGGLER_CORE_FOO_H_\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/core/foo.h", good), "include-guard"));
}

TEST(LintIncludeGuard, CanonicalGuardDropsSrcPrefixOnly) {
  EXPECT_EQ(CanonicalGuard("src/common/status.h"), "JUGGLER_COMMON_STATUS_H_");
  EXPECT_EQ(CanonicalGuard("bench/bench_common.h"),
            "JUGGLER_BENCH_BENCH_COMMON_H_");
  EXPECT_EQ(CanonicalGuard("tools/lint/lint_rules.h"),
            "JUGGLER_TOOLS_LINT_LINT_RULES_H_");
}

// ---------------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------------

TEST(LintBlockingUnderLock, FlagsRpcAndSleepUnderLiveLock) {
  const std::string bad =
      "void Foo::Tick() {\n"
      "  MutexLock lock(mu_);\n"
      "  auto reply = client->Call(type, payload);\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "}\n";
  const auto findings = AnalyzeFile("src/cluster/foo.cc", bad);
  EXPECT_EQ(CountRule(findings, "blocking-under-lock"), 2);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintBlockingUnderLock, FlagsResolveOnTheDeclarationLine) {
  // The lock is live from its declaration onward, including later on the
  // same line.
  const std::string bad =
      "void F() { MutexLock lock(mu_); registry->Resolve(app); }\n";
  EXPECT_TRUE(HasRule(AnalyzeFile("src/service/foo.cc", bad),
                      "blocking-under-lock"));
}

TEST(LintBlockingUnderLock, AllowsBlockingAfterScopeCloses) {
  const std::string good =
      "void Foo::Tick() {\n"
      "  {\n"
      "    MutexLock lock(mu_);\n"
      "    queue_.push_back(task);\n"
      "  }\n"
      "  auto reply = client->Call(type, payload);\n"
      "}\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/cluster/foo.cc", good),
                       "blocking-under-lock"));
}

TEST(LintBlockingUnderLock, PingAndRouterForwardAreRoundTrips) {
  const std::string bad =
      "void Foo::Probe() {\n"
      "  MutexLock lock(mu_);\n"
      "  healthy_ = client->Ping().ok();\n"
      "  auto reply = router->Forward(type, key, payload);\n"
      "}\n";
  const auto findings = AnalyzeFile("src/cluster/foo.cc", bad);
  EXPECT_EQ(CountRule(findings, "blocking-under-lock"), 2);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].line, 4);

  const std::string good =
      "void Foo::Probe() {\n"
      "  {\n"
      "    MutexLock lock(mu_);\n"
      "    ++probes_;\n"
      "  }\n"
      "  healthy_ = client->Ping().ok();\n"
      "  auto reply = router->Forward(type, key, payload);\n"
      "}\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/cluster/foo.cc", good),
                       "blocking-under-lock"));
}

TEST(LintBlockingUnderLock, ForwardAndWaitIsARoundTrip) {
  const std::string bad =
      "void Foo::Reload() {\n"
      "  MutexLock lock(mu_);\n"
      "  auto results = router->ForwardAndWait(plan);\n"
      "}\n";
  const auto findings = AnalyzeFile("src/cluster/foo.cc", bad);
  EXPECT_EQ(CountRule(findings, "blocking-under-lock"), 1);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].line, 3);

  const std::string good =
      "void Foo::Reload() {\n"
      "  {\n"
      "    MutexLock lock(mu_);\n"
      "    ++reloads_;\n"
      "  }\n"
      "  auto results = router->ForwardAndWait(plan);\n"
      "}\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/cluster/foo.cc", good),
                       "blocking-under-lock"));
}

TEST(LintBlockingUnderLock, CondVarWaitIsExemptAndNolintSuppresses) {
  const std::string wait_ok =
      "void F() {\n"
      "  MutexLock lock(mu_);\n"
      "  while (!done_) cv_.Wait(mu_);\n"
      "}\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/service/foo.cc", wait_ok),
                       "blocking-under-lock"));
  const std::string suppressed =
      "void F() {\n"
      "  MutexLock lock(mu_);\n"
      "  Resolve(app);  // NOLINT(blocking-under-lock): startup only\n"
      "}\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/service/foo.cc", suppressed),
                       "blocking-under-lock"));
}

// ---------------------------------------------------------------------------
// lock-in-destructor
// ---------------------------------------------------------------------------

TEST(LintLockInDestructor, FlagsMutexLockAndRawLockInDtorBody) {
  const std::string bad =
      "Foo::~Foo() {\n"
      "  MutexLock lock(mu_);\n"
      "  pool_.clear();\n"
      "}\n"
      "Bar::~Bar() { mu_.Lock(); mu_.Unlock(); }\n";
  const auto findings = AnalyzeFile("src/service/foo.cc", bad);
  EXPECT_EQ(CountRule(findings, "lock-in-destructor"), 2);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 5);
}

TEST(LintLockInDestructor, AllowsLocksOutsideDtorAndPlainDtors) {
  const std::string good =
      "Foo::~Foo() { Stop(); }\n"       // Indirection is the sanctioned form.
      "~Foo();\n"                        // Declaration only.
      "virtual ~Bar() = default;\n"
      "void Foo::Stop() {\n"
      "  MutexLock lock(mu_);\n"
      "  pool_.clear();\n"
      "}\n"
      "int x = ~Mask(3);\n";             // Bitwise-not expression, not a dtor.
  EXPECT_FALSE(HasRule(AnalyzeFile("src/service/foo.cc", good),
                       "lock-in-destructor"));
}

TEST(LintLockInDestructor, UnlockInRaiiDtorIsAllowed) {
  // The RAII guard's own destructor *releases*; "Unlock" must not match the
  // "Lock" token.
  const std::string good = "~MutexLock() RELEASE() { mu_.Unlock(); }\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/common/foo.h",
                                   "#ifndef JUGGLER_COMMON_FOO_H_\n"
                                   "#define JUGGLER_COMMON_FOO_H_\n" +
                                       good + "#endif\n"),
                       "lock-in-destructor"));
}

// ---------------------------------------------------------------------------
// condvar-wait-predicate
// ---------------------------------------------------------------------------

TEST(LintCondvarWait, FlagsBareSingleArgumentWait) {
  const std::string bad =
      "void F() {\n"
      "  MutexLock lock(mu_);\n"
      "  cv_.Wait(mu_);\n"
      "}\n"
      "void G(std::unique_lock<std::mutex>& lk) {\n"
      "  cv.wait(lk);\n"
      "}\n";
  const auto findings = AnalyzeFile("tests/foo_test.cc", bad);
  EXPECT_EQ(CountRule(findings, "condvar-wait-predicate"), 2);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintCondvarWait, AllowsGuardedPredicateAndMultiArgForms) {
  const std::string good =
      "while (!shutdown_ && queue_.empty()) work_available_.Wait(mu_);\n"
      "cv.wait(lock, [&] { return ready; });\n"
      "poller_->Wait(kLoopTickMs, &events);\n"  // Two args: not a cv wait.
      "future.wait();\n"                         // Zero args: a join.
      "while (!done_) {\n"
      "  cv_.Wait(mu_);\n"                       // Loop two lines above.
      "}\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/service/foo.cc", good),
                       "condvar-wait-predicate"));
}

TEST(LintCondvarWait, DeclarationsDoNotTrip) {
  const std::string good =
      "void Wait(Mutex& mu) REQUIRES(mu);\n"
      "Status Wait(int timeout_ms);\n";
  EXPECT_FALSE(HasRule(AnalyzeFile("src/common/foo.h",
                                   "#ifndef JUGGLER_COMMON_FOO_H_\n"
                                   "#define JUGGLER_COMMON_FOO_H_\n" +
                                       good + "#endif\n"),
                       "condvar-wait-predicate"));
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

TEST(LintFormat, FindingFormatIsStable) {
  const Finding f{"src/core/foo.cc", 12, "naked-new", "message"};
  EXPECT_EQ(FormatFinding(f), "src/core/foo.cc:12: [naked-new] message");
}

}  // namespace
}  // namespace juggler::analyze
