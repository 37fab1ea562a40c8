/// The eleven line-scoped rules. Each matches per line over
/// `FileUnit::code_lines` (comments and literals blanked) and decides its own
/// scope from the file's path; NOLINT suppression is applied by the engine.

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/passes.h"

namespace juggler::analyze {

namespace {

/// Position of `token` in `line` with identifier-boundary checks on both
/// ends, or npos. `token` may itself contain non-identifier chars ("::").
size_t FindToken(const std::string& line, const std::string& token,
                 size_t from = 0) {
  for (size_t pos = line.find(token, from); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

bool HasToken(const std::string& line, const std::string& token) {
  return FindToken(line, token) != std::string::npos;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeader(const std::string& rel_path) { return EndsWith(rel_path, ".h"); }

/// Last non-space character before `pos`, or '\0'.
char PrevNonSpace(const std::string& line, size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(line[pos]))) return line[pos];
  }
  return '\0';
}

/// Extracts the identifier starting at `pos` (which must be an identifier
/// start position) and returns one-past-its-end.
size_t IdentEnd(const std::string& line, size_t pos) {
  size_t end = pos;
  while (end < line.size() && IsIdentChar(line[end])) ++end;
  return end;
}

/// True when an identifier token starts at `pos` (boundary on the left).
bool IsIdentStart(const std::string& line, size_t pos) {
  return IsIdentChar(line[pos]) && (pos == 0 || !IsIdentChar(line[pos - 1]));
}

void Add(const FileUnit& unit, std::vector<Finding>* findings, size_t i,
         std::string rule, std::string message) {
  findings->push_back(Finding{unit.rel_path, static_cast<int>(i + 1),
                              std::move(rule), std::move(message)});
}

bool InSrc(const FileUnit& u) { return StartsWith(u.rel_path, "src/"); }
bool InNet(const FileUnit& u) { return StartsWith(u.rel_path, "src/net/"); }

class NondeterminismPass final : public Pass {
 public:
  const char* name() const override { return "nondeterminism"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!InSrc(unit) || unit.rel_path == "src/common/random.h") return;
    static const char* const kBanned[] = {
        "rand",        "srand",        "rand_r",
        "random_device", "mt19937",    "mt19937_64",
        "default_random_engine",
    };
    const std::vector<std::string>& code = unit.code_lines;
    for (size_t i = 0; i < code.size(); ++i) {
      for (const char* token : kBanned) {
        if (HasToken(code[i], token)) {
          Add(unit, findings, i, name(),
              std::string("'") + token +
                  "' is banned: route randomness through the seedable "
                  "juggler::Rng (common/random.h) so runs are reproducible");
          break;  // One finding per line is enough.
        }
      }
    }
  }
};

class IostreamInHeaderPass final : public Pass {
 public:
  const char* name() const override { return "iostream-in-header"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!InSrc(unit) || !IsHeader(unit.rel_path)) return;
    const std::vector<std::string>& code = unit.code_lines;
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i].find("#include") != std::string::npos &&
          code[i].find("<iostream>") != std::string::npos) {
        Add(unit, findings, i, name(),
            "library headers must not include <iostream> (static "
            "initializer in every TU); use <ostream> or <cstdio>");
      }
    }
  }
};

class NakedNewPass final : public Pass {
 public:
  const char* name() const override { return "naked-new"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!InSrc(unit)) return;
    const std::vector<std::string>& code = unit.code_lines;
    // Last non-space char before position `pos` of line `i`, looking through
    // preceding lines (a deleted member's `=` can sit on the previous line).
    const auto prev_char = [&code](size_t i, size_t pos) -> char {
      char c = PrevNonSpace(code[i], pos);
      while (c == '\0' && i > 0) {
        --i;
        c = PrevNonSpace(code[i], code[i].size());
      }
      return c;
    };
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      if (size_t pos = FindToken(line, "new"); pos != std::string::npos) {
        Add(unit, findings, i, name(),
            "naked 'new' is banned in src/; use std::make_unique / "
            "std::make_shared");
      }
      for (size_t pos = FindToken(line, "delete"); pos != std::string::npos;
           pos = FindToken(line, "delete", pos + 1)) {
        if (prev_char(i, pos) == '=') continue;  // `= delete;` member.
        Add(unit, findings, i, name(),
            "naked 'delete' is banned in src/; owning pointers must be "
            "smart pointers");
        break;
      }
    }
  }
};

class RawSyncPrimitivePass final : public Pass {
 public:
  const char* name() const override { return "raw-sync-primitive"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!StartsWith(unit.rel_path, "src/service/") && !InNet(unit)) return;
    static const char* const kBanned[] = {
        "std::mutex",          "std::lock_guard",  "std::unique_lock",
        "std::scoped_lock",    "std::shared_mutex", "std::condition_variable",
        "std::condition_variable_any",
    };
    const std::vector<std::string>& code = unit.code_lines;
    for (size_t i = 0; i < code.size(); ++i) {
      for (const char* token : kBanned) {
        if (HasToken(code[i], token)) {
          Add(unit, findings, i, name(),
              std::string(token) +
                  " is banned in src/service/ and src/net/: use the "
                  "annotated Mutex / MutexLock / CondVar from "
                  "common/mutex.h so -Wthread-safety can verify lock "
                  "discipline");
          break;
        }
      }
    }
  }
};

class RawSocketPass final : public Pass {
 public:
  const char* name() const override { return "raw-socket"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!InSrc(unit) || InNet(unit)) return;
    // Everything the net subsystem wraps. `bind`/`connect`/`listen` are
    // deliberately absent (std::bind and API names would false-positive);
    // a transport that listens still needs `socket`, which does fire.
    static const char* const kBanned[] = {
        "socket",     "accept",        "accept4",   "send",
        "recv",       "sendto",        "recvfrom",  "sendmsg",
        "recvmsg",    "setsockopt",    "getsockopt", "epoll_create1",
        "epoll_ctl",  "epoll_wait",
    };
    const std::vector<std::string>& code = unit.code_lines;
    for (size_t i = 0; i < code.size(); ++i) {
      for (const char* token : kBanned) {
        if (HasToken(code[i], token)) {
          Add(unit, findings, i, name(),
              std::string("'") + token +
                  "' is banned in src/ outside src/net/: all socket I/O "
                  "goes through the net subsystem (src/net/socket_util.h, "
                  "HttpServer) so non-blocking/EINTR/SIGPIPE handling "
                  "lives in one audited place");
          break;
        }
      }
    }
  }
};

class UncheckedParsePass final : public Pass {
 public:
  const char* name() const override { return "unchecked-parse"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    // The surfaces that parse untrusted bytes: the HTTP/JSON tier and the
    // model-artifact loader (serialization + the plan grammar it embeds).
    const bool parses_untrusted =
        InNet(unit) || StartsWith(unit.rel_path, "src/core/serialization") ||
        StartsWith(unit.rel_path, "src/minispark/cache_plan");
    if (!parses_untrusted) return;
    // Every one of these either ignores overflow (atoi family), needs a
    // manual errno dance nobody gets right inline (strto* family), or throws
    // (sto* family) — three different failure modes for the same job.
    static const char* const kBanned[] = {
        "atoi",   "atol",   "atoll",   "atof",    "strtol", "strtoul",
        "strtoll", "strtoull", "strtod", "strtof", "strtold", "stoi",
        "stol",   "stoll",  "stoul",   "stoull",  "stof",   "stod",
        "stold",  "sscanf",
    };
    const std::vector<std::string>& code = unit.code_lines;
    for (size_t i = 0; i < code.size(); ++i) {
      for (const char* token : kBanned) {
        if (HasToken(code[i], token)) {
          Add(unit, findings, i, name(),
              std::string("'") + token +
                  "' is banned on untrusted-byte surfaces (src/net/ and "
                  "the artifact loader): use ParseUnsigned / "
                  "ParseFiniteDouble from common/parse.h, which reject "
                  "overflow, trailing garbage, and non-finite values");
          break;
        }
      }
    }
  }
};

class UnannotatedMutexPass final : public Pass {
 public:
  const char* name() const override { return "unannotated-mutex"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!InSrc(unit) || !IsHeader(unit.rel_path)) return;
    const std::vector<std::string>& code = unit.code_lines;
    for (const std::string& line : code) {
      if (HasToken(line, "GUARDED_BY") || HasToken(line, "PT_GUARDED_BY")) {
        return;
      }
    }
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      // A mutex *data member* declaration: "Mutex name_;" or "mutable Mutex
      // name;", possibly preceded by indentation.
      size_t pos = FindToken(line, "Mutex");
      if (pos == std::string::npos) pos = FindToken(line, "std::mutex");
      if (pos == std::string::npos) continue;
      const std::string rest = line.substr(pos);
      // Require "<type> <identifier> ;" shape to skip parameters/usages, and
      // skip reference/pointer members (non-owning; the pointee's home file
      // carries the annotations).
      std::istringstream tokens(rest);
      std::string type, mname;
      tokens >> type >> mname;
      if (mname.empty() || mname.back() != ';') continue;
      if (type.back() == '&' || type.back() == '*' || mname.front() == '&' ||
          mname.front() == '*') {
        continue;
      }
      Add(unit, findings, i, name(),
          "mutex member in a header with no GUARDED_BY annotations: "
          "declare what this lock protects (see "
          "common/thread_annotations.h)");
    }
  }
};

class IncludeGuardPass final : public Pass {
 public:
  const char* name() const override { return "include-guard"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    if (!IsHeader(unit.rel_path)) return;
    const std::vector<std::string>& code = unit.code_lines;
    const std::string want = CanonicalGuard(unit.rel_path);
    int ifndef_line = -1;
    std::string got;
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      if (line.find("#pragma") != std::string::npos &&
          HasToken(line, "once")) {
        Add(unit, findings, i, name(),
            "#pragma once is banned; use the canonical include guard " + want);
        return;
      }
      if (ifndef_line < 0) {
        const size_t pos = line.find("#ifndef");
        if (pos != std::string::npos) {
          ifndef_line = static_cast<int>(i);
          std::istringstream tokens(line.substr(pos + 7));
          tokens >> got;
        }
      }
    }
    if (ifndef_line < 0) {
      Add(unit, findings, 0, name(),
          "header has no include guard; expected " + want);
      return;
    }
    if (got != want) {
      Add(unit, findings, static_cast<size_t>(ifndef_line), name(),
          "include guard '" + got + "' does not match canonical '" + want +
              "'");
      return;
    }
    // The #define must follow immediately (allowing one blank line).
    const size_t limit =
        std::min(code.size(), static_cast<size_t>(ifndef_line) + 3);
    for (size_t i = static_cast<size_t>(ifndef_line) + 1; i < limit; ++i) {
      if (code[i].find("#define") != std::string::npos &&
          HasToken(code[i], want)) {
        return;
      }
    }
    Add(unit, findings, static_cast<size_t>(ifndef_line), name(),
        "#ifndef " + want + " is not followed by '#define " + want + "'");
  }
};

class BlockingUnderLockPass final : public Pass {
 public:
  const char* name() const override { return "blocking-under-lock"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    // Repo-wide: tests and benches hold the same locks the library does.
    // Everything here either parks the thread (sleep family), performs I/O
    // that can block indefinitely (syscalls, streams), or is a repo entry
    // point that does one of those internally. CondVar::Wait is deliberately
    // NOT here: it releases the mutex while blocked.
    static const char* const kBanned[] = {
        // Thread parking.
        "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
        // Blocking syscalls (poll/select/connect/accept/recv/send family).
        "poll", "select", "epoll_wait", "connect", "accept", "accept4",
        "recv", "recvfrom", "recvmsg", "send", "sendto", "sendmsg",
        "fsync", "fdatasync", "system", "popen",
        // File I/O entry points.
        "fopen", "ifstream", "ofstream", "fstream",
        // Repo blocking entry points: RPC round-trips and registry file I/O.
        "Call", "Ping", "Forward", "Dial", "Resolve", "Lookup", "Refresh",
        "ForwardRecommend", "ForwardAndWait",
    };
    const auto is_banned = [](const std::string& ident) {
      for (const char* token : kBanned) {
        if (ident == token) return true;
      }
      return false;
    };

    const std::vector<std::string>& code = unit.code_lines;
    int depth = 0;
    std::vector<int> lock_depths;  // Brace depth at each live MutexLock.
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      bool flagged_this_line = false;
      for (size_t pos = 0; pos < line.size(); ++pos) {
        const char c = line[pos];
        if (c == '{') {
          ++depth;
        } else if (c == '}') {
          --depth;
          while (!lock_depths.empty() && lock_depths.back() > depth) {
            lock_depths.pop_back();
          }
        } else if (IsIdentStart(line, pos)) {
          const size_t end = IdentEnd(line, pos);
          const std::string ident = line.substr(pos, end - pos);
          if (ident == "MutexLock") {
            lock_depths.push_back(depth);
          } else if (!lock_depths.empty() && !flagged_this_line &&
                     is_banned(ident)) {
            Add(unit, findings, i, name(),
                "'" + ident +
                    "' while a MutexLock is live in this scope: blocking "
                    "calls (sleep/syscall/RPC/Resolve/file I/O) must run "
                    "with the lock released — copy state out, unlock, then "
                    "block (escape: NOLINT(blocking-under-lock))");
            flagged_this_line = true;
          }
          pos = end - 1;
        }
      }
    }
  }
};

class LockInDestructorPass final : public Pass {
 public:
  const char* name() const override { return "lock-in-destructor"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    // A destructor that takes a lock is a lifetime bug factory: destruction
    // order is the one place C++ runs code after "no more references" was
    // decided. Destructors should hand off to an explicit Stop()/Shutdown().
    static const char* const kBanned[] = {
        "MutexLock", "Lock",        "TryLock",
        "lock_guard", "unique_lock", "scoped_lock",
    };
    const auto is_banned = [](const std::string& ident) {
      for (const char* token : kBanned) {
        if (ident == token) return true;
      }
      return false;
    };

    const std::vector<std::string>& code = unit.code_lines;
    enum class Mode { kScan, kAwaitBody, kInDtor };
    Mode mode = Mode::kScan;
    int depth = 0;       // Brace depth, tracked everywhere.
    int body_depth = 0;  // Depth of the destructor body while kInDtor.
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      for (size_t pos = 0; pos < line.size(); ++pos) {
        const char c = line[pos];
        if (c == '{') {
          ++depth;
          if (mode == Mode::kAwaitBody) {
            mode = Mode::kInDtor;
            body_depth = depth;
          }
          continue;
        }
        if (c == '}') {
          --depth;
          if (mode == Mode::kInDtor && depth < body_depth) mode = Mode::kScan;
          continue;
        }
        if (mode == Mode::kAwaitBody) {
          // Between "~Name(" and its body: a ';' first means this was only a
          // declaration (~Foo();, = default;) or an expression — not a body.
          if (c == ';') mode = Mode::kScan;
          continue;
        }
        if (c == '~' && pos + 1 < line.size() && IsIdentChar(line[pos + 1])) {
          // "~Name" followed (after optional spaces) by '(' on the same
          // line: destructor-shaped.
          const size_t end = IdentEnd(line, pos + 1);
          size_t after = end;
          while (after < line.size() && line[after] == ' ') ++after;
          if (after < line.size() && line[after] == '(') {
            mode = Mode::kAwaitBody;
            pos = after;  // Continue scanning after the '('.
          }
          continue;
        }
        if (mode == Mode::kInDtor && IsIdentStart(line, pos)) {
          const size_t end = IdentEnd(line, pos);
          const std::string ident = line.substr(pos, end - pos);
          if (is_banned(ident)) {
            Add(unit, findings, i, name(),
                "'" + ident +
                    "' inside a destructor: destructors must not acquire "
                    "locks (destruction races the last unlock; move the "
                    "locking into an explicit Stop()/Shutdown() the owner "
                    "calls first; escape: NOLINT(lock-in-destructor))");
          }
          pos = end - 1;
        }
      }
    }
  }
};

class CondvarWaitPredicatePass final : public Pass {
 public:
  const char* name() const override { return "condvar-wait-predicate"; }
  void Run(const FileUnit& unit, const TreeContext&,
           std::vector<Finding>* findings) const override {
    // A condvar wait without a guarding loop is wrong twice over: spurious
    // wakeups are allowed by the standard, and a notify can land between the
    // condition check and the wait.
    static const char* const kWaitNames[] = {"Wait", "wait"};
    const auto has_loop_keyword = [](const std::string& line) {
      return HasToken(line, "while") || HasToken(line, "do") ||
             HasToken(line, "for");
    };
    const std::vector<std::string>& code = unit.code_lines;
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string& line = code[i];
      for (const char* wait_name : kWaitNames) {
        for (size_t pos = FindToken(line, wait_name); pos != std::string::npos;
             pos = FindToken(line, wait_name, pos + 1)) {
          // Member-call shape only (`.wait(` / `->Wait(`): skips
          // declarations and unrelated free functions.
          if (pos == 0 || (line[pos - 1] != '.' && line[pos - 1] != '>')) {
            continue;
          }
          size_t after = pos + std::string(wait_name).size();
          while (after < line.size() && line[after] == ' ') ++after;
          if (after >= line.size() || line[after] != '(') continue;
          // Argument text up to the matching ')' (or end of line).
          int parens = 1;
          size_t arg_end = after + 1;
          while (arg_end < line.size() && parens > 0) {
            if (line[arg_end] == '(') ++parens;
            if (line[arg_end] == ')') --parens;
            ++arg_end;
          }
          const std::string args =
              line.substr(after + 1, arg_end - after - (parens == 0 ? 2 : 1));
          // A comma means a predicate (or a timeout overload) is present; an
          // empty argument list is not a condvar wait (futures, threads).
          if (args.find(',') != std::string::npos) continue;
          if (args.find_first_not_of(' ') == std::string::npos) continue;
          // Single-argument wait: require a guarding loop on this line or
          // one of the two preceding non-blank lines.
          bool guarded = has_loop_keyword(line.substr(0, pos));
          for (size_t back = i, seen = 0; !guarded && back > 0 && seen < 2;) {
            --back;
            if (code[back].find_first_not_of(' ') == std::string::npos) {
              continue;
            }
            ++seen;
            guarded = has_loop_keyword(code[back]);
          }
          if (!guarded) {
            Add(unit, findings, i, name(),
                "condition-variable wait with no predicate and no guarding "
                "while/do loop in sight: spurious wakeups and lost "
                "notifies make an unguarded wait a hang; write `while "
                "(!cond) cv.Wait(mu);` or pass a predicate (escape: "
                "NOLINT(condvar-wait-predicate))");
          }
        }
      }
    }
  }
};

}  // namespace

const std::vector<const Pass*>& LinePasses() {
  static const std::vector<const Pass*>* passes = [] {
    return new std::vector<const Pass*>{
        new NondeterminismPass,       new IostreamInHeaderPass,
        new NakedNewPass,             new RawSyncPrimitivePass,
        new RawSocketPass,            new UncheckedParsePass,
        new UnannotatedMutexPass,     new IncludeGuardPass,
        new BlockingUnderLockPass,    new LockInDestructorPass,
        new CondvarWaitPredicatePass,
    };
  }();
  return *passes;
}

}  // namespace juggler::analyze
