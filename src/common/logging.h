#ifndef JUGGLER_COMMON_LOGGING_H_
#define JUGGLER_COMMON_LOGGING_H_

#include <cstdio>
#include <sstream>
#include <string>

namespace juggler {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Minimal leveled logger.
///
/// The library is mostly silent: lines below kWarning are dropped.
class Logger {
 public:
  /// One log statement; flushes on destruction.
  class Line {
   public:
    Line(LogLevel level, const char* file, int line) : level_(level) {
      stream_ << "[" << Name(level) << " " << Basename(file) << ":" << line
              << "] ";
    }
    ~Line() {
      if (level_ >= kThreshold) {
        stream_ << '\n';
        // fputs, not std::cerr: keeps <iostream> (and its per-TU static
        // initializer) out of this widely-included header, and a single
        // write keeps concurrent log lines from interleaving mid-line.
        const std::string text = stream_.str();
        std::fputs(text.c_str(), stderr);
      }
    }
    template <typename T>
    Line& operator<<(const T& v) {
      stream_ << v;
      return *this;
    }

   private:
    static const char* Name(LogLevel level) {
      switch (level) {
        case LogLevel::kDebug:
          return "DEBUG";
        case LogLevel::kInfo:
          return "INFO";
        case LogLevel::kWarning:
          return "WARN";
        case LogLevel::kError:
          return "ERROR";
      }
      return "?";
    }
    static const char* Basename(const char* file) {
      const char* base = file;
      for (const char* p = file; *p; ++p) {
        if (*p == '/') base = p + 1;
      }
      return base;
    }

    LogLevel level_;
    std::ostringstream stream_;
  };

 private:
  static constexpr LogLevel kThreshold = LogLevel::kWarning;
};

}  // namespace juggler

#define JUGGLER_LOG(level) \
  ::juggler::Logger::Line(::juggler::LogLevel::k##level, __FILE__, __LINE__)

#endif  // JUGGLER_COMMON_LOGGING_H_
