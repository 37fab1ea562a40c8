#ifndef JUGGLER_COMMON_THREAD_NAME_H_
#define JUGGLER_COMMON_THREAD_NAME_H_

#include <cstddef>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace juggler {

/// Names the calling thread so `top -H` and /proc/<pid>/task/*/comm
/// attribute CPU by role ("jg-loop", "jg-pool", ...). Linux only; a no-op
/// elsewhere. The kernel keeps at most 15 characters, checked at compile
/// time.
template <size_t N>
inline void SetCurrentThreadName(const char (&name)[N]) {
  static_assert(N <= 16, "thread names are at most 15 characters");
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

}  // namespace juggler

#endif  // JUGGLER_COMMON_THREAD_NAME_H_
