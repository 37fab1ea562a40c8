#ifndef JUGGLER_TESTS_TEST_MODELS_H_
#define JUGGLER_TESTS_TEST_MODELS_H_

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/juggler.h"

/// Small trained models and model directories shared by the test binaries.
namespace juggler::test {

/// \brief FNV-1a 64, the digest the golden tests pin. A word enters as its
/// eight bytes, low byte first; text enters byte by byte.
class Fnv1a {
 public:
  void AddWord(uint64_t word) {
    for (int i = 0; i < 8; ++i) AddByte((word >> (8 * i)) & 0xff);
  }
  void AddBytes(std::string_view bytes) {
    for (const char c : bytes) AddByte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(uint64_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ULL; }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Trains `app` on the small noise-free grid {4000, 8000, 16000} x
/// {1000, 2000, 4000} at `iterations`: deterministic, and cheap enough to
/// call once per test.
core::TrainedJuggler TrainSmall(const std::string& app, int iterations = 5);

/// Writes `trained` to `path` (fails the current test on error).
void SaveModel(const core::TrainedJuggler& trained,
               const std::filesystem::path& path);

/// A fresh empty directory `<prefix>_<test_name>_<pid>` under the test temp
/// dir: two processes running one test binary at once must not clear each
/// other's.
std::filesystem::path MakeModelDir(const std::string& prefix,
                                   const std::string& test_name);

}  // namespace juggler::test

#endif  // JUGGLER_TESTS_TEST_MODELS_H_
