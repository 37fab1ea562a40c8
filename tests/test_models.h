#ifndef JUGGLER_TESTS_TEST_MODELS_H_
#define JUGGLER_TESTS_TEST_MODELS_H_

#include <filesystem>
#include <string>

#include "core/juggler.h"

/// Small trained models and model directories shared by the test binaries.
namespace juggler::test {

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
