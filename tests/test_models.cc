#include "test_models.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "core/serialization.h"
#include "workloads/workloads.h"

namespace juggler::test {

namespace fs = std::filesystem;

core::TrainedJuggler TrainSmall(const std::string& app, int iterations) {
  const auto w = workloads::GetWorkload(app).value();
  core::JugglerConfig config;
  config.time_grid =
      core::TrainingGrid{{4000, 8000, 16000}, {1000, 2000, 4000}, iterations};
  config.memory_reference = w.paper_params;
  config.run_options.noise_sigma = 0.0;
  config.run_options.straggler_prob = 0.0;
  auto training = core::TrainJuggler(app, w.make, config);
  EXPECT_TRUE(training.ok()) << training.status().ToString();
  return std::move(training)->trained;
}

void SaveModel(const core::TrainedJuggler& trained, const fs::path& path) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  ASSERT_TRUE(core::SaveTrainedJuggler(trained, out).ok());
}

fs::path MakeModelDir(const std::string& prefix, const std::string& test_name) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       (prefix + "_" + test_name + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

}  // namespace juggler::test
