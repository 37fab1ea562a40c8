// juggler_perfbench: the repository's serving benchmark. Starts a real
// serving stack in-process, drives one named workload open-loop from a seed,
// checks the answers against direct model evaluation, and prints every
// metric with its unit. See perfbench/README.md.
//
//   juggler_perfbench --workload warm_recurring|cold_unique|cluster_online
//                     --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced layer
// ledger (with the tail latency and the rate ramp) instead and prints the
// per-layer metrics. The last line of stdout
// is one JSON object; progress goes to stderr.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "ledger.h"

using namespace juggler::perfbench;  // NOLINT

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

int RunEndToEnd(const RunContext& ctx) {
  // Set-up: train into a fresh registry, load, start. The first set-up's
  // stack serves; one more runs after each block of fixed-rate windows
  // (1 + kFixedWindows / kWindowsPerBlock in all). Each is timed right
  // after a machine probe and read at reference speed; median kept.
  std::vector<double> raw_s;
  std::vector<double> setup_s;
  const auto timed_setup = [&](ModelSet* models,
                               std::unique_ptr<Stack>* stack) {
    const double probe_s = ProbeMachine();
    raw_s.push_back(SetUp(
        ctx, ctx.run_dir / ("setup-" + std::to_string(raw_s.size())),
        nullptr, models, stack));
    setup_s.push_back(raw_s.back() * kReferenceProbeS / probe_s);
  };
  ModelSet models;
  std::unique_ptr<Stack> stack;
  timed_setup(&models, &stack);
  const auto repeat_setup = [&](int window) {
    if ((window + 1) % kWindowsPerBlock != 0) return;
    ModelSet unused_models;
    std::unique_ptr<Stack> unused_stack;
    timed_setup(&unused_models, &unused_stack);
    unused_stack->Stop();
  };

  const LivePass pass = RunLivePass(ctx, models, stack.get(),
                                    0.9 * ctx.seconds, 0.0, nullptr,
                                    repeat_setup);
  const FixedRateSummary& fixed = pass.fixed;
  const double setup = Median(setup_s);
  std::fprintf(stderr,
               "setup: %.3f s at reference speed, median of %zu (measured "
               "%.3f to %.3f s)\n",
               setup, setup_s.size(),
               *std::min_element(raw_s.begin(), raw_s.end()),
               *std::max_element(raw_s.begin(), raw_s.end()));

  const bool correct = Correct(fixed, ctx.spec->p99_limit_ms);
  PrintResult(correct, fixed.attempted, fixed.failed,
              {{"p50_ms", fixed.p50_ms, "ms"},
               {"server_cpu_us_per_req", fixed.server_cpu_us_per_req, "us"},
               {"ok_ratio", 1.0 - fixed.error_ratio(), "ratio"},
               {"setup_s", setup, "s"},
               {"rss_mb", fixed.rss_mb, "MB"}});
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  RunContext ctx;
  ctx.spec = FindWorkload(args.workload);
  if (ctx.spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.run_dir = fs::absolute(fs::path(args.work_dir) /
                             ("run-" + std::to_string(::getpid())));
  fs::create_directories(ctx.run_dir);
  PartitionCpus(ctx.spec->stack_cpus);
  const int code = args.trace == 1 ? RunTraced(ctx) : RunEndToEnd(ctx);
  std::error_code ignored;
  fs::remove_all(ctx.run_dir, ignored);
  return code;
}
