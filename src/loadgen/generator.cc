#include "loadgen/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/random.h"

namespace juggler::loadgen {

namespace {

constexpr int64_t kSliceMs = 100;

/// Distinct parameter combinations per app. Few keeps the prediction cache
/// hot (recurring questions, the paper's case).
constexpr int kParamCombos = 6;

/// Stable 64-bit string hash (FNV-1a) so per-app derived streams do not
/// depend on std::hash's implementation.
uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendNumber(std::string* out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  out->append(buffer);
}

/// One recurring question: the params of a valid recommend request. A small
/// per-app pool makes questions recur, which is what exercises the
/// prediction cache and mirrors the paper's recurring-workload setting.
struct ParamCombo {
  double examples = 0.0;
  double features = 0.0;
  int iterations = 1;
};

std::vector<ParamCombo> MakeCombos(const std::string& app, uint64_t seed,
                                   int count) {
  Rng rng(seed ^ Fnv1a(app));
  std::vector<ParamCombo> combos;
  combos.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    ParamCombo combo;
    combo.examples = static_cast<double>(rng.UniformInt(2'000, 20'000));
    combo.features = static_cast<double>(rng.UniformInt(100, 2'000));
    combo.iterations = static_cast<int>(rng.UniformInt(1, 10));
    combos.push_back(combo);
  }
  return combos;
}

/// Cumulative zipf weights over ranks 0..n-1: weight(r) = 1/(r+1)^s.
std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& value : cdf) value /= total;
  return cdf;
}

size_t SampleRank(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<size_t>(it - cdf.begin());
}

/// Rank -> app-index permutation for one popularity epoch. Re-deriving the
/// whole permutation from (seed, phase, epoch) keeps generation a pure
/// function of the trace: epoch k of phase p is the same however many events
/// preceded it.
std::vector<size_t> EpochPermutation(size_t n, uint64_t seed, size_t phase,
                                     int64_t epoch) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (phase + 1)) ^
          (0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(epoch + 1)));
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
  }
  return perm;
}

std::string RecommendBody(const std::string& app, const ParamCombo& combo) {
  std::string body = "{\"app\":\"";
  body.append(app);
  body.append("\",\"params\":{\"examples\":");
  AppendNumber(&body, combo.examples);
  body.append(",\"features\":");
  AppendNumber(&body, combo.features);
  body.append(",\"iterations\":");
  body.append(std::to_string(combo.iterations));
  body.append("}}");
  return body;
}

std::string ObserveBody(const std::string& app, const ParamCombo& combo,
                        Rng* rng) {
  std::string body = "[{\"kind\":\"run_time\",\"app\":\"";
  body.append(app);
  body.append("\",\"target\":");
  body.append(std::to_string(rng->UniformInt(1, 8)));
  body.append(",\"model_version\":1,\"params\":{\"examples\":");
  AppendNumber(&body, combo.examples);
  body.append(",\"features\":");
  AppendNumber(&body, combo.features);
  body.append(",\"iterations\":");
  body.append(std::to_string(combo.iterations));
  body.append("},\"value\":");
  AppendNumber(&body, rng->Uniform(500.0, 5'000.0));
  body.append("}]");
  return body;
}

/// Adversarial raw-byte samples used when no fuzz corpus is wired in. Each
/// is a full client transmission for a throwaway connection.
std::vector<std::string> BuiltinMalformed() {
  std::vector<std::string> pool;
  pool.push_back("this is not http at all\r\n\r\n");
  pool.push_back("GET / HTTP/9.9\r\n\r\n");
  pool.push_back(
      "POST /v1/recommend HTTP/1.1\r\n"
      "Content-Length: 18446744073709551617\r\n\r\n");
  pool.push_back(
      "POST /v1/recommend HTTP/1.1\r\n"
      "Content-Length: banana\r\n\r\n{}");
  pool.push_back(std::string("\x00\xff\x13\x37GARBAGE\x00\r\n\r\n", 16));
  pool.push_back(
      "POST /v1/recommend HTTP/1.1\r\n"
      "Content-Length: 2\r\n\r\n{\"app\":\"als\"}");  // body longer than CL
  return pool;
}

}  // namespace

double ShapeMultiplier(Shape shape, double t, double flash_x) {
  switch (shape) {
    case Shape::kConstant:
      return 1.0;
    case Shape::kRamp:
      return 0.2 + 0.8 * t;
    case Shape::kDiurnal:
      // One "day": trough at the phase edges, peak mid-phase, never zero.
      return 0.25 + 0.75 * 0.5 * (1.0 - std::cos(2.0 * M_PI * t));
    case Shape::kFlash:
      return (t >= 0.4 && t < 0.6) ? flash_x : 1.0;
  }
  return 1.0;
}

std::vector<LoadEvent> GenerateEvents(const Trace& trace,
                                      const GeneratorOptions& options) {
  std::vector<LoadEvent> events;
  Rng rng(options.seed);
  const std::vector<std::string> malformed_pool =
      options.malformed_pool.empty() ? BuiltinMalformed()
                                     : options.malformed_pool;
  const std::vector<double> combo_cdf = ZipfCdf(kParamCombos, 1.0);

  int64_t phase_start_ms = 0;
  for (size_t phase_index = 0; phase_index < trace.phases.size();
       ++phase_index) {
    const PhaseSpec& phase = trace.phases[phase_index];
    const std::vector<std::string>& apps =
        phase.apps.empty() ? options.default_apps : phase.apps;
    if (apps.empty()) continue;

    std::vector<std::vector<ParamCombo>> combos;
    combos.reserve(apps.size());
    for (const std::string& app : apps) {
      combos.push_back(MakeCombos(app, options.seed, kParamCombos));
    }
    const std::vector<double> app_cdf = ZipfCdf(apps.size(), phase.zipf_s);
    const double mix_total = phase.mix.Total();

    // Popularity epoch state: re-permuted lazily when the epoch changes.
    int64_t current_epoch = -1;
    std::vector<size_t> perm;

    double acc = 0.0;
    for (int64_t slice = 0; slice * kSliceMs < phase.duration_ms; ++slice) {
      const int64_t slice_start = slice * kSliceMs;
      const int64_t slice_len =
          std::min(kSliceMs, phase.duration_ms - slice_start);
      const double t = (static_cast<double>(slice_start) + 0.5 * slice_len) /
                       static_cast<double>(phase.duration_ms);
      const double rate =
          phase.qps * ShapeMultiplier(phase.shape, t, phase.flash_x);
      acc += rate * (static_cast<double>(slice_len) / 1'000.0);
      while (acc >= 1.0) {
        acc -= 1.0;
        LoadEvent event;
        event.phase = phase_index;
        event.offset_ms = phase_start_ms + slice_start +
                          static_cast<int64_t>(rng.UniformInt(
                              static_cast<uint64_t>(slice_len)));

        const int64_t epoch =
            phase.rotate_ms > 0 ? slice_start / phase.rotate_ms : 0;
        if (epoch != current_epoch) {
          current_epoch = epoch;
          perm = EpochPermutation(apps.size(), options.seed, phase_index,
                                  epoch);
        }
        const size_t app_index = perm[SampleRank(app_cdf, &rng)];
        event.app = apps[app_index];
        const ParamCombo& combo =
            combos[app_index][SampleRank(combo_cdf, &rng)];

        const double u = rng.Uniform() * mix_total;
        if (u < phase.mix.valid) {
          event.kind = EventKind::kValid;
        } else if (u < phase.mix.valid + phase.mix.malformed) {
          event.kind = EventKind::kMalformed;
        } else if (u < phase.mix.valid + phase.mix.malformed +
                           phase.mix.slow) {
          event.kind = EventKind::kSlow;
        } else {
          event.kind = EventKind::kObserve;
        }

        switch (event.kind) {
          case EventKind::kValid:
          case EventKind::kSlow:
            event.target = "/v1/recommend";
            event.body = RecommendBody(event.app, combo);
            break;
          case EventKind::kObserve:
            event.target = "/v1/observe";
            event.body = ObserveBody(event.app, combo, &rng);
            break;
          case EventKind::kMalformed:
            event.body =
                malformed_pool[rng.UniformInt(malformed_pool.size())];
            break;
        }
        events.push_back(std::move(event));
      }
    }
    phase_start_ms += phase.duration_ms;
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const LoadEvent& a, const LoadEvent& b) {
                     return a.offset_ms < b.offset_ms;
                   });
  return events;
}

}  // namespace juggler::loadgen
