#ifndef JUGGLER_LOADGEN_GENERATOR_H_
#define JUGGLER_LOADGEN_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/trace.h"

namespace juggler::loadgen {

/// \brief Deterministic request-sequence generation from a Trace.
///
/// GenerateEvents() is a pure function of (trace, options): the same seed
/// always yields byte-identical event sequences (tested), so a soak failure
/// replays exactly. All randomness flows through juggler::Rng.

enum class EventKind {
  kValid,      ///< Well-formed POST to `target`.
  kMalformed,  ///< `body` holds raw hostile bytes for a throwaway connection.
  kSlow,       ///< Well-formed request trickled byte by byte (slowloris).
  kObserve,    ///< Observation batch for the online loop.
};

struct LoadEvent {
  int64_t offset_ms = 0;  ///< From trace start (pre time-scaling).
  size_t phase = 0;       ///< Index into Trace::phases.
  EventKind kind = EventKind::kValid;
  std::string app;
  std::string target;  ///< Request path (kValid/kSlow/kObserve).
  std::string body;    ///< JSON body, or raw wire bytes for kMalformed.
};

struct GeneratorOptions {
  uint64_t seed = 1;
  /// Apps used by phases that do not list their own. Defaults to the five
  /// paper workloads; the soak harness overrides from workloads::AllWorkloads.
  std::vector<std::string> default_apps = {"lir", "lor", "pca", "rfc", "svm"};
  /// Raw byte strings for malformed events (the soak harness seeds this from
  /// the committed fuzz corpora); built-in adversarial samples when empty.
  std::vector<std::string> malformed_pool;
};

/// Expands the trace into a time-ordered event sequence. Rates follow each
/// phase's shape via a fractional accumulator over 100ms slices; app choice
/// is zipfian over a popularity ranking that re-permutes every `rotate_ms`
/// (non-stationarity); event kinds follow the phase mix weights.
std::vector<LoadEvent> GenerateEvents(const Trace& trace,
                                      const GeneratorOptions& options);

/// The instantaneous rate multiplier in [0, flash_x] for `shape` at relative
/// time t in [0, 1). Exposed for tests.
double ShapeMultiplier(Shape shape, double t, double flash_x);

}  // namespace juggler::loadgen

#endif  // JUGGLER_LOADGEN_GENERATOR_H_
