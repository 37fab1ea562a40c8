#ifndef JUGGLER_ONLINE_OBSERVATION_H_
#define JUGGLER_ONLINE_OBSERVATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "minispark/profiling.h"
#include "minispark/types.h"

namespace juggler::online {

/// \brief What one feedback record measures.
enum class ObservationKind : uint8_t {
  /// End-to-end execution time of one schedule at the given parameters, in
  /// milliseconds (the time-model target, §5.4).
  kRunTime = 1,
  /// Materialized size of one dataset at the given parameters, in bytes
  /// (the size-model target, §5.2). `target` is the DatasetId.
  kDatasetSize = 2,
  /// Serving-tier request latency in microseconds (from the
  /// RecommendationService latency histogram). Not a model target; feeds
  /// the observed-vs-predicted error trigger and capacity planning.
  kServeLatency = 3,
};

/// \brief One live-traffic outcome: the actual value a deployed model's
/// prediction can be checked against, in the shapes the minispark
/// `ProfilingDb` records (job wall time, per-dataset materialized bytes).
struct Observation {
  ObservationKind kind = ObservationKind::kRunTime;
  std::string app;
  /// Schedule id for kRunTime, DatasetId for kDatasetSize, 0 otherwise.
  int target = 0;
  /// The parameters the application ran at (examples/features/iterations).
  minispark::AppParams params;
  /// Registry snapshot version of the model that was serving when the
  /// observation was made (0 = unknown).
  uint64_t model_version = 0;
  /// The measured outcome (ms, bytes, or us — see ObservationKind).
  double value = 0.0;
  /// What the then-current model predicted (0 = not recorded). Drives the
  /// observed-vs-predicted refit trigger without re-evaluating old models.
  double predicted = 0.0;
};

/// \name Versioned binary wire format
///
/// Shards forward observations to the collector over JRPC; the HTTP edge
/// accepts the same bytes on POST /v1/observe. One batch is:
///
///   offset  size  field
///        0     4  magic "JOBS"
///        4     1  format version (currently 1)
///        5     3  reserved, must be zero
///        8     4  record count (u32, big-endian)
///       12     …  records, back to back
///
/// and each record (all integers big-endian, doubles as IEEE-754 bits in a
/// big-endian u64, required finite):
///
///   offset  size  field
///        0     1  kind (ObservationKind; unknown values rejected)
///        1     1  reserved, must be zero
///        2     2  app name length (u16, 1..kMaxAppBytes)
///        4     4  target (i32)
///        8     4  iterations (i32, >= 0)
///       12     8  model_version (u64)
///       20     8  examples (f64, > 0)
///       28     8  features (f64, > 0)
///       36     8  value (f64, >= 0)
///       44     8  predicted (f64, >= 0)
///       52     n  app name bytes (no NUL)
///
/// The declared count is checked against the remaining payload before any
/// record is materialized, so a hostile header cannot make the decoder
/// allocate the flood it announces. Trailing bytes after the last record
/// are rejected (a batch is exactly its records).
/// @{
inline constexpr char kObservationMagic[4] = {'J', 'O', 'B', 'S'};
inline constexpr uint8_t kObservationFormatVersion = 1;
inline constexpr size_t kObservationBatchHeaderBytes = 12;
inline constexpr size_t kObservationRecordFixedBytes = 52;
inline constexpr size_t kMaxAppBytes = 256;
inline constexpr size_t kMaxObservationsPerBatch = 65536;

/// True when `bytes` starts with kObservationMagic: the binary wire form
/// rather than JSON. Says nothing about whether the rest decodes.
inline bool IsObservationBatch(std::string_view bytes) {
  return bytes.substr(0, sizeof(kObservationMagic)) ==
         std::string_view(kObservationMagic, sizeof(kObservationMagic));
}

/// Serializes a batch. Records that could not round-trip (app empty or over
/// kMaxAppBytes, non-finite numbers) are skipped rather than emitted as
/// undecodable bytes.
std::string EncodeObservationBatch(const std::vector<Observation>& batch);

/// Decodes one batch; InvalidArgument on any malformed byte. An accepted
/// batch re-encodes to the exact same bytes (the fuzz harness's oracle).
[[nodiscard]] StatusOr<std::vector<Observation>> DecodeObservationBatch(
    std::string_view bytes);
/// @}

/// \brief Extracts model-checkable observations from one instrumented run's
/// profile: one kRunTime record (job span) plus one kDatasetSize record per
/// dataset of nonzero core::MeasureDatasetSizes, the sizes stage 2 fits on.
/// The run time is biased high: RunOptions::instrumentation_overhead (3%)
/// slows every task, and stage 4 fits on uninstrumented runs.
[[nodiscard]] StatusOr<std::vector<Observation>> ObservationsFromProfile(
    const std::string& app, const minispark::AppParams& params,
    int schedule_id, uint64_t model_version,
    const minispark::ProfilingDb& profile);

}  // namespace juggler::online

#endif  // JUGGLER_ONLINE_OBSERVATION_H_
