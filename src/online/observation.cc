#include "online/observation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/big_endian.h"
#include "core/dataset_metrics.h"

namespace juggler::online {

namespace {

bool KindIsKnown(uint8_t value) {
  return value >= static_cast<uint8_t>(ObservationKind::kRunTime) &&
         value <= static_cast<uint8_t>(ObservationKind::kServeLatency);
}

bool Encodable(const Observation& o) {
  return !o.app.empty() && o.app.size() <= kMaxAppBytes &&
         std::isfinite(o.params.examples) && o.params.examples > 0.0 &&
         std::isfinite(o.params.features) && o.params.features > 0.0 &&
         o.params.iterations >= 0 && std::isfinite(o.value) && o.value >= 0.0 &&
         std::isfinite(o.predicted) && o.predicted >= 0.0 &&
         KindIsKnown(static_cast<uint8_t>(o.kind));
}

}  // namespace

std::string EncodeObservationBatch(const std::vector<Observation>& batch) {
  std::vector<const Observation*> encodable;
  encodable.reserve(batch.size());
  for (const Observation& o : batch) {
    if (Encodable(o)) encodable.push_back(&o);
  }
  if (encodable.size() > kMaxObservationsPerBatch) {
    encodable.resize(kMaxObservationsPerBatch);
  }
  std::string out;
  out.reserve(kObservationBatchHeaderBytes +
              encodable.size() * (kObservationRecordFixedBytes + 8));
  out.append(kObservationMagic, sizeof(kObservationMagic));
  out.push_back(static_cast<char>(kObservationFormatVersion));
  out.append(3, '\0');  // Reserved.
  AppendU32(&out, static_cast<uint32_t>(encodable.size()));
  for (const Observation* o : encodable) {
    out.push_back(static_cast<char>(o->kind));
    out.push_back('\0');  // Reserved.
    AppendU16(&out, static_cast<uint16_t>(o->app.size()));
    AppendU32(&out, static_cast<uint32_t>(o->target));
    AppendU32(&out, static_cast<uint32_t>(o->params.iterations));
    AppendU64(&out, o->model_version);
    AppendF64(&out, o->params.examples);
    AppendF64(&out, o->params.features);
    AppendF64(&out, o->value);
    AppendF64(&out, o->predicted);
    out.append(o->app);
  }
  return out;
}

StatusOr<std::vector<Observation>> DecodeObservationBatch(
    std::string_view bytes) {
  if (bytes.size() < kObservationBatchHeaderBytes) {
    return Status::InvalidArgument("observation batch shorter than header");
  }
  const char* p = bytes.data();
  if (std::memcmp(p, kObservationMagic, sizeof(kObservationMagic)) != 0) {
    return Status::InvalidArgument("bad observation batch magic");
  }
  const auto version = static_cast<uint8_t>(p[4]);
  if (version != kObservationFormatVersion) {
    return Status::InvalidArgument("unsupported observation format version " +
                                   std::to_string(version));
  }
  if (p[5] != 0 || p[6] != 0 || p[7] != 0) {
    return Status::InvalidArgument("reserved header bytes must be zero");
  }
  const uint32_t count = ReadU32(p + 8);
  if (count > kMaxObservationsPerBatch) {
    return Status::InvalidArgument("batch declares " + std::to_string(count) +
                                   " records; limit is " +
                                   std::to_string(kMaxObservationsPerBatch));
  }
  size_t offset = kObservationBatchHeaderBytes;
  // Every record is at least the fixed part plus one app byte; an impossible
  // count fails before any allocation proportional to it.
  if (bytes.size() - offset <
      static_cast<size_t>(count) * (kObservationRecordFixedBytes + 1)) {
    return Status::InvalidArgument(
        "batch declares more records than its payload can hold");
  }
  std::vector<Observation> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (bytes.size() - offset < kObservationRecordFixedBytes) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     " truncated");
    }
    const char* r = bytes.data() + offset;
    Observation o;
    const auto kind = static_cast<uint8_t>(r[0]);
    if (!KindIsKnown(kind)) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     ": unknown kind " + std::to_string(kind));
    }
    o.kind = static_cast<ObservationKind>(kind);
    if (r[1] != 0) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     ": reserved byte must be zero");
    }
    const uint16_t app_len = ReadU16(r + 2);
    if (app_len == 0 || app_len > kMaxAppBytes) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     ": app length " + std::to_string(app_len) +
                                     " outside [1, " +
                                     std::to_string(kMaxAppBytes) + "]");
    }
    o.target = static_cast<int32_t>(ReadU32(r + 4));
    const auto iterations = static_cast<int32_t>(ReadU32(r + 8));
    if (iterations < 0) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     ": negative iterations");
    }
    o.params.iterations = iterations;
    o.model_version = ReadU64(r + 12);
    o.params.examples = ReadF64(r + 20);
    o.params.features = ReadF64(r + 28);
    o.value = ReadF64(r + 36);
    o.predicted = ReadF64(r + 44);
    if (!std::isfinite(o.params.examples) || o.params.examples <= 0.0 ||
        !std::isfinite(o.params.features) || o.params.features <= 0.0) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     ": examples/features must be finite > 0");
    }
    if (!std::isfinite(o.value) || o.value < 0.0 ||
        !std::isfinite(o.predicted) || o.predicted < 0.0) {
      return Status::InvalidArgument(
          "record " + std::to_string(i) +
          ": value/predicted must be finite >= 0");
    }
    offset += kObservationRecordFixedBytes;
    if (bytes.size() - offset < app_len) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     ": app name truncated");
    }
    o.app.assign(bytes.data() + offset, app_len);
    offset += app_len;
    out.push_back(std::move(o));
  }
  if (offset != bytes.size()) {
    return Status::InvalidArgument(
        "trailing bytes after the last declared record");
  }
  return out;
}

StatusOr<std::vector<Observation>> ObservationsFromProfile(
    const std::string& app, const minispark::AppParams& params,
    int schedule_id, uint64_t model_version,
    const minispark::ProfilingDb& profile) {
  auto sizes = core::MeasureDatasetSizes(profile);
  if (!sizes.ok()) return sizes.status();
  std::vector<Observation> out;
  const auto observe = [&](ObservationKind kind, int target, double value) {
    Observation& o = out.emplace_back();
    o.kind = kind;
    o.app = app;
    o.target = target;
    o.params = params;
    o.model_version = model_version;
    o.value = value;
  };
  if (!profile.jobs().empty()) {
    double start = profile.jobs().front().start_ms;
    double finish = profile.jobs().front().finish_ms;
    for (const minispark::JobRecord& job : profile.jobs()) {
      start = std::min(start, job.start_ms);
      finish = std::max(finish, job.finish_ms);
    }
    if (finish > start) {
      observe(ObservationKind::kRunTime, schedule_id, finish - start);
    }
  }
  for (size_t d = 0; d < sizes->size(); ++d) {
    if ((*sizes)[d] > 0.0) {
      observe(ObservationKind::kDatasetSize, static_cast<int>(d), (*sizes)[d]);
    }
  }
  return out;
}

}  // namespace juggler::online
