#include "core/recommender.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "common/units.h"

namespace juggler::core {

Status Objective::Validate() const {
  if (!std::isfinite(cost) || !std::isfinite(p99_latency) ||
      !std::isfinite(memory)) {
    return Status::InvalidArgument("objective weights must be finite");
  }
  if (cost < 0.0 || p99_latency < 0.0 || memory < 0.0) {
    return Status::InvalidArgument("objective weights must be >= 0");
  }
  if (cost == 0.0 && p99_latency == 0.0 && memory == 0.0) {
    return Status::InvalidArgument(
        "at least one objective weight must be > 0");
  }
  return Status::OK();
}

namespace {

/// Pareto filter: drops any schedule that another schedule beats (or ties)
/// on every dimension, beating it on at least one. The dimensions are
/// predicted time and cost, plus predicted bytes when `with_memory`. The
/// kept schedules stay in `all`'s order.
std::vector<Recommendation> ParetoFront(const std::vector<Recommendation>& all,
                                        bool with_memory) {
  const auto dims = [with_memory](const Recommendation& r) {
    return std::array<double, 3>{r.predicted_time_ms,
                                 r.predicted_cost_machine_min,
                                 with_memory ? r.predicted_bytes : 0.0};
  };
  std::vector<Recommendation> kept;
  for (const Recommendation& r : all) {
    const std::array<double, 3> mine = dims(r);
    bool dominated = false;
    for (const Recommendation& other : all) {
      if (other.schedule_id == r.schedule_id) continue;
      const std::array<double, 3> theirs = dims(other);
      bool no_worse = true;
      bool better = false;
      for (size_t k = 0; k < mine.size(); ++k) {
        no_worse = no_worse && theirs[k] <= mine[k];
        better = better || theirs[k] < mine[k];
      }
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(r);
  }
  return kept;
}

}  // namespace

TrainedJuggler::TrainedJuggler(std::string app_name,
                               std::vector<Schedule> schedules,
                               SizeCalibration sizes, MemoryCalibration memory,
                               std::vector<math::LinearModel> time_models)
    : app_name_(std::move(app_name)),
      schedules_(std::move(schedules)),
      sizes_(std::move(sizes)),
      memory_(std::move(memory)),
      time_models_(std::move(time_models)) {
  assert(schedules_.size() == time_models_.size());
}

StatusOr<std::vector<Recommendation>> TrainedJuggler::RecommendAll(
    const minispark::AppParams& params,
    const minispark::ClusterConfig& machine_type) const {
  std::vector<Recommendation> out;
  for (size_t i = 0; i < schedules_.size(); ++i) {
    const Schedule& schedule = schedules_[i];
    Recommendation rec;
    rec.schedule_id = schedule.id;
    rec.plan = schedule.plan;
    auto bytes = PredictScheduleBytes(schedule, sizes_, params);
    if (!bytes.ok()) return bytes.status();
    rec.predicted_bytes = *bytes;
    rec.machines =
        RecommendMachines(*bytes, machine_type, memory_.memory_factor);
    rec.predicted_time_ms = time_models_[i].Predict(params.AsVector());
    rec.predicted_cost_machine_min =
        MachineMinutes(rec.machines, rec.predicted_time_ms);
    out.push_back(std::move(rec));
  }
  return out;
}

StatusOr<std::vector<Recommendation>> TrainedJuggler::Recommend(
    const minispark::AppParams& params,
    const minispark::ClusterConfig& machine_type) const {
  auto all = RecommendAll(params, machine_type);
  if (!all.ok()) return all.status();
  return ParetoFront(*all, /*with_memory=*/false);
}

StatusOr<std::vector<Recommendation>> TrainedJuggler::Recommend(
    const minispark::AppParams& params,
    const minispark::ClusterConfig& machine_type,
    const Objective& objective) const {
  if (Status st = objective.Validate(); !st.ok()) return st;
  if (objective.IsDefault()) return Recommend(params, machine_type);
  auto all = RecommendAll(params, machine_type);
  if (!all.ok()) return all.status();
  // Three-dimensional front over (time, cost, memory). The front itself is
  // weight-independent; the weights only decide the ordering, so any two
  // weightings agree on *which* schedules are offered.
  std::vector<Recommendation> kept = ParetoFront(*all, /*with_memory=*/true);
  // Scalarize: normalize each dimension by its maximum over the front so the
  // weights are unit-free, then order best-first (stable, so equal scores
  // keep schedule-id order).
  double max_time = 0.0, max_cost = 0.0, max_bytes = 0.0;
  for (const Recommendation& r : kept) {
    max_time = std::max(max_time, r.predicted_time_ms);
    max_cost = std::max(max_cost, r.predicted_cost_machine_min);
    max_bytes = std::max(max_bytes, r.predicted_bytes);
  }
  if (max_time <= 0.0) max_time = 1.0;
  if (max_cost <= 0.0) max_cost = 1.0;
  if (max_bytes <= 0.0) max_bytes = 1.0;
  for (Recommendation& r : kept) {
    r.objective_score =
        objective.cost * (r.predicted_cost_machine_min / max_cost) +
        objective.p99_latency * (r.predicted_time_ms / max_time) +
        objective.memory * (r.predicted_bytes / max_bytes);
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.objective_score < b.objective_score;
                   });
  return kept;
}

}  // namespace juggler::core
