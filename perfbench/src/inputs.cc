#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <utility>

#include "online/observation.h"
#include "workloads/workloads.h"

namespace juggler::perfbench {

namespace {

constexpr int kCombosPerApp = 6;        // 5 apps x 6 = 30 recurring questions.
constexpr double kZipfS = 1.1;
constexpr size_t kBatchSlots = 8;
constexpr size_t kBatchDistinct = 5;    // 8 slots over 5 questions: repeats.
constexpr size_t kObservedApps = 2;
constexpr size_t kObservationsPerBatch = 16;
constexpr uint64_t kRotateEvery = 4096;  // Popularity epoch, in requests.
// Unique input sizes: examples = base + (n * stride mod prime) is a
// bijection on n < prime, so no two unique questions share a size.
constexpr uint64_t kUniquePrime = 1'000'003;
constexpr uint64_t kUniqueStride = 7'919;

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

void Shuffle(std::vector<std::string>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->UniformInt(i)]);
  }
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {WorkloadId::kWarmRecurring, "warm_recurring", false, 15'000.0, 1.0,
       40'000.0, 1},
      {WorkloadId::kColdUnique, "cold_unique", false, 5'000.0, 1.0,
       12'000.0, 2},
      {WorkloadId::kClusterOnline, "cluster_online", true, 1'500.0, 5.0,
       6'000.0, 2},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void StampRequestId(char* id_digits, uint64_t id) {
  for (size_t i = kRequestIdDigits; i > 0; --i) {
    id_digits[i - 1] = static_cast<char>('0' + id % 10);
    id /= 10;
  }
}

std::string QuestionJson(const Question& question) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"app\":\"%s\",\"params\":{\"examples\":%.0f,"
                "\"features\":%.0f,\"iterations\":%d}}",
                question.app.c_str(), question.params.examples,
                question.params.features, question.params.iterations);
  return buffer;
}

Request MakeHttpRequest(Request::Kind kind, const std::string& path,
                        const std::string& content_type,
                        const std::string& body) {
  Request request;
  request.kind = kind;
  request.wire = "POST " + path + " HTTP/1.1\r\nHost: perfbench\r\n" +
                 kRequestIdHeader + ": ";
  request.id_offset = request.wire.size();
  request.wire.append(kRequestIdDigits, '0');
  request.wire += "\r\nContent-Type: " + content_type +
                  "\r\nContent-Length: " + std::to_string(body.size()) +
                  "\r\n\r\n" + body;
  return request;
}

namespace {

Request SingleRequest(const Question& question) {
  Request request = MakeHttpRequest(Request::Kind::kSingle, "/v1/recommend",
                                    "application/json", QuestionJson(question));
  request.questions.push_back(question);
  return request;
}

}  // namespace

RequestStream::RequestStream(
    const WorkloadSpec& spec, uint64_t seed,
    const std::map<std::string, core::TrainedJuggler>& models)
    : spec_(spec), models_(models), rng_(seed) {
  for (const auto& w : workloads::AllWorkloads()) apps_.push_back(w.name);
  sorted_apps_ = apps_;
  std::sort(sorted_apps_.begin(), sorted_apps_.end());
  Shuffle(&apps_, &rng_);
  observed_apps_.assign(apps_.end() - kObservedApps, apps_.end());
  std::sort(observed_apps_.begin(), observed_apps_.end());
  for (size_t a = 0; a < sorted_apps_.size(); ++a) {
    std::vector<minispark::AppParams> combos;
    for (int i = 0; i < kCombosPerApp; ++i) {
      minispark::AppParams params;
      params.examples = static_cast<double>(rng_.UniformInt(2'000, 20'000));
      params.features = static_cast<double>(rng_.UniformInt(100, 2'000));
      params.iterations = static_cast<int>(rng_.UniformInt(1, 10));
      combos.push_back(params);
    }
    combos_.push_back(std::move(combos));
  }
  zipf_cdf_ = ZipfCdf(apps_.size(), kZipfS);
}

std::string RequestStream::PickApp() {
  const double u = rng_.Uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const size_t rank = it == zipf_cdf_.end()
                          ? zipf_cdf_.size() - 1
                          : static_cast<size_t>(it - zipf_cdf_.begin());
  return apps_[rank];
}

Question RequestStream::RecurringQuestion(size_t* index) {
  const std::string app = PickApp();
  // Combos stay attached to their app across popularity rotations.
  const size_t app_index = static_cast<size_t>(
      std::find(sorted_apps_.begin(), sorted_apps_.end(), app) -
      sorted_apps_.begin());
  const size_t combo = rng_.UniformInt(static_cast<uint64_t>(kCombosPerApp));
  *index = app_index * kCombosPerApp + combo;
  return Question{app, combos_[app_index][combo]};
}

Question RequestStream::UniqueQuestion(const std::string& app) {
  const uint64_t n = unique_counter_++;
  minispark::AppParams params;
  params.examples =
      static_cast<double>(2'000 + (n * kUniqueStride) % kUniquePrime);
  params.features = static_cast<double>(rng_.UniformInt(100, 2'000));
  params.iterations = static_cast<int>(rng_.UniformInt(1, 10));
  return Question{app, params};
}

std::string RequestStream::ObservationBatch() {
  const std::string& app =
      observed_apps_[rng_.UniformInt(static_cast<uint64_t>(
          observed_apps_.size()))];
  const core::TrainedJuggler& model = models_.at(app);
  std::vector<online::Observation> batch;
  for (size_t i = 0; i < kObservationsPerBatch; ++i) {
    const size_t s = rng_.UniformInt(
        static_cast<uint64_t>(model.schedules().size()));
    online::Observation o;
    o.kind = online::ObservationKind::kRunTime;
    o.app = app;
    o.target = model.schedules()[s].id;
    o.params.examples = static_cast<double>(rng_.UniformInt(2'000, 20'000));
    o.params.features = static_cast<double>(rng_.UniformInt(100, 2'000));
    o.params.iterations = static_cast<int>(rng_.UniformInt(1, 10));
    o.model_version = 1;
    // Live runs are 25% slower than the trained model predicts (a drifted
    // cluster), so refits have something real to learn.
    const double predicted = model.time_models()[s].Predict(
        {o.params.examples, o.params.features});
    o.value = std::max(1.0, predicted * 1.25 * rng_.Jitter(0.02));
    batch.push_back(std::move(o));
  }
  return online::EncodeObservationBatch(batch);
}

Request RequestStream::ObserveRequest() {
  return MakeHttpRequest(Request::Kind::kObserve, "/v1/observe",
                         "application/octet-stream", ObservationBatch());
}

Request RequestStream::NextRequest(bool* recurring, size_t* recurring_index) {
  // Popularity rotation: over a run every app takes every rank, so the
  // figures do not hinge on which app a seed happens to make the hottest.
  if (issued_ > 0 && issued_ % kRotateEvery == 0) Shuffle(&apps_, &rng_);
  ++issued_;
  *recurring = false;
  switch (spec_.id) {
    case WorkloadId::kWarmRecurring: {
      *recurring = true;
      return SingleRequest(RecurringQuestion(recurring_index));
    }
    case WorkloadId::kColdUnique: {
      if (rng_.Bernoulli(0.10)) {
        std::vector<Question> distinct;
        for (size_t i = 0; i < kBatchDistinct; ++i) {
          distinct.push_back(UniqueQuestion(PickApp()));
        }
        std::string body = "{\"requests\":[";
        std::vector<Question> slots;
        for (size_t i = 0; i < kBatchSlots; ++i) {
          const Question& q =
              distinct[rng_.UniformInt(static_cast<uint64_t>(kBatchDistinct))];
          if (i > 0) body.push_back(',');
          body += QuestionJson(q);
          slots.push_back(q);
        }
        body += "]}";
        Request r = MakeHttpRequest(Request::Kind::kBatch, "/v1/recommend",
                                    "application/json", body);
        r.questions = std::move(slots);
        return r;
      }
      return SingleRequest(UniqueQuestion(PickApp()));
    }
    case WorkloadId::kClusterOnline: {
      const double u = rng_.Uniform();
      if (u < 0.05) return ObserveRequest();
      if (u < 0.20) return SingleRequest(UniqueQuestion(PickApp()));
      *recurring = true;
      return SingleRequest(RecurringQuestion(recurring_index));
    }
  }
  return Request{};
}

RequestPlan RequestStream::Take(size_t count) {
  RequestPlan plan;
  plan.order.reserve(count);
  std::map<size_t, uint32_t> recurring_slots;
  for (size_t i = 0; i < count; ++i) {
    bool recurring = false;
    size_t index = 0;
    Request request = NextRequest(&recurring, &index);
    if (recurring) {
      auto it = recurring_slots.find(index);
      if (it != recurring_slots.end()) {
        plan.order.push_back(it->second);
        continue;
      }
      recurring_slots.emplace(index, static_cast<uint32_t>(plan.pool.size()));
    }
    plan.order.push_back(static_cast<uint32_t>(plan.pool.size()));
    plan.pool.push_back(std::move(request));
  }
  return plan;
}

RequestPlan RequestStream::RecurringOnce() const {
  RequestPlan plan;
  for (size_t a = 0; a < sorted_apps_.size(); ++a) {
    for (const minispark::AppParams& params : combos_[a]) {
      plan.order.push_back(static_cast<uint32_t>(plan.pool.size()));
      plan.pool.push_back(SingleRequest(Question{sorted_apps_[a], params}));
    }
  }
  return plan;
}

std::vector<Question> RequestStream::FreshQuestions(size_t count) {
  std::vector<Question> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(UniqueQuestion(PickApp()));
  return out;
}

std::vector<std::string> RequestStream::ObservationBatches(size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(ObservationBatch());
  return out;
}

}  // namespace juggler::perfbench
