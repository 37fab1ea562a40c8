#include "harness.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/units.h"
#include "minispark/cluster.h"
#include "net/json.h"

namespace juggler::perfbench {

namespace {

volatile size_t g_probe_sink = 0;

/// Compares one served recommendation document with the direct answer.
bool SameAnswer(const net::Json& served, const Question& question,
                const ModelSet& models, bool compare_values,
                std::string* error) {
  if (!served.is_object() || served.StringOr("app", "") != question.app) {
    *error = "response does not echo app " + question.app;
    return false;
  }
  const net::Json* recs = served.Find("recommendations");
  if (recs == nullptr || !recs->is_array() || recs->array_items().empty()) {
    *error = "response has no recommendations";
    return false;
  }
  if (!compare_values) return true;
  minispark::ClusterConfig machine = minispark::PaperCluster(1);
  machine.executor_memory_bytes = GiB(12.0);
  auto expected = models.models.at(question.app).Recommend(question.params,
                                                           machine);
  if (!expected.ok()) {
    *error = "direct Recommend failed: " + expected.status().ToString();
    return false;
  }
  if (expected->size() != recs->array_items().size()) {
    *error = "recommendation count differs for " + question.app;
    return false;
  }
  for (size_t k = 0; k < expected->size(); ++k) {
    const core::Recommendation& e = (*expected)[k];
    const net::Json& s = recs->array_items()[k];
    const bool same =
        s.NumberOr("schedule_id", -1) == e.schedule_id &&
        s.StringOr("plan", "") == e.plan.ToString() &&
        s.NumberOr("predicted_bytes", -1) == e.predicted_bytes &&
        s.NumberOr("machines", -1) == e.machines &&
        s.NumberOr("predicted_time_ms", -1) == e.predicted_time_ms &&
        s.NumberOr("predicted_cost_machine_min", -1) ==
            e.predicted_cost_machine_min &&
        s.NumberOr("objective_score", -1) == e.objective_score;
    if (!same) {
      *error = "recommendation " + std::to_string(k) + " differs for " +
               QuestionJson(question);
      return false;
    }
  }
  return true;
}

}  // namespace

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double SetUp(const RunContext& ctx, const fs::path& dir, SpanSink* spans,
             ModelSet* models, std::unique_ptr<Stack>* stack) {
  const int64_t start = NowNs();
  *models = TrainModels(dir);
  *stack = StartStack(ctx.spec->cluster, dir, spans);
  return static_cast<double>(NowNs() - start) / 1e9;
}

CheckResult CheckAnswers(const RequestPlan& plan, const PhaseResult& phase,
                         const ModelSet& models,
                         const std::vector<std::string>& skip_apps) {
  CheckResult result;
  const auto compare = [&](const std::string& app) {
    return std::find(skip_apps.begin(), skip_apps.end(), app) ==
           skip_apps.end();
  };
  for (const auto& [index, body] : phase.samples) {
    if (!std::isfinite(phase.latency_ms[index])) continue;  // Not a 200.
    const Request& request = plan.at(index);
    ++result.checked;
    std::string error;
    auto json = net::Json::Parse(body);
    bool ok = json.ok();
    if (!ok) {
      error = "unparsable response body";
    } else if (request.kind == Request::Kind::kSingle) {
      ok = SameAnswer(*json, request.questions[0], models,
                      compare(request.questions[0].app), &error);
    } else if (request.kind == Request::Kind::kBatch) {
      const net::Json* results = json->Find("results");
      ok = results != nullptr && results->is_array() &&
           results->array_items().size() == request.questions.size();
      if (!ok) error = "batch result count differs";
      for (size_t s = 0; ok && s < request.questions.size(); ++s) {
        ok = SameAnswer(results->array_items()[s], request.questions[s],
                        models, compare(request.questions[s].app), &error);
      }
    } else {
      const net::Json* shards = json->Find("shards");
      ok = shards != nullptr && shards->is_array() &&
           !shards->array_items().empty();
      for (size_t s = 0; ok && s < shards->array_items().size(); ++s) {
        ok = shards->array_items()[s].Find("error") == nullptr;
      }
      if (!ok) error = "observe reply carries an error: " + body;
    }
    if (!ok) {
      ++result.wrong;
      if (result.first_error.empty()) result.first_error = error;
    }
  }
  return result;
}

namespace {

/// Sends every recurring question (three passes) and then a short open-loop
/// burst at half the fixed rate, so caches, lazy models, connections and
/// thread pools are warm before anything is timed.
void WarmUp(const RunContext& ctx, RequestStream* stream,
            OpenLoopClient* client) {
  const RequestPlan recurring = stream->RecurringOnce();
  PhaseOptions options;
  options.rate = 2'000.0;
  for (int pass = 0; pass < 3; ++pass) client->Run(recurring, options);
  options.rate = 0.5 * ctx.spec->fixed_rate;
  const RequestPlan burst =
      stream->Take(static_cast<size_t>(options.rate * 0.5));
  client->Run(burst, options);
}

FixedRateSummary RunFixedRate(const RunContext& ctx, double seconds,
                              bool record_spans, const ModelSet& models,
                              RequestStream* stream, OpenLoopClient* client,
                              Stack* stack,
                              const std::function<void(int)>& between) {
  FixedRateSummary summary;
  const size_t per_window = static_cast<size_t>(
      ctx.spec->fixed_rate * seconds / kFixedWindows);
  PhaseOptions options;
  options.rate = ctx.spec->fixed_rate;
  options.record_spans = record_spans;
  options.sample_every =
      static_cast<uint32_t>(std::max<size_t>(1, per_window / 200));
  options.sample_salt = ctx.seed;
  std::vector<double> p50, p99, cpu, gen_cpu, late, rss;
  // Per block, before scaling, and the probe taken after each block.
  std::vector<double> raw_p50, raw_cpu, probe_rtt, probe_cpu;
  // p99 per chunk of kChunkRequests consecutive sends (enough for ten
  // samples beyond it), chunks running on across windows. Failed requests
  // stay in as +infinity, so they count against both percentiles.
  std::vector<double> chunk;
  std::vector<double> block_latency;
  double block_cpu_s = 0.0;
  uint64_t block_ok = 0;
  summary.before = stack->Counters();
  for (int w = 0; w < kFixedWindows; ++w) {
    const RequestPlan plan = stream->Take(per_window);
    options.first_request_id = 1 + static_cast<uint64_t>(w) * per_window;
    // Freed set-up memory goes back to the kernel, so the window's peak is
    // what serving keeps resident.
    malloc_trim(0);
    ResetPeakRss();
    PhaseResult window = client->Run(plan, options);
    rss.push_back(PeakRssMb());
    const CheckResult check =
        CheckAnswers(plan, window, models, stream->observed_apps());
    for (double latency : window.latency_ms) {
      chunk.push_back(latency);
      if (chunk.size() == kChunkRequests) {
        p99.push_back(Percentile(chunk, 0.99));
        chunk.clear();
      }
    }
    block_latency.insert(block_latency.end(), window.latency_ms.begin(),
                         window.latency_ms.end());
    block_cpu_s += window.process_cpu_s - window.gen_cpu_s;
    block_ok += window.ok;
    if ((w + 1) % kWindowsPerBlock == 0) {
      // Read at reference speed by the loopback probe taken right after.
      const LoopbackProbe probe = ProbeLoopback();
      probe_rtt.push_back(probe.rtt_us);
      probe_cpu.push_back(probe.echo_cpu_us);
      raw_p50.push_back(Percentile(block_latency, 0.50));
      p50.push_back(raw_p50.back() * kReferenceRttUs / probe.rtt_us);
      if (block_ok > 0) {
        raw_cpu.push_back(1e6 * block_cpu_s / static_cast<double>(block_ok));
        cpu.push_back(raw_cpu.back() * kReferenceEchoCpuUs /
                      probe.echo_cpu_us);
      }
      block_latency.clear();
      block_cpu_s = 0.0;
      block_ok = 0;
    }
    gen_cpu.push_back(window.ok == 0 ? 0.0
                                     : 1e6 * window.gen_cpu_s /
                                           static_cast<double>(window.ok));
    late.push_back(Percentile(window.late_ms, 0.99));
    summary.attempted += window.attempted;
    summary.answered += window.ok;
    summary.failed += window.failed + check.wrong;
    summary.shed += window.shed;
    summary.check.checked += check.checked;
    summary.check.wrong += check.wrong;
    if (summary.check.first_error.empty()) {
      summary.check.first_error = check.first_error;
    }
    summary.spans.insert(summary.spans.end(), window.spans.begin(),
                         window.spans.end());
    if (between) between(w);
  }
  if (p99.empty()) {  // A phase shorter than one chunk (smoke runs).
    p99.push_back(Percentile(chunk, 0.99));
  }
  summary.after = stack->Counters();
  summary.p50_ms = Median(p50);
  summary.p99_ms = Median(p99);
  summary.server_cpu_us_per_req = Median(cpu);
  std::fprintf(stderr,
               "at reference speed, medians of %zu blocks: p50 %.4f ms "
               "(measured %.4f, probe round trip %.2f us), cpu %.2f us/req "
               "(measured %.2f, probe echo cpu %.2f us)\n",
               p50.size(), summary.p50_ms, Median(raw_p50), Median(probe_rtt),
               summary.server_cpu_us_per_req, Median(raw_cpu),
               Median(probe_cpu));
  summary.gen_cpu_us_per_req = Median(gen_cpu);
  summary.late_p99_ms = Median(late);
  summary.rss_mb = *std::max_element(rss.begin(), rss.end());
  return summary;
}

constexpr double kRampGrowth = 1.25;
constexpr int kRampRates = 7;
constexpr int kRampSweeps = 4;

/// Median over the four quarters (in send order) of a step of the given
/// percentile, so a single stall of the machine moves one quarter only.
double QuarterMedian(const std::vector<double>& values, double q) {
  std::vector<double> per_quarter;
  const size_t n = values.size();
  for (size_t k = 0; k < 4; ++k) {
    per_quarter.push_back(Percentile(
        std::vector<double>(
            values.begin() + static_cast<std::ptrdiff_t>(k * n / 4),
            values.begin() + static_cast<std::ptrdiff_t>((k + 1) * n / 4)),
        q));
  }
  return Median(per_quarter);
}

/// One ramp step passes when the p99 limit holds (median over the step's
/// quarters), the last quarter's median is within it too (no growing
/// backlog), at most 0.1% of requests fail, and the sender kept to its
/// schedule (a late sender makes the step invalid, not slow).
bool StepPasses(const PhaseResult& step, double limit_ms) {
  const size_t n = step.latency_ms.size();
  const std::vector<double> tail(step.latency_ms.begin() +
                                     static_cast<std::ptrdiff_t>(3 * n / 4),
                                 step.latency_ms.end());
  return QuarterMedian(step.late_ms, 0.99) <= 0.5 * limit_ms &&
         static_cast<double>(step.failed) <=
             0.001 * static_cast<double>(step.attempted) &&
         QuarterMedian(step.latency_ms, 0.99) <= limit_ms &&
         Percentile(tail, 0.50) <= limit_ms;
}

/// Open-loop rate ramp over a fixed geometric grid of kRampRates rates
/// from the workload's ramp_start, swept upwards kRampSweeps times (a sweep
/// stops at its first failing step; the rates above it count as failed).
/// Each rate's p99 is the median over the sweeps, so one stall of the
/// machine cannot move the result. max_qps_at_slo is the highest rate
/// whose median p99 (and all below it) meets the limit, interpolated in
/// log(p99) towards the first rate that does not.
double MaxQpsAtSlo(const RunContext& ctx, double budget_s,
                   RequestStream* stream, OpenLoopClient* client) {
  const double step_s = budget_s / (kRampSweeps * kRampRates);
  const double limit = ctx.spec->p99_limit_ms;
  // A failed step reads its p99 (at least just over the limit, at most
  // 100x it: failures and timeouts count as far over).
  const double failed_p99 = 100.0 * limit;
  std::vector<std::vector<double>> p99(kRampRates);
  std::vector<double> rates;
  for (int k = 0; k < kRampRates; ++k) {
    rates.push_back(ctx.spec->ramp_start * std::pow(kRampGrowth, k));
  }
  for (int sweep = 0; sweep < kRampSweeps; ++sweep) {
    bool failed = false;
    for (int k = 0; k < kRampRates; ++k) {
      if (failed) {
        p99[k].push_back(failed_p99);
        continue;
      }
      PhaseOptions options;
      options.rate = rates[k];
      options.drain_timeout_s = 0.5;
      const PhaseResult step = client->Run(
          stream->Take(static_cast<size_t>(rates[k] * step_s)), options);
      failed = !StepPasses(step, limit);
      const double measured = QuarterMedian(step.latency_ms, 0.99);
      p99[k].push_back(failed ? std::clamp(measured, limit * 1.001, failed_p99)
                              : measured);
    }
  }
  std::vector<double> median_p99;
  for (int k = 0; k < kRampRates; ++k) {
    median_p99.push_back(Median(p99[k]));
    std::fprintf(stderr, "  ramp %8.0f req/s  median p99 %9.3f ms  %s\n",
                 rates[k], median_p99.back(),
                 median_p99.back() <= limit ? "pass" : "FAIL");
  }
  // Even the lowest rate failed: scale it down by how far it missed.
  if (median_p99[0] > limit) return rates[0] * limit / median_p99[0];
  int best = 0;
  while (best + 1 < kRampRates && median_p99[best + 1] <= limit) ++best;
  if (best + 1 == kRampRates) return rates[best];  // Grid top reached.
  const double lo = std::log(std::max(median_p99[best], 1e-6));
  const double hi = std::log(median_p99[best + 1]);
  const double t =
      std::clamp((std::log(limit) - lo) / std::max(hi - lo, 1e-9), 0.0, 1.0);
  return rates[best] * std::pow(kRampGrowth, t);
}

}  // namespace

LivePass RunLivePass(const RunContext& ctx, const ModelSet& models,
                     Stack* stack, double seconds, double ramp_s,
                     SpanSink* spans,
                     const std::function<void(int window)>& between) {
  RequestStream stream(*ctx.spec, ctx.seed, models.models);
  LivePass pass;
  {
    OpenLoopClient client(stack->port(), kConnections);
    WarmUp(ctx, &stream, &client);
    if (spans != nullptr) spans->Take();  // Keep the timed phase only.
    pass.fixed = RunFixedRate(ctx, seconds, spans != nullptr, models, &stream,
                              &client, stack, between);
    if (ramp_s > 0.0) {
      pass.max_qps_at_slo = MaxQpsAtSlo(ctx, ramp_s, &stream, &client);
    }
  }
  stack->Stop();
  if (spans != nullptr) pass.spans = spans->Take();
  std::fprintf(stderr,
               "fixed: %.0f req/s, %d windows, %llu answered, %llu failed "
               "(%llu shed), error_ratio %.6f, sender late p99 %.3f ms, "
               "fast path %llu/%llu\n",
               ctx.spec->fixed_rate, kFixedWindows,
               static_cast<unsigned long long>(pass.fixed.answered),
               static_cast<unsigned long long>(pass.fixed.failed),
               static_cast<unsigned long long>(pass.fixed.shed),
               pass.fixed.error_ratio(), pass.fixed.late_p99_ms,
               static_cast<unsigned long long>(pass.fixed.after.http.fast_path -
                                               pass.fixed.before.http.fast_path),
               static_cast<unsigned long long>(pass.fixed.after.http.requests -
                                               pass.fixed.before.http.requests));
  std::fprintf(stderr, "check: %llu sampled answers, %llu wrong%s%s\n",
               static_cast<unsigned long long>(pass.fixed.check.checked),
               static_cast<unsigned long long>(pass.fixed.check.wrong),
               pass.fixed.check.first_error.empty() ? "" : ": ",
               pass.fixed.check.first_error.c_str());
  return pass;
}

bool Correct(const FixedRateSummary& fixed, double p99_limit_ms) {
  if (fixed.late_p99_ms > 0.5 * p99_limit_ms) {
    std::fprintf(stderr,
                 "warning: the sender ran late (p99 %.3f ms, over half the "
                 "%.1f ms limit): the machine was disturbed\n",
                 fixed.late_p99_ms, p99_limit_ms);
  }
  return fixed.check.checked > 0 && fixed.check.wrong == 0;
}

double ProbeMachine() {
  double start = ThreadCpuSeconds();
  std::unordered_map<std::string, double> table;
  char text[64];
  for (int i = 0; i < 20'000; ++i) {
    std::snprintf(text, sizeof(text), "k%d:%.6f", i % 512, i * 0.37);
    table[std::string(text, 5)] += std::strtod(text + 6, nullptr);
  }
  g_probe_sink = g_probe_sink + table.size();
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
    char buffer[256] = {};
    for (int i = 0; i < 4'000; ++i) {
      if (::write(fds[0], buffer, sizeof(buffer)) < 0 ||
          ::read(fds[1], buffer, sizeof(buffer)) < 0) {
        break;
      }
    }
    ::close(fds[0]);
    ::close(fds[1]);
  }
  return ThreadCpuSeconds() - start;
}

LoopbackProbe ProbeLoopback() {
  constexpr int kRoundTrips = 2'000;
  constexpr int kPacedTrips = 300;
  constexpr int64_t kPaceNs = 250'000;
  constexpr size_t kMessageBytes = 200;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    std::fprintf(stderr, "perfbench: loopback probe cannot listen\n");
    std::exit(1);
  }
  // Reads exactly one message; false on EOF or error.
  const auto read_message = [](int fd, char* buffer) {
    for (size_t got = 0; got < kMessageBytes;) {
      const ssize_t n = ::read(fd, buffer + got, kMessageBytes - got);
      if (n <= 0) return false;
      got += static_cast<size_t>(n);
    }
    return true;
  };
  LoopbackProbe result;
  int trips = 0;
  // The echo side inherits the caller's CPUs (the stack's); the client runs
  // where the load generator does.
  std::thread echo([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buffer[kMessageBytes];
    const double start = ThreadCpuSeconds();
    for (; trips < kRoundTrips + kPacedTrips; ++trips) {
      if (trips == kRoundTrips) {
        result.echo_cpu_us = 1e6 * (ThreadCpuSeconds() - start) / kRoundTrips;
      }
      pollfd ready{fd, POLLIN, 0};
      if (::poll(&ready, 1, 1'000) != 1 || !read_message(fd, buffer) ||
          ::write(fd, buffer, kMessageBytes) !=
              static_cast<ssize_t>(kMessageBytes)) {
        break;
      }
    }
    ::close(fd);
  });
  std::thread client([&] {
    PinToSenderCpus();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::shutdown(listener, SHUT_RDWR);  // Wakes the echo side's accept().
    } else {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      char buffer[kMessageBytes] = {};
      std::vector<double> rtt_us;
      for (int i = 0; i < kRoundTrips + kPacedTrips; ++i) {
        if (i >= kRoundTrips) {  // Let both sides go idle, as between requests.
          const timespec pause{0, kPaceNs};
          ::nanosleep(&pause, nullptr);
        }
        const int64_t sent = NowNs();
        if (::write(fd, buffer, kMessageBytes) !=
                static_cast<ssize_t>(kMessageBytes) ||
            !read_message(fd, buffer)) {
          break;
        }
        if (i >= kRoundTrips) {
          rtt_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
        }
      }
      result.rtt_us = Median(rtt_us);
    }
    if (fd >= 0) ::close(fd);
  });
  client.join();
  echo.join();
  ::close(listener);
  if (trips != kRoundTrips + kPacedTrips) {
    std::fprintf(stderr, "perfbench: loopback probe failed after %d trips\n",
                 trips);
    std::exit(1);
  }
  return result;
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace juggler::perfbench
