#include "service/model_registry.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/serialization.h"

namespace juggler::service {

namespace fs = std::filesystem;

ModelRegistry::ModelRegistry(std::string directory)
    : ModelRegistry(std::move(directory), Options()) {}

ModelRegistry::ModelRegistry(std::string directory, Options options)
    : directory_(std::move(directory)),
      options_(options),
      mu_(lockdiag::RegisterLockClass("service.ModelRegistry.mu",
                                      lockdiag::kRankRegistry)),
      snapshot_(std::make_shared<const Snapshot>()) {}

Status ModelRegistry::Refresh() {
  refresh_in_progress_.fetch_add(1, std::memory_order_relaxed);
  Status status = RefreshImpl();
  refresh_in_progress_.fetch_sub(1, std::memory_order_relaxed);
  return status;
}

Status ModelRegistry::RefreshImpl() {
  std::error_code ec;
  if (!fs::is_directory(directory_, ec)) {
    return Status::NotFound("model directory not found: " + directory_);
  }
  const auto previous = CurrentSnapshot();

  // Build the replacement snapshot fully before publishing it, so concurrent
  // Lookup() calls only ever see complete registries.
  auto next = std::make_shared<Snapshot>();
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != kModelSuffix) continue;
    paths.push_back(path);
  }
  if (ec) {
    return Status::NotFound("cannot scan model directory " + directory_ + ": " +
                            ec.message());
  }

  RefreshStats refresh;
  refresh.scanned = paths.size();
  // Apps whose artifact failed this scan; folded into refresh_errors_ under
  // the lock at the end.
  std::vector<std::string> failed_apps;
  // A broken artifact keeps the last-good model serving (if there ever was
  // one) and never fails the whole refresh. Either way the broken file's
  // *new* fingerprint is recorded (a null-model placeholder if it never
  // parsed) so it is not re-parsed — and not re-counted — every scan;
  // fixing the file changes the fingerprint and triggers a real parse.
  const auto degrade = [&](const fs::path& path, Artifact artifact,
                           auto* next_snapshot) {
    ++refresh.failed;
    const auto old_it = previous->artifacts.find(path.string());
    if (old_it != previous->artifacts.end() &&
        old_it->second.model != nullptr) {
      failed_apps.push_back(old_it->second.app);
      artifact.app = old_it->second.app;
      artifact.model = old_it->second.model;
      if (!next_snapshot->models.emplace(artifact.app, artifact.model)
               .second) {
        artifact.model = nullptr;  // Another artifact claimed the app.
      }
    } else {
      failed_apps.push_back(path.stem().string());
    }
    artifact.placeholder = artifact.model == nullptr;
    next_snapshot->artifacts.emplace(path.string(), std::move(artifact));
  };
  for (const fs::path& path : paths) {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) {
      // Likely deleted between the directory listing and the stat; treat
      // like any other broken artifact rather than poisoning the refresh.
      degrade(path, Artifact{}, next.get());
      continue;
    }
    Artifact artifact;
    artifact.stamp.mtime_ns =
        static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
        st.st_mtim.tv_nsec;
    artifact.stamp.size = static_cast<uint64_t>(st.st_size);
    artifact.stamp.inode = static_cast<uint64_t>(st.st_ino);

    // Unchanged fingerprint: carry the parsed model over by pointer; the
    // file is not opened at all.
    const auto old_it = previous->artifacts.find(path.string());
    if (old_it != previous->artifacts.end() &&
        old_it->second.stamp == artifact.stamp) {
      if (old_it->second.placeholder) {
        // A remembered never-parsed failure, file untouched: carry the
        // placeholder, nothing to serve and nothing new to report.
        artifact.placeholder = true;
        next->artifacts.emplace(path.string(), std::move(artifact));
        continue;
      }
      artifact.app = old_it->second.app;
      artifact.model = old_it->second.model;
      ++refresh.reused;
    } else if (options_.lazy_load) {
      // Lazy: register by stem without opening the file. A changed
      // fingerprint counts as "parsed" for version-bump purposes (readers
      // must not serve the stale loaded copy), even though the real parse
      // happens on first Resolve().
      artifact.app = path.stem().string();
      ++refresh.parsed;
    } else {
      std::ifstream in(path);
      if (!in) {
        degrade(path, std::move(artifact), next.get());
        continue;
      }
      auto trained = core::LoadTrainedJuggler(in);
      if (!trained.ok()) {
        degrade(path, std::move(artifact), next.get());
        continue;
      }
      artifact.app = trained->app_name();
      artifact.model = std::make_shared<const core::TrainedJuggler>(
          std::move(trained).value());
      ++refresh.parsed;
    }

    if (!next->models.emplace(artifact.app, artifact.model).second) {
      return Status::InvalidArgument(
          "duplicate model for app '" + artifact.app +
          "' (second artifact: " + path.string() + ")");
    }
    next->artifacts.emplace(path.string(), std::move(artifact));
  }
  for (const auto& [path, artifact] : previous->artifacts) {
    // Placeholders never served anything; their disappearance is not a
    // change worth a version bump.
    if (artifact.placeholder) continue;
    if (artifact.model == nullptr && !options_.lazy_load) continue;
    if (next->artifacts.find(path) == next->artifacts.end()) ++refresh.removed;
  }

  MutexLock lock(mu_);
  if (refresh.Changed() || snapshot_->version == 0) {
    next->version = snapshot_->version + 1;
    snapshot_ = std::move(next);
  } else if (refresh.failed > 0) {
    // No model changed (the carried-over artifacts alias the published
    // models), but the broken files' new fingerprints must be remembered or
    // every future scan would re-parse them. Same version: version-keyed
    // caches stay warm because the models are the same objects.
    next->version = snapshot_->version;
    snapshot_ = std::move(next);
  }
  // else: a no-op scan — keep the published snapshot (and its version) so
  // version-keyed caches stay warm.
  last_refresh_ = refresh;
  for (const std::string& app : failed_apps) ++refresh_errors_[app];
  if (options_.lazy_load) {
    // Drop loaded copies whose backing file changed or vanished; the next
    // Resolve() re-parses against the published snapshot. Not counted as
    // evictions — that counter is the LRU/TTL memory policy only.
    for (auto it = loaded_.begin(); it != loaded_.end();) {
      const std::string path =
          (fs::path(directory_) / (it->first + kModelSuffix)).string();
      const auto art = snapshot_->artifacts.find(path);
      if (art == snapshot_->artifacts.end() || art->second.placeholder ||
          art->second.stamp != it->second.stamp) {
        it = loaded_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

std::map<std::string, uint64_t> ModelRegistry::refresh_errors() const {
  MutexLock lock(mu_);
  return refresh_errors_;
}

ModelRegistry::RefreshStats ModelRegistry::last_refresh() const {
  MutexLock lock(mu_);
  return last_refresh_;
}

std::shared_ptr<const ModelRegistry::Snapshot> ModelRegistry::CurrentSnapshot()
    const {
  MutexLock lock(mu_);
  return snapshot_;
}

StatusOr<std::shared_ptr<const core::TrainedJuggler>> ModelRegistry::Lookup(
    const std::string& app) const {
  auto resolved = Resolve(app);
  if (!resolved.ok()) return resolved.status();
  return std::move(resolved->model);
}

StatusOr<ModelRegistry::Resolved> ModelRegistry::Resolve(
    const std::string& app) const {
  const auto snapshot = CurrentSnapshot();
  if (auto resident = ResolveInMemory(app, *snapshot)) {
    return *std::move(resident);
  }
  return LoadLazy(app, *snapshot);
}

std::optional<StatusOr<ModelRegistry::Resolved>>
ModelRegistry::ResolveResident(const std::string& app) const {
  return ResolveInMemory(app, *CurrentSnapshot());
}

std::optional<StatusOr<ModelRegistry::Resolved>>
ModelRegistry::ResolveInMemory(const std::string& app,
                               const Snapshot& snapshot) const {
  auto it = snapshot.models.find(app);
  if (it == snapshot.models.end()) {
    std::string known;
    for (const auto& [name, model] : snapshot.models) {
      (known.empty() ? known : known.append(", ")).append(name);
    }
    return Status::NotFound("no model for app '" + app + "' (known: " +
                            (known.empty() ? "<none>" : known) + ")");
  }
  if (it->second != nullptr) return Resolved{it->second, snapshot.version};

  const std::string path =
      (fs::path(directory_) / (app + kModelSuffix)).string();
  const auto art = snapshot.artifacts.find(path);
  if (art == snapshot.artifacts.end()) {
    return Status::NotFound("no artifact on disk for app '" + app + "'");
  }
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(mu_);
  EnforceLimitsLocked(now);
  const auto loaded = loaded_.find(app);
  if (loaded == loaded_.end() || loaded->second.stamp != art->second.stamp) {
    return std::nullopt;
  }
  loaded->second.last_use = now;
  return Resolved{loaded->second.model, snapshot.version};
}

StatusOr<ModelRegistry::Resolved> ModelRegistry::LoadLazy(
    const std::string& app, const Snapshot& snapshot) const {
  const std::string path =
      (fs::path(directory_) / (app + kModelSuffix)).string();
  // ResolveInMemory() only declines once it has found the artifact.
  const Artifact& artifact = snapshot.artifacts.at(path);
  // Parse outside the lock — artifact reads are milliseconds, lookups must
  // not stall behind them. Two threads racing on the same cold app both
  // parse; the second insert wins nothing but wastes only its own time.
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot read model artifact: " + path);
  }
  auto trained = core::LoadTrainedJuggler(in);
  if (!trained.ok()) {
    return Status(trained.status().code(),
                  path + ": " + trained.status().message());
  }
  if (trained->app_name() != app) {
    return Status::FailedPrecondition(
        "artifact " + path + " declares app '" + trained->app_name() +
        "' but lazy loading requires the file stem to match");
  }
  LoadedModel entry;
  entry.model = std::make_shared<const core::TrainedJuggler>(
      std::move(trained).value());
  entry.stamp = artifact.stamp;
  const auto now = std::chrono::steady_clock::now();
  entry.last_use = now;
  auto model = entry.model;

  MutexLock lock(mu_);
  loaded_[app] = std::move(entry);
  EnforceLimitsLocked(now);
  return Resolved{std::move(model), snapshot.version};
}

void ModelRegistry::EnforceLimitsLocked(
    std::chrono::steady_clock::time_point now) const {
  if (options_.ttl_ms > 0) {
    const auto ttl = std::chrono::milliseconds(options_.ttl_ms);
    for (auto it = loaded_.begin(); it != loaded_.end();) {
      if (now - it->second.last_use > ttl) {
        it = loaded_.erase(it);
        ++evictions_;
      } else {
        ++it;
      }
    }
  }
  if (options_.max_loaded > 0) {
    while (loaded_.size() > options_.max_loaded) {
      auto victim = loaded_.begin();
      for (auto it = loaded_.begin(); it != loaded_.end(); ++it) {
        if (it->second.last_use < victim->second.last_use) victim = it;
      }
      loaded_.erase(victim);
      ++evictions_;
    }
  }
}

std::vector<std::string> ModelRegistry::AppNames() const {
  const auto snapshot = CurrentSnapshot();
  std::vector<std::string> names;
  names.reserve(snapshot->models.size());
  for (const auto& [name, model] : snapshot->models) names.push_back(name);
  return names;
}

uint64_t ModelRegistry::version() const { return CurrentSnapshot()->version; }

size_t ModelRegistry::size() const { return CurrentSnapshot()->models.size(); }

size_t ModelRegistry::loaded_models() const {
  if (!options_.lazy_load) return size();
  MutexLock lock(mu_);
  return loaded_.size();
}

uint64_t ModelRegistry::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

}  // namespace juggler::service
