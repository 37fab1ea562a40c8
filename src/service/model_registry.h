#ifndef JUGGLER_SERVICE_MODEL_REGISTRY_H_
#define JUGGLER_SERVICE_MODEL_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/recommender.h"

namespace juggler::service {

/// \brief Thread-safe registry of trained models backed by a directory of
/// `*.model` artifacts (the files `SaveTrainedJuggler` writes).
///
/// The offline trainer (§5.1–§5.4) drops artifacts into the directory; the
/// online path (§5.5) looks models up by application name. Reload semantics:
///
///  - `Refresh()` re-scans the directory, parses every artifact into a brand
///    new immutable snapshot, and swaps it in atomically.
///  - Refresh degrades gracefully: a malformed (or unreadable) artifact never
///    poisons the snapshot. If the file previously parsed, its last-good
///    model keeps serving under the *new* fingerprint (no re-parse churn
///    while the file stays broken; fixing the file changes the fingerprint
///    and triggers a re-parse). If it never parsed, it is skipped. Either
///    way `Refresh()` still returns OK, the failure is counted in
///    `RefreshStats::failed`, and the per-app cumulative counter behind
///    `refresh_errors()` is bumped. Only structural problems fail the
///    refresh: a missing directory (NotFound) or two artifacts claiming the
///    same app (InvalidArgument).
///  - Readers are never blocked by a reload and never see a half-updated
///    registry: `Lookup()` grabs a `shared_ptr` to the current snapshot, so
///    in-flight requests keep using the model they resolved even while a
///    `Refresh()` replaces it.
///  - Refresh is incremental: artifacts whose (mtime, size, inode) stamp is
///    unchanged since the previous snapshot are carried over by pointer —
///    the file is not re-read or re-parsed. `last_refresh()` reports what
///    the last scan actually did (parsed vs. reused vs. removed).
///  - A refresh that parsed or removed at least one artifact bumps
///    `version()`; a no-op refresh (nothing changed on disk) keeps both the
///    snapshot and the version, so version-keyed prediction caches stay warm
///    across periodic reloads. The serving layer folds the version into
///    cache keys so memoized predictions from a replaced model are never
///    served.
class ModelRegistry {
 public:
  /// File-name suffix of artifacts the registry scans for.
  static constexpr const char* kModelSuffix = ".model";

  /// Memory policy. Defaults reproduce the original eager behavior exactly:
  /// every artifact parsed at Refresh(), nothing ever evicted.
  struct Options {
    /// Lazy mode: Refresh() registers artifacts by file stem without opening
    /// them; Resolve() parses on first use and caches the result. Requires
    /// the `<app>.model` naming convention (the trainer's default) — an
    /// artifact whose declared app differs from its stem fails to resolve.
    /// This is what lets a cluster shard own a slice of a large model
    /// directory: consistent hashing steers each app to one shard, so each
    /// shard only ever pays for the models it is actually asked about.
    bool lazy_load = false;
    /// Lazy mode: max models resident at once (0 = unlimited). The least-
    /// recently-used model beyond this is evicted.
    size_t max_loaded = 0;
    /// Lazy mode: evict models idle longer than this (0 = disabled).
    int64_t ttl_ms = 0;
  };

  explicit ModelRegistry(std::string directory);
  ModelRegistry(std::string directory, Options options);

  /// Re-scans the directory. See the class comment for atomicity and
  /// incrementality semantics. A missing or unreadable directory is NotFound.
  [[nodiscard]] Status Refresh() EXCLUDES(mu_);

  /// What the most recent successful Refresh() did.
  struct RefreshStats {
    size_t scanned = 0;  ///< Artifact files seen in the directory.
    size_t parsed = 0;   ///< Files read + deserialized (new or changed).
    size_t reused = 0;   ///< Models carried over without touching the file.
    size_t removed = 0;  ///< Artifacts that disappeared from the directory.
    /// Artifacts that failed to read/parse this scan (last-good model kept).
    size_t failed = 0;

    bool Changed() const { return parsed > 0 || removed > 0; }
  };

  RefreshStats last_refresh() const EXCLUDES(mu_);

  /// Refresh() calls currently executing. The scan + parse work happens
  /// outside `mu_` by design, so this is observably > 0 mid-refresh —
  /// readiness probes use it to report "briefly not serving" (still alive)
  /// while a reload or an online publish is being absorbed.
  uint64_t refreshes_in_progress() const {
    return refresh_in_progress_.load(std::memory_order_relaxed);
  }

  /// Cumulative refresh failures per application since construction, for the
  /// `/metrics` endpoint. Keyed by the app the artifact last served (or the
  /// artifact's file stem if it never parsed).
  std::map<std::string, uint64_t> refresh_errors() const EXCLUDES(mu_);

  /// Returns the model for `app`, or NotFound (message lists known apps) if
  /// no artifact declared that name.
  [[nodiscard]] StatusOr<std::shared_ptr<const core::TrainedJuggler>> Lookup(
      const std::string& app) const;

  /// A model together with the snapshot version it was resolved from.
  struct Resolved {
    std::shared_ptr<const core::TrainedJuggler> model;
    uint64_t version = 0;
  };

  /// Like Lookup() but pairs the model with its snapshot version atomically
  /// (a concurrent Refresh() between `Lookup()` and `version()` could
  /// otherwise mismatch the two — and a mismatched pair poisons version-keyed
  /// caches).
  [[nodiscard]] StatusOr<Resolved> Resolve(const std::string& app) const;

  /// Resolve() that never parses an artifact, for callers that must not
  /// block (the event loop). Eager registries always answer, like Resolve().
  /// Lazy registries answer when the model is resident (or the app is
  /// unknown); nullopt means Resolve() would have to load it first.
  std::optional<StatusOr<Resolved>> ResolveResident(
      const std::string& app) const;

  /// Registered application names, sorted.
  std::vector<std::string> AppNames() const;

  /// Snapshot version: 0 before the first successful Refresh(), then
  /// incremented by each one.
  uint64_t version() const;

  size_t size() const;

  /// Models currently resident in memory: equals size() in eager mode, the
  /// loaded-cache population in lazy mode.
  size_t loaded_models() const EXCLUDES(mu_);

  /// Cumulative models evicted by the LRU/TTL policy since construction.
  uint64_t evictions() const EXCLUDES(mu_);

  const std::string& directory() const { return directory_; }

 private:
  /// The on-disk fingerprint of an artifact, read by one stat(2). The inode
  /// is part of it because ModelPublisher renames a fresh file into place:
  /// a publish of the same size that lands on the same mtime tick (coarse
  /// kernel timestamps, or a filesystem with 1-2 s granularity) still reads
  /// as a change.
  struct FileStamp {
    int64_t mtime_ns = 0;
    uint64_t size = 0;
    uint64_t inode = 0;

    friend bool operator==(const FileStamp&, const FileStamp&) = default;
  };

  /// One loaded artifact plus the on-disk fingerprint it was parsed from.
  /// An unchanged fingerprint on the next scan reuses `model` untouched.
  /// In lazy mode `model` stays null (registered, loaded on demand);
  /// `placeholder` marks a file that failed to stat/parse with no last-good
  /// model to keep serving.
  struct Artifact {
    std::string app;
    std::shared_ptr<const core::TrainedJuggler> model;
    FileStamp stamp;
    bool placeholder = false;
  };

  struct Snapshot {
    uint64_t version = 0;
    /// Artifacts keyed by absolute file path (the scan unit).
    std::map<std::string, Artifact> artifacts;
    /// Lookup view: app name -> model, derived from `artifacts`.
    std::map<std::string, std::shared_ptr<const core::TrainedJuggler>> models;
  };

  /// A lazily loaded model plus the fingerprint of the file it came from
  /// (stale fingerprints force a re-parse) and its recency for LRU/TTL.
  struct LoadedModel {
    std::shared_ptr<const core::TrainedJuggler> model;
    FileStamp stamp;
    std::chrono::steady_clock::time_point last_use;
  };

  std::shared_ptr<const Snapshot> CurrentSnapshot() const EXCLUDES(mu_);

  /// Refresh() body; the public wrapper brackets it with the
  /// refresh-in-progress gauge.
  [[nodiscard]] Status RefreshImpl() EXCLUDES(mu_);

  /// ResolveResident() against `snapshot`: the eager model, the resident
  /// lazy copy (refreshing its recency), NotFound, or nullopt when a lazy
  /// model must be parsed first.
  std::optional<StatusOr<Resolved>> ResolveInMemory(
      const std::string& app, const Snapshot& snapshot) const EXCLUDES(mu_);

  /// The lazy-mode parse-on-miss path behind Resolve().
  StatusOr<Resolved> LoadLazy(const std::string& app,
                              const Snapshot& snapshot) const EXCLUDES(mu_);

  /// Applies the TTL sweep then the LRU cap; bumps `evictions_` per model.
  void EnforceLimitsLocked(std::chrono::steady_clock::time_point now) const
      REQUIRES(mu_);

  const std::string directory_;
  const Options options_;
  /// Guards the snapshot pointer swap + refresh stats. Lock class
  /// "service.ModelRegistry.mu" (rank registry=30): artifact parsing happens
  /// *outside* this lock by design (Refresh builds the snapshot first, then
  /// swaps; LoadLazy parses unlocked and re-checks).
  mutable Mutex mu_ ACQUIRED_AFTER(lockdiag::kServiceOrder)
      ACQUIRED_BEFORE(lockdiag::kCacheOrder);
  std::shared_ptr<const Snapshot> snapshot_ GUARDED_BY(mu_);
  RefreshStats last_refresh_ GUARDED_BY(mu_);
  std::map<std::string, uint64_t> refresh_errors_ GUARDED_BY(mu_);
  /// Lazy mode only: app -> parsed model, bounded by max_loaded/ttl_ms.
  mutable std::map<std::string, LoadedModel> loaded_ GUARDED_BY(mu_);
  mutable uint64_t evictions_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> refresh_in_progress_{0};
};

}  // namespace juggler::service

#endif  // JUGGLER_SERVICE_MODEL_REGISTRY_H_
