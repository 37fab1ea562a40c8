#include "minispark/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/random.h"
#include "minispark/memory_manager.h"

namespace juggler::minispark {

double RunResult::FractionPartitionsResident() const {
  int64_t cached = 0;
  int64_t resident = 0;
  for (const auto& [id, stats] : dataset_stats) {
    if (!stats.persisted_at_end) continue;
    cached += stats.distinct_cached;
    resident += stats.resident_at_end;
  }
  if (cached == 0) return 1.0;
  const double frac =
      static_cast<double>(resident) / static_cast<double>(cached);
  return frac > 1.0 ? 1.0 : frac;
}

double RunResult::FractionPartitionsNeverEvicted() const {
  int64_t cached = 0;
  int64_t evicted = 0;
  for (const auto& [id, stats] : dataset_stats) {
    cached += stats.distinct_cached;
    evicted += stats.distinct_evicted;
  }
  if (cached == 0) return 1.0;
  const double frac = 1.0 - static_cast<double>(evicted) / static_cast<double>(cached);
  return frac < 0.0 ? 0.0 : frac;
}

namespace {

/// Re-execution cascades deeper than this abort the run: with sane loss
/// probabilities a chain of lost parents bottoms out in a few hops; an
/// unbounded cascade (adversarial loss probability ~1) must terminate with a
/// typed error, not a hang.
constexpr int kMaxRecoveryDepth = 16;

/// A set of partition indices of one dataset, as a bitmap. It grows on
/// demand rather than being sized to the dataset's partition count: a narrow
/// dataset inherits only its first parent's count (DagBuilder::AddNarrow),
/// so the engine may ask any other parent for a partition past its own.
class PartitionSet {
 public:
  /// Adds `partition`; false if it was already present.
  bool Insert(int partition) {
    const auto p = static_cast<size_t>(partition);
    if (p >= bits_.size()) bits_.resize(p + 1, 0);
    if (bits_[p] != 0) return false;
    bits_[p] = 1;
    return true;
  }

  /// Removes `partition`; false if it was absent.
  bool Erase(int partition) {
    const auto p = static_cast<size_t>(partition);
    if (p >= bits_.size() || bits_[p] == 0) return false;
    bits_[p] = 0;
    return true;
  }

 private:
  std::vector<char> bits_;
};

/// A physical stage: the unit Spark schedules. Tasks of a stage compute
/// partitions of `terminal`, pipelining all narrow transformations in
/// `members` (deepest-first), starting from either source data, shuffle
/// output of `parent_stage_terminals`, or cached blocks.
struct Stage {
  DatasetId terminal = kInvalidDataset;
  /// Datasets evaluated within this stage (narrow chain plus the wide
  /// chain-start, if any), in no particular order.
  std::vector<DatasetId> members;
  /// Terminals of stages that must run before this one (wide parents).
  std::vector<DatasetId> parent_stage_terminals;
  /// Shuffle-write work this stage performs for wide children, as
  /// (wide child id, bytes written per task).
  std::vector<std::pair<DatasetId, double>> shuffle_writes;
};

/// One cost piece of a task, in evaluation order. Only instrumented runs
/// record pieces, as profiling records; the others only sum their ms.
struct Piece {
  DatasetId dataset = kInvalidDataset;
  TransformPart part = TransformPart::kMain;
  double ms = 0.0;
  double bytes = 0.0;       ///< Produced partition size.
  bool from_cache = false;
};

/// What one partition of a dataset costs, computed once per run with the
/// same expressions ResolveChain would evaluate per task, and the dataset's
/// kind and parents, so that the chain walk reads one row per dataset.
struct PartitionCost {
  TransformKind kind = TransformKind::kSource;
  std::span<const DatasetId> parents;
  double bytes = 0.0;          ///< Produced partition size.
  double cache_read_ms = 0.0;  ///< Reading the partition from the cache.
  /// Computing it: a source scan, a narrow transformation's compute, or a
  /// wide one's shuffle read plus aggregation.
  double compute_ms = 0.0;
};

/// The partition costs of every dataset of `app` on `cluster`, indexed by
/// DatasetId.
std::vector<PartitionCost> PartitionCosts(const Application& app,
                                          const ClusterConfig& cluster) {
  std::vector<PartitionCost> costs;
  costs.reserve(app.datasets.size());
  for (const Dataset& ds : app.datasets) {
    PartitionCost cost;
    cost.kind = ds.kind;
    cost.parents = ds.parents;
    cost.bytes = ds.PartitionBytes();
    cost.cache_read_ms = ds.PartitionBytes() / cluster.cache_bandwidth;
    switch (ds.kind) {
      case TransformKind::kSource:
        cost.compute_ms = ds.PartitionBytes() / cluster.disk_bandwidth;
        break;
      case TransformKind::kWide: {
        double in_bytes = 0.0;
        for (DatasetId p : ds.parents) in_bytes += app.dataset(p).bytes;
        in_bytes /= ds.num_partitions;
        cost.compute_ms = in_bytes / cluster.network_bandwidth +
                          ds.PartitionComputeMs() / cluster.cpu_speed;
        break;
      }
      case TransformKind::kNarrow:
        cost.compute_ms = ds.PartitionComputeMs() / cluster.cpu_speed;
        break;
    }
    costs.push_back(cost);
  }
  return costs;
}

struct MachineState {
  explicit MachineState(const ClusterConfig& cluster)
      : mem(cluster.UnifiedMemoryPerMachine(), cluster.MinStoragePerMachine()),
        core_free_ms(static_cast<size_t>(cluster.cores_per_machine), 0.0) {}

  UnifiedMemoryManager mem;
  std::vector<double> core_free_ms;
  /// The running stage's execution memory granted on this machine, and the
  /// compute multiplier its shortfall causes (spilling).
  double granted = 0.0;
  double spill_factor = 1.0;
};

/// Whole-run mutable state threaded through job/stage execution.
class RunState {
 public:
  RunState(const Application& app, const ClusterConfig& cluster,
           const CachePlan& plan, const RunOptions& options)
      : app_(app),
        cluster_(cluster),
        options_(options),
        fault_plan_(options.faults),
        rng_(options.seed),
        costs_(PartitionCosts(app, cluster)),
        ever_stored_(static_cast<size_t>(app.num_datasets())),
        lost_pending_(static_cast<size_t>(app.num_datasets())),
        materialized_(static_cast<size_t>(app.num_datasets()), 0),
        persisted_(static_cast<size_t>(app.num_datasets()), 0),
        drop_with_(static_cast<size_t>(app.num_datasets())),
        stage_of_(static_cast<size_t>(app.num_datasets()), -1),
        shuffle_hosts_(static_cast<size_t>(app.num_datasets()), 0),
        machine_ready_ms_(static_cast<size_t>(cluster.num_machines), 0.0),
        stats_(static_cast<size_t>(app.num_datasets())),
        stats_touched_(static_cast<size_t>(app.num_datasets()), 0) {
    for (DatasetId d : plan.PersistedDatasets()) {
      persisted_[static_cast<size_t>(d)] = 1;
      drop_with_[static_cast<size_t>(d)] = plan.UnpersistBefore(d);
    }
    machines_.reserve(static_cast<size_t>(cluster.num_machines));
    for (int m = 0; m < cluster.num_machines; ++m) {
      machines_.emplace_back(cluster);
    }
    if (options.instrument) {
      profile_ = std::make_shared<ProfilingDb>();
      profile_->SetClusterShape(cluster.num_machines, cluster.cores_per_machine);
      for (const Dataset& d : app.datasets) {
        profile_->AddDataset(
            DatasetRecord{d.id, d.name, d.kind, d.parents, d.num_partitions});
      }
    }
  }

  [[nodiscard]] Status ExecuteAll();
  RunResult Finish();

 private:
  [[nodiscard]] Status ExecuteJob(int job_index);

  /// Plans the job computing `target` into `stages_` (the target's stage
  /// first) and `stage_of_`.
  void BuildStages(DatasetId target);

  /// Returns the stage whose terminal is `root`, creating it (and, through
  /// its wide members, its parent stages) if the job has none yet.
  int CreateStage(DatasetId root);

  /// Appends stage `s`'s parent stages, then `s`, to `order`, skipping
  /// stages already placed (`placed`, indexed by stage).
  void OrderStages(int s, std::vector<char>* placed, std::vector<int>* order);

  /// Executes one stage at a named point: assigns a fresh stage id, fires
  /// the fault plan's executor losses for it, re-executes parents whose
  /// shuffle output was lost, then runs the tasks. Returns the stage end
  /// time, or kAborted (task attempts exhausted / recovery cascade too
  /// deep).
  [[nodiscard]] StatusOr<double> ExecuteStage(int stage_index, int job_index,
                                              double start_ms, int depth);

  /// Runs the stage's tasks (all of them, or — on a re-execution — only the
  /// tasks whose shuffle output lived on `only_machines`).
  [[nodiscard]] StatusOr<double> ExecuteStageTasks(
      const Stage& stage, int job_index, int stage_id, double start_ms,
      const std::set<int>* only_machines);

  /// Fires the fault plan's executor losses scheduled at (job, stage):
  /// drops the machines' cached blocks as *lost*, marks their hosted
  /// shuffle outputs lost, and delays their cores by the relaunch time.
  void ApplyExecutorLosses(int job_index, int stage_id, double now_ms);

  /// Resolves task `task` of `stage` on `machine`: its chain, then its
  /// shuffle writes. Returns the task's work in ms, summed in evaluation
  /// order; when instrumenting, its pieces are left in `pieces_`.
  template <bool kInstrument>
  double ResolveTask(const Stage& stage, int task, MachineState& machine);

  /// Recursively resolves the cost of obtaining partition `partition` of
  /// dataset `d` on machine `m`, adding each cost piece to the task in
  /// evaluation order (AddPiece).
  template <bool kInstrument>
  void ResolveChain(DatasetId d, int partition, MachineState& machine);

  /// Adds a cost piece to the task being run: its ms to `work_ms_`, and the
  /// piece itself to `pieces_` when instrumenting.
  template <bool kInstrument>
  void AddPiece(const Piece& piece) {
    work_ms_ += piece.ms;
    if constexpr (kInstrument) pieces_.push_back(piece);
  }

  /// The stats of `d`, which RunResult::dataset_stats then reports.
  DatasetCacheStats& StatsOf(DatasetId d) {
    stats_touched_[static_cast<size_t>(d)] = 1;
    return stats_[static_cast<size_t>(d)];
  }

  bool FullyCached(DatasetId d) const {
    int blocks = 0;
    for (const auto& m : machines_) blocks += m.mem.NumBlocksOf(d);
    return blocks >= app_.dataset(d).num_partitions;
  }

  const Application& app_;
  const ClusterConfig& cluster_;
  const RunOptions& options_;
  FaultPlan fault_plan_;
  Rng rng_;

  const std::vector<PartitionCost> costs_;  ///< Indexed by DatasetId.
  std::vector<MachineState> machines_;
  /// The work of the task being run, summed in evaluation order, and its
  /// cost pieces when instrumenting (one buffer for the whole run).
  double work_ms_ = 0.0;
  std::vector<Piece> pieces_;
  /// ever_stored_[d] holds partition indices of d that were cached at some
  /// point (distinguishes first materialization from eviction recompute).
  std::vector<PartitionSet> ever_stored_;
  /// lost_pending_[d]: partitions dropped by executor loss and not yet
  /// recomputed — the recompute that clears an entry counts as
  /// `partitions_recomputed_after_loss`.
  std::vector<PartitionSet> lost_pending_;
  std::vector<char> materialized_;
  /// Dynamic persist state: set while p(d) is in effect; cleared when a
  /// u(d) op triggers (an unpersisted dataset is never re-stored).
  std::vector<char> persisted_;
  /// drop_with_[y]: datasets to unpersist while y first materializes.
  std::vector<std::vector<DatasetId>> drop_with_;

  /// The current job's stages; its target's stage is stages_[0].
  std::vector<Stage> stages_;
  /// stage_of_[d]: the index in stages_ of the stage whose terminal is d,
  /// or -1.
  std::vector<int> stage_of_;

  /// Shuffle-output bookkeeping for stage re-execution, keyed by the
  /// terminal dataset of each completed shuffle-writing stage: machines
  /// 0..shuffle_hosts_[d]-1 host its map outputs (task t runs on machine
  /// t % num_machines; 0 means no output yet), and shuffle_lost_hosts_[d]
  /// holds those hosts that have died since.
  std::vector<int> shuffle_hosts_;
  std::map<DatasetId, std::set<int>> shuffle_lost_hosts_;

  /// Absolute time before which a machine's cores accept no tasks (executor
  /// relaunch after an injected loss).
  std::vector<double> machine_ready_ms_;

  double now_ms_ = 0.0;
  int next_stage_id_ = 0;

  // Aggregated stats. stats_touched_[d] marks the datasets that
  // RunResult::dataset_stats reports (those whose stats were ever updated).
  std::vector<DatasetCacheStats> stats_;
  std::vector<char> stats_touched_;
  int64_t hits_ = 0;
  int64_t recomputes_ = 0;
  int64_t tasks_retried_ = 0;
  int64_t stages_reexecuted_ = 0;
  int64_t executors_lost_ = 0;
  int64_t partitions_lost_ = 0;
  int64_t recomputed_after_loss_ = 0;
  int64_t speculative_launched_ = 0;
  int64_t speculative_wins_ = 0;

  std::shared_ptr<ProfilingDb> profile_;
};

void RunState::BuildStages(DatasetId target) {
  for (const Stage& stage : stages_) {
    stage_of_[static_cast<size_t>(stage.terminal)] = -1;
  }
  stages_.clear();
  CreateStage(target);
}

int RunState::CreateStage(DatasetId root) {
  if (const int existing = stage_of_[static_cast<size_t>(root)];
      existing >= 0) {
    return existing;
  }
  const int index = static_cast<int>(stages_.size());
  stages_.push_back(Stage{});
  stage_of_[static_cast<size_t>(root)] = index;
  stages_[static_cast<size_t>(index)].terminal = root;

  // This stage's own walk: a dataset two stages pipeline is a member of
  // both. Creating a parent stage may grow stages_, so it is indexed anew.
  std::vector<DatasetId> stack = {root};
  std::vector<char> visited(static_cast<size_t>(app_.num_datasets()), 0);
  visited[static_cast<size_t>(root)] = 1;
  while (!stack.empty()) {
    const DatasetId id = stack.back();
    stack.pop_back();
    stages_[static_cast<size_t>(index)].members.push_back(id);
    const Dataset& ds = app_.dataset(id);
    if (ds.kind == TransformKind::kWide) {
      // The wide dataset reads shuffle output; its parents terminate
      // parent stages. If the wide dataset is fully cached, Spark skips
      // the parent stages entirely.
      if (persisted_[static_cast<size_t>(id)] != 0 && FullyCached(id)) {
        continue;
      }
      for (DatasetId p : ds.parents) {
        const int parent_index = CreateStage(p);
        Stage& parent = stages_[static_cast<size_t>(parent_index)];
        stages_[static_cast<size_t>(index)].parent_stage_terminals.push_back(
            parent.terminal);
        // Parent stage writes this wide child's shuffle input.
        parent.shuffle_writes.push_back({id, app_.dataset(p).PartitionBytes()});
      }
    } else {
      for (DatasetId p : ds.parents) {
        if (visited[static_cast<size_t>(p)] == 0) {
          visited[static_cast<size_t>(p)] = 1;
          stack.push_back(p);
        }
      }
    }
  }
  return index;
}

template <bool kInstrument>
double RunState::ResolveTask(const Stage& stage, int task,
                             MachineState& machine) {
  work_ms_ = 0.0;
  if constexpr (kInstrument) pieces_.clear();
  ResolveChain<kInstrument>(stage.terminal, task, machine);
  for (const auto& [wide_child, bytes] : stage.shuffle_writes) {
    AddPiece<kInstrument>(Piece{wide_child, TransformPart::kShuffleWrite,
                                bytes / cluster_.disk_bandwidth, 0.0, false});
  }
  return work_ms_;
}

template <bool kInstrument>
void RunState::ResolveChain(DatasetId d, int partition, MachineState& machine) {
  const PartitionCost& cost = costs_[static_cast<size_t>(d)];
  const BlockId bid{d, partition};
  const bool persisted = persisted_[static_cast<size_t>(d)] != 0;

  if (persisted && machine.mem.TouchBlock(bid)) {
    ++hits_;
    ++StatsOf(d).hits;
    AddPiece<kInstrument>(Piece{d, TransformPart::kMain, cost.cache_read_ms,
                                cost.bytes, true});
    return;
  }

  // A source is scanned and a wide dataset reads its shuffle input; a
  // narrow one first obtains the same partition of every parent.
  if (cost.kind == TransformKind::kNarrow) {
    for (DatasetId p : cost.parents) {
      ResolveChain<kInstrument>(p, partition, machine);
    }
  }
  AddPiece<kInstrument>(Piece{d,
                              cost.kind == TransformKind::kWide
                                  ? TransformPart::kShuffleRead
                                  : TransformPart::kMain,
                              cost.compute_ms, cost.bytes, false});

  if (persisted) {
    DatasetCacheStats& stats = StatsOf(d);
    const bool first_store =
        ever_stored_[static_cast<size_t>(d)].Insert(partition);
    if (!first_store) {
      // This partition had been cached and was evicted or lost: the read is
      // a recomputation (paper §1's 97x-slower case). Recomputation walks
      // the same lineage as the first materialization, so the rebuilt
      // partition is bit-identical in size and provenance to the original.
      ++recomputes_;
      ++stats.recomputes;
      if (lost_pending_[static_cast<size_t>(d)].Erase(partition)) {
        // Specifically a failure-driven recompute (executor loss), not a
        // memory-pressure one.
        ++recomputed_after_loss_;
        ++stats.recomputed_after_loss;
      }
    }
    if (machine.mem.StoreBlock(bid, cost.bytes)) {
      ++stats.stored;
    }
    if (first_store) ++stats.distinct_cached;
    // Block-wise unpersist: as this dataset's partitions materialize, the
    // corresponding partitions of the datasets scheduled for u() before it
    // are dropped, so the two never fully coexist (the §5.1 cost is
    // max(sizes), not their sum).
    for (DatasetId drop : drop_with_[static_cast<size_t>(d)]) {
      machine.mem.DropBlock(BlockId{drop, partition});
    }
  }
}

void RunState::ApplyExecutorLosses(int job_index, int stage_id,
                                   double now_ms) {
  if (!fault_plan_.enabled() ||
      fault_plan_.spec().executor_loss_prob <= 0.0) {
    return;
  }
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (!fault_plan_.ExecutorLost(job_index, stage_id, static_cast<int>(m))) {
      continue;
    }
    ++executors_lost_;
    machine_ready_ms_[m] = std::max(
        machine_ready_ms_[m], now_ms + cluster_.executor_relaunch_ms);
    for (const BlockId& b : machines_[m].mem.LoseAllBlocks()) {
      ++partitions_lost_;
      ++StatsOf(b.dataset).lost;
      lost_pending_[static_cast<size_t>(b.dataset)].Insert(b.partition);
    }
    for (size_t terminal = 0; terminal < shuffle_hosts_.size(); ++terminal) {
      if (static_cast<int>(m) < shuffle_hosts_[terminal]) {
        shuffle_lost_hosts_[static_cast<DatasetId>(terminal)].insert(
            static_cast<int>(m));
      }
    }
  }
}

StatusOr<double> RunState::ExecuteStage(int stage_index, int job_index,
                                        double start_ms, int depth) {
  if (depth > kMaxRecoveryDepth) {
    return Status::Aborted(
        "stage recovery cascade exceeded depth " +
        std::to_string(kMaxRecoveryDepth) + " in job " +
        std::to_string(job_index) +
        " (executor losses keep destroying re-executed shuffle output)");
  }
  const Stage& stage = stages_[static_cast<size_t>(stage_index)];
  const int stage_id = next_stage_id_++;

  // Fire the fault plan's losses scheduled at this named point, *before*
  // checking parents: a loss here may be what destroys a parent's output.
  ApplyExecutorLosses(job_index, stage_id, start_ms);

  // Spark semantics: a missing-shuffle fetch failure re-submits the parent
  // stage for the lost map outputs only, then retries this stage.
  for (DatasetId pt : stage.parent_stage_terminals) {
    const auto lost_it = shuffle_lost_hosts_.find(pt);
    if (lost_it == shuffle_lost_hosts_.end() || lost_it->second.empty()) {
      continue;
    }
    ++stages_reexecuted_;
    const int parent_index = stage_of_[static_cast<size_t>(pt)];
    const int parent_stage_id = next_stage_id_++;
    ApplyExecutorLosses(job_index, parent_stage_id, start_ms);
    // A loss fired during the re-submission may have grown the lost set of
    // the parent's own parents; recover those first.
    const Stage& parent = stages_[static_cast<size_t>(parent_index)];
    for (DatasetId grand : parent.parent_stage_terminals) {
      const auto grand_it = shuffle_lost_hosts_.find(grand);
      if (grand_it == shuffle_lost_hosts_.end() || grand_it->second.empty()) {
        continue;
      }
      // Delegate to a full recursive execution of the grandparent repair by
      // re-running this loop's machinery one level down.
      auto repaired =
          ExecuteStage(parent_index, job_index, start_ms, depth + 1);
      if (!repaired.ok()) return repaired.status();
      start_ms = *repaired;
      break;
    }
    // Re-run only the parent tasks whose output lived on the dead hosts
    // (the relaunched executors pick their old partitions back up). Re-read
    // the lost set now: the re-submission's own losses above may have grown
    // it, and the grandparent repair may have cleared it entirely.
    const auto again = shuffle_lost_hosts_.find(pt);
    if (again != shuffle_lost_hosts_.end() && !again->second.empty()) {
      const std::set<int> lost_hosts = again->second;
      auto reexec = ExecuteStageTasks(parent, job_index, parent_stage_id,
                                      start_ms, &lost_hosts);
      if (!reexec.ok()) return reexec.status();
      start_ms = *reexec;
      shuffle_lost_hosts_.erase(pt);
    }
  }

  return ExecuteStageTasks(stage, job_index, stage_id, start_ms,
                           /*only_machines=*/nullptr);
}

StatusOr<double> RunState::ExecuteStageTasks(const Stage& stage, int job_index,
                                             int stage_id, double start_ms,
                                             const std::set<int>* only_machines) {
  const Dataset& terminal = app_.dataset(stage.terminal);
  const int num_tasks = terminal.num_partitions;

  // Unpersist triggers: when a persisted dataset first materializes in this
  // stage, the datasets scheduled for u() before it stop being persisted
  // (no re-stores) and their blocks are dropped partition-by-partition as
  // the successor's blocks land (see ResolveChain); any leftovers are
  // cleaned up after the stage.
  std::vector<DatasetId> cleanup;
  for (DatasetId member : stage.members) {
    if (persisted_[static_cast<size_t>(member)] == 0) continue;
    if (materialized_[static_cast<size_t>(member)] != 0) continue;
    materialized_[static_cast<size_t>(member)] = 1;
    for (DatasetId drop : drop_with_[static_cast<size_t>(member)]) {
      persisted_[static_cast<size_t>(drop)] = 0;
      cleanup.push_back(drop);
    }
  }

  // Execution-memory pressure: each concurrently running task reserves the
  // pipeline's peak requirement for the whole stage.
  double exec_per_task = 0.0;
  for (DatasetId member : stage.members) {
    exec_per_task = std::max(
        exec_per_task, app_.dataset(member).exec_memory_per_task_bytes);
  }
  for (MachineState& machine : machines_) {
    machine.granted = 0.0;
    machine.spill_factor = 1.0;
    const double want =
        exec_per_task * static_cast<double>(cluster_.cores_per_machine);
    if (want <= 0.0) continue;
    machine.granted = machine.mem.AcquireExecution(want);
    const double shortfall = (want - machine.granted) / want;
    machine.spill_factor = 1.0 + options_.spill_compute_penalty * shortfall;
  }

  for (size_t m = 0; m < machines_.size(); ++m) {
    // A machine whose executor is mid-relaunch joins the stage late.
    std::fill(machines_[m].core_free_ms.begin(),
              machines_[m].core_free_ms.end(),
              std::max(start_ms, machine_ready_ms_[m]));
  }

  if (profile_) {
    profile_->AddStage(StageRecord{job_index, stage_id, stage.terminal, num_tasks});
  }

  // The run's knobs, read once per stage rather than through options_ on
  // every task.
  const double instr_factor =
      options_.instrument ? 1.0 + options_.instrumentation_overhead : 1.0;
  const int max_attempts = std::max(1, options_.faults.max_task_attempts);
  const double noise_sigma = options_.noise_sigma;
  const double straggler_prob = options_.straggler_prob;
  const double straggler_factor = options_.straggler_factor;
  const bool faults = fault_plan_.enabled();
  const bool task_failures =
      faults && fault_plan_.spec().task_failure_prob > 0.0;
  const bool speculation =
      faults && options_.faults.speculation && machines_.size() > 1;
  const double speculation_multiplier = options_.faults.speculation_multiplier;
  const int num_machines = cluster_.num_machines;

  // Task t runs on machine t % num_machines.
  for (int t = 0, machine_index = 0; t < num_tasks; ++t, ++machine_index) {
    if (machine_index == num_machines) machine_index = 0;
    if (only_machines != nullptr && only_machines->count(machine_index) == 0) {
      continue;  // Re-execution repairs only the lost hosts' outputs.
    }
    MachineState& machine = machines_[static_cast<size_t>(machine_index)];

    // Retry schedule first: an exhausted task aborts the run before its
    // attempts touch any cache state.
    int failed_attempts = 0;
    if (task_failures) {
      while (failed_attempts < max_attempts &&
             fault_plan_.TaskFails(job_index, stage_id, t, failed_attempts)) {
        ++failed_attempts;
      }
      if (failed_attempts >= max_attempts) {
        return Status::Aborted(
            "task " + TaskCoord{job_index, stage_id, t}.ToString() +
            " (dataset '" + terminal.name + "') failed " +
            std::to_string(max_attempts) +
            " attempts; giving up (spark.task.maxFailures)");
      }
    }

    const double work_ms = profile_ ? ResolveTask<true>(stage, t, machine)
                                    : ResolveTask<false>(stage, t, machine);

    double scale = machine.spill_factor;
    if (noise_sigma > 0.0) scale *= rng_.Jitter(noise_sigma);
    if (straggler_prob > 0.0 && rng_.Bernoulli(straggler_prob)) {
      scale *= straggler_factor;
    }
    if (faults) {
      scale *= fault_plan_.StragglerFactor(job_index, stage_id, t);
    }
    scale *= instr_factor;

    // Earliest-free core on the task's machine; failed attempts occupy it
    // serially before the successful attempt starts (Spark re-schedules a
    // failed task with locality preference for the same data).
    auto core = std::min_element(machine.core_free_ms.begin(),
                                 machine.core_free_ms.end());
    double cursor = *core;
    for (int a = 0; a < failed_attempts; ++a) {
      const double frac = fault_plan_.FailureFraction(job_index, stage_id, t, a);
      const double fail_start = cursor;
      cursor += cluster_.task_overhead_ms + work_ms * scale * frac;
      ++tasks_retried_;
      if (profile_) {
        profile_->AddTask(TaskRecord{job_index, stage_id, t, machine_index,
                                     fail_start, cursor, a,
                                     /*speculative=*/false, /*failed=*/true});
      }
    }

    const double task_start = cursor;
    cursor += cluster_.task_overhead_ms;
    if (profile_) {
      for (const Piece& piece : pieces_) {
        const double dur = piece.ms * scale;
        profile_->AddTransform(TransformRecord{job_index, stage_id, t,
                                               piece.dataset, piece.part,
                                               cursor, cursor + dur,
                                               piece.bytes, piece.from_cache});
        cursor += dur;
      }
    } else {
      cursor += work_ms * scale;
    }
    const double task_finish = cursor;

    // Speculative execution: a task that overruns its clean estimate gets a
    // duplicate on the next machine; the earlier finisher wins and the
    // loser is killed at that moment.
    double effective_finish = task_finish;
    bool original_killed = false;
    if (speculation) {
      const double clean_ms =
          cluster_.task_overhead_ms +
          work_ms * machine.spill_factor * instr_factor;
      const double detect_ms = task_start + clean_ms * speculation_multiplier;
      if (task_finish > detect_ms) {
        const size_t spec_machine =
            (static_cast<size_t>(machine_index) + 1) % machines_.size();
        auto spec_core =
            std::min_element(machines_[spec_machine].core_free_ms.begin(),
                             machines_[spec_machine].core_free_ms.end());
        const double spec_start = std::max(
            {detect_ms, *spec_core, machine_ready_ms_[spec_machine]});
        if (spec_start < task_finish) {
          ++speculative_launched_;
          const double spec_finish =
              spec_start + cluster_.task_overhead_ms +
              work_ms * machines_[spec_machine].spill_factor * instr_factor;
          if (spec_finish < task_finish) {
            ++speculative_wins_;
            effective_finish = spec_finish;
            original_killed = true;
          }
          *spec_core = effective_finish;  // Loser killed when winner lands.
          if (profile_) {
            profile_->AddTask(TaskRecord{
                job_index, stage_id, t, static_cast<int>(spec_machine),
                spec_start, effective_finish, failed_attempts,
                /*speculative=*/true, /*failed=*/!original_killed});
          }
        }
      }
    }

    if (profile_) {
      profile_->AddTask(TaskRecord{job_index, stage_id, t, machine_index,
                                   task_start, effective_finish,
                                   failed_attempts, /*speculative=*/false,
                                   /*failed=*/original_killed});
    }
    *core = effective_finish;
  }

  double end_ms = start_ms;
  for (const auto& m : machines_) {
    for (double core : m.core_free_ms) end_ms = std::max(end_ms, core);
  }

  for (MachineState& machine : machines_) {
    if (machine.granted > 0.0) machine.mem.ReleaseExecution(machine.granted);
  }
  for (DatasetId drop : cleanup) {
    for (auto& m : machines_) m.mem.DropDataset(drop);
  }

  // A full execution of a shuffle-writing stage (re)establishes its map
  // outputs on the machines that ran its tasks.
  if (!stage.shuffle_writes.empty() && only_machines == nullptr) {
    shuffle_hosts_[static_cast<size_t>(stage.terminal)] =
        std::min(num_tasks, cluster_.num_machines);
    shuffle_lost_hosts_.erase(stage.terminal);
  }

  // Stage launch latency plus all-to-all shuffle coordination that grows
  // with the cluster size (the paper's area-B overhead).
  end_ms += 5.0;
  if (!stage.parent_stage_terminals.empty()) {
    end_ms += cluster_.shuffle_latency_ms * cluster_.num_machines;
  }
  return end_ms;
}

void RunState::OrderStages(int s, std::vector<char>* placed,
                           std::vector<int>* order) {
  if ((*placed)[static_cast<size_t>(s)] != 0) return;
  (*placed)[static_cast<size_t>(s)] = 1;
  for (DatasetId pt : stages_[static_cast<size_t>(s)].parent_stage_terminals) {
    OrderStages(stage_of_[static_cast<size_t>(pt)], placed, order);
  }
  order->push_back(s);
}

Status RunState::ExecuteJob(int job_index) {
  const Job& job = app_.jobs[static_cast<size_t>(job_index)];
  const double job_start = now_ms_;

  BuildStages(job.target);

  // Topological order: parents before children. Stage creation pushes a
  // child before its parents, so execute in dependency order via DFS.
  std::vector<int> order;
  std::vector<char> placed(stages_.size(), 0);
  OrderStages(0, &placed, &order);

  for (int s : order) {
    auto end = ExecuteStage(s, job_index, now_ms_, /*depth=*/0);
    if (!end.ok()) return end.status();
    now_ms_ = *end;
  }

  // Serial driver work + result transfer back to the driver.
  now_ms_ += cluster_.job_serial_ms;
  now_ms_ += job.result_bytes / cluster_.network_bandwidth;

  if (profile_) {
    profile_->AddJob(JobRecord{job_index, job.name, job.target, job_start, now_ms_});
  }
  return Status::OK();
}

Status RunState::ExecuteAll() {
  for (int j = 0; j < static_cast<int>(app_.jobs.size()); ++j) {
    JUGGLER_RETURN_IF_ERROR(ExecuteJob(j));
  }
  return Status::OK();
}

RunResult RunState::Finish() {
  RunResult result;
  result.app_name = app_.name;
  result.machines = cluster_.num_machines;
  result.duration_ms = now_ms_;
  result.cache_hits = hits_;
  result.cache_recomputes = recomputes_;
  result.tasks_retried = tasks_retried_;
  result.stages_reexecuted = stages_reexecuted_;
  result.executors_lost = executors_lost_;
  result.partitions_lost = partitions_lost_;
  result.partitions_recomputed_after_loss = recomputed_after_loss_;
  result.speculative_launched = speculative_launched_;
  result.speculative_wins = speculative_wins_;

  // Distinct evictions per dataset, collected from every machine's memory
  // manager (evictions and rejections both count: the partition is not in
  // memory when next needed).
  std::vector<PartitionSet> evicted(stats_.size());
  for (const auto& m : machines_) {
    result.blocks_evicted += m.mem.blocks_evicted();
    result.store_rejections += m.mem.store_rejections();
    result.peak_execution_bytes =
        std::max(result.peak_execution_bytes, m.mem.peak_execution_used());
    for (const BlockId& b : m.mem.evicted_blocks()) {
      if (evicted[static_cast<size_t>(b.dataset)].Insert(b.partition)) {
        ++StatsOf(b.dataset).distinct_evicted;
      }
    }
  }
  for (size_t d = 0; d < stats_.size(); ++d) {
    if (stats_touched_[d] == 0) continue;
    DatasetCacheStats& stats = stats_[d];
    if (persisted_[d] != 0) {
      stats.persisted_at_end = true;
      for (const auto& m : machines_) {
        stats.resident_at_end += m.mem.NumBlocksOf(static_cast<DatasetId>(d));
      }
    }
    result.dataset_stats.emplace_hint(result.dataset_stats.end(),
                                      static_cast<DatasetId>(d), stats);
  }
  result.profile = std::move(profile_);
  return result;
}

}  // namespace

StatusOr<RunResult> Engine::Run(const Application& app,
                                const ClusterConfig& cluster,
                                const CachePlan& plan) const {
  JUGGLER_RETURN_IF_ERROR(Validate(app));
  if (cluster.num_machines <= 0 || cluster.cores_per_machine <= 0) {
    return Status::InvalidArgument("cluster must have machines and cores");
  }
  JUGGLER_RETURN_IF_ERROR(options_.faults.Validate());
  for (const CacheOp& op : plan.ops) {
    if (op.dataset < 0 || op.dataset >= app.num_datasets()) {
      return Status::InvalidArgument("cache plan references unknown dataset " +
                                     std::to_string(op.dataset));
    }
  }
  RunState state(app, cluster, plan, options_);
  JUGGLER_RETURN_IF_ERROR(state.ExecuteAll());
  return state.Finish();
}

}  // namespace juggler::minispark
