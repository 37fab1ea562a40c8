#ifndef JUGGLER_MINISPARK_CACHE_PLAN_H_
#define JUGGLER_MINISPARK_CACHE_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "minispark/types.h"

namespace juggler::minispark {

/// \brief One persist/unpersist directive. The paper (Table 2) writes these
/// as p(i) and u(i).
struct CacheOp {
  enum class Kind { kPersist, kUnpersist };
  Kind kind = Kind::kPersist;
  DatasetId dataset = kInvalidDataset;

  static CacheOp Persist(DatasetId d) { return {Kind::kPersist, d}; }
  static CacheOp Unpersist(DatasetId d) { return {Kind::kUnpersist, d}; }

  friend bool operator==(const CacheOp&, const CacheOp&) = default;
};

/// \brief An ordered list of persist/unpersist directives — the paper's
/// SCHEDULE representation, also used for HiBench's developer defaults.
///
/// Semantics (matching §5.1 and the Juggler engine in §5.3): a dataset with a
/// p() op is cached when first materialized. A u(X) op that directly precedes
/// p(Y) drops X's cached blocks immediately before Y's first materialization,
/// freeing memory for Y.
struct CachePlan {
  std::vector<CacheOp> ops;

  bool empty() const { return ops.empty(); }

  /// True if the plan persists `d` at any point.
  bool IsPersisted(DatasetId d) const;

  /// Datasets persisted, in op order.
  std::vector<DatasetId> PersistedDatasets() const;

  /// For dataset `y`, the datasets that must be unpersisted immediately
  /// before y's first materialization (the u() ops preceding p(y)).
  std::vector<DatasetId> UnpersistBefore(DatasetId y) const;

  /// "p(1) p(2) u(2) p(11)" — the paper's Table 2 notation; "-" for the
  /// empty plan.
  std::string ToString() const;

  /// Appends ToString()'s text to `out` without a temporary.
  void AppendTo(std::string* out) const;

  /// Parses the Table 2 notation. Accepts whitespace-separated p(i)/u(i).
  static StatusOr<CachePlan> Parse(const std::string& text);

  friend bool operator==(const CachePlan&, const CachePlan&) = default;
};

}  // namespace juggler::minispark

#endif  // JUGGLER_MINISPARK_CACHE_PLAN_H_
