#ifndef JUGGLER_PERFBENCH_LEDGER_H_
#define JUGGLER_PERFBENCH_LEDGER_H_

#include "harness.h"

namespace juggler::perfbench {

/// The traced run: the workload's fixed-rate phase untraced (followed by the
/// rate ramp) and traced (spans around the public handler entry points, written to
/// <work-dir>/spans-<workload>.csv), then a replay of the same seeded inputs
/// through the public calls of net, service, core, rpc/cluster and online.
/// Prints the per-layer ledger as the result line.
int RunTraced(const RunContext& ctx);

}  // namespace juggler::perfbench

#endif  // JUGGLER_PERFBENCH_LEDGER_H_
