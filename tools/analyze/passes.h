#ifndef JUGGLER_TOOLS_ANALYZE_PASSES_H_
#define JUGGLER_TOOLS_ANALYZE_PASSES_H_

#include <vector>

#include "tools/analyze/engine.h"

/// Internal registry glue between engine.cc and the two pass translation
/// units. Not part of the public surface; include engine.h instead.
namespace juggler::analyze {

/// The eleven line-scoped rules ("naked-new", "nondeterminism", ...), in
/// line_passes.cc.
const std::vector<const Pass*>& LinePasses();

/// The four scope/dataflow analyses, in dataflow_passes.cc. Rule names are
/// prefixed "analyze-" (analyze-taint-bounds, analyze-unchecked-deref,
/// analyze-guarded-field, analyze-narrowing).
const std::vector<const Pass*>& DataflowPasses();

}  // namespace juggler::analyze

#endif  // JUGGLER_TOOLS_ANALYZE_PASSES_H_
