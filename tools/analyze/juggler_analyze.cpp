/// CLI for the juggler_analyze engine (tools/analyze/engine.h).
///
///   juggler_analyze <repo-root>
///
/// Runs every pass over the whole tree and prints each finding. Exit status:
/// 0 when there are none, 1 on any finding, 2 on a usage error. The one
/// escape is a `NOLINT(<rule>): reason` comment on the finding's line.

#include <iostream>
#include <vector>

#include "tools/analyze/engine.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: juggler_analyze <repo-root>\n";
    return 2;
  }
  const std::vector<juggler::analyze::Finding> findings =
      juggler::analyze::AnalyzeTree(argv[1]);
  for (const auto& f : findings) {
    std::cout << "error: " << juggler::analyze::FormatFinding(f) << "\n";
  }
  if (!findings.empty()) {
    std::cout << findings.size()
              << " error(s). Fix them, or suppress one with "
                 "NOLINT(<rule>): reason.\n";
    return 1;
  }
  return 0;
}
