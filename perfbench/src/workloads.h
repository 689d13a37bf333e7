// The benchmark's three workloads. Each builds its inputs from the seed,
// measures for options.seconds, checks every output, and reports its
// metrics (see README.md for what each one stresses and bypasses).
#pragma once

#include "report.h"

namespace perfbench {

/// The paper's figure grids at Table-1 scale through sim, core and an
/// in-memory exp::TrialCache, engines serial.
[[nodiscard]] WorkloadReport run_figures(const RunOptions& options);

/// One 10^5-node trade lotus-eater population, engine serial and at width.
[[nodiscard]] WorkloadReport run_scale(const RunOptions& options);

/// Warm-rerun sessions against a large on-disk exp::TrialStore.
[[nodiscard]] WorkloadReport run_store_warm(const RunOptions& options);

}  // namespace perfbench
