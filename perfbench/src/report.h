// What a workload hands back to main(), and how it is printed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed. Every trial, lookup and correctness
/// check counts once; an exception, an out-of-range delivery or a mismatch
/// counts as a failure.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }
  void merge(const Outcome& other) noexcept {
    attempted += other.attempted;
    failed += other.failed;
  }
  [[nodiscard]] double failed_frac() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the build tree: store_warm's store, and the
  /// spans and summary of traced runs.
  std::string out_dir;
  /// min(4, nproc): the widest any workload runs.
  std::size_t width = 1;
};

using Values = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics every workload measures (BENCHMARK.json
/// end_to_end, same order).
[[nodiscard]] std::span<const MetricSpec> end_to_end_schema();
/// End-to-end figures that only some workloads have (engine speed, lookup
/// latency, ...); 0 on a workload that bypasses the layer.
[[nodiscard]] std::span<const MetricSpec> workload_figure_schema();
/// Per-layer metrics of traced runs, tracing overhead included. A traced
/// run reports these followed by the workload figures.
[[nodiscard]] std::span<const MetricSpec> per_layer_schema();

/// `values` in schema order, 0 for a name the workload did not set. Throws
/// std::logic_error on a name the schema does not know.
[[nodiscard]] std::vector<Metric> ordered(std::span<const MetricSpec> schema,
                                          const Values& values);

struct WorkloadReport {
  // The widths this workload ran at, for the provenance stamp (0: none).
  std::size_t sweep_width = 0;
  std::vector<std::size_t> engine_widths;
  std::size_t client_threads = 0;
  Outcome outcome;
  /// From untraced passes only.
  Values end_to_end;
  /// From untraced passes only.
  Values workload_figures;
  /// Traced runs only.
  Values per_layer;
};

/// Shortest round-trip decimal form; non-finite values are printed as null
/// (main() refuses to report a result containing one).
[[nodiscard]] std::string json_number(double value);

/// {"name": {"value": v, "unit": "u"}, ...}
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

/// Peak resident set of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] std::size_t nproc();

/// One JSON object describing the host and build that produced a result.
[[nodiscard]] std::string provenance_json(const RunOptions& options,
                                          const WorkloadReport& report,
                                          const std::string& git_sha);

/// Runs `pass(index, traced)` until `seconds` have elapsed and at least
/// `min_passes` ran. Untraced runs never trace; traced runs alternate an
/// untraced and a traced pass so the two see the same machine state, and
/// the difference between them is the tracing overhead. Each pass runs
/// inside a bench.pass span when traced.
void run_passes(const RunOptions& options, std::size_t min_passes,
                const std::function<void(std::uint32_t, bool)>& pass);

/// trace.overhead_<metric>_frac for wall_s, trials_per_s, trial_p50_ms and
/// setup_s: the traced passes' value over the untraced passes', minus one
/// (0 when the untraced value is 0).
[[nodiscard]] Values tracing_overhead(const Values& traced,
                                      const Values& untraced);

}  // namespace perfbench
