// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <figures|scale|store_warm> --seed N --seconds S
//             --trace <0|1> --out DIR [--git-sha SHA]
//
// Prints a provenance line, a line of workload figures, and as its last
// line the result object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics traced. A traced
// run also writes its spans (JSON lines) and a summary under DIR. Exits 1
// on a usage error, 2 when the workload threw.
#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <figures|scale|store_warm> "
               "--seed N --seconds S --trace <0|1> --out DIR [--git-sha SHA]\n";
  return 1;
}

bool all_finite(const std::vector<perfbench::Metric>& metrics) {
  return std::all_of(metrics.begin(), metrics.end(),
                     [](const auto& m) { return std::isfinite(m.value); });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string git_sha = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_trace || options.out_dir.empty()) {
    return usage("--seed, --trace and --out are required");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  options.width = std::min<std::size_t>(4, nproc());

  WorkloadReport report;
  try {
    if (options.workload == "figures") {
      report = run_figures(options);
    } else if (options.workload == "scale") {
      report = run_scale(options);
    } else if (options.workload == "store_warm") {
      report = run_store_warm(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  report.end_to_end["peak_rss_mb"] = peak_rss_mb();

  const auto end_to_end = ordered(end_to_end_schema(), report.end_to_end);
  const auto figures = ordered(workload_figure_schema(), report.workload_figures);
  std::vector<Metric> metrics = end_to_end;
  if (options.trace) {
    metrics = ordered(per_layer_schema(), report.per_layer);
    metrics.insert(metrics.end(), figures.begin(), figures.end());
  }
  const bool correct = report.outcome.failed == 0 && all_finite(metrics) &&
                       all_finite(figures) && report.outcome.attempted > 0;

  const std::string provenance = provenance_json(options, report, git_sha);
  std::cout << "{\"provenance\": " << provenance << "}\n";
  std::cout << "{\"workload_figures\": " << metrics_json(figures)
            << ", \"end_to_end\": " << metrics_json(end_to_end) << "}\n";

  if (options.trace) {
    const std::filesystem::path dir =
        std::filesystem::path(options.out_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string stem =
        options.workload + "-seed" + std::to_string(options.seed);
    std::ofstream spans(dir / (stem + ".spans.jsonl"));
    write_jsonl(spans, tracer().spans());
    std::ofstream summary(dir / (stem + ".summary.json"));
    summary << "{\"provenance\": " << provenance
            << ",\n \"end_to_end_untraced\": " << metrics_json(end_to_end)
            << ",\n \"workload_figures_untraced\": " << metrics_json(figures)
            << ",\n \"per_layer\": " << metrics_json(metrics) << "}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.outcome.attempted
            << ", \"failed\": " << report.outcome.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
