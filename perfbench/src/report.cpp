#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/simd.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"trials_per_s", "1/s"},
    {"trial_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kWorkloadFigures[] = {
    {"node_rounds_per_s", "1/s"},
    {"serial_node_rounds_per_s", "1/s"},
    {"engine_speedup", "ratio"},
    {"trial_p99_ms", "ms"},
    {"lookups_per_s", "1/s"},
    {"lookup_p50_us", "us"},
    {"lookup_p99_us", "us"},
    {"appends_per_s", "1/s"},
    {"failed_frac", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gossip.ctor_s", "s"},
    {"gossip.run_s", "s"},
    {"gossip.run_serial_s", "s"},
    {"gossip.run_parallel_s", "s"},
    {"gossip.trials", "count"},
    {"gossip.node_rounds", "count"},
    {"gossip.interactions", "count"},
    {"gossip.updates_moved", "count"},
    {"gossip.ns_per_update_moved", "ns"},
    {"gossip.state_bytes_per_node", "bytes"},
    {"gossip.empty_measurements", "count"},
    {"gossip.self_s", "s"},
    {"sim.sweep_s", "s"},
    {"sim.trial_busy_s", "s"},
    {"sim.trials_dispatched", "count"},
    {"sim.worker_idle_frac", "ratio"},
    {"sim.self_s", "s"},
    {"core.bisect_s", "s"},
    {"core.bisect_probes", "count"},
    {"core.self_s", "s"},
    {"exp.hash_us", "us"},
    {"exp.cache_lookups", "count"},
    {"exp.cache_hits", "count"},
    {"exp.cache_hit_ratio", "ratio"},
    {"exp.cache_lookup_us", "us"},
    {"exp.cache_store_us", "us"},
    {"exp.scope_load_us", "us"},
    {"exp.store_open_s", "s"},
    {"exp.store_records_loaded", "count"},
    {"exp.store_disk_hits", "count"},
    {"exp.store_index_fallbacks", "count"},
    {"exp.store_flush_s", "s"},
    {"exp.store_appended", "count"},
    {"exp.store_dedup_dropped", "count"},
    {"exp.self_s", "s"},
    {"bench.self_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_wall_frac", "ratio"},
    {"trace.overhead_trials_per_s_frac", "ratio"},
    {"trace.overhead_trial_p50_frac", "ratio"},
    {"trace.overhead_setup_frac", "ratio"},
};

}  // namespace

std::span<const MetricSpec> end_to_end_schema() { return kEndToEnd; }
std::span<const MetricSpec> workload_figure_schema() { return kWorkloadFigures; }
std::span<const MetricSpec> per_layer_schema() { return kPerLayer; }

std::vector<Metric> ordered(std::span<const MetricSpec> schema,
                            const Values& values) {
  std::set<std::string> known;
  std::vector<Metric> out;
  for (const auto& spec : schema) {
    known.insert(spec.name);
    const auto it = values.find(spec.name);
    out.push_back({spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  for (const auto& [name, value] : values) {
    if (!known.contains(name)) {
      throw std::logic_error("metric not in schema: " + name);
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  return std::string(buf, end);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string provenance_json(const RunOptions& options,
                            const WorkloadReport& report,
                            const std::string& git_sha) {
  const auto isa = lotus::sim::simd::isa_name(lotus::sim::simd::active_isa());
  std::ostringstream os;
  os << "{\"workload\": \"" << options.workload << "\", \"seed\": "
     << options.seed << ", \"nproc\": " << nproc() << ", \"isa\": \"" << isa
     << "\", \"sweep_width\": " << report.sweep_width
     << ", \"engine_widths\": [";
  for (std::size_t i = 0; i < report.engine_widths.size(); ++i) {
    os << (i > 0 ? ", " : "") << report.engine_widths[i];
  }
  os << "], \"client_threads\": " << report.client_threads
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \"" << git_sha
     << "\", \"trace\": " << (options.trace ? "true" : "false") << "}";
  return os.str();
}

void run_passes(const RunOptions& options, std::size_t min_passes,
                const std::function<void(std::uint32_t, bool)>& pass) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  if (options.trace) min_passes = std::max<std::size_t>(min_passes, 2);
  for (std::uint32_t i = 0;; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    tracer().set_run(i);
    tracer().enable(traced);
    {
      ScopedSpan span(SpanName::kPass);
      AmbientParent ambient(span.id());
      pass(i, traced);
    }
    tracer().enable(false);
    if (i + 1 >= min_passes && now_ns() >= deadline &&
        (!options.trace || traced)) {
      break;
    }
  }
}

Values tracing_overhead(const Values& traced, const Values& untraced) {
  Values out;
  for (const auto& [metric, name] :
       {std::pair{"wall_s", "trace.overhead_wall_frac"},
        {"trials_per_s", "trace.overhead_trials_per_s_frac"},
        {"trial_p50_ms", "trace.overhead_trial_p50_frac"},
        {"setup_s", "trace.overhead_setup_frac"}}) {
    const double base = untraced.at(metric);
    out[name] = base == 0.0 ? 0.0 : traced.at(metric) / base - 1.0;
  }
  return out;
}

}  // namespace perfbench
