// scale: one large population, engine serial and at width.
//
// The scale_crossover configuration at 10^5 nodes — copies seeded at
// Table 1's 12/250 fraction, trade lotus-eater controlling 20% — run once
// on the serial engine and once on `width` engine workers in every pass,
// alternating which goes first. At ~80 bytes/node the engine state is
// ~8 MB: beyond a 2 MiB per-core L2, so this workload exposes the round
// phases, the plan/wave path and random-partner misses. It bypasses sim and
// exp. Both results must be bit-identical.
#include <cstdint>
#include <optional>
#include <vector>

#include "digest.h"
#include "gossip/engine.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 100000;
/// Shorter than Table 1's 120 so a run fits several passes of both widths:
/// 10 warm-up rounds, 10 measured generations, 10 rounds of lifetime.
constexpr std::uint32_t kRounds = 30;
constexpr double kAttackerFraction = 0.2;

lotus::gossip::GossipConfig scale_config(std::uint64_t seed) {
  lotus::gossip::GossipConfig config;  // Table 1 defaults...
  config.nodes = kNodes;
  config.copies_seeded = (kNodes * 12 + 125) / 250;  // ...at constant fraction
  config.rounds = kRounds;
  config.seed = seed;
  return config;
}

struct Engine {
  std::int64_t ctor_ns = 0;
  std::int64_t run_ns = 0;
  double state_bytes_per_node = 0.0;
  lotus::gossip::GossipResult result;
  bool ok = false;
};

Engine run_engine(const lotus::gossip::GossipConfig& config,
                  std::size_t threads) {
  lotus::gossip::AttackPlan plan;
  plan.kind = lotus::gossip::AttackKind::kTradeLotus;
  plan.attacker_fraction = kAttackerFraction;
  Engine out;
  ScopedSpan span(SpanName::kTrial);
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  try {
    std::optional<lotus::gossip::GossipEngine> engine;
    engine.emplace(config, plan, lotus::gossip::StateModel::kWindowed, threads);
    t1 = now_ns();
    out.result = engine->run();
    out.state_bytes_per_node = static_cast<double>(engine->state_bytes()) /
                               static_cast<double>(config.nodes);
    out.ok = deliveries_in_range(out.result);
  } catch (...) {
    out.ok = false;
  }
  const std::int64_t t2 = now_ns();
  tracer().record(SpanName::kCtor, t0, t1);
  tracer().record(SpanName::kRun, t1, t2);
  out.ctor_ns = t1 - t0;
  out.run_ns = t2 - t1;
  return out;
}

struct Pass {
  bool traced = false;
  Engine serial;
  Engine parallel;
};

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double sec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Summary {
  Values values;
  Values figures;
};

Summary summarize(const std::vector<const Pass*>& passes, const Outcome& outcome) {
  std::vector<double> setup, wall, tps, trial_ms, serial_run, parallel_run,
      speedup;
  for (const Pass* p : passes) {
    const std::int64_t pass_ns = p->serial.ctor_ns + p->serial.run_ns +
                                 p->parallel.ctor_ns + p->parallel.run_ns;
    // A pass sets up both engines: the width-N one also starts its pool.
    setup.push_back(sec(p->serial.ctor_ns + p->parallel.ctor_ns));
    wall.push_back(sec(pass_ns));
    tps.push_back(2.0 / sec(pass_ns));
    // The serial trial: on a shared host the width-N run swings twice as
    // much between runs (barriers wait on whichever core the host took);
    // it is in wall_s and the workload figures.
    trial_ms.push_back(ms(p->serial.ctor_ns + p->serial.run_ns));
    serial_run.push_back(sec(p->serial.run_ns));
    parallel_run.push_back(sec(p->parallel.run_ns));
    speedup.push_back(static_cast<double>(p->serial.run_ns) /
                      static_cast<double>(p->parallel.run_ns));
  }
  const auto config = scale_config(0);
  const double node_rounds = static_cast<double>(config.nodes) * config.rounds;
  Summary out;
  out.values = {{"setup_s", median(setup)},
                {"wall_s", median(wall)},
                {"trials_per_s", median(tps)},
                {"trial_p50_ms", median(trial_ms)}};
  out.figures = {{"node_rounds_per_s", node_rounds / median(parallel_run)},
                 {"serial_node_rounds_per_s", node_rounds / median(serial_run)},
                 {"engine_speedup", median(speedup)},
                 {"failed_frac", outcome.failed_frac()}};
  return out;
}

}  // namespace

WorkloadReport run_scale(const RunOptions& options) {
  const auto config = scale_config(options.seed);
  std::vector<Pass> passes;
  run_passes(options, 3, [&](std::uint32_t index, bool traced) {
    Pass pass;
    pass.traced = traced;
    if (index % 2 == 0) {
      pass.serial = run_engine(config, 1);
      pass.parallel = run_engine(config, options.width);
    } else {
      pass.parallel = run_engine(config, options.width);
      pass.serial = run_engine(config, 1);
    }
    passes.push_back(pass);
  });

  WorkloadReport report;
  report.engine_widths = {1, options.width};
  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  const std::uint64_t first = digest(passes.front().serial.result);
  for (const auto& p : passes) {
    (p.traced ? traced : untraced).push_back(&p);
    report.outcome.check(p.serial.ok);
    report.outcome.check(p.parallel.ok);
    // Serial and parallel engines must agree bit for bit, and every pass
    // runs the same trial.
    report.outcome.check(digest(p.serial.result) == digest(p.parallel.result));
    report.outcome.check(digest(p.serial.result) == first);
  }
  const auto plain = summarize(untraced, report.outcome);
  report.end_to_end = plain.values;
  report.workload_figures = plain.figures;
  if (traced.empty()) return report;

  const auto with_spans = summarize(traced, report.outcome);
  const auto spans = tracer().spans();
  const auto names = totals_by_name(spans);
  const auto layers = self_by_layer(spans);
  const double n = static_cast<double>(traced.size());
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double serial_ns = 0.0;
  double moved = 0.0;
  double interactions = 0.0;
  double empty = 0.0;
  double bytes_per_node = 0.0;
  for (const Pass* p : traced) {
    serial_s += sec(p->serial.run_ns);
    parallel_s += sec(p->parallel.run_ns);
    serial_ns += static_cast<double>(p->serial.run_ns);
    for (const Engine* e : {&p->serial, &p->parallel}) {
      const auto& r = e->result;
      moved += static_cast<double>(r.exchange_updates + r.push_updates +
                                   r.attacker_dump_updates);
      interactions += static_cast<double>(r.balanced_exchanges + r.pushes);
      if (empty_measurement(r)) empty += 1.0;
      bytes_per_node = std::max(bytes_per_node, e->state_bytes_per_node);
    }
  }
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second / n;
  };
  const auto total = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : it->second.total_s;
  };
  report.per_layer = {
      {"gossip.ctor_s", total("gossip.ctor") / n},
      {"gossip.run_s", total("gossip.run") / n},
      {"gossip.run_serial_s", serial_s / n},
      {"gossip.run_parallel_s", parallel_s / n},
      {"gossip.trials", 2.0},
      {"gossip.node_rounds", 2.0 * static_cast<double>(config.nodes) * config.rounds},
      {"gossip.interactions", interactions / n},
      {"gossip.updates_moved", moved / n},
      // Serial engine only: the parallel run's time is split over workers.
      {"gossip.ns_per_update_moved", serial_ns / (moved / 2.0)},
      {"gossip.state_bytes_per_node", bytes_per_node},
      {"gossip.empty_measurements", empty / n},
      {"gossip.self_s", layer("gossip")},
      {"bench.self_s", layer("bench")},
      {"trace.spans", static_cast<double>(spans.size()) / n},
  };
  report.per_layer.merge(tracing_overhead(with_spans.values, plain.values));
  return report;
}

}  // namespace perfbench
