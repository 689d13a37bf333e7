// figures: regenerating the paper's figure grids at Table-1 scale.
//
// One pass runs the curve families and bisections of the figure benches at
// their full-resolution grids (the CliSpecs in bench/fig1_attacks.cpp,
// bench/fig2_pushsize.cpp, bench/fig3_obedient.cpp and
// bench/churn_attack.cpp), in lotus_figs order, as sim::sweep_stats calls
// and core::critical_attacker_fraction bisections; a family's bisection
// follows its own curve (fig1_attacks bisects after all three curves, but
// the scopes differ, so the memo sees the same keys). All of it shares one
// fresh in-memory exp::TrialCache, reached through a measuring adapter, so
// families with the same trial space and re-probed bisection points are
// served from the memo exactly as in lotus_figs. Engines run serial; the
// sweep fans trials over `width` workers. The working set is one 250-node
// engine per worker (~17 KB), well inside L2.
//
// Left out of the benches' work: Figure 1's single coverage run at the
// ideal critical fraction, Figure 2's 15% readout (3 trials), and
// churn_attack's sections 2 and 3 (a 10^4-node population and slow seats),
// which are not the half-life sweep at Table-1 scale.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/critical.h"
#include "crypto/hash.h"
#include "digest.h"
#include "exp/hash.h"
#include "exp/trial_cache.h"
#include "gossip/engine.h"
#include "sim/sweep.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lotus::core::CriticalQuery;
using lotus::gossip::AttackKind;
using lotus::gossip::GossipConfig;

/// Memo entries re-run outside the timed pass and compared bit for bit.
constexpr std::size_t kVerifiedPerPass = 4;
/// Latency samples kept per run and kind; a pass records about 1000.
constexpr std::size_t kPoolCapacity = std::size_t{1} << 16;

struct Family {
  CriticalQuery query;
  std::size_t points = 0;   // curve grid over [query.lo, query.hi]
  bool bisect = false;      // the bench also bisects this family
  std::uint64_t scope = 0;  // exp::trial_space_hash(query)
};

/// The churn study's plan for membership half-life h (0 = static), as in
/// bench/churn_attack.cpp.
lotus::gossip::ChurnPlan churn_for_half_life(std::uint32_t h,
                                             std::uint32_t lifetime) {
  lotus::gossip::ChurnPlan churn;
  if (h == 0) return churn;
  const double depart = std::log(2.0) / static_cast<double>(h);
  churn.leave_rate = depart / 2.0;
  churn.crash_rate = depart / 2.0;
  churn.decay_rounds = lifetime;
  churn.join_rate = std::min(1.0, 4.0 * depart);
  return churn;
}

std::vector<Family> build_plan(std::uint64_t seed, std::size_t width,
                               std::int64_t& hash_ns, std::size_t& hashes) {
  std::vector<Family> plan;
  const auto add = [&](GossipConfig config, AttackKind attack, double hi,
                       std::size_t points, std::size_t seeds, bool bisect) {
    config.seed = seed;
    Family f;
    f.query.config = config;
    f.query.attack = attack;
    f.query.seeds = seeds;
    f.query.lo = 0.0;
    f.query.hi = hi;
    f.query.threads = width;
    f.query.engine_threads = 1;
    f.points = points;
    f.bisect = bisect;
    plan.push_back(f);
  };
  // Figures 1 and 2: 24 points x 3 seeds; only Figure 1's ideal curve is
  // bisected.
  for (const std::uint32_t push : {2U, 10U}) {
    GossipConfig config;
    config.push_size = push;
    for (const auto attack : {AttackKind::kCrash, AttackKind::kIdealLotus,
                              AttackKind::kTradeLotus}) {
      add(config, attack, 0.9, 24, 3,
          push == 2 && attack == AttackKind::kIdealLotus);
    }
  }
  for (const std::uint32_t push : {2U, 4U}) {  // Figure 3: 22 x 3
    for (const bool unbalanced : {false, true}) {
      GossipConfig config;
      config.push_size = push;
      config.unbalanced_exchange = unbalanced;
      add(config, AttackKind::kTradeLotus, 0.7, 22, 3, false);
    }
  }
  for (const std::uint32_t h : {0U, 120U, 60U, 30U, 15U}) {  // churn: 12 x 2
    GossipConfig config;
    config.churn = churn_for_half_life(h, config.update_lifetime);
    add(config, AttackKind::kTradeLotus, 0.45, 12, 2, true);
  }
  for (auto& f : plan) {
    ScopedSpan span(SpanName::kHash);
    const std::int64_t t0 = now_ns();
    f.scope = lotus::exp::trial_space_hash(f.query);
    hash_ns += now_ns() - t0;
    ++hashes;
  }
  return plan;
}

/// Latency samples pooled over a run's passes. The storage is allocated and
/// written once, before the first pass, so the process's peak RSS does not
/// grow with the number of passes a faster library fits into a run. Samples
/// beyond the capacity are dropped.
class SamplePool {
 public:
  SamplePool() : values_(kPoolCapacity, 0.0) {}
  void add(double value) noexcept {
    if (size_ < values_.size()) values_[size_++] = value;
  }
  /// The pooled samples, for the in-place order statistics; ends the pool.
  std::vector<double>& finish() {
    values_.resize(size_);
    return values_;
  }

 private:
  std::vector<double> values_;
  std::size_t size_ = 0;
};

struct Samples {
  SamplePool trial_ms;
  SamplePool lookup_us;
};

struct StoredKey {
  std::size_t family;
  double x;
  std::uint64_t seed;
  double value;
};

/// Everything one pass measured. Sweep workers write through `mu`.
struct Pass {
  explicit Pass(Samples& pooled) : samples(pooled) {}
  void add_trial(std::int64_t ns) {
    trial_ns += ns;
    samples.trial_ms.add(static_cast<double>(ns) * 1e-6);
  }

  Samples& samples;
  bool traced = false;
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t hash_ns = 0;
  std::size_t hashes = 0;
  std::int64_t sweep_capacity_ns = 0;  // sum of sweep wall x pool width
  std::int64_t busy_ns = 0;            // sweep workers inside lookup/trial/store
  std::int64_t sweep_run_ns = 0;       // engine run() time of sweep trials
  std::uint64_t trials = 0;            // engines run (sweep + bisection)
  std::uint64_t node_rounds = 0;
  std::uint64_t interactions = 0;      // sweep trials only
  std::uint64_t updates_moved = 0;     // sweep trials only
  std::uint64_t empty = 0;             // sweep trials only
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t stores = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t bisect_lookups = 0;
  std::uint64_t bisect_probes = 0;     // bisection points, each `seeds` lookups
  std::int64_t trial_ns = 0;           // sum over the trials in `samples`
  double state_bytes_per_node = 0.0;
  std::uint64_t digest = 0;
  std::vector<StoredKey> stored;       // freed when the pass ends
  Outcome outcome;
  std::mutex mu;
};

/// The memo the sweep and the bisection see: an exp::TrialCache scope that
/// times every lookup and store, and (traced) records them as spans. A
/// bisection trial runs inside core between a missed lookup and the store
/// that follows it on the same worker, so that interval is the trial.
class MeasuredMemo final : public lotus::sim::TrialMemo {
 public:
  MeasuredMemo(lotus::exp::TrialCache& cache, Pass& pass)
      : cache_(cache), pass_(pass) {}

  void bind(std::size_t family, std::uint64_t scope, bool bisect,
            std::uint64_t node_rounds) {
    family_ = family;
    scope_ = scope;
    bisect_ = bisect;
    node_rounds_ = node_rounds;
  }

  bool lookup(double x, std::uint64_t seed, double& value) override {
    const std::int64_t t0 = now_ns();
    const bool hit = cache_.lookup(scope_, x, seed, value);
    const std::int64_t t1 = now_ns();
    tracer().record(SpanName::kCacheLookup, t0, t1);
    if (!hit) t_miss_end = t1;
    std::lock_guard lock(pass_.mu);
    ++pass_.lookups;
    if (hit) ++pass_.hits;
    if (bisect_) {
      ++pass_.bisect_lookups;
    } else {
      ++pass_.dispatched;
      pass_.busy_ns += t1 - t0;
    }
    pass_.samples.lookup_us.add(static_cast<double>(t1 - t0) * 1e-3);
    return hit;
  }

  void store(double x, std::uint64_t seed, double value) override {
    const std::int64_t t0 = now_ns();
    if (bisect_) tracer().record(SpanName::kTrial, t_miss_end, t0);
    cache_.store(scope_, x, seed, value);
    const std::int64_t t1 = now_ns();
    tracer().record(SpanName::kCacheStore, t0, t1);
    std::lock_guard lock(pass_.mu);
    ++pass_.stores;
    pass_.stored.push_back({family_, x, seed, value});
    if (bisect_) {
      ++pass_.trials;
      pass_.node_rounds += node_rounds_;
      pass_.add_trial(t0 - t_miss_end);
      pass_.outcome.check(value >= 0.0 && value <= 1.0);
    } else {
      pass_.busy_ns += t1 - t0;
    }
  }

 private:
  static thread_local std::int64_t t_miss_end;
  lotus::exp::TrialCache& cache_;
  Pass& pass_;
  std::size_t family_ = 0;
  std::uint64_t scope_ = 0;
  bool bisect_ = false;
  std::uint64_t node_rounds_ = 0;
};

thread_local std::int64_t MeasuredMemo::t_miss_end = 0;

/// One sweep trial: construct and run a serial engine, timing each step.
double sweep_trial(const Family& family, double x, std::uint64_t seed,
                   Pass& pass) {
  ScopedSpan span(SpanName::kTrial);
  GossipConfig config = family.query.config;
  config.seed = seed;
  lotus::gossip::AttackPlan plan;
  plan.kind = family.query.attack;
  plan.attacker_fraction = x;
  plan.satiate_fraction = family.query.satiate_fraction;

  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  std::int64_t t2 = t0;
  double value = std::numeric_limits<double>::quiet_NaN();
  bool ok = false;
  lotus::gossip::GossipResult r;
  double bytes_per_node = 0.0;
  try {
    std::optional<lotus::gossip::GossipEngine> engine;
    engine.emplace(config, plan, lotus::gossip::StateModel::kWindowed, 1);
    t1 = now_ns();
    r = engine->run();
    t2 = now_ns();
    bytes_per_node = static_cast<double>(engine->state_bytes()) /
                     static_cast<double>(config.nodes);
    ok = deliveries_in_range(r);
    value = r.isolated_delivery;
  } catch (...) {
    t2 = now_ns();
  }
  tracer().record(SpanName::kCtor, t0, t1);
  tracer().record(SpanName::kRun, t1, t2);

  std::lock_guard lock(pass.mu);
  pass.outcome.check(ok);
  ++pass.trials;
  pass.node_rounds += std::uint64_t{config.nodes} * config.rounds;
  pass.interactions += r.balanced_exchanges + r.pushes;
  pass.updates_moved +=
      r.exchange_updates + r.push_updates + r.attacker_dump_updates;
  if (empty_measurement(r)) ++pass.empty;
  pass.busy_ns += t2 - t0;
  pass.sweep_run_ns += t2 - t1;
  pass.add_trial(t2 - t0);
  pass.state_bytes_per_node = bytes_per_node;
  return value;
}

void run_pass(const RunOptions& options, Pass& pass) {
  const std::int64_t s0 = now_ns();
  std::vector<Family> plan;
  std::optional<lotus::exp::TrialCache> cache;
  {
    ScopedSpan span(SpanName::kSetup);
    plan = build_plan(options.seed, options.width, pass.hash_ns, pass.hashes);
    cache.emplace();
  }
  const std::int64_t w0 = now_ns();
  pass.setup_ns = w0 - s0;

  MeasuredMemo memo(*cache, pass);
  lotus::crypto::Hasher digest;
  const auto add_bits = [&](double value) {
    digest.update(std::bit_cast<std::uint64_t>(value));
  };
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Family& f = plan[i];
    const std::uint64_t node_rounds =
        std::uint64_t{f.query.config.nodes} * f.query.config.rounds;
    {
      memo.bind(i, f.scope, false, node_rounds);
      ScopedSpan span(SpanName::kSweep);
      AmbientParent ambient(span.id());
      const std::int64_t t0 = now_ns();
      const auto result = lotus::sim::sweep_stats(
          lotus::gossip::attack_name(f.query.attack),
          lotus::sim::linspace(f.query.lo, f.query.hi, f.points),
          f.query.seeds,
          f.query.config.seed,
          [&](double x, std::uint64_t seed) {
            return sweep_trial(f, x, seed, pass);
          },
          options.width, &memo);
      const auto width =
          std::min<std::size_t>(options.width, f.points * f.query.seeds);
      pass.sweep_capacity_ns +=
          (now_ns() - t0) * static_cast<std::int64_t>(width);
      for (const double y : result.mean.ys) add_bits(y);
      for (const double y : result.stddev.ys) add_bits(y);
    }
    if (f.bisect) {
      memo.bind(i, f.scope, true, node_rounds);
      ScopedSpan span(SpanName::kBisect);
      AmbientParent ambient(span.id());
      CriticalQuery query = f.query;
      query.memo = &memo;
      const std::uint64_t before = pass.bisect_lookups;
      add_bits(lotus::core::critical_attacker_fraction(query));
      pass.bisect_probes += (pass.bisect_lookups - before) / f.query.seeds;
    }
  }
  pass.wall_ns = now_ns() - w0;
  pass.digest = digest.digest();

  // Untimed: re-run a few memo entries, sampled from sweep and bisection
  // stores alike, through the library's own entry point and require the
  // exact same bits. This is what makes sharing the memo between the
  // benchmark's trial function and core's sound.
  for (std::size_t k = 0; k < kVerifiedPerPass && !pass.stored.empty(); ++k) {
    const auto& key = pass.stored[(k * 7919 + pass.stored.size() / 2) %
                                  pass.stored.size()];
    const Family& f = plan[key.family];
    GossipConfig config = f.query.config;
    config.seed = key.seed;
    lotus::gossip::AttackPlan attack;
    attack.kind = f.query.attack;
    attack.attacker_fraction = key.x;
    attack.satiate_fraction = f.query.satiate_fraction;
    const double again =
        lotus::gossip::run_gossip(config, attack, 1).isolated_delivery;
    pass.outcome.check(std::bit_cast<std::uint64_t>(again) ==
                       std::bit_cast<std::uint64_t>(key.value));
  }
  std::vector<StoredKey>().swap(pass.stored);
}

struct EndToEnd {
  Values values;
  Values figures;
};

EndToEnd summarize(const std::vector<const Pass*>& passes, Samples& samples) {
  std::vector<double> setup, wall, tps, nrps, aps;
  double node_rounds = 0.0;
  double trial_s = 0.0;
  Outcome outcome;
  for (const Pass* p : passes) {
    const double w = static_cast<double>(p->wall_ns) * 1e-9;
    setup.push_back(static_cast<double>(p->setup_ns) * 1e-9);
    wall.push_back(w);
    tps.push_back(static_cast<double>(p->lookups) / w);
    nrps.push_back(static_cast<double>(p->node_rounds) / w);
    aps.push_back(static_cast<double>(p->stores) / w);
    node_rounds += static_cast<double>(p->node_rounds);
    trial_s += static_cast<double>(p->trial_ns) * 1e-9;
    outcome.merge(p->outcome);
  }
  auto& trial_ms = samples.trial_ms.finish();
  auto& lookup_us = samples.lookup_us.finish();
  // Every grid trial is resolved through one memo lookup.
  const double resolved_per_s = median(tps);
  EndToEnd out;
  out.values = {{"setup_s", median(setup)},
                {"wall_s", median(wall)},
                {"trials_per_s", resolved_per_s},
                {"trial_p50_ms", median(trial_ms)}};
  out.figures = {
      {"node_rounds_per_s", median(nrps)},
      {"serial_node_rounds_per_s", trial_s > 0 ? node_rounds / trial_s : 0.0},
      {"trial_p99_ms",
       p99_holds(trial_ms.size()) ? percentile(trial_ms, 9900) : 0.0},
      {"lookups_per_s", resolved_per_s},
      {"lookup_p50_us", median(lookup_us)},
      {"lookup_p99_us",
       p99_holds(lookup_us.size()) ? percentile(lookup_us, 9900) : 0.0},
      {"appends_per_s", median(aps)},
      {"failed_frac", outcome.failed_frac()},
  };
  return out;
}

}  // namespace

WorkloadReport run_figures(const RunOptions& options) {
  Samples plain_samples;
  Samples traced_samples;
  std::vector<std::unique_ptr<Pass>> passes;
  run_passes(options, 3, [&](std::uint32_t, bool traced) {
    auto pass = std::make_unique<Pass>(traced ? traced_samples : plain_samples);
    pass->traced = traced;
    try {
      run_pass(options, *pass);
    } catch (...) {
      pass->outcome.check(false);
    }
    passes.push_back(std::move(pass));
  });

  WorkloadReport report;
  report.sweep_width = options.width;
  report.engine_widths = {1};
  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  for (const auto& p : passes) {
    report.outcome.merge(p->outcome);
    (p->traced ? traced : untraced).push_back(p.get());
    // Every pass computes the same grid from the same seed.
    report.outcome.check(p->digest == passes.front()->digest);
  }
  const auto plain = summarize(untraced, plain_samples);
  report.end_to_end = plain.values;
  report.workload_figures = plain.figures;
  if (traced.empty()) return report;

  const auto with_spans = summarize(traced, traced_samples);
  const auto spans = tracer().spans();
  const auto names = totals_by_name(spans);
  const auto layers = self_by_layer(spans);
  const double n = static_cast<double>(traced.size());
  const auto total = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : it->second.total_s;
  };
  const auto mean_us = [&](const char* name) {
    const auto it = names.find(name);
    return it == names.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s * 1e6 / static_cast<double>(it->second.count);
  };
  const auto sum = [&](auto field) {
    double s = 0.0;
    for (const Pass* p : traced) s += static_cast<double>(p->*field);
    return s;
  };
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second / n;
  };
  const double lookups = sum(&Pass::lookups);
  const double updates = sum(&Pass::updates_moved);
  report.per_layer = {
      {"gossip.ctor_s", total("gossip.ctor") / n},
      {"gossip.run_s", total("gossip.run") / n},
      {"gossip.run_serial_s", total("gossip.run") / n},
      {"gossip.trials", sum(&Pass::trials) / n},
      {"gossip.node_rounds", sum(&Pass::node_rounds) / n},
      {"gossip.interactions", sum(&Pass::interactions) / n},
      {"gossip.updates_moved", updates / n},
      {"gossip.ns_per_update_moved",
       updates > 0 ? sum(&Pass::sweep_run_ns) / updates : 0.0},
      {"gossip.state_bytes_per_node", traced.front()->state_bytes_per_node},
      {"gossip.empty_measurements", sum(&Pass::empty) / n},
      {"gossip.self_s", layer("gossip")},
      {"sim.sweep_s", total("sim.sweep") / n},
      {"sim.trial_busy_s", sum(&Pass::busy_ns) * 1e-9 / n},
      {"sim.trials_dispatched", sum(&Pass::dispatched) / n},
      {"sim.worker_idle_frac",
       1.0 - sum(&Pass::busy_ns) / sum(&Pass::sweep_capacity_ns)},
      {"sim.self_s", layer("sim")},
      {"core.bisect_s", total("core.bisect") / n},
      {"core.bisect_probes", sum(&Pass::bisect_probes) / n},
      {"core.self_s", layer("core")},
      {"exp.hash_us", sum(&Pass::hash_ns) * 1e-3 / sum(&Pass::hashes)},
      {"exp.cache_lookups", lookups / n},
      {"exp.cache_hits", sum(&Pass::hits) / n},
      {"exp.cache_hit_ratio", lookups > 0 ? sum(&Pass::hits) / lookups : 0.0},
      {"exp.cache_lookup_us", mean_us("exp.cache_lookup")},
      {"exp.cache_store_us", mean_us("exp.cache_store")},
      {"exp.self_s", layer("exp")},
      {"bench.self_s", layer("bench")},
      {"trace.spans", static_cast<double>(spans.size()) / n},
  };
  report.per_layer.merge(tracing_overhead(with_spans.values, plain.values));
  return report;
}

}  // namespace perfbench
