// store_warm: reads beside writes on the on-disk trial store.
//
// Setup appends a history generated from the seed — kScopes trial spaces of
// kRecordsPerScope records each, ~10^6 records, flushed in batches the way
// successive sweeps would have written them. Then width/2 client threads
// run closed-loop sessions, each doing what a warm lotus_figs rerun does:
// open the exp::TrialStore, attach a fresh exp::TrialCache, hash a few
// trial spaces and look up their grid keys. About one key in ten is absent;
// each absent key gets a value and is stored, and the session flushes them
// at its end. The next session of the same client first reads back what
// the previous one appended. Values are a fixed function of the key, so
// every hit is checked bit for bit. This workload runs only exp: engine
// changes should not move it, and store changes show on both paths.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/critical.h"
#include "exp/hash.h"
#include "exp/trial_cache.h"
#include "exp/trial_store.h"
#include "sim/rng.h"
#include "sim/sweep.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lotus::exp::TrialStore;

constexpr std::size_t kScopes = 1000;
constexpr std::size_t kXs = 50;
constexpr std::size_t kHistorySeeds = 20;
constexpr std::size_t kRecordsPerScope = kXs * kHistorySeeds;
static_assert(kScopes * kRecordsPerScope == 1'000'000);
constexpr std::size_t kHistoryBatches = 10;
constexpr std::size_t kScopesPerSession = 4;
constexpr std::size_t kPresentPerScope = 90;
constexpr std::size_t kAbsentPerScope = 10;
constexpr std::size_t kSessionsPerPass = 50;

/// The trial-space query of history scope k: a trade-lotus sweep whose
/// configuration seed is derived from the workload seed.
lotus::core::CriticalQuery scope_query(std::uint64_t seed, std::size_t k) {
  lotus::core::CriticalQuery query;
  query.config.seed = lotus::sim::derive_seed(seed, k);
  query.attack = lotus::gossip::AttackKind::kTradeLotus;
  return query;
}

/// The value every record of (scope, x, seed) holds: a fixed function of
/// the key, in [0, 1), so any hit can be checked exactly.
double value_of(std::uint64_t scope, double x, std::uint64_t seed) {
  const std::uint64_t mix =
      TrialStore::trial_key_mix(scope, std::bit_cast<std::uint64_t>(x), seed);
  return static_cast<double>(mix >> 11) * 0x1.0p-53;
}

std::uint64_t history_seed(std::uint64_t scope, std::size_t s) {
  return lotus::sim::derive_seed(scope, s);
}

struct Key {
  std::uint64_t scope;
  double x;
  std::uint64_t seed;
  bool present;  ///< in the history (or appended by an earlier session)
};

/// Writes the history into a fresh store under `dir`; returns the time.
std::int64_t build_history(const std::string& dir, std::uint64_t seed,
                           const std::vector<double>& xs) {
  std::filesystem::remove_all(dir);
  ScopedSpan span(SpanName::kSetup);
  const std::int64_t t0 = now_ns();
  TrialStore store(dir);
  const std::size_t per_batch = kScopes / kHistoryBatches;
  for (std::size_t b = 0; b < kHistoryBatches; ++b) {
    for (std::size_t k = b * per_batch; k < (b + 1) * per_batch; ++k) {
      const std::uint64_t scope =
          lotus::exp::trial_space_hash(scope_query(seed, k));
      for (std::size_t s = 0; s < kHistorySeeds; ++s) {
        const std::uint64_t trial_seed = history_seed(scope, s);
        for (const double x : xs) {
          store.append({scope, std::bit_cast<std::uint64_t>(x), trial_seed,
                        value_of(scope, x, trial_seed)});
        }
      }
    }
    store.flush();
  }
  return now_ns() - t0;
}

/// What one session measured.
struct Session {
  std::int64_t wall_ns = 0;
  std::int64_t open_ns = 0;
  std::int64_t flush_ns = 0;
  std::int64_t hash_ns = 0;
  std::size_t hashes = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t loaded = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t appended = 0;
  std::uint64_t dedup_dropped = 0;
  std::vector<double> resolve_ms;  // lookup (+ store when absent) per key
  std::vector<double> lookup_us;
  std::vector<double> scope_load_us;  // first lookup of each scope
  std::vector<double> later_lookup_us;
  std::vector<double> store_us;
  Outcome outcome;
};

/// One closed-loop client: its session counter and what its last session
/// appended, which its next session must read back.
struct Client {
  std::size_t id = 0;
  std::uint64_t sessions = 0;
  std::vector<Key> appended;
};

Session run_session(const std::string& dir, std::uint64_t seed,
                    const std::vector<double>& xs, Client& client) {
  ScopedSpan span(SpanName::kSession);
  Session out;
  lotus::sim::Rng rng(lotus::sim::derive_seed(
      lotus::sim::derive_seed(seed, client.id + 1), client.sessions));
  const std::uint64_t session_no = client.sessions++;

  const std::int64_t t0 = now_ns();
  std::optional<TrialStore> store;
  lotus::exp::TrialCache cache;
  {
    ScopedSpan open(SpanName::kStoreOpen);
    store.emplace(dir);
    cache.attach_store(*store);
  }
  out.open_ns = now_ns() - t0;
  out.outcome.check(store->enabled());

  std::vector<std::uint64_t> first_seen;
  const auto lookup = [&](Key key) {
    const bool first = std::find(first_seen.begin(), first_seen.end(),
                                 key.scope) == first_seen.end();
    if (first) first_seen.push_back(key.scope);
    double value = 0.0;
    const std::int64_t l0 = now_ns();
    const bool hit = cache.lookup(key.scope, key.x, key.seed, value);
    const std::int64_t l1 = now_ns();
    tracer().record(SpanName::kCacheLookup, l0, l1);
    const double us = static_cast<double>(l1 - l0) * 1e-3;
    ++out.lookups;
    out.lookup_us.push_back(us);
    (first ? out.scope_load_us : out.later_lookup_us).push_back(us);
    const double expected = value_of(key.scope, key.x, key.seed);
    std::int64_t end = l1;
    if (hit) {
      ++out.hits;
      out.outcome.check(std::bit_cast<std::uint64_t>(value) ==
                        std::bit_cast<std::uint64_t>(expected));
    } else {
      out.outcome.check(!key.present);
      const std::int64_t s0 = now_ns();
      cache.store(key.scope, key.x, key.seed, expected);
      end = now_ns();
      tracer().record(SpanName::kCacheStore, s0, end);
      out.store_us.push_back(static_cast<double>(end - s0) * 1e-3);
      key.present = true;
      client.appended.push_back(key);
    }
    out.resolve_ms.push_back(static_cast<double>(end - l0) * 1e-6);
  };

  // Read back what this client's previous session appended and flushed.
  std::vector<Key> previous;
  previous.swap(client.appended);
  for (const Key& key : previous) lookup(key);

  std::vector<Key> keys;
  for (std::size_t i = 0; i < kScopesPerSession; ++i) {
    const std::size_t k = rng.next_below(kScopes);
    const std::int64_t h0 = now_ns();
    std::uint64_t scope = 0;
    {
      ScopedSpan hash(SpanName::kHash);
      scope = lotus::exp::trial_space_hash(scope_query(seed, k));
    }
    out.hash_ns += now_ns() - h0;
    ++out.hashes;
    // A block of the scope's grid: two history seeds over kPresentPerScope/2
    // x values, plus kAbsentPerScope keys under a seed no session used.
    const std::size_t s0 = rng.next_below(kHistorySeeds - 1);
    const std::size_t x0 = rng.next_below(kXs - kPresentPerScope / 2 + 1);
    for (std::size_t j = 0; j < kPresentPerScope; ++j) {
      keys.push_back(
          {scope, xs[x0 + j / 2], history_seed(scope, s0 + j % 2), true});
    }
    const std::uint64_t fresh = lotus::sim::derive_seed(
        scope, (client.id + 1) * 0x100000000ULL + session_no + kHistorySeeds);
    for (std::size_t j = 0; j < kAbsentPerScope; ++j) {
      keys.push_back({scope, xs[j * (kXs / kAbsentPerScope)], fresh, false});
    }
  }
  // Interleave present and absent keys as a sweep's workers would.
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
  for (const Key& key : keys) lookup(key);

  const std::int64_t f0 = now_ns();
  {
    ScopedSpan flush(SpanName::kStoreFlush);
    store->flush();
  }
  const std::int64_t f1 = now_ns();
  out.flush_ns = f1 - f0;
  out.wall_ns = f1 - t0;
  out.outcome.check(store->enabled());
  out.disk_hits = cache.disk_hits();
  out.loaded = store->loaded();
  out.fallbacks = store->index_fallbacks();
  out.appended = store->appended();
  out.dedup_dropped = store->dedup_dropped();
  return out;
}

double mean(double sum, double count) { return count > 0 ? sum / count : 0.0; }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// One pass: a fresh history, then kSessionsPerPass sessions per client.
/// Latency samples are reduced to the pass's percentiles as soon as the
/// pass ends, so the benchmark's own memory does not grow with run length.
struct Pass {
  bool traced = false;
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;  // the sessions, set-up excluded
  std::vector<double> session_wall_s;
  double resolved = 0, appended = 0;
  double resolve_p50_ms = 0, resolve_p99_ms = 0;
  double lookup_p50_us = 0, lookup_p99_us = 0;
  // Per-layer sums over the pass's sessions.
  double sessions = 0, open_s = 0, flush_s = 0, loaded = 0;
  double scope_load_us = 0, scope_loads = 0, later_us = 0, later = 0;
  double store_us = 0, stores = 0, lookups = 0, hits = 0, disk_hits = 0;
  double fallbacks = 0, dropped = 0, hash_ns = 0, hashes = 0;
  Outcome outcome;

  void reduce(std::vector<Session>& all) {
    std::vector<double> resolve_ms;
    std::vector<double> lookup_us;
    for (Session& s : all) {
      session_wall_s.push_back(static_cast<double>(s.wall_ns) * 1e-9);
      resolved += static_cast<double>(s.resolve_ms.size());
      appended += static_cast<double>(s.appended);
      resolve_ms.insert(resolve_ms.end(), s.resolve_ms.begin(),
                        s.resolve_ms.end());
      lookup_us.insert(lookup_us.end(), s.lookup_us.begin(), s.lookup_us.end());
      sessions += 1;
      open_s += static_cast<double>(s.open_ns) * 1e-9;
      flush_s += static_cast<double>(s.flush_ns) * 1e-9;
      loaded += static_cast<double>(s.loaded);
      scope_load_us += sum(s.scope_load_us);
      scope_loads += static_cast<double>(s.scope_load_us.size());
      later_us += sum(s.later_lookup_us);
      later += static_cast<double>(s.later_lookup_us.size());
      store_us += sum(s.store_us);
      stores += static_cast<double>(s.store_us.size());
      lookups += static_cast<double>(s.lookups);
      hits += static_cast<double>(s.hits);
      disk_hits += static_cast<double>(s.disk_hits);
      fallbacks += static_cast<double>(s.fallbacks);
      dropped += static_cast<double>(s.dedup_dropped);
      hash_ns += static_cast<double>(s.hash_ns);
      hashes += static_cast<double>(s.hashes);
      outcome.merge(s.outcome);
    }
    all.clear();
    resolve_p99_ms =
        p99_holds(resolve_ms.size()) ? percentile(resolve_ms, 9900) : 0.0;
    lookup_p99_us =
        p99_holds(lookup_us.size()) ? percentile(lookup_us, 9900) : 0.0;
    resolve_p50_ms = median(resolve_ms);
    lookup_p50_us = median(lookup_us);
  }
};

struct Summary {
  Values values;
  Values figures;
};

/// Medians over passes; session walls are pooled.
Summary summarize(const std::vector<const Pass*>& passes) {
  std::vector<double> setup, wall, tps, aps, r50, r99, l50, l99;
  Outcome outcome;
  for (const Pass* p : passes) {
    const double w = static_cast<double>(p->wall_ns) * 1e-9;
    setup.push_back(static_cast<double>(p->setup_ns) * 1e-9);
    wall.insert(wall.end(), p->session_wall_s.begin(), p->session_wall_s.end());
    tps.push_back(p->resolved / w);
    aps.push_back(p->appended / w);
    r50.push_back(p->resolve_p50_ms);
    r99.push_back(p->resolve_p99_ms);
    l50.push_back(p->lookup_p50_us);
    l99.push_back(p->lookup_p99_us);
    outcome.merge(p->outcome);
  }
  const double resolved_per_s = median(tps);
  Summary out;
  out.values = {{"setup_s", median(setup)},
                {"wall_s", median(wall)},
                {"trials_per_s", resolved_per_s},
                {"trial_p50_ms", median(r50)}};
  out.figures = {
      {"trial_p99_ms", median(r99)},
      {"lookups_per_s", resolved_per_s},
      {"lookup_p50_us", median(l50)},
      {"lookup_p99_us", median(l99)},
      {"appends_per_s", median(aps)},
      {"failed_frac", outcome.failed_frac()},
  };
  return out;
}

}  // namespace

WorkloadReport run_store_warm(const RunOptions& options) {
  const std::string dir = options.out_dir + "/store_warm";
  const auto xs = lotus::sim::linspace(0.0, 0.9, kXs);
  // Half the width: with every core busy, a client holding a shard lock is
  // descheduled whenever the host takes a core, and session walls swung
  // 2-3x from run to run with four clients on four cores.
  std::vector<Client> clients(std::max<std::size_t>(1, options.width / 2));
  std::vector<Pass> passes;
  run_passes(options, 3, [&](std::uint32_t, bool traced) {
    Pass pass;
    pass.traced = traced;
    pass.setup_ns = build_history(dir, options.seed, xs);
    std::vector<std::vector<Session>> per_client(clients.size());
    std::mutex error_mu;
    bool threw = false;
    const std::int64_t t0 = now_ns();
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < clients.size(); ++c) {
        // Each pass starts from a fresh history: nothing to read back yet.
        clients[c].id = c;
        clients[c].appended.clear();
        threads.emplace_back([&, c] {
          try {
            for (std::size_t s = 0; s < kSessionsPerPass; ++s) {
              per_client[c].push_back(
                  run_session(dir, options.seed, xs, clients[c]));
            }
          } catch (...) {
            std::lock_guard lock(error_mu);
            threw = true;
          }
        });
      }
    }
    pass.wall_ns = now_ns() - t0;
    for (auto& sessions : per_client) pass.reduce(sessions);
    pass.outcome.check(!threw);
    passes.push_back(std::move(pass));
  });
  std::filesystem::remove_all(dir);

  WorkloadReport report;
  report.client_threads = clients.size();
  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  for (const auto& p : passes) {
    (p.traced ? traced : untraced).push_back(&p);
    report.outcome.merge(p.outcome);
  }
  const auto plain = summarize(untraced);
  report.end_to_end = plain.values;
  report.workload_figures = plain.figures;
  if (traced.empty()) return report;

  const auto with_spans = summarize(traced);
  const auto spans = tracer().spans();
  const auto layers = self_by_layer(spans);
  const double n = static_cast<double>(traced.size());
  Pass t;  // sums over traced passes
  for (const Pass* p : traced) {
    for (auto [to, from] :
         {std::pair{&t.sessions, &p->sessions}, {&t.open_s, &p->open_s},
          {&t.flush_s, &p->flush_s}, {&t.loaded, &p->loaded},
          {&t.scope_load_us, &p->scope_load_us},
          {&t.scope_loads, &p->scope_loads}, {&t.later_us, &p->later_us},
          {&t.later, &p->later}, {&t.store_us, &p->store_us},
          {&t.stores, &p->stores}, {&t.lookups, &p->lookups},
          {&t.hits, &p->hits}, {&t.disk_hits, &p->disk_hits},
          {&t.fallbacks, &p->fallbacks}, {&t.appended, &p->appended},
          {&t.dropped, &p->dropped}, {&t.hash_ns, &p->hash_ns},
          {&t.hashes, &p->hashes}}) {
      *to += *from;
    }
  }
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second / n;
  };
  report.per_layer = {
      {"exp.hash_us", mean(t.hash_ns * 1e-3, t.hashes)},
      {"exp.cache_lookups", t.lookups / n},
      {"exp.cache_hits", t.hits / n},
      {"exp.cache_hit_ratio", mean(t.hits, t.lookups)},
      {"exp.cache_lookup_us", mean(t.later_us, t.later)},
      {"exp.cache_store_us", mean(t.store_us, t.stores)},
      {"exp.scope_load_us", mean(t.scope_load_us, t.scope_loads)},
      {"exp.store_open_s", mean(t.open_s, t.sessions)},
      {"exp.store_records_loaded", mean(t.loaded, t.sessions)},
      {"exp.store_disk_hits", t.disk_hits / n},
      {"exp.store_index_fallbacks", t.fallbacks / n},
      {"exp.store_flush_s", mean(t.flush_s, t.sessions)},
      {"exp.store_appended", t.appended / n},
      {"exp.store_dedup_dropped", t.dropped / n},
      {"exp.self_s", layer("exp")},
      {"bench.self_s", layer("bench")},
      {"trace.spans", static_cast<double>(spans.size()) / n},
  };
  report.per_layer.merge(tracing_overhead(with_spans.values, plain.values));
  return report;
}

}  // namespace perfbench
