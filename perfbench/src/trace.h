// In-memory span tracing for the benchmark's traced runs.
//
// Spans are recorded in the benchmark's own files, around each call into a
// lotus layer (gossip, sim, core, exp). A span has a name whose prefix up to
// the first '.' names its layer, a start and end on the steady clock, the
// span that caused it, and the id of the pass it belongs to. Spans stay in
// per-thread buffers while the run measures and are written out at the end.
//
// A layer's self time is its spans' durations minus the part of each span's
// interval that its child spans cover; children running in parallel on
// sweep workers overlap, so coverage is the union of their intervals.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns() noexcept;

enum class SpanName : std::uint32_t {
  kPass,         // bench.pass: one repetition of a workload
  kSetup,        // bench.setup
  kSession,      // bench.session: one store_warm client session
  kSweep,        // sim.sweep: one sim::sweep_stats call
  kBisect,       // core.bisect: one core::critical_attacker_fraction call
  kTrial,        // gossip.trial: constructing and running one engine
  kCtor,         // gossip.ctor
  kRun,          // gossip.run
  kHash,         // exp.hash: one exp::trial_space_hash
  kCacheLookup,  // exp.cache_lookup
  kCacheStore,   // exp.cache_store
  kStoreOpen,    // exp.store_open: TrialStore construction + attach
  kStoreFlush,   // exp.store_flush
  kCount,
};

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no parent
  SpanName name = SpanName::kPass;
  std::uint32_t run = 0;  ///< pass index within the process
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span recorder. Disabled (every call a no-op) unless the
/// run is traced.
class Tracer {
 public:
  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_run(std::uint32_t run) noexcept {
    run_.store(run, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t run() const noexcept {
    return run_.load(std::memory_order_relaxed);
  }
  /// Parent for spans opened on a thread with no open span of its own:
  /// sweep workers inherit the sweep span the benchmark thread opened.
  void set_ambient(std::uint64_t id) noexcept {
    ambient_.store(id, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ambient() const noexcept {
    return ambient_.load(std::memory_order_relaxed);
  }

  /// The innermost open span on this thread, else the ambient parent.
  [[nodiscard]] std::uint64_t current_parent() const;
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Appends a finished span to this thread's buffer.
  void record(const Span& span);
  /// Records a span that was not opened as a ScopedSpan (its start was
  /// taken earlier, on this thread), parented to current_parent().
  void record(SpanName name, std::int64_t start_ns, std::int64_t end_ns);

  void push(std::uint64_t id);
  void pop();

  /// Every recorded span, all threads merged.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> run_{0};
  std::atomic<std::uint64_t> ambient_{0};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded by mu_
};

[[nodiscard]] Tracer& tracer();

/// Opens a span for its lifetime when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  bool on_;
  Span span_;
};

/// Makes `id` the ambient parent for its lifetime (see set_ambient).
class AmbientParent {
 public:
  explicit AmbientParent(std::uint64_t id) : previous_(tracer().ambient()) {
    tracer().set_ambient(id);
  }
  ~AmbientParent() { tracer().set_ambient(previous_); }
  AmbientParent(const AmbientParent&) = delete;
  AmbientParent& operator=(const AmbientParent&) = delete;

 private:
  std::uint64_t previous_;
};

/// Per-span self time (ns), aligned with `spans`: duration minus the union
/// of its children's intervals clipped to the span.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct NameTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Count, summed duration and summed self time per span name.
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Summed self time per layer (the span-name prefix before '.').
[[nodiscard]] std::map<std::string, double> self_by_layer(
    const std::vector<Span>& spans);

/// One JSON object per line: run, id, parent, name, start_ns, end_ns.
void write_jsonl(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
