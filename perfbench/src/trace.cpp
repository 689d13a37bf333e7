#include "trace.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// Each thread appends to its own buffer, owned by the tracer so it outlives
// sweep workers that exit before the run ends.
thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::vector<std::uint64_t> t_stack;

constexpr const char* kNames[] = {
    "bench.pass",       "bench.setup",     "bench.session",
    "sim.sweep",        "core.bisect",     "gossip.trial",
    "gossip.ctor",      "gossip.run",      "exp.hash",
    "exp.cache_lookup", "exp.cache_store", "exp.store_open",
    "exp.store_flush",
};
static_assert(std::size(kNames) == static_cast<std::size_t>(SpanName::kCount));

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* span_name(SpanName name) noexcept {
  return kNames[static_cast<std::size_t>(name)];
}

std::uint64_t Tracer::current_parent() const {
  return t_stack.empty() ? ambient_.load(std::memory_order_relaxed)
                         : t_stack.back();
}

void Tracer::record(const Span& span) {
  if (t_buffer == nullptr) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    t_buffer = buffers_.back().get();
  }
  t_buffer->push_back(span);
}

void Tracer::record(SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return;
  record(Span{next_id(), current_parent(), name, run(), start_ns, end_ns});
}

void Tracer::push(std::uint64_t id) { t_stack.push_back(id); }
void Tracer::pop() { t_stack.pop_back(); }

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

ScopedSpan::ScopedSpan(SpanName name) : on_(tracer().enabled()) {
  if (!on_) return;
  auto& t = tracer();
  span_.id = t.next_id();
  span_.parent = t.current_parent();
  span_.name = name;
  t.push(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = now_ns();
  auto& t = tracer();
  t.pop();
  span_.run = t.run();
  t.record(span_);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const auto& span : spans) {
    const auto it = index.find(span.parent);
    if (span.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(span.start_ns, p.start_ns);
    const std::int64_t hi = std::min(span.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[span_name(spans[i].name)];
    ++t.count;
    t.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    t.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> self_by_layer(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : totals_by_name(spans)) {
    out[name.substr(0, name.find('.'))] += totals.self_s;
  }
  return out;
}

void write_jsonl(std::ostream& os, const std::vector<Span>& spans) {
  for (const auto& s : spans) {
    os << "{\"run\":" << s.run << ",\"id\":" << s.id << ",\"parent\":"
       << s.parent << ",\"name\":\"" << span_name(s.name)
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << "}\n";
  }
}

}  // namespace perfbench
