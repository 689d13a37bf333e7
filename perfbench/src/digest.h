// Correctness digests: lotus::crypto::Hasher over exact bit patterns, so
// two results agree only when every field is bit-identical (a NaN or a -0.0
// is a difference).
#pragma once

#include <bit>
#include <cstdint>

#include "crypto/hash.h"
#include "gossip/metrics.h"

namespace perfbench {

/// Every field of a GossipResult, in declaration order.
[[nodiscard]] inline std::uint64_t digest(const lotus::gossip::GossipResult& r) {
  lotus::crypto::Hasher h;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  h.update(bits(r.isolated_delivery))
      .update(bits(r.satiated_delivery))
      .update(bits(r.overall_delivery))
      .update(bits(r.honest_below_usability))
      .update(bits(r.worst_honest_delivery))
      .update(bits(r.unusable_node_generations))
      .update(bits(r.nodes_with_unusable_stretch))
      .update(bits(r.attacker_coverage))
      .update(std::uint64_t{r.isolated_nodes})
      .update(std::uint64_t{r.satiated_honest_nodes})
      .update(std::uint64_t{r.attacker_nodes})
      .update(r.balanced_exchanges)
      .update(r.exchange_updates)
      .update(r.pushes)
      .update(r.push_updates)
      .update(r.junk_updates)
      .update(r.attacker_dump_updates)
      .update(r.churn_joins)
      .update(r.churn_leaves)
      .update(r.churn_crashes)
      .update(r.churn_recoveries)
      .update(r.reports_filed)
      .update(std::uint64_t{r.attackers_evicted})
      .update(std::uint64_t{r.full_eviction_round});
  return h.digest();
}

/// True when every delivery-type field lies in [0, 1] (NaN fails).
[[nodiscard]] inline bool deliveries_in_range(
    const lotus::gossip::GossipResult& r) noexcept {
  for (const double v :
       {r.isolated_delivery, r.satiated_delivery, r.overall_delivery,
        r.honest_below_usability, r.worst_honest_delivery,
        r.unusable_node_generations, r.nodes_with_unusable_stretch,
        r.attacker_coverage}) {
    if (!(v >= 0.0 && v <= 1.0)) return false;
  }
  return true;
}

/// A trial whose isolated or honest population is empty: its delivery
/// figures are the engine's defaults, not measurements.
[[nodiscard]] inline bool empty_measurement(
    const lotus::gossip::GossipResult& r) noexcept {
  return r.isolated_nodes == 0 ||
         r.isolated_nodes + r.satiated_honest_nodes == 0;
}

}  // namespace perfbench
