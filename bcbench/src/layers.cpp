#include "layers.hpp"

namespace bcbench {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

KernelLayer kernel_layer(std::string_view kernel) {
  if (starts_with(kernel, "bfs_spmv") || starts_with(kernel, "bfs_spmm")) {
    return KernelLayer::kForward;
  }
  if (starts_with(kernel, "dep_spmv") || starts_with(kernel, "dep_spmm")) {
    return KernelLayer::kBackward;
  }
  for (const std::string_view p :
       {"bfs_update", "bfs_init", "dep_prepare", "dep_update", "bc_accum"}) {
    if (starts_with(kernel, p)) return KernelLayer::kLevel;
  }
  return KernelLayer::kOther;
}

void KernelGroup::add(const turbobc::sim::KernelAggregate& a, double sign) {
  const auto apply = [sign](std::uint64_t& dst, std::uint64_t v) {
    dst = sign > 0 ? dst + v : dst - v;
  };
  apply(launches, a.launches);
  apply(load_tx, a.load_transactions);
  apply(store_tx, a.store_transactions);
  apply(l2_hit_tx, a.l2_hit_transactions);
  apply(dram_tx, a.dram_transactions);
  apply(word_ops, a.word_ops);
  time_s += sign * a.time_s;
}

void KernelGroup::add(const KernelGroup& g) {
  launches += g.launches;
  load_tx += g.load_tx;
  store_tx += g.store_tx;
  l2_hit_tx += g.l2_hit_tx;
  dram_tx += g.dram_tx;
  word_ops += g.word_ops;
  time_s += g.time_s;
}

DeviceSnapshot DeviceSnapshot::of(const turbobc::sim::Device& dev) {
  return {dev.kernel_aggregates(), dev.transfer_seconds(),
          dev.overhead_seconds()};
}

KernelGroup LayerCounters::total() const {
  KernelGroup t;
  t.add(forward);
  t.add(backward);
  t.add(level);
  t.add(other);
  return t;
}

LayerCounters LayerCounters::between(const DeviceSnapshot& before,
                                     const DeviceSnapshot& after) {
  LayerCounters out;
  const auto group = [&out](std::string_view name) -> KernelGroup& {
    switch (kernel_layer(name)) {
      case KernelLayer::kForward: return out.forward;
      case KernelLayer::kBackward: return out.backward;
      case KernelLayer::kLevel: return out.level;
      case KernelLayer::kOther: break;
    }
    return out.other;
  };
  for (const auto& [name, agg] : after.kernels) group(name).add(agg, +1.0);
  for (const auto& [name, agg] : before.kernels) group(name).add(agg, -1.0);
  out.transfer_s = after.transfer_s - before.transfer_s;
  out.overhead_s = after.overhead_s - before.overhead_s;
  return out;
}

}  // namespace bcbench
