// Per-layer counters read from the simulated device after each answer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "gpusim/device.hpp"

namespace bcbench {

/// Which layer a kernel belongs to, by kernel-name prefix:
///   bfs_spmv* / bfs_spmm*     spmv forward (masked SpMV / MS-BFS SpMM)
///   dep_spmv* / dep_spmm*     spmv backward (dependency gather/scatter)
///   bfs_update*, bfs_init*, dep_prepare*, dep_update*, bc_accum*
///                             per-level vector kernels (core)
///   anything else             other
enum class KernelLayer { kForward, kBackward, kLevel, kOther };
KernelLayer kernel_layer(std::string_view kernel);

struct KernelGroup {
  std::uint64_t launches = 0;
  std::uint64_t load_tx = 0;
  std::uint64_t store_tx = 0;
  std::uint64_t l2_hit_tx = 0;
  std::uint64_t dram_tx = 0;
  std::uint64_t word_ops = 0;
  double time_s = 0.0;

  void add(const turbobc::sim::KernelAggregate& a, double sign);
  void add(const KernelGroup& g);
};

using Aggregates =
    std::map<std::string, turbobc::sim::KernelAggregate, std::less<>>;

/// Snapshot of a device's timeline, so one answer's share is after - before.
struct DeviceSnapshot {
  Aggregates kernels;
  double transfer_s = 0.0;
  double overhead_s = 0.0;
  static DeviceSnapshot of(const turbobc::sim::Device& dev);
};

/// One answer's kernel work, grouped by layer.
struct LayerCounters {
  KernelGroup forward, backward, level, other;
  double transfer_s = 0.0;
  double overhead_s = 0.0;

  KernelGroup total() const;
  static LayerCounters between(const DeviceSnapshot& before,
                               const DeviceSnapshot& after);
};

}  // namespace bcbench
