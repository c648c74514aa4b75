// Analytic performance model for simulated kernel launches.
//
// The model is deliberately simple and fully documented, because its job is
// to reproduce the *shape* of the paper's results, not absolute nanoseconds:
//
//  * Global memory accesses are grouped per warp "slot" (one memory
//    instruction issued by a warp). The active lanes' addresses are mapped to
//    32-byte sectors; the number of unique sectors is the transaction count,
//    which is what coalescing is: 32 adjacent 4-byte loads -> 4 transactions,
//    32 scattered loads -> up to 32 transactions.
//  * Transactions probe a direct-mapped L2 model (3 MB, persisting across
//    launches). Hits cost L2 bandwidth, misses cost DRAM bandwidth. This is
//    why frontier-dense kernels (veCSC on mycielski graphs, BFS depth 3) can
//    report global-load throughput above the DRAM peak, exactly as the
//    paper's Figure 5b shows for TurboBC kernels.
//  * Each slot costs issue cycles; uncoalesced slots replay once per
//    transaction. Warp divergence in scalar kernels appears naturally as
//    longer per-lane access sequences that cannot share slots.
//  * Kernel time = launch overhead + max(compute time, memory time), where
//    compute time is itself the max of a throughput bound (total slots over
//    all SMs) and a critical-path bound (slots of the busiest warp). The
//    critical-path bound is what penalizes load imbalance from mega-degree
//    vertices, the paper's motivation for the COOC and veCSC variants.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "gpusim/device_props.hpp"

namespace turbobc::sim {

enum class MemOp : std::uint8_t { kLoad, kStore, kAtomic, kAtomicFloat };

/// One global-memory access by one lane.
struct Access {
  std::uint64_t addr = 0;
  std::uint8_t size = 0;  // bytes, <= 16
  MemOp op = MemOp::kLoad;
};

/// Interns a kernel name into a process-lifetime table and returns a stable
/// view. Launch sites pass string literals or short-lived strings; interning
/// means LaunchRecord carries a cheap view instead of allocating a
/// std::string per launch (the launchers sit on the hot path of every test
/// and bench).
std::string_view intern_kernel_name(std::string_view name);

/// A floating-point atomic add captured during a host-parallel launch.
/// Float addition is not associative, so concurrent eager adds would make
/// results depend on the host schedule; instead each worker logs its adds in
/// program order and the launcher applies all logs in warp order at shard
/// merge — reproducing the serial engine's accumulation order exactly.
/// (Integer adds are exact under any order and run eagerly.)
struct DeferredAdd {
  void* target = nullptr;
  double value = 0.0;    // holds any float value exactly
  bool is_double = true;  // else the target is a float

  void apply() const {
    if (is_double) {
      *static_cast<double*>(target) += value;
    } else {
      *static_cast<float*>(target) += static_cast<float>(value);
    }
  }
};

/// Statistics for a single kernel launch (the simulator's analogue of an
/// nvprof row). `kernel` points into the intern table (or a string literal)
/// and is valid for the life of the process.
struct LaunchRecord {
  std::string_view kernel;
  std::uint64_t warps = 0;
  std::uint64_t issue_slots = 0;      // total warp instruction issues
  std::uint64_t max_warp_slots = 0;   // busiest warp (critical path)
  std::uint64_t load_requests = 0;    // per-lane requests
  std::uint64_t store_requests = 0;
  std::uint64_t atomic_requests = 0;
  std::uint64_t atomic_float_requests = 0;  // subset of atomic_requests
  std::uint64_t load_transactions = 0;   // 32 B sectors
  std::uint64_t store_transactions = 0;
  std::uint64_t l2_hit_transactions = 0;
  std::uint64_t dram_transactions = 0;
  /// 64-bit mask instructions (AND/OR/shift/popcount) issued by MS-BFS
  /// kernels. A subset of issue_slots: each word op is charged as a normal
  /// ALU instruction for timing AND counted here, so benches can report how
  /// much of a sweep's work ran 64 sources wide. Zero for scalar kernels.
  std::uint64_t word_ops = 0;
  double time_s = 0.0;

  std::uint64_t transaction_bytes(int sector_bytes) const {
    return (load_transactions + store_transactions) *
           static_cast<std::uint64_t>(sector_bytes);
  }

  /// Global-load throughput: bytes of load transactions served (from L2 or
  /// DRAM) per second of kernel time. Comparable to the paper's GLT metric.
  double glt_bps(int sector_bytes) const {
    return time_s > 0.0 ? static_cast<double>(load_transactions) *
                              static_cast<double>(sector_bytes) / time_s
                        : 0.0;
  }
};

/// Transaction-level memory and timing model. Owns the L2 tag state, which
/// persists across launches like a real cache.
class CostModel {
 public:
  /// Throws InvalidArgument unless `props.sector_bytes` is a power of two
  /// (sectors are computed by shift).
  explicit CostModel(const DeviceProps& props);

  /// Most requests one slot may carry: one per lane of a warp.
  static constexpr int kMaxSlotLanes = 32;

  /// Account one warp memory slot. `accesses` holds the active lanes'
  /// requests (at most kMaxSlotLanes; inactive lanes simply absent). Returns
  /// the number of issue slots consumed (>= 1; replays for uncoalesced
  /// transactions, plus serialization for contended atomics).
  std::uint64_t process_slot(LaunchRecord& rec, const Access* accesses,
                             int count);

  /// The slot pipeline is split in two so the parallel launch engine can run
  /// the pure part concurrently and the L2-stateful part serially:
  ///
  ///  * coalesce_slot — pure function of the accesses: bumps the request and
  ///    transaction counters and issue slots on `rec`, and appends the
  ///    slot's unique sectors (ascending) to `sectors_out`. Touches no L2
  ///    state, so per-warp results are identical no matter which host thread
  ///    or order computes them, and concurrent calls are safe.
  ///  * replay_sectors — probes the direct-mapped L2 with a sector stream in
  ///    order, splitting transactions into l2_hit/dram on `rec`. Must be
  ///    called in global warp order (warp 0's slots first, then warp 1's, …)
  ///    to reproduce the serial engine's cache timeline bit-for-bit.
  ///
  /// process_slot == coalesce_slot + replay_sectors on the same record.
  std::uint64_t coalesce_slot(LaunchRecord& rec, const Access* accesses,
                              int count,
                              std::vector<std::uint64_t>& sectors_out) const;
  void replay_sectors(LaunchRecord& rec, const std::uint64_t* sectors,
                      std::size_t count);

  /// Account `n` pure-ALU warp instructions.
  static std::uint64_t alu_slots(std::uint64_t n) { return n; }

  /// Final time for a finished launch; also fills rec.time_s.
  double finalize(LaunchRecord& rec) const;

  /// Timing for a bulk device-side memset of `bytes` (modeled as a
  /// store-only, perfectly coalesced kernel).
  double memset_time(std::uint64_t bytes) const;

  /// Host<->device transfer time over the simulated PCIe link.
  double transfer_time(std::uint64_t bytes) const;

  /// Extra issue-slot multiplier for floating-point atomics relative to
  /// integer atomics. Pascal implements fp32 global atomics natively but at
  /// a lower rate than int32; the paper exploits this by running the BFS
  /// stage on integer vectors (Section 3.4, "up to 2.7x faster").
  static constexpr std::uint64_t kFloatAtomicPenalty = 4;

  void reset_l2();

  const DeviceProps& props() const noexcept { return props_; }

 private:
  /// Sector buffer of one slot: each request's first and last sector, plus
  /// the coalescer's starting entry.
  static constexpr int kMaxSlotSectors = 2 * kMaxSlotLanes + 1;

  struct Coalesced {
    int sectors = 0;          // unique sectors written
    std::uint64_t slots = 0;  // issue slots consumed
  };

  /// Shared core of process_slot and coalesce_slot: writes the slot's
  /// unique sectors, ascending, to `sectors` (room for kMaxSlotSectors).
  Coalesced coalesce(LaunchRecord& rec, const Access* accesses, int count,
                     std::uint64_t* sectors) const;

  /// sector % l2_tags_.size(), computed from l2_line_reciprocal_.
  std::size_t l2_line(std::uint64_t sector) const;

  DeviceProps props_;
  int sector_shift_ = 0;                // log2(props_.sector_bytes)
  std::vector<std::uint64_t> l2_tags_;  // direct-mapped, one tag per line
  /// ceil(2^128 / lines), wrapping to 0 for a single line (Lemire's fastmod).
  __uint128_t l2_line_reciprocal_ = 0;
};

}  // namespace turbobc::sim
