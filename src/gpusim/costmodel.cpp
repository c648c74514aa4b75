#include "gpusim/costmodel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <mutex>
#include <string>

#include "common/error.hpp"

namespace turbobc::sim {

namespace {
constexpr std::uint64_t kInvalidTag = ~0ULL;
}

std::string_view intern_kernel_name(std::string_view name) {
  static std::mutex mutex;
  static std::deque<std::string> table;  // deque: stable element addresses
  std::lock_guard<std::mutex> g(mutex);
  for (const std::string& s : table) {
    if (s == name) return s;
  }
  return table.emplace_back(name);
}

CostModel::CostModel(const DeviceProps& props) : props_(props) {
  TBC_CHECK(props_.sector_bytes > 0 &&
                std::has_single_bit(
                    static_cast<unsigned>(props_.sector_bytes)),
            "sector_bytes must be a power of two, got " +
                std::to_string(props_.sector_bytes));
  sector_shift_ =
      std::countr_zero(static_cast<unsigned>(props_.sector_bytes));
  const std::size_t lines =
      std::max<std::size_t>(1, props_.l2_bytes / props_.sector_bytes);
  l2_tags_.assign(lines, kInvalidTag);
  l2_line_reciprocal_ = ~__uint128_t{0} / lines + 1;
}

void CostModel::reset_l2() {
  std::fill(l2_tags_.begin(), l2_tags_.end(), kInvalidTag);
}

std::size_t CostModel::l2_line(std::uint64_t sector) const {
  // Lemire, Kaser and Kurz, "Faster remainder by direct computation" (2019):
  // with M = ceil(2^128 / d), sector % d is the high 64 bits of
  // ((M * sector) mod 2^128) * d, exactly, for every 64-bit sector and
  // every d < 2^64. The L2 has 98,304 lines, so a plain % would pay a 64-bit
  // division per transaction. For d = 1, M wraps to 0 and so does the line.
  const std::uint64_t d = l2_tags_.size();
  const __uint128_t low = l2_line_reciprocal_ * sector;
  const __uint128_t bottom =
      (static_cast<__uint128_t>(static_cast<std::uint64_t>(low)) * d) >> 64;
  const __uint128_t top =
      static_cast<__uint128_t>(static_cast<std::uint64_t>(low >> 64)) * d;
  return static_cast<std::size_t>((top + bottom) >> 64);
}

std::uint64_t CostModel::process_slot(LaunchRecord& rec, const Access* accesses,
                                      int count) {
  std::array<std::uint64_t, kMaxSlotSectors> sectors;
  const Coalesced c = coalesce(rec, accesses, count, sectors.data());
  replay_sectors(rec, sectors.data(), static_cast<std::size_t>(c.sectors));
  return c.slots;
}

std::uint64_t CostModel::coalesce_slot(
    LaunchRecord& rec, const Access* accesses, int count,
    std::vector<std::uint64_t>& sectors_out) const {
  std::array<std::uint64_t, kMaxSlotSectors> sectors;
  const Coalesced c = coalesce(rec, accesses, count, sectors.data());
  sectors_out.insert(sectors_out.end(), sectors.begin(),
                     sectors.begin() + c.sectors);
  return c.slots;
}

void CostModel::replay_sectors(LaunchRecord& rec, const std::uint64_t* sectors,
                               std::size_t count) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t& tag = l2_tags_[l2_line(sectors[i])];
    if (tag == sectors[i]) {
      ++hits;
    } else {
      tag = sectors[i];
    }
  }
  rec.l2_hit_transactions += hits;
  rec.dram_transactions += count - hits;
}

namespace {

/// Collects values into a caller's buffer, dropping repeats of the last
/// value. While values arrive ascending, the buffer stays sorted and unique
/// and finish() skips the sort. Branch-free per value: each push writes the
/// entry after the last kept one and keeps it only if it is new, so the
/// buffer needs room for `first` plus one entry per push.
class DistinctRun {
 public:
  DistinctRun(std::uint64_t* buf, std::uint64_t first)
      : buf_(buf), last_(first) {
    buf_[0] = first;
  }

  void push(std::uint64_t v) {
    buf_[n_] = v;
    n_ += v != last_;
    ascending_ = ascending_ && v >= last_;
    last_ = v;
  }

  /// Number of distinct values, which then lead the buffer in ascending
  /// order.
  int finish() {
    if (ascending_) return n_;
    std::sort(buf_, buf_ + n_);
    return static_cast<int>(std::unique(buf_, buf_ + n_) - buf_);
  }

 private:
  std::uint64_t* buf_;
  std::uint64_t last_;
  int n_ = 1;
  bool ascending_ = true;
};

}  // namespace

CostModel::Coalesced CostModel::coalesce(LaunchRecord& rec,
                                         const Access* accesses, int count,
                                         std::uint64_t* sectors) const {
  if (count <= 0) return {};
  TBC_CHECK(count <= kMaxSlotLanes, "a warp slot holds at most 32 requests");

  // Collect the touched sectors of the warp's active lanes. A lane request
  // can straddle a sector boundary (16 B loads), hence up to 2 sectors each.
  // Coalesced, broadcast and lane-ordered strided slots arrive in ascending
  // sector order, so most slots skip the sort. Request counts stay in
  // locals: `rec` may alias the sector buffer as far as the compiler knows.
  DistinctRun run(sectors, accesses[0].addr >> sector_shift_);
  std::array<std::uint64_t, kMaxSlotLanes> atomic_addrs;  // contention
  int n_atomics = 0;
  std::uint64_t loads = 0, stores = 0, float_atomics = 0;

  for (int i = 0; i < count; ++i) {
    const Access& a = accesses[i];
    const std::uint64_t last = a.addr + (a.size ? a.size - 1 : 0);
    run.push(a.addr >> sector_shift_);
    run.push(last >> sector_shift_);
    switch (a.op) {
      case MemOp::kLoad:
        ++loads;
        break;
      case MemOp::kStore:
        ++stores;
        break;
      case MemOp::kAtomicFloat:
        ++float_atomics;
        [[fallthrough]];
      case MemOp::kAtomic:
        atomic_addrs[n_atomics++] = a.addr;
        break;
    }
  }
  rec.load_requests += loads;
  rec.store_requests += stores;
  rec.atomic_requests += static_cast<std::uint64_t>(n_atomics);
  rec.atomic_float_requests += float_atomics;

  const int unique_sectors = run.finish();
  const auto tx = static_cast<std::uint64_t>(unique_sectors);
  // Atomics produce read-modify-write traffic.
  if (stores > 0 || n_atomics > 0) {
    rec.store_transactions += tx;
  } else {
    rec.load_transactions += tx;
  }

  // Issue cost: one issue plus a replay per extra transaction; contended
  // atomics additionally serialize per conflicting lane.
  std::uint64_t slots = std::max<std::uint64_t>(1, tx);
  if (n_atomics > 0) {
    DistinctRun distinct(atomic_addrs.data(), atomic_addrs[0]);
    for (int i = 1; i < n_atomics; ++i) distinct.push(atomic_addrs[i]);
    slots += static_cast<std::uint64_t>(n_atomics - distinct.finish());
    if (float_atomics > 0) slots *= kFloatAtomicPenalty;
  }
  rec.issue_slots += slots;
  return {unique_sectors, slots};
}

double CostModel::finalize(LaunchRecord& rec) const {
  const double issue_rate =
      static_cast<double>(props_.total_warp_issue_slots_per_cycle()) *
      props_.clock_hz;
  const double throughput_bound =
      static_cast<double>(rec.issue_slots) / issue_rate;
  const double critical_path = static_cast<double>(rec.max_warp_slots) *
                               props_.cycles_per_dependent_slot /
                               props_.clock_hz;
  const double compute_time = std::max(throughput_bound, critical_path);

  const double sector = static_cast<double>(props_.sector_bytes);
  const double dram_time =
      static_cast<double>(rec.dram_transactions) * sector /
      props_.dram_bandwidth_bps;
  const double l2_time = static_cast<double>(rec.l2_hit_transactions) * sector /
                         props_.l2_bandwidth_bps;
  // Atomics funnel through the L2 atomic units at a fixed op rate; float
  // atomics run ~4x slower than integer ones (see DeviceProps).
  const std::uint64_t int_atomics =
      rec.atomic_requests - rec.atomic_float_requests;
  const double atomic_time =
      static_cast<double>(int_atomics) / props_.atomic_int_ops_per_s +
      static_cast<double>(rec.atomic_float_requests) /
          props_.atomic_float_ops_per_s;
  const double mem_time = dram_time + l2_time + atomic_time;

  rec.time_s =
      props_.kernel_launch_overhead_s + std::max(compute_time, mem_time);
  return rec.time_s;
}

double CostModel::memset_time(std::uint64_t bytes) const {
  return props_.kernel_launch_overhead_s +
         static_cast<double>(bytes) / props_.dram_bandwidth_bps;
}

double CostModel::transfer_time(std::uint64_t bytes) const {
  return props_.pcie_latency_s +
         static_cast<double>(bytes) / props_.pcie_bandwidth_bps;
}

}  // namespace turbobc::sim
