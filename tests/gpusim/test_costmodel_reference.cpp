// Reference equivalence for the cost model's slot path. The reference below
// is the model's specification written the plain way: sectors by division,
// std::sort + std::unique for coalescing, `%` for the direct-mapped L2 line.
// Seeded random slots (1-32 lanes, 1-16 byte requests that may straddle a
// sector, every MemOp, ascending / descending / shuffled / duplicate
// addresses, addresses above 2^37 so sectors pass 2^32) run through the
// reference, through process_slot, and through coalesce_slot +
// replay_sectors, over L2s of one line, a power of two, the Titan Xp's
// 98,304 lines and the ablation bench's 64 KB. Every LaunchRecord field,
// every returned slot count, the sector stream and the hit/miss stream must
// agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "gpusim/costmodel.hpp"

namespace turbobc::sim {
namespace {

/// The specification of one slot's accounting, written for clarity.
class ReferenceModel {
 public:
  explicit ReferenceModel(const DeviceProps& props)
      : sector_bytes_(static_cast<std::uint64_t>(props.sector_bytes)),
        tags_(std::max<std::size_t>(1, props.l2_bytes / props.sector_bytes),
              ~0ULL) {}

  /// Returns the issue slots; appends the slot's sectors (sorted, unique)
  /// to `sectors` and one hit flag per sector to `hits`.
  std::uint64_t slot(LaunchRecord& rec, const std::vector<Access>& accesses,
                     std::vector<std::uint64_t>& sectors,
                     std::vector<bool>& hits) {
    if (accesses.empty()) return 0;
    std::vector<std::uint64_t> touched;
    std::vector<std::uint64_t> atomic_addrs;
    bool is_store = false;
    bool has_float_atomic = false;
    for (const Access& a : accesses) {
      const std::uint64_t first = a.addr / sector_bytes_;
      const std::uint64_t last =
          (a.addr + (a.size ? a.size - 1 : 0)) / sector_bytes_;
      touched.push_back(first);
      if (last != first) touched.push_back(last);
      switch (a.op) {
        case MemOp::kLoad:
          ++rec.load_requests;
          break;
        case MemOp::kStore:
          ++rec.store_requests;
          is_store = true;
          break;
        case MemOp::kAtomicFloat:
          ++rec.atomic_float_requests;
          has_float_atomic = true;
          [[fallthrough]];
        case MemOp::kAtomic:
          ++rec.atomic_requests;
          is_store = true;
          atomic_addrs.push_back(a.addr);
          break;
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    (is_store ? rec.store_transactions : rec.load_transactions) +=
        touched.size();

    for (const std::uint64_t s : touched) {
      std::uint64_t& tag = tags_[s % tags_.size()];
      const bool hit = tag == s;
      tag = s;
      hits.push_back(hit);
      ++(hit ? rec.l2_hit_transactions : rec.dram_transactions);
      sectors.push_back(s);
    }

    std::uint64_t slots = std::max<std::uint64_t>(1, touched.size());
    if (!atomic_addrs.empty()) {
      std::sort(atomic_addrs.begin(), atomic_addrs.end());
      const auto distinct = static_cast<std::uint64_t>(
          std::unique(atomic_addrs.begin(), atomic_addrs.end()) -
          atomic_addrs.begin());
      slots += atomic_addrs.size() - distinct;
      if (has_float_atomic) slots *= CostModel::kFloatAtomicPenalty;
    }
    rec.issue_slots += slots;
    return slots;
  }

 private:
  std::uint64_t sector_bytes_;
  std::vector<std::uint64_t> tags_;
};

void expect_same_record(const LaunchRecord& want, const LaunchRecord& got,
                        const std::string& what) {
  EXPECT_EQ(want.warps, got.warps) << what;
  EXPECT_EQ(want.issue_slots, got.issue_slots) << what;
  EXPECT_EQ(want.max_warp_slots, got.max_warp_slots) << what;
  EXPECT_EQ(want.load_requests, got.load_requests) << what;
  EXPECT_EQ(want.store_requests, got.store_requests) << what;
  EXPECT_EQ(want.atomic_requests, got.atomic_requests) << what;
  EXPECT_EQ(want.atomic_float_requests, got.atomic_float_requests) << what;
  EXPECT_EQ(want.load_transactions, got.load_transactions) << what;
  EXPECT_EQ(want.store_transactions, got.store_transactions) << what;
  EXPECT_EQ(want.l2_hit_transactions, got.l2_hit_transactions) << what;
  EXPECT_EQ(want.dram_transactions, got.dram_transactions) << what;
  EXPECT_EQ(want.word_ops, got.word_ops) << what;
  EXPECT_EQ(want.time_s, got.time_s) << what;
}

enum class Order { kAscending, kDescending, kShuffled, kDuplicates };

/// One random slot. Bases come from a few fixed regions (so later slots
/// revisit earlier sectors and the L2 sees hits and conflict evictions),
/// two of them above 2^37 and one near the top of the address space.
std::vector<Access> random_slot(Xoshiro256& rng) {
  static constexpr std::array<std::uint64_t, 5> kRegions = {
      0x1000ULL, 0x40'0000ULL, 0x20'0000'0000ULL, 0x7'3456'7890'0000ULL,
      0xFFFF'FFFF'FFF0'0000ULL};
  const int lanes = 1 + static_cast<int>(rng.uniform(32));
  const auto width = static_cast<std::uint8_t>(1 + rng.uniform(16));
  const auto order = static_cast<Order>(rng.uniform(4));
  const bool uniform_op = rng.bernoulli(0.7);
  const auto slot_op = static_cast<MemOp>(rng.uniform(4));
  // Strides from 0 (broadcast) through sub-sector to page-sized; an odd
  // base offset makes wider requests straddle sector boundaries.
  static constexpr std::array<std::uint64_t, 7> kStrides = {0, 1, 4, 8,
                                                            12, 40, 4096};
  const std::uint64_t stride = kStrides[rng.uniform(kStrides.size())];
  const std::uint64_t base =
      kRegions[rng.uniform(kRegions.size())] + rng.uniform(1 << 16);

  std::vector<Access> slot;
  for (int lane = 0; lane < lanes; ++lane) {
    std::uint64_t addr = 0;
    switch (order) {
      case Order::kAscending:
      case Order::kShuffled:
        addr = base + static_cast<std::uint64_t>(lane) * stride;
        break;
      case Order::kDescending:
        addr = base + static_cast<std::uint64_t>(lanes - 1 - lane) * stride;
        break;
      case Order::kDuplicates:
        addr = base + rng.uniform(4) * (stride + 1);
        break;
    }
    const MemOp op =
        uniform_op ? slot_op : static_cast<MemOp>(rng.uniform(4));
    slot.push_back(Access{addr, width, op});
  }
  if (order == Order::kShuffled) {
    for (std::size_t i = slot.size(); i > 1; --i) {
      std::swap(slot[i - 1], slot[rng.uniform(i)]);
    }
  }
  return slot;
}

struct L2Config {
  const char* name;
  int sector_bytes;
  std::size_t l2_bytes;
};

class ReferenceEquivalence : public ::testing::TestWithParam<L2Config> {};

TEST_P(ReferenceEquivalence, SlotPathsMatchThePlainCoalescer) {
  DeviceProps props = DeviceProps::titan_xp();
  props.sector_bytes = GetParam().sector_bytes;
  props.l2_bytes = GetParam().l2_bytes;
  ReferenceModel ref(props);
  CostModel serial(props);     // process_slot
  CostModel split(props);      // coalesce_slot + replay_sectors
  LaunchRecord rec_ref, rec_serial, rec_split;

  Xoshiro256 rng(0x5EC7'0B17ULL + static_cast<std::uint64_t>(props.l2_bytes));
  constexpr int kSlots = 4000;
  std::vector<Access> slot;
  for (int i = 0; i < kSlots; ++i) {
    // Re-issuing the previous slot now and then gives even a one-line L2
    // its hits.
    if (slot.empty() || !rng.bernoulli(0.25)) slot = random_slot(rng);
    const int count = static_cast<int>(slot.size());
    const std::string what = std::string(GetParam().name) + " slot " +
                             std::to_string(i);

    std::vector<std::uint64_t> ref_sectors;
    std::vector<bool> ref_hits;
    const std::uint64_t ref_slots =
        ref.slot(rec_ref, slot, ref_sectors, ref_hits);

    EXPECT_EQ(ref_slots, serial.process_slot(rec_serial, slot.data(), count))
        << what;

    std::vector<std::uint64_t> sectors;
    EXPECT_EQ(ref_slots,
              split.coalesce_slot(rec_split, slot.data(), count, sectors))
        << what;
    ASSERT_EQ(ref_sectors, sectors) << what;
    for (std::size_t k = 0; k < sectors.size(); ++k) {
      LaunchRecord one;
      split.replay_sectors(one, &sectors[k], 1);
      EXPECT_EQ(ref_hits[k], one.l2_hit_transactions == 1) << what;
      rec_split.l2_hit_transactions += one.l2_hit_transactions;
      rec_split.dram_transactions += one.dram_transactions;
    }

    expect_same_record(rec_ref, rec_serial, what + " (process_slot)");
    expect_same_record(rec_ref, rec_split, what + " (coalesce + replay)");
    if (::testing::Test::HasFailure()) return;
  }
  // The slots must have exercised both sides of the L2.
  EXPECT_GT(rec_ref.l2_hit_transactions, 0u);
  EXPECT_GT(rec_ref.dram_transactions, 0u);
}

TEST_P(ReferenceEquivalence, EmptySlotCostsNothing) {
  DeviceProps props = DeviceProps::titan_xp();
  props.sector_bytes = GetParam().sector_bytes;
  props.l2_bytes = GetParam().l2_bytes;
  CostModel cm(props);
  LaunchRecord rec;
  std::vector<std::uint64_t> sectors;
  EXPECT_EQ(cm.process_slot(rec, nullptr, 0), 0u);
  EXPECT_EQ(cm.coalesce_slot(rec, nullptr, 0, sectors), 0u);
  EXPECT_TRUE(sectors.empty());
  expect_same_record(LaunchRecord{}, rec, "empty slot");
}

INSTANTIATE_TEST_SUITE_P(
    L2Sizes, ReferenceEquivalence,
    ::testing::Values(L2Config{"one_line", 32, 32},
                      L2Config{"pow2_1024_lines", 32, 32 * 1024},
                      L2Config{"titan_xp_98304_lines", 32, 3ull << 20},
                      L2Config{"ablation_64KB", 32, 64 * 1024},
                      L2Config{"sector64_titan_xp", 64, 3ull << 20},
                      L2Config{"sector16_titan_xp", 16, 3ull << 20}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(CostModelSlots, MoreRequestsThanAWarpAreRejected) {
  CostModel cm(DeviceProps::titan_xp());
  LaunchRecord rec;
  std::vector<std::uint64_t> sectors;
  const std::vector<Access> slot(CostModel::kMaxSlotLanes + 1,
                                 Access{0x1000, 4, MemOp::kLoad});
  const int count = static_cast<int>(slot.size());
  EXPECT_THROW(cm.process_slot(rec, slot.data(), count), InvalidArgument);
  EXPECT_THROW(cm.coalesce_slot(rec, slot.data(), count, sectors),
               InvalidArgument);
}

TEST(CostModelConstruction, NonPowerOfTwoSectorIsRejected) {
  for (const int bad : {0, -32, 3, 24, 48, 96}) {
    DeviceProps props = DeviceProps::titan_xp();
    props.sector_bytes = bad;
    EXPECT_THROW(CostModel{props}, InvalidArgument) << bad;
  }
  for (const int good : {1, 16, 32, 128}) {
    DeviceProps props = DeviceProps::titan_xp();
    props.sector_bytes = good;
    EXPECT_NO_THROW(CostModel{props}) << good;
  }
}

}  // namespace
}  // namespace turbobc::sim
