#include "calibrate.hpp"

#include <algorithm>
#include <chrono>

namespace bcbench {

namespace {

constexpr std::uint64_t kSeed = 0x7462636272656e63ULL;
constexpr std::uint32_t kVertices = 1u << 14;
constexpr std::uint64_t kSectorBytes = 32;
constexpr std::uint64_t kL2Lines = (3u << 20) / kSectorBytes;
constexpr std::uint64_t kInvalidTag = ~0ULL;

// Modeled device base addresses of the four arrays (disjoint, 256 B aligned).
constexpr std::uint64_t kColPtrBase = 0x1000000;
constexpr std::uint64_t kRowsBase = 0x4000000;
constexpr std::uint64_t kXBase = 0x9000000;
constexpr std::uint64_t kYBase = 0xc000000;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double calibrated(double raw_s, double loop_s, double nominal_s) {
  return loop_s > 0.0 ? raw_s * nominal_s / loop_s : raw_s;
}

CalibrationLoop::CalibrationLoop() {
  // Skewed in-degrees (a few hubs, many short columns) with row ids biased
  // towards low ids, like a Kronecker graph's CSC.
  std::uint64_t state = kSeed;
  col_ptr_.resize(kVertices + 1);
  col_ptr_[0] = 0;
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    const std::uint64_t r = splitmix(state);
    const std::uint32_t level = static_cast<std::uint32_t>(r & 7u);
    const std::uint32_t deg =
        (level == 0) ? 64 + static_cast<std::uint32_t>((r >> 8) % 192)
                     : 1 + static_cast<std::uint32_t>((r >> 8) % (2 * level + 2));
    col_ptr_[v + 1] = col_ptr_[v] + deg;
  }
  rows_.resize(col_ptr_[kVertices]);
  for (std::uint32_t& row : rows_) {
    const std::uint64_t r = splitmix(state);
    const std::uint64_t a = r % kVertices;
    const std::uint64_t b = (r >> 32) % kVertices;
    row = static_cast<std::uint32_t>(std::min(a, b));
  }
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    std::sort(rows_.begin() + col_ptr_[v], rows_.begin() + col_ptr_[v + 1]);
  }
  x_.resize(kVertices);
  for (std::uint32_t v = 0; v < kVertices; ++v) {
    x_[v] = static_cast<float>(splitmix(state) % 1000) * 1e-3f;
  }
  y_.assign(kVertices, 0.0);
  tags_.assign(kL2Lines, kInvalidTag);
  for (auto& log : logs_) log.reserve(512);
}

void CalibrationLoop::rewarm() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(y_.begin(), y_.end(), 0.0);
  std::uint64_t sum = 0;
  for (const std::uint32_t c : col_ptr_) sum += c;
  for (const std::uint32_t r : rows_) sum += r;
  for (const float f : x_) sum += static_cast<std::uint64_t>(f > 0.5f);
  checksum_ ^= sum;
}

std::uint64_t CalibrationLoop::pass() {
  std::uint64_t hits = 0;
  std::array<std::uint64_t, 64> sectors{};
  for (std::uint32_t w = 0; w < kVertices / 32; ++w) {
    // Thread-per-column gather: each lane logs its column's accesses.
    std::size_t max_len = 0;
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      const std::uint32_t v = w * 32 + lane;
      std::vector<Access>& log = logs_[lane];
      log.clear();
      log.push_back({kColPtrBase + 4ull * v, 4});
      log.push_back({kColPtrBase + 4ull * (v + 1), 4});
      double acc = 0.0;
      for (std::uint32_t e = col_ptr_[v]; e < col_ptr_[v + 1]; ++e) {
        const std::uint32_t row = rows_[e];
        log.push_back({kRowsBase + 4ull * e, 4});
        log.push_back({kXBase + 4ull * row, 4});
        acc += static_cast<double>(x_[row]);
      }
      y_[v] += acc;
      log.push_back({kYBase + 8ull * v, 8});
      max_len = std::max(max_len, log.size());
    }
    // Zip lanes into warp slots: sector sort + unique, then L2 tag probes.
    for (std::size_t slot = 0; slot < max_len; ++slot) {
      int count = 0;
      for (std::uint32_t lane = 0; lane < 32; ++lane) {
        const std::vector<Access>& log = logs_[lane];
        if (slot >= log.size()) continue;
        const Access& a = log[slot];
        const std::uint64_t first = a.addr / kSectorBytes;
        const std::uint64_t last = (a.addr + a.size - 1) / kSectorBytes;
        sectors[static_cast<std::size_t>(count++)] = first;
        if (last != first) sectors[static_cast<std::size_t>(count++)] = last;
      }
      std::sort(sectors.begin(), sectors.begin() + count);
      const auto end = std::unique(sectors.begin(), sectors.begin() + count);
      for (auto it = sectors.begin(); it != end; ++it) {
        std::uint64_t& tag = tags_[*it % kL2Lines];
        if (tag == *it) {
          ++hits;
        } else {
          tag = *it;
        }
      }
    }
  }
  return hits + static_cast<std::uint64_t>(y_[kVertices / 2]);
}

double CalibrationLoop::measure(int passes) {
  std::vector<double> times;
  for (int p = 0; p < std::max(1, passes); ++p) {
    rewarm();
    const auto t0 = std::chrono::steady_clock::now();
    checksum_ ^= pass();
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace bcbench
