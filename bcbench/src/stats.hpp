// Sample statistics and operation accounting shared by the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bcbench {

/// Value at ceiling rank ceil(q * N) (1-based) of the samples, q in (0, 1].
/// The p50 of 3 samples is the 2nd; of 4 samples, the 2nd. 0 when empty.
double quantile(std::vector<double> samples, double q);

inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// The highest percentile on a fixed ladder (99.9, 99, 95, 90, 75, 50) that
/// has at least `min_beyond` samples strictly above its ceiling rank.
struct Tail {
  bool found = false;
  double q = 0.0;       ///< e.g. 0.95
  double value = 0.0;   ///< sample at ceiling rank ceil(q * N)
  std::size_t beyond = 0;
  std::string label() const;  ///< "p95", "p99.9", or "none"
};
Tail tail_percentile(const std::vector<double>& samples,
                     std::size_t min_beyond = 10);

/// Attempted / failed operation counts. Any failed op makes the run
/// incorrect; the first failure's reason is kept for the log.
class OpTally {
 public:
  void pass() { ++attempted_; }
  void fail(const std::string& reason);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return attempted_ > 0 && failed_ == 0; }
  const std::string& first_failure() const noexcept { return first_failure_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

/// Worst relative error of `got` against `want`, each entry scaled by
/// max(1, |want|); +inf when the sizes differ.
double max_rel_error(const std::vector<double>& got,
                     const std::vector<double>& want);

}  // namespace bcbench
