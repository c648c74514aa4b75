#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace bcbench {

namespace {

std::size_t ceil_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[ceil_rank(samples.size(), q) - 1];
}

std::string Tail::label() const {
  if (!found) return "none";
  std::ostringstream os;
  os << 'p' << q * 100.0;
  return os.str();
}

Tail tail_percentile(const std::vector<double>& samples,
                     std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  Tail tail;
  const std::size_t n = samples.size();
  if (n == 0) return tail;
  for (const double q : kLadder) {
    const std::size_t rank = ceil_rank(n, q);
    if (n - rank >= min_beyond) {
      tail.found = true;
      tail.q = q;
      tail.value = quantile(samples, q);
      tail.beyond = n - rank;
      return tail;
    }
  }
  return tail;
}

void OpTally::fail(const std::string& reason) {
  ++attempted_;
  if (failed_++ == 0) first_failure_ = reason;
}

double max_rel_error(const std::vector<double>& got,
                     const std::vector<double>& want) {
  if (got.size() != want.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err = std::abs(got[i] - want[i]) / std::max(1.0, std::abs(want[i]));
    if (!(err <= worst)) worst = err;  // NaN propagates as the worst error
  }
  return worst;
}

}  // namespace bcbench
