// In-memory span recorder for the benchmark's own call sites.
//
// A span is a name, a host start and end, the span that caused it (the
// innermost span open on the same thread) and a request id. Spans are only
// recorded while the tracer is enabled, kept in memory, and written at the
// end of the run as Chrome trace-event JSON (chrome://tracing, Perfetto).
// Root spans (bench.setup, bench.op) carry the calibration factor of the
// operation they time, so self times come out in calibrated seconds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bcbench {

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  Tracer() : origin_(clock::now()) {}

  void set_enabled(bool on) noexcept { enabled_.store(on); }
  bool enabled() const noexcept { return enabled_.load(); }

  /// Open a span on the calling thread; returns its id, or -1 when disabled.
  int begin(const char* name, std::uint64_t request);
  /// Close span `id` (no-op for -1).
  void end(int id);

  /// Scale a root span's subtree by a calibration factor.
  void set_scale(int id, double factor);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Calibrated self time (duration minus the time covered by child spans)
  /// of every closed span, grouped by span name.
  std::map<std::string, std::vector<double>> self_times() const;

  std::size_t span_count() const;

  /// Write every closed span as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    std::uint64_t request = 0;
    unsigned thread = 0;
    double scale = 1.0;
  };

  double now() const;

  std::atomic<bool> enabled_{false};
  clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace bcbench
