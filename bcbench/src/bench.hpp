// Shared types of the benchmark driver (bcbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace bcbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch files of this run (.mtx, socket, trace)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  OpTally tally;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
};

/// Shared state of one run: configuration, calibration loop and tracer.
struct RunContext {
  RunConfig config;
  CalibrationLoop calib;
  Tracer tracer;
  std::vector<double> loop_samples;  ///< every calibration measurement

  /// Time the calibration loop (traced as bench.calibrate): the median of
  /// `passes` passes.
  double calibrate(int passes = 3);
};

/// Peak resident set of the process in bytes.
double peak_rss_bytes();

RunResult run_kron_sampled(RunContext& ctx);
RunResult run_road_exact_batched(RunContext& ctx);
RunResult run_citation_serve(RunContext& ctx);

}  // namespace bcbench
