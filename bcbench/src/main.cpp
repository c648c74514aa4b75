// bcbench: the repository benchmark. One process per run:
//
//   bcbench --workload kron-sampled|road-exact-batched|citation-serve
//           --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Generates the workload's graph from the seed, writes it as .mtx, and times
// calls into the library from outside (bcbench/README.md). Progress lines
// start with '#'; the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (and the span file is written to the work directory).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "gpusim/executor.hpp"

namespace bcbench {

double RunContext::calibrate(int passes) {
  Tracer::Scope span(tracer, "bench.calibrate");
  const double s = calib.measure(passes);
  loop_samples.push_back(s);
  return s;
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

namespace {

// Every per-layer metric the benchmark reports (BENCHMARK.json per_layer).
// A workload that does not exercise a layer reports 0 for it.
const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = {
      {"graph.ingest_s", "s"},
      {"graph.ingest_mb_per_s", "MB/s"},
      {"storage.ingest_s", "s"},
      {"storage.bytes_per_arc", "B"},
      {"gpusim.launches", "count"},
      {"gpusim.load_tx", "count"},
      {"gpusim.store_tx", "count"},
      {"gpusim.l2_hit_ratio", "ratio"},
      {"gpusim.word_ops", "count"},
      {"gpusim.transfer_s", "s"},
      {"gpusim.overhead_s", "s"},
      {"gpusim.host_ns_per_tx", "ns"},
      {"gpusim.host_us_per_launch", "us"},
      {"spmv.forward_s", "s"},
      {"spmv.backward_s", "s"},
      {"spmv.forward_load_tx", "count"},
      {"spmv.backward_load_tx", "count"},
      {"core.level_kernels_s", "s"},
      {"core.construct.self_s", "s"},
      {"core.run.self_s", "s"},
      {"core.blocks", "count"},
      {"core.peak_device_bytes", "B"},
      {"serve.recomputed", "count"},
      {"serve.cached", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.invalidated_per_update", "count"},
      {"serve.noop_updates", "count"},
      {"serve.read_p50_s", "s"},
      {"serve.new_epoch_read_p50_s", "s"},
      {"serve.same_epoch_read_p50_s", "s"},
      {"serve.read_tail_s", "s"},
      {"daemon.busy", "count"},
      {"daemon.errors", "count"},
      {"daemon.server_p50_s", "s"},
      {"daemon.socket_s", "s"},
      {"daemon.connections", "count"},
      {"daemon.write_p50_s", "s"},
      {"daemon.peak_rss_bytes", "B"},
      {"bench.calib_s", "s"},
      {"bench.raw_host_s", "s"},
      {"bench.ops", "count"},
      {"bench.trace_overhead", "ratio"},
  };
  return units;
}

const char* const kEndToEnd[] = {"setup_s", "host_s", "modeled_s",
                                 "requests_per_s", "host_rss_bytes"};

void print_metrics(std::ostream& os, const std::map<std::string, Metric>& m) {
  os << '{';
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << '}';
}

int usage() {
  std::cerr << "usage: bcbench --workload kron-sampled|road-exact-batched|"
               "citation-serve --seed N --seconds S --trace 0|1 "
               "[--workdir DIR]\n";
  return 2;
}

}  // namespace
}  // namespace bcbench

int main(int argc, char** argv) {
  using namespace bcbench;
  RunConfig cfg;
  cfg.workdir = ".bench_build/bcbench-work";
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (key == "--trace") {
        cfg.trace = value == "1";
      } else if (key == "--workdir") {
        cfg.workdir = value;
      } else {
        return usage();
      }
    }
    if (argc % 2 == 0 || !have_workload || !(cfg.seconds > 0.0)) return usage();
  } catch (const std::exception&) {
    return usage();
  }

  try {
    // Peak RSS must repeat, so glibc's allocator is pinned: one arena (with
    // per-thread arenas it depended on which daemon thread allocated a
    // block, and moved 14% between identical citation-serve runs) and a
    // fixed mmap threshold (the dynamic one rises after the first large
    // free, after which replica devices fragment the heap by an amount
    // that follows the workload's recompute churn: 8-19% between seeds).
    mallopt(M_ARENA_MAX, 1);
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    // Width 1 is the single-thread baseline: modeled results do not depend
    // on the pool width, and no pool thread competes with the measured one.
    const unsigned width = turbobc::sim::ExecutorPool::instance().set_threads(1);
    cfg.workdir += "/" + cfg.workload + "-" + std::to_string(cfg.seed) +
                   (cfg.trace ? "-trace" : "");
    std::filesystem::remove_all(cfg.workdir);
    std::filesystem::create_directories(cfg.workdir);

    RunContext ctx{cfg, {}, {}, {}};
    std::cout << "# bcbench workload=" << cfg.workload << " seed=" << cfg.seed
              << " seconds=" << cfg.seconds << " trace=" << (cfg.trace ? 1 : 0)
              << " pool_width=" << width << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
              << " calib_nominal_s=" << kCalibNominalS << std::endl;

    RunResult result;
    if (cfg.workload == "kron-sampled") {
      result = run_kron_sampled(ctx);
    } else if (cfg.workload == "road-exact-batched") {
      result = run_road_exact_batched(ctx);
    } else if (cfg.workload == "citation-serve") {
      result = run_citation_serve(ctx);
    } else {
      return usage();
    }

    std::map<std::string, Metric> out;
    if (cfg.trace) {
      for (const auto& [name, unit] : per_layer_units()) {
        const auto it = result.per_layer.find(name);
        out[name] = {it == result.per_layer.end() ? 0.0 : it->second.value, unit};
      }
      const std::string path = cfg.workdir + "/trace.json";
      ctx.tracer.write_chrome_json(path);
      std::cout << "# trace: " << ctx.tracer.span_count() << " spans -> "
                << path << '\n';
    } else {
      for (const char* name : kEndToEnd) {
        const auto it = result.end_to_end.find(name);
        if (it == result.end_to_end.end()) {
          throw std::runtime_error(std::string("metric not measured: ") + name);
        }
        out[name] = it->second;
      }
    }
    if (!result.tally.first_failure().empty()) {
      std::cout << "# first failure: " << result.tally.first_failure() << '\n';
    }
    std::cout << "{\"correct\": " << (result.tally.correct() ? "true" : "false")
              << ", \"attempted\": " << result.tally.attempted()
              << ", \"failed\": " << result.tally.failed() << ", \"metrics\": ";
    print_metrics(std::cout, out);
    std::cout << '}' << std::endl;
    if (!cfg.trace) std::filesystem::remove_all(cfg.workdir);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bcbench: " << e.what() << '\n';
    return 1;
  }
}
