// Tests of the benchmark's own helpers: percentile ranks, calibration
// scaling, kernel-name -> layer grouping, response parsing and failure
// accounting, span self times, and the seeded input helpers. Build and run
// with the benchmark:
//   cmake -S bcbench -B .bench_build/bcbench && cmake --build .bench_build/bcbench
//   ctest --test-dir .bench_build/bcbench
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "responses.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_quantile_ceiling_rank() {
  using bcbench::quantile;
  CHECK(quantile({}, 0.5) == 0.0);
  CHECK(quantile({7.0}, 0.5) == 7.0);
  CHECK(quantile(iota(3), 0.5) == 2.0);   // ceil(1.5) = 2nd
  CHECK(quantile(iota(4), 0.5) == 2.0);   // ceil(2.0) = 2nd
  CHECK(quantile(iota(5), 0.5) == 3.0);
  CHECK(quantile(iota(100), 0.99) == 99.0);
  CHECK(quantile(iota(100), 0.991) == 100.0);
  CHECK(quantile(iota(10), 1.0) == 10.0);
  CHECK(bcbench::median(iota(7)) == 4.0);
}

void test_tail_percentile() {
  using bcbench::tail_percentile;
  // 19 samples: p50 has rank 10 and only 9 beyond it -> no tail.
  CHECK(!tail_percentile(iota(19)).found);
  CHECK(tail_percentile(iota(19)).label() == "none");
  // 20 samples: p50 (rank 10) has exactly 10 beyond it.
  bcbench::Tail t = tail_percentile(iota(20));
  CHECK(t.found && t.q == 0.5 && t.value == 10.0 && t.beyond == 10);
  // 100 samples: p90 has rank 90 and 10 beyond; p95 only 5.
  t = tail_percentile(iota(100));
  CHECK(t.found && t.q == 0.9 && t.value == 90.0 && t.beyond == 10);
  CHECK(t.label() == "p90");
  // 200 samples: p95 has 10 beyond.
  t = tail_percentile(iota(200));
  CHECK(t.q == 0.95 && t.value == 190.0);
  // 1000 samples: p99 has 10 beyond; p99.9 only 1.
  t = tail_percentile(iota(1000));
  CHECK(t.q == 0.99 && t.value == 990.0 && t.label() == "p99");
  t = tail_percentile(iota(10000));
  CHECK(t.q == 0.999 && t.value == 9990.0 && t.label() == "p99.9");
}

void test_calibration_scaling() {
  using bcbench::calibrated;
  using bcbench::kCalibNominalS;
  // A machine running the loop at its nominal time leaves seconds as they are.
  CHECK(near(calibrated(1.5, kCalibNominalS), 1.5));
  // Twice as slow: the loop takes twice the nominal, the op is halved.
  CHECK(near(calibrated(3.0, 2 * kCalibNominalS), 1.5));
  CHECK(near(calibrated(0.5, 0.5 * kCalibNominalS), 1.0));
  CHECK(near(calibrated(2.0, 0.04, 0.01), 0.5));
  // A degenerate loop time leaves the raw value.
  CHECK(near(calibrated(2.0, 0.0), 2.0));

  // The loop does a fixed amount of work: same checksum on every pass.
  bcbench::CalibrationLoop a;
  bcbench::CalibrationLoop b;
  const double s = a.measure(1);
  b.measure(1);
  CHECK(s > 0.0);
  CHECK(a.checksum() == b.checksum());
}

void test_kernel_layers() {
  using bcbench::KernelLayer;
  using bcbench::kernel_layer;
  CHECK(kernel_layer("bfs_spmv_vecsc") == KernelLayer::kForward);
  CHECK(kernel_layer("bfs_spmv_pull_sccsc") == KernelLayer::kForward);
  CHECK(kernel_layer("bfs_spmm_msbfs_ccsc") == KernelLayer::kForward);
  CHECK(kernel_layer("dep_spmv_sccsc_scatter") == KernelLayer::kBackward);
  CHECK(kernel_layer("dep_spmm_ccsc") == KernelLayer::kBackward);
  CHECK(kernel_layer("bfs_update") == KernelLayer::kLevel);
  CHECK(kernel_layer("bfs_init_msbfs") == KernelLayer::kLevel);
  CHECK(kernel_layer("dep_prepare_batched") == KernelLayer::kLevel);
  CHECK(kernel_layer("dep_update_batched") == KernelLayer::kLevel);
  CHECK(kernel_layer("bc_accum_batched") == KernelLayer::kLevel);
  CHECK(kernel_layer("approx_moment") == KernelLayer::kOther);
  CHECK(kernel_layer("gunrock_bc_accum") == KernelLayer::kOther);
  CHECK(kernel_layer("bfs") == KernelLayer::kOther);

  // One answer's share is after - before, grouped.
  bcbench::DeviceSnapshot before, after;
  turbobc::sim::KernelAggregate fwd;
  fwd.launches = 3;
  fwd.load_transactions = 30;
  fwd.time_s = 0.25;
  before.kernels["bfs_spmv_vecsc"] = fwd;
  fwd.launches = 5;
  fwd.load_transactions = 70;
  fwd.time_s = 0.75;
  after.kernels["bfs_spmv_vecsc"] = fwd;
  turbobc::sim::KernelAggregate acc;
  acc.launches = 2;
  acc.store_transactions = 8;
  acc.l2_hit_transactions = 6;
  acc.dram_transactions = 2;
  acc.time_s = 0.125;
  after.kernels["bc_accum"] = acc;
  after.transfer_s = 1.0;
  before.transfer_s = 0.25;
  const bcbench::LayerCounters lc = bcbench::LayerCounters::between(before, after);
  CHECK(lc.forward.launches == 2 && lc.forward.load_tx == 40 && near(lc.forward.time_s, 0.5));
  CHECK(lc.level.launches == 2 && lc.level.store_tx == 8);
  CHECK(lc.backward.launches == 0 && lc.other.launches == 0);
  CHECK(lc.total().launches == 4 && lc.total().l2_hit_tx == 6 && lc.total().dram_tx == 2);
  CHECK(near(lc.transfer_s, 0.75));
}

void test_responses_and_failures() {
  using bcbench::ResponseKind;
  using bcbench::completes;
  using bcbench::parse_response;
  const auto bc = parse_response(
      "{\"event\":\"bc\",\"epoch\":7,\"digest\":\"00ff\",\"top\":[{\"v\":12,\"bc\":345.500000},"
      "{\"v\":3,\"bc\":0.000000}]}");
  CHECK(bc.kind == ResponseKind::kBc && bc.epoch == 7);
  CHECK(bc.vertices == std::vector<std::int64_t>({12, 3}));
  CHECK(bc.values.size() == 2 && bc.values[0] == 345.5 && bc.values[1] == 0.0);
  CHECK(completes(bc, false) && !completes(bc, true));

  const auto top = parse_response("{\"event\":\"top\",\"epoch\":2,\"v\":[4,1,9]}");
  CHECK(top.kind == ResponseKind::kTop && top.epoch == 2);
  CHECK(top.vertices == std::vector<std::int64_t>({4, 1, 9}));
  CHECK(completes(top, false));

  const auto upd = parse_response(
      "{\"event\":\"update\",\"op\":\"insert\",\"u\":1,\"v\":2,\"applied\":true,\"epoch\":8}");
  CHECK(upd.kind == ResponseKind::kUpdate && upd.applied && upd.epoch == 8);
  CHECK(completes(upd, true) && !completes(upd, false));
  const auto noop = parse_response(
      "{\"event\":\"update\",\"op\":\"delete\",\"u\":1,\"v\":2,\"applied\":false,\"epoch\":8}");
  CHECK(noop.kind == ResponseKind::kUpdate && !completes(noop, true));

  const auto busy = parse_response("{\"event\":\"busy\",\"pending\":8,\"limit\":8}");
  CHECK(busy.kind == ResponseKind::kBusy && !completes(busy, true) && !completes(busy, false));
  const auto err = parse_response("{\"event\":\"error\",\"detail\":\"serve: bad\"}");
  CHECK(err.kind == ResponseKind::kError && !completes(err, false));
  CHECK(parse_response("").kind == ResponseKind::kUnparsed);
  CHECK(!completes(parse_response("garbage"), false));
  CHECK(parse_response("{\"event\":\"bc\",\"top\":[]}").kind == ResponseKind::kUnparsed);

  bcbench::OpTally tally;
  CHECK(!tally.correct());  // nothing attempted is not a correct run
  tally.pass();
  tally.pass();
  CHECK(tally.correct() && tally.attempted() == 2 && tally.failed() == 0);
  tally.fail("first");
  tally.fail("second");
  CHECK(!tally.correct() && tally.attempted() == 4 && tally.failed() == 2);
  CHECK(tally.first_failure() == "first");

  CHECK(bcbench::max_rel_error({1.0, 200.0}, {1.0, 200.0}) == 0.0);
  CHECK(near(bcbench::max_rel_error({1.5, 202.0}, {1.0, 200.0}), 0.5));
  CHECK(std::isinf(bcbench::max_rel_error({1.0}, {1.0, 2.0})));
  CHECK(!(bcbench::max_rel_error({std::nan("")}, {1.0}) <= 1e-9));
}

void test_span_self_times() {
  bcbench::Tracer tracer;
  CHECK(tracer.begin("off", 0) == -1);  // disabled: nothing recorded
  tracer.set_enabled(true);
  const int root = tracer.begin("bench.op", 1);
  const int child = tracer.begin("core.run", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tracer.end(child);
  tracer.end(root);
  tracer.set_scale(root, 0.5);
  const auto self = tracer.self_times();
  CHECK(tracer.span_count() == 2);
  CHECK(self.at("core.run").size() == 1 && self.at("bench.op").size() == 1);
  // The child's time is scaled by its root's factor and taken out of the root.
  CHECK(self.at("core.run")[0] >= 0.5 * 0.019);
  CHECK(self.at("bench.op")[0] < 0.5 * 0.005);
}

void test_relabel() {
  turbobc::graph::EdgeList path(5, /*directed=*/true);
  for (turbobc::vidx_t v = 0; v + 1 < 5; ++v) path.add_edge(v, v + 1);
  path.canonicalize();
  const auto a = bcbench::relabel(path, 7);
  const auto b = bcbench::relabel(path, 7);
  CHECK(a.num_vertices() == 5 && a.num_arcs() == 4 && a.directed());
  CHECK(a.edges() == b.edges());  // same seed, same input
  // Still a directed path: out- and in-degree multisets are unchanged.
  auto out = a.out_degrees();
  auto in = a.in_degrees();
  std::sort(out.begin(), out.end());
  std::sort(in.begin(), in.end());
  CHECK(out == std::vector<turbobc::eidx_t>({0, 1, 1, 1, 1}));
  CHECK(in == std::vector<turbobc::eidx_t>({0, 1, 1, 1, 1}));
  // Heights along the path: the head reaches 4 levels, the tail none.
  const auto csc = turbobc::graph::CscGraph::from_edges(path);
  CHECK(bcbench::bfs_height(csc, 0) == 4 && bcbench::bfs_height(csc, 4) == 0);
  CHECK(bcbench::max_height(csc) == 4);
  CHECK(bcbench::height_sum(csc) == 4 + 3 + 2 + 1);
}

}  // namespace

int main() {
  test_quantile_ceiling_rank();
  test_tail_percentile();
  test_calibration_scaling();
  test_kernel_layers();
  test_responses_and_failures();
  test_span_self_times();
  test_relabel();
  if (g_failures == 0) std::printf("bcbench helper tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
