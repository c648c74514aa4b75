// The two offline workloads: one caller runs BC answers back to back.
//
//   kron-sampled         Kronecker scale 15, edge factor 16; each answer is
//                        the `bc --approx 8` computation with the CLI
//                        defaults (select_variant, push): TurboBC::run_sources
//                        over 8 seeded sources, scaled by n / 8.
//   road-exact-batched   6x6 road mesh, 6 subdivisions (n = 330); ingested
//                        through the chunked compressed loader; each answer
//                        is TurboBCBatched::run_exact with batch 64 and
//                        compress — the `bc --exact --batch 64 --compress`
//                        call.
//
// Every answer is checked against Brandes outside the timed path, and every
// host time is calibrated by the loop timed on either side of it.
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "baselines/brandes.hpp"
#include "bench.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "core/variant.hpp"
#include "generators/kronecker.hpp"
#include "generators/road.hpp"
#include "gpusim/device.hpp"
#include "graph/csc.hpp"
#include "graph/mtx_io.hpp"
#include "layers.hpp"
#include "storage/mtx_stream.hpp"

namespace bcbench {

namespace {

using namespace turbobc;

// Relative error a BC answer may differ from Brandes by: the two sum the
// same terms in different orders.
constexpr double kBcTolerance = 1e-9;

constexpr int kKronScale = 15;
constexpr double kKronEdgeFactor = 16;
constexpr vidx_t kKronSources = 8;
constexpr vidx_t kKronHeight = 5;
constexpr vidx_t kRoadGrid = 6;
constexpr int kRoadSubdivisions = 6;
constexpr vidx_t kRoadVertices = 330;
constexpr vidx_t kRoadDiameter = 70;
constexpr vidx_t kRoadBatch = 64;

/// A ready-to-answer engine: the device and whatever the engine needs alive.
/// `engine` is declared last so it is destroyed before the device its
/// buffers release into.
struct ReadyEngine {
  std::unique_ptr<sim::Device> device;
  std::function<bc::BcResult()> answer;
  std::shared_ptr<void> engine;
};

/// One setup's result: the ready engine plus setup-side layer figures.
struct Setup {
  ReadyEngine ready;
  double storage_bytes_per_arc = 0.0;
};

struct OfflineWorkload {
  std::string mtx_path;
  std::size_t blocks = 0;            ///< source blocks / batches per answer
  int setups_per_group = 1;          ///< setups timed between calibrations
  int setup_groups = 3;
  const char* ingest_span = "graph.ingest";
  std::function<Setup(Tracer&)> setup;
  std::vector<bc_t> reference;       ///< Brandes answer
};

struct OpSample {
  double raw_s = 0.0;
  double cal_s = 0.0;
  bool traced = false;
  bc::BcResult result;
  LayerCounters layers;
};

RunResult run_offline(RunContext& ctx, OfflineWorkload& w) {
  Tracer& tracer = ctx.tracer;
  tracer.set_enabled(ctx.config.trace);
  RunResult out;

  // Setup, repeated: .mtx on disk -> ready to answer, median reported.
  std::vector<double> setup_cal;
  // Held in an optional so that reset() destroys the engine before the
  // device its buffers live on (a move-assignment would replace the device
  // first).
  std::optional<Setup> setup;
  double loop_before = ctx.calibrate();
  for (int g = 0; g < w.setup_groups; ++g) {
    std::vector<std::pair<double, int>> group;  // raw seconds, root span
    for (int r = 0; r < w.setups_per_group; ++r) {
      setup.reset();
      const int root = tracer.begin("bench.setup", static_cast<std::uint64_t>(g));
      const auto t0 = Tracer::clock::now();
      setup.emplace(w.setup(tracer));
      const auto t1 = Tracer::clock::now();
      tracer.end(root);
      group.emplace_back(std::chrono::duration<double>(t1 - t0).count(), root);
    }
    const double loop_after = ctx.calibrate();
    const double loop = 0.5 * (loop_before + loop_after);
    for (const auto& [raw, root] : group) {
      setup_cal.push_back(calibrated(raw, loop));
      tracer.set_scale(root, kCalibNominalS / loop);
    }
    loop_before = loop_after;
  }
  ReadyEngine& ready = setup->ready;

  // Answers back to back until the time budget is spent (at least three).
  std::vector<OpSample> ops;
  const auto start = Tracer::clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Tracer::clock::now() - start).count();
  };
  while (ops.size() < 3 || elapsed() < ctx.config.seconds) {
    OpSample op;
    // Traced runs alternate traced and untraced answers; their difference
    // is the tracing overhead.
    op.traced = ctx.config.trace && ops.size() % 2 == 1;
    tracer.set_enabled(op.traced);
    const DeviceSnapshot before = DeviceSnapshot::of(*ready.device);
    const int root = tracer.begin("bench.op", ops.size());
    const int run = tracer.begin("core.run", ops.size());
    const auto t0 = Tracer::clock::now();
    op.result = ready.answer();
    const auto t1 = Tracer::clock::now();
    tracer.end(run);
    tracer.end(root);
    tracer.set_enabled(ctx.config.trace);
    op.raw_s = std::chrono::duration<double>(t1 - t0).count();
    op.layers = LayerCounters::between(before, DeviceSnapshot::of(*ready.device));

    const double loop_after = ctx.calibrate();
    const double loop = 0.5 * (loop_before + loop_after);
    op.cal_s = calibrated(op.raw_s, loop);
    tracer.set_scale(root, kCalibNominalS / loop);
    std::cout << "# answer " << ops.size() << " raw_s=" << op.raw_s << " loop_s=" << loop
              << " cal_s=" << op.cal_s << " modeled_s=" << op.result.device_seconds << '\n';
    loop_before = loop_after;

    {
      Tracer::Scope verify(tracer, "bench.verify", ops.size());
      const double err = max_rel_error(op.result.bc, w.reference);
      if (err <= kBcTolerance) {
        out.tally.pass();
      } else {
        std::ostringstream why;
        why << "answer " << ops.size() << ": max rel error " << err
            << " against Brandes";
        out.tally.fail(why.str());
      }
    }
    ops.push_back(std::move(op));
  }

  // End-to-end figures.
  std::vector<double> cal, raw, modeled, traced_cal, plain_cal;
  double cal_sum = 0.0;
  for (const OpSample& op : ops) {
    cal.push_back(op.cal_s);
    raw.push_back(op.raw_s);
    modeled.push_back(op.result.device_seconds);
    cal_sum += op.cal_s;
    (op.traced ? traced_cal : plain_cal).push_back(op.cal_s);
  }
  const double host_s = median(cal);
  out.end_to_end["setup_s"] = {median(setup_cal), "s"};
  out.end_to_end["host_s"] = {host_s, "s"};
  out.end_to_end["modeled_s"] = {median(modeled), "s"};
  out.end_to_end["requests_per_s"] = {static_cast<double>(ops.size()) / cal_sum, "1/s"};
  out.end_to_end["host_rss_bytes"] = {peak_rss_bytes(), "B"};

  // Per-layer figures. Device counters are the last answer's (every answer
  // after the first repeats them exactly); host times are span self times.
  const OpSample& last = ops.back();
  const KernelGroup total = last.layers.total();
  auto& pl = out.per_layer;
  const auto self = tracer.self_times();
  const auto self_median = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const double ingest_s = self_median(w.ingest_span);
  pl[w.ingest_span + std::string("_s")] = {ingest_s, "s"};
  if (std::string(w.ingest_span) == "graph.ingest" && ingest_s > 0.0) {
    pl["graph.ingest_mb_per_s"] = {
        static_cast<double>(std::filesystem::file_size(w.mtx_path)) / 1e6 / ingest_s,
        "MB/s"};
  }
  pl["storage.bytes_per_arc"] = {setup->storage_bytes_per_arc, "B"};
  pl["gpusim.launches"] = {static_cast<double>(total.launches), "count"};
  pl["gpusim.load_tx"] = {static_cast<double>(total.load_tx), "count"};
  pl["gpusim.store_tx"] = {static_cast<double>(total.store_tx), "count"};
  const double probes = static_cast<double>(total.l2_hit_tx + total.dram_tx);
  pl["gpusim.l2_hit_ratio"] = {probes > 0 ? static_cast<double>(total.l2_hit_tx) / probes : 0.0,
                               "ratio"};
  pl["gpusim.word_ops"] = {static_cast<double>(total.word_ops), "count"};
  pl["gpusim.transfer_s"] = {last.layers.transfer_s, "s"};
  pl["gpusim.overhead_s"] = {last.layers.overhead_s, "s"};
  const double tx = static_cast<double>(total.load_tx + total.store_tx);
  pl["gpusim.host_ns_per_tx"] = {tx > 0 ? host_s / tx * 1e9 : 0.0, "ns"};
  pl["gpusim.host_us_per_launch"] = {
      total.launches > 0 ? host_s / static_cast<double>(total.launches) * 1e6 : 0.0, "us"};
  pl["spmv.forward_s"] = {last.layers.forward.time_s, "s"};
  pl["spmv.backward_s"] = {last.layers.backward.time_s, "s"};
  pl["spmv.forward_load_tx"] = {static_cast<double>(last.layers.forward.load_tx), "count"};
  pl["spmv.backward_load_tx"] = {static_cast<double>(last.layers.backward.load_tx), "count"};
  pl["core.level_kernels_s"] = {last.layers.level.time_s, "s"};
  pl["core.construct.self_s"] = {self_median("core.construct"), "s"};
  pl["core.run.self_s"] = {self_median("core.run"), "s"};
  pl["core.blocks"] = {static_cast<double>(w.blocks), "count"};
  pl["core.peak_device_bytes"] = {static_cast<double>(last.result.peak_device_bytes), "B"};
  pl["bench.calib_s"] = {median(ctx.loop_samples), "s"};
  pl["bench.raw_host_s"] = {median(raw), "s"};
  pl["bench.ops"] = {static_cast<double>(ops.size()), "count"};
  const double plain = median(plain_cal);
  pl["bench.trace_overhead"] = {
      plain > 0.0 && !traced_cal.empty() ? median(traced_cal) / plain - 1.0 : 0.0, "ratio"};

  std::cout << "# answers=" << ops.size() << " setups=" << setup_cal.size()
            << " calib_s=" << median(ctx.loop_samples)
            << " raw_host_s=" << median(raw) << " host_s=" << host_s
            << " modeled_s=" << median(modeled)
            << " peak_device_bytes=" << last.result.peak_device_bytes << '\n';
  return out;
}

}  // namespace

RunResult run_kron_sampled(RunContext& ctx) {
  graph::EdgeList g = gen::kronecker({.scale = kKronScale,
                                      .edge_factor = kKronEdgeFactor,
                                      .seed = derive_seed(ctx.config.seed, 1)});
  g.canonicalize();
  OfflineWorkload w;
  w.mtx_path = ctx.config.workdir + "/kron.mtx";
  graph::write_matrix_market_file(w.mtx_path, g);

  // The sample: seeded uniform draws without replacement, as
  // run_approximate draws, keeping vertices whose BFS height is
  // kKronHeight (the typical eccentricity at this scale). An answer's cost
  // is linear in its sources' summed height, which a free draw of 8 moves
  // by +-8% between seeds; stratifying pins it (inputs.hpp).
  const graph::CscGraph csc = graph::CscGraph::from_edges(g);
  std::vector<vidx_t> sources;
  {
    Xoshiro256 rng(derive_seed(ctx.config.seed, 2));
    std::vector<char> tried(static_cast<std::size_t>(g.num_vertices()), 0);
    std::size_t draws = 0;
    while (static_cast<vidx_t>(sources.size()) < kKronSources) {
      TBC_CHECK(++draws <= static_cast<std::size_t>(g.num_vertices()),
                "kron-sampled: too few sources of the pinned height");
      const auto v = static_cast<vidx_t>(rng.uniform(static_cast<std::uint64_t>(g.num_vertices())));
      if (tried[static_cast<std::size_t>(v)]) continue;
      tried[static_cast<std::size_t>(v)] = 1;
      if (bfs_height(csc, v) == kKronHeight) sources.push_back(v);
    }
  }
  w.reference.assign(static_cast<std::size_t>(g.num_vertices()), 0.0);
  for (const vidx_t s : sources) {
    const std::vector<bc_t> d = baseline::brandes_delta(g, s);
    for (std::size_t v = 0; v < d.size(); ++v) w.reference[v] += d[v];
  }
  const bc_t scale = static_cast<bc_t>(g.num_vertices()) / static_cast<bc_t>(kKronSources);
  for (bc_t& v : w.reference) v *= scale;
  std::cout << "# kron-sampled: n=" << g.num_vertices() << " arcs=" << g.num_arcs()
            << " mtx_bytes=" << std::filesystem::file_size(w.mtx_path) << " sources=";
  for (const vidx_t s : sources) std::cout << s << (s == sources.back() ? "\n" : ",");
  g = graph::EdgeList{};

  w.blocks = bc::TurboBC::block_plan(sources.size()).num_blocks;
  w.setup = [path = w.mtx_path, sources, scale](Tracer& tracer) {
    Setup s;
    graph::EdgeList graph;
    {
      Tracer::Scope span(tracer, "graph.ingest");
      graph = graph::read_matrix_market_file(path);
    }
    Tracer::Scope span(tracer, "core.construct");
    s.ready.device = std::make_unique<sim::Device>();
    s.ready.device->set_keep_launch_records(false);
    auto engine = std::make_shared<bc::TurboBC>(
        *s.ready.device, graph, bc::BcOptions{.variant = bc::select_variant(graph)});
    // What run_approximate does once it has its sample: run the sources,
    // scale by n / k.
    s.ready.answer = [e = engine.get(), sources, scale] {
      bc::BcResult r = e->run_sources(sources);
      for (bc_t& v : r.bc) v *= scale;
      return r;
    };
    s.ready.engine = engine;
    return s;
  };
  return run_offline(ctx, w);
}

RunResult run_road_exact_batched(RunContext& ctx) {
  // keep_p leaves a seeded subset of the mesh edges. The generator seed is
  // advanced until the road has the workload's size and depth (49 kept mesh
  // edges: n = 330, 686 arcs; diameter 70): every level of the batched
  // sweep is a fixed set of tiny launches, so the diameter sets the cost.
  // Vertex ids are then shuffled, so each batch of 64 sources is a seeded
  // sample rather than a run of the generator's ids.
  graph::EdgeList g;
  std::uint64_t road_seed = derive_seed(ctx.config.seed, 4);
  for (;; road_seed = derive_seed(road_seed, 5)) {
    g = gen::road_network({.grid_rows = kRoadGrid,
                           .grid_cols = kRoadGrid,
                           .keep_p = 0.75,
                           .subdivisions = kRoadSubdivisions,
                           .seed = road_seed});
    if (g.num_vertices() != kRoadVertices) continue;
    g.canonicalize();
    if (max_height(graph::CscGraph::from_edges(g)) == kRoadDiameter) break;
  }
  g = relabel(g, derive_seed(ctx.config.seed, 8));
  OfflineWorkload w;
  w.mtx_path = ctx.config.workdir + "/road.mtx";
  graph::write_matrix_market_file(w.mtx_path, g);
  w.reference = baseline::brandes_bc(g);
  std::cout << "# road-exact-batched: n=" << g.num_vertices() << " arcs=" << g.num_arcs()
            << " road_seed=" << road_seed << '\n';

  w.blocks = static_cast<std::size_t>((g.num_vertices() + kRoadBatch - 1) / kRoadBatch);
  // One setup is well under a millisecond: time ten per calibration pair.
  w.setups_per_group = 10;
  w.setup_groups = 10;
  w.ingest_span = "storage.ingest";
  w.setup = [path = w.mtx_path](Tracer& tracer) {
    Setup s;
    graph::EdgeList graph;
    {
      Tracer::Scope span(tracer, "storage.ingest");
      const storage::CompressedCsc c = storage::read_matrix_market_compressed_file(path);
      s.storage_bytes_per_arc =
          static_cast<double>(c.model_bytes()) / static_cast<double>(c.num_arcs());
      graph = storage::to_edge_list(c);
    }
    Tracer::Scope span(tracer, "core.construct");
    s.ready.device = std::make_unique<sim::Device>();
    s.ready.device->set_keep_launch_records(false);
    auto engine = std::make_shared<bc::TurboBCBatched>(
        *s.ready.device, graph,
        bc::BatchedOptions{.batch_size = kRoadBatch, .compress = true});
    s.ready.answer = [e = engine.get()] { return e->run_exact(); };
    s.ready.engine = engine;
    return s;
  };
  return run_offline(ctx, w);
}

}  // namespace bcbench
