#include "serve/serve_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "graph/bfs_probe.hpp"

namespace turbobc::serve {

bool update_affects_source(vidx_t du, vidx_t dv, UpdateKind kind,
                           bool directed) {
  if (!directed) return du != dv;
  if (du == kInvalidVertex) return false;  // s never reaches the arc's tail
  if (kind == UpdateKind::kInsert) {
    // New shortest paths through (u, v) need d(s,v) >= d(s,u) + 1 (or v
    // previously unreachable). An arc into the same or a lower level can
    // never lie on a shortest path from s.
    return dv == kInvalidVertex || dv > du;
  }
  // Delete: only arcs inside the DAG — exactly one level down — carried
  // shortest paths whose loss can change distances, sigma, or delta.
  return dv == du + 1;
}

ServeEngine::ServeEngine(graph::EdgeList graph, ServeOptions options)
    : graph_(std::move(graph)), options_(options) {
  graph_.canonicalize();
  blocks_.resize(static_cast<std::size_t>(graph_.num_vertices()));
}

bc::TurboBC& ServeEngine::engine() {
  if (!engine_) {
    device_ = std::make_unique<sim::Device>();
    // Nothing reads per-launch records of a serving device; the per-name
    // aggregates are enough, and the records would grow with every cone.
    device_->set_keep_launch_records(false);
    bc::BcOptions opt;
    opt.variant = options_.variant;
    opt.advance = options_.advance;
    engine_ = std::make_unique<bc::TurboBC>(*device_, graph_, opt);
  }
  return *engine_;
}

const graph::CscGraph& ServeEngine::csc() {
  if (!csc_.has_value()) csc_.emplace(graph::CscGraph::from_edges(graph_));
  return *csc_;
}

ServeEngine::Block& ServeEngine::ensure_block(vidx_t s, QueryStats* stats) {
  Block& b = blocks_[static_cast<std::size_t>(s)];
  if (b.valid) {
    ++counters_.served_cached;
    if (stats != nullptr) ++stats->cached;
    return b;
  }
  bc::BcResult r = engine().run_single_source(s);
  b.delta = std::move(r.bc);
  b.depth = graph::bfs_reference(csc(), s).depth;
  b.valid = true;
  ++counters_.recomputed;
  counters_.device_seconds += r.device_seconds;
  if (stats != nullptr) {
    ++stats->recomputed;
    stats->device_seconds += r.device_seconds;
  }
  return b;
}

UpdateStats ServeEngine::apply_update(UpdateKind kind, vidx_t u, vidx_t v) {
  const vidx_t n = graph_.num_vertices();
  TBC_CHECK(u >= 0 && u < n && v >= 0 && v < n,
            "update endpoint out of range");
  UpdateStats stats;

  // No-op detection against the canonical graph: inserting a present edge,
  // deleting an absent one, or touching a self-loop leaves every block (and
  // the epoch) untouched.
  const bool present = graph_.has_edge(u, v);
  const bool noop = u == v || (kind == UpdateKind::kInsert ? present
                                                           : !present);
  if (noop) {
    ++counters_.noop_updates;
    for (const Block& b : blocks_) {
      if (b.valid) ++stats.valid;
    }
    return stats;
  }

  // Cone-test every warm block against its PRE-update depths.
  const bool directed = graph_.directed();
  for (Block& b : blocks_) {
    if (!b.valid) continue;
    const vidx_t du = b.depth[static_cast<std::size_t>(u)];
    const vidx_t dv = b.depth[static_cast<std::size_t>(v)];
    if (update_affects_source(du, dv, kind, directed)) {
      b.valid = false;
      b.delta.clear();
      b.depth.clear();
      ++stats.invalidated;
    } else {
      ++stats.valid;
    }
  }

  if (kind == UpdateKind::kInsert) {
    graph_.add_edge(u, v);
    if (!directed) graph_.add_edge(v, u);
  } else {
    graph_.remove_edge(u, v);
    if (!directed) graph_.remove_edge(v, u);
  }
  graph_.canonicalize();

  // New epoch: the uploaded device graph, host CSC, folded BC, and the
  // component map are all stale.
  engine_.reset();
  device_.reset();
  csc_.reset();
  bc_valid_ = false;
  components_.invalidate();
  stats.applied = true;
  ++counters_.updates;
  ++counters_.epoch;
  counters_.invalidated += static_cast<std::uint64_t>(stats.invalidated);
  return stats;
}

const std::vector<bc_t>& ServeEngine::query_bc(QueryStats* stats) {
  ++counters_.queries;
  const vidx_t n = graph_.num_vertices();
  if (bc_valid_) {
    // The fold result is cached too; count the blocks as cache hits so the
    // stats still describe what answering the query would have cost.
    counters_.served_cached += static_cast<std::uint64_t>(n);
    if (stats != nullptr) stats->cached += n;
    return bc_;
  }
  std::vector<const std::vector<bc_t>*> contributions;
  contributions.reserve(static_cast<std::size_t>(n));
  for (vidx_t s = 0; s < n; ++s) {
    contributions.push_back(&ensure_block(s, stats).delta);
  }
  bc_ = bc::TurboBC::fold_source_blocks(contributions,
                                        static_cast<std::size_t>(n));
  bc_valid_ = true;
  return bc_;
}

std::vector<vidx_t> rank_vertices(const std::vector<bc_t>& bc, vidx_t k) {
  const vidx_t n = static_cast<vidx_t>(bc.size());
  std::vector<vidx_t> order(bc.size());
  for (vidx_t v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&bc](vidx_t a, vidx_t b) {
    const bc_t ba = bc[static_cast<std::size_t>(a)];
    const bc_t bb = bc[static_cast<std::size_t>(b)];
    if (ba != bb) return ba > bb;
    return a < b;
  });
  if (k < 0) k = 0;
  if (k < n) order.resize(static_cast<std::size_t>(k));
  return order;
}

std::vector<vidx_t> ServeEngine::query_top(vidx_t k, QueryStats* stats) {
  return rank_vertices(query_bc(stats), k);
}

approx::ApproxOptions ServeEngine::make_approx_options(double epsilon,
                                                       double delta) {
  TBC_CHECK(graph_.num_vertices() > 0, "approx query on an empty graph");
  approx::ApproxOptions opt;
  opt.epsilon = epsilon;
  opt.delta = delta;
  opt.seed = options_.seed;
  opt.sampler = options_.sampler;
  opt.variant = options_.variant;
  opt.advance = options_.advance;
  if (options_.sampler == approx::SamplerKind::kComponent) {
    opt.components = &components_.get(graph_);
  }
  return opt;
}

void ServeEngine::note_query(double device_seconds) {
  ++counters_.queries;
  counters_.device_seconds += device_seconds;
}

approx::ApproxResult ServeEngine::query_approx(double epsilon, double delta,
                                               QueryStats* stats) {
  const approx::ApproxOptions opt = make_approx_options(epsilon, delta);
  // Approx queries run on their own device: the estimator never touches the
  // cached blocks, so the serving cache stays warm across them.
  sim::Device device;
  device.set_keep_launch_records(false);
  approx::ApproxResult result = approx::run_adaptive(device, graph_, opt);
  note_query(result.device_seconds);
  if (stats != nullptr) stats->device_seconds += result.device_seconds;
  return result;
}

bool ServeEngine::block_valid(vidx_t s) const {
  TBC_CHECK(s >= 0 && s < graph_.num_vertices(), "source out of range");
  return blocks_[static_cast<std::size_t>(s)].valid;
}

vidx_t ServeEngine::valid_blocks() const {
  vidx_t count = 0;
  for (const Block& b : blocks_) {
    if (b.valid) ++count;
  }
  return count;
}

const std::vector<bc_t>& ServeEngine::block(vidx_t s) {
  TBC_CHECK(s >= 0 && s < graph_.num_vertices(), "source out of range");
  return ensure_block(s, nullptr).delta;
}

const std::vector<vidx_t>& ServeEngine::depths(vidx_t s) {
  TBC_CHECK(s >= 0 && s < graph_.num_vertices(), "source out of range");
  return ensure_block(s, nullptr).depth;
}

}  // namespace turbobc::serve
