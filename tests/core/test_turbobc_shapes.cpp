// TurboBC on graphs with a known answer (two components, a path, a star) and
// BFS bookkeeping, for every SpMV variant. The suite is keyed by Variant, so
// the parameter in each listed test name prints the same on every build.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/brandes.hpp"
#include "core/turbobc.hpp"
#include "generators/generators.hpp"
#include "graph/bfs_probe.hpp"

namespace turbobc::bc {
namespace {

using graph::EdgeList;

void expect_bc_equal(const std::vector<bc_t>& got,
                     const std::vector<bc_t>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max({std::abs(want[i]), 1.0});
    EXPECT_NEAR(got[i], want[i], 1e-9 * scale) << what << " vertex " << i;
  }
}

class TurboBcShapes : public ::testing::TestWithParam<Variant> {};

TEST_P(TurboBcShapes, HandlesDisconnectedGraphs) {
  // Two components; BC from a source only covers its component (Brandes
  // handles this by definition; Algorithm 1's sigma>0 guard must too).
  EdgeList el(10, true);
  el.add_edge(0, 1);
  el.add_edge(1, 2);
  el.add_edge(2, 3);
  el.add_edge(5, 6);
  el.add_edge(6, 7);
  el.symmetrize();
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam()});
  expect_bc_equal(turbo.run_single_source(0).bc,
                  baseline::brandes_delta(el, 0), "component A");
  expect_bc_equal(turbo.run_single_source(5).bc,
                  baseline::brandes_delta(el, 5), "component B");
  expect_bc_equal(turbo.run_exact().bc, baseline::brandes_bc(el),
                  "exact disconnected");
}

TEST_P(TurboBcShapes, PathGraphHasClosedFormBc) {
  // Path 0-1-2-3-4 (undirected): exact BC of interior vertex i is
  // (i)(n-1-i) pairs each counted once... with Brandes' halving the ends are
  // 0 and bc(1)=bc(3)=3, bc(2)=4 for n=5.
  EdgeList el(5, true);
  for (vidx_t i = 0; i + 1 < 5; ++i) el.add_edge(i, i + 1);
  el.symmetrize();
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam()});
  const auto r = turbo.run_exact();
  EXPECT_NEAR(r.bc[0], 0.0, 1e-12);
  EXPECT_NEAR(r.bc[1], 3.0, 1e-12);
  EXPECT_NEAR(r.bc[2], 4.0, 1e-12);
  EXPECT_NEAR(r.bc[3], 3.0, 1e-12);
  EXPECT_NEAR(r.bc[4], 0.0, 1e-12);
}

TEST_P(TurboBcShapes, StarGraphCenterDominates) {
  EdgeList el(7, true);
  for (vidx_t i = 1; i < 7; ++i) el.add_edge(0, i);
  el.symmetrize();
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam()});
  const auto r = turbo.run_exact();
  // Center lies on all C(6,2) = 15 pairs.
  EXPECT_NEAR(r.bc[0], 15.0, 1e-12);
  for (std::size_t v = 1; v < 7; ++v) EXPECT_NEAR(r.bc[v], 0.0, 1e-12);
}

TEST_P(TurboBcShapes, BfsDepthMatchesReference) {
  const auto el = gen::small_world({.n = 500, .k = 6, .rewire_p = 0.05,
                                    .seed = 3});
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam()});
  const auto r = turbo.run_single_source(17);
  const auto probe =
      graph::bfs_reference(graph::CscGraph::from_edges(el), 17);
  EXPECT_EQ(r.last_source.bfs_depth, probe.height);
  EXPECT_EQ(r.last_source.reached, probe.reached);
}

INSTANTIATE_TEST_SUITE_P(Variants, TurboBcShapes,
                         ::testing::Values(Variant::kScCooc, Variant::kScCsc,
                                           Variant::kVeCsc),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace turbobc::bc
