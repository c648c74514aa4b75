#include "inputs.hpp"

#include <algorithm>
#include <numeric>

#include "common/prng.hpp"
#include "graph/bfs_probe.hpp"

namespace bcbench {

using namespace turbobc;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1u;
}

graph::EdgeList relabel(const graph::EdgeList& g, std::uint64_t seed) {
  std::vector<vidx_t> perm(static_cast<std::size_t>(g.num_vertices()));
  std::iota(perm.begin(), perm.end(), 0);
  Xoshiro256 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform(i)]);
  }
  graph::EdgeList out(g.num_vertices(), g.directed());
  for (const graph::Edge& e : g.edges()) {
    out.add_edge(perm[static_cast<std::size_t>(e.u)], perm[static_cast<std::size_t>(e.v)]);
  }
  out.canonicalize();
  return out;
}

vidx_t bfs_height(const graph::CscGraph& csc, vidx_t source) {
  return graph::bfs_reference(csc, source).height;
}

vidx_t max_height(const graph::CscGraph& csc) {
  vidx_t h = 0;
  for (vidx_t s = 0; s < csc.num_vertices(); ++s) h = std::max(h, bfs_height(csc, s));
  return h;
}

std::uint64_t height_sum(const graph::CscGraph& csc) {
  std::uint64_t sum = 0;
  for (vidx_t s = 0; s < csc.num_vertices(); ++s) {
    sum += static_cast<std::uint64_t>(bfs_height(csc, s));
  }
  return sum;
}

}  // namespace bcbench
