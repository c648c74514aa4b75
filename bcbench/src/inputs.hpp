// Seeded inputs with a pinned cost.
//
// Every workload's host and modeled time is close to linear in one
// statistic of its input: the summed BFS height of the sources it runs
// (each BFS level is a fixed set of launches and a flag readback). Drawn
// freely, that statistic moves the cost by 8-15% between seeds, wider than
// any usable bound. So each workload draws its input from the seed and
// advances the seed until the statistic hits the workload's pinned value;
// the inputs still differ from seed to seed (bcbench/README.md has the
// probes, and why citation-serve shuffles one graph instead).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/csc.hpp"
#include "graph/edge_list.hpp"

namespace bcbench {

/// Independent seed for one input stream of a workload.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The graph with its vertex ids permuted by a seeded shuffle.
turbobc::graph::EdgeList relabel(const turbobc::graph::EdgeList& g,
                                 std::uint64_t seed);

/// Height of the BFS tree from `source` (following arcs).
turbobc::vidx_t bfs_height(const turbobc::graph::CscGraph& csc,
                           turbobc::vidx_t source);

/// Largest BFS height over all sources (the diameter of a connected
/// undirected graph).
turbobc::vidx_t max_height(const turbobc::graph::CscGraph& csc);

/// Sum of BFS heights over all sources.
std::uint64_t height_sum(const turbobc::graph::CscGraph& csc);

}  // namespace bcbench
