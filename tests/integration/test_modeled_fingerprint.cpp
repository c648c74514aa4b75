// Modeled-clock fingerprint: exact BC on the two golden graphs (mycielski
// order 6 and the 8x8 triangulated grid) under five engine configurations,
// with every per-kernel aggregate and the device's kernel seconds pinned
// exactly. The CLI goldens print modeled_ms to six decimals (1 ns), while one
// 32 B DRAM transaction costs about 0.07 ns, so only a pin at this level
// catches a one-transaction drift in the simulator's accounting. Times are
// compared as hexfloats: the contract is bit identity, not closeness.
//
// On an intentional change to the cost model, the failure message prints the
// new fingerprint; review it and paste it over the expected text below.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "generators/generators.hpp"
#include "gpusim/device.hpp"

namespace turbobc {
namespace {

/// One line per kernel name (launches, load/store/L2-hit/DRAM transactions,
/// word ops, seconds), then the device's kernel seconds.
std::string fingerprint(const sim::Device& dev) {
  std::ostringstream os;
  os << std::hexfloat << '\n';
  for (const auto& [name, agg] : dev.kernel_aggregates()) {
    os << name << ' ' << agg.launches << ' ' << agg.load_transactions << ' '
       << agg.store_transactions << ' ' << agg.l2_hit_transactions << ' '
       << agg.dram_transactions << ' ' << agg.word_ops << ' ' << agg.time_s
       << '\n';
  }
  os << "kernel_seconds " << dev.kernel_seconds() << '\n';
  return os.str();
}

graph::EdgeList golden_graph(const std::string& name) {
  return name == "grid8x8" ? gen::triangulated_grid(8, 8) : gen::mycielski(6);
}

void run_turbobc(sim::Device& dev, const graph::EdgeList& g, bc::Variant v,
                 bc::Advance a) {
  bc::BcOptions opt;
  opt.variant = v;
  opt.advance = a;
  bc::TurboBC(dev, g, opt).run_exact();
}

const std::map<std::string,
               std::function<void(sim::Device&, const graph::EdgeList&)>>&
configs() {
  static const std::map<
      std::string, std::function<void(sim::Device&, const graph::EdgeList&)>>
      table = {
          {"sccsc_push",
           [](sim::Device& d, const graph::EdgeList& g) {
             run_turbobc(d, g, bc::Variant::kScCsc, bc::Advance::kPush);
           }},
          {"vecsc_push",
           [](sim::Device& d, const graph::EdgeList& g) {
             run_turbobc(d, g, bc::Variant::kVeCsc, bc::Advance::kPush);
           }},
          {"sccooc_push",
           [](sim::Device& d, const graph::EdgeList& g) {
             run_turbobc(d, g, bc::Variant::kScCooc, bc::Advance::kPush);
           }},
          {"sccsc_pull",
           [](sim::Device& d, const graph::EdgeList& g) {
             run_turbobc(d, g, bc::Variant::kScCsc, bc::Advance::kPull);
           }},
          {"batched64_compress",
           [](sim::Device& d, const graph::EdgeList& g) {
             bc::TurboBCBatched(d, g, {.batch_size = 64, .compress = true})
                 .run_exact();
           }},
      };
  return table;
}

/// Recorded from the engines as they stood when the pin was introduced.
const std::map<std::string, std::string>& expected() {
  static const std::map<std::string, std::string> table = {
      {"grid8x8/sccsc_push", R"(
bc_accum 64 1022 510 1022 510 0 0x1.dc635314d3bfbp-13
bfs_init 64 0 128 0 128 0 0x1.d6c80b58f6dfp-13
bfs_spmv_sccsc 680 88588 9742 94060 4270 0 0x1.56bf85e27b854p-9
bfs_update 680 8192 11894 19174 912 0 0x1.3e3d657827255p-9
dep_prepare 552 6992 9566 15826 732 0 0x1.026691005adcfp-9
dep_spmv_sccsc 552 135085 25519 160226 378 0 0x1.2751b3fef3f27p-9
dep_update 552 12148 2532 14252 428 0 0x1.0254ba3362354p-9
kernel_seconds 0x1.3bebfde4705f5p-6
)"},
      {"grid8x8/vecsc_push", R"(
bc_accum 64 1022 510 1022 510 0 0x1.dc635314d3bfbp-13
bfs_init 64 0 128 0 128 0 0x1.d6c80b58f6dfp-13
bfs_spmv_vecsc 680 169252 4536 169455 4333 0 0x1.3e8fb5fe10391p-9
bfs_update 680 8192 11894 19237 849 0 0x1.3e3d657827255p-9
dep_prepare 552 6992 9566 15826 732 0 0x1.026691005adcfp-9
dep_spmv_vecsc 552 233496 11392 244398 490 0 0x1.02cdc7348bca8p-9
dep_update 552 12148 2532 14302 378 0 0x1.0254ba3362354p-9
kernel_seconds 0x1.3455864e95f0dp-6
)"},
      {"grid8x8/sccooc_push", R"(
bc_accum 64 1022 510 1022 510 0 0x1.dc635314d3bfbp-13
bfs_init 64 0 128 0 128 0 0x1.d6c80b58f6dfp-13
bfs_spmv_sccooc 680 61332 5060 60520 5872 0 0x1.3d347c7abaa0cp-9
bfs_update 680 8192 18948 25780 1360 0 0x1.409e79179a0f2p-9
dep_prepare 552 6992 9566 15826 732 0 0x1.026691005adcfp-9
dep_spmv_sccooc 552 50518 4486 54628 376 0 0x1.054751de7849bp-9
dep_update 552 12148 2532 14252 428 0 0x1.0254ba3362354p-9
kernel_seconds 0x1.34c572e7572afp-6
)"},
      {"grid8x8/sccsc_pull", R"(
bc_accum 64 1022 510 1022 510 0 0x1.dc635314d3bfbp-13
bfs_init 64 0 128 0 128 0 0x1.d6c80b58f6dfp-13
bfs_spmv_pull_sccsc 680 88799 8631 93608 3822 0 0x1.56adf052f422p-9
bfs_update 680 13800 13794 26682 912 0 0x1.4304c6229eefbp-9
dep_prepare 552 6992 9566 15826 732 0 0x1.026691005adcfp-9
dep_spmv_pull_sccsc 552 144849 25449 169920 378 0 0x1.2c0d5b9f117a6p-9
dep_update 552 12148 2532 14252 428 0 0x1.0254ba3362354p-9
frontier_to_bitmap 1232 78848 1232 79504 576 0 0x1.2ed3d1e509941p-8
kernel_seconds 0x1.88cf2ce05cf14p-6
)"},
      {"grid8x8/batched64_compress", R"(
bc_accum_batched 1 4040 8 4040 8 0 0x1.7f5eb8968ed45p-17
bfs_init_msbfs 1 136 96 128 104 64 0x1.08b29f8e20edcp-18
bfs_spmm_msbfs_ccsc 15 5392 16119 20498 1013 8884 0x1.8cc28a35c4a4cp-14
dep_prepare_batched 13 56961 56955 113334 582 0 0x1.15d380cd1f697p-12
dep_spmm_ccsc 13 210517 27167 237242 442 5018 0x1.18b4ae66f99d6p-11
dep_update_batched 13 31323 36287 67098 512 0 0x1.7343d212664c9p-13
kernel_seconds 0x1.4a26e68edb21fp-10
)"},
      {"mycielski6/sccsc_push", R"(
bc_accum 47 508 226 508 226 0 0x1.5d5e9dceeb95ep-13
bfs_init 47 0 94 0 94 0 0x1.59bae855554b8p-13
bfs_spmv_sccsc 141 40881 6314 43471 3724 0 0x1.4be87c8c19d29p-11
bfs_update 141 1351 2043 3009 385 0 0x1.0782adf86fc2dp-11
dep_prepare 47 561 801 801 561 0 0x1.60a694e139f09p-13
dep_spmv_sccsc 47 21060 6143 26894 309 0 0x1.005184a5e71e2p-12
dep_update 47 960 226 1183 3 0 0x1.5fe2dc8d6d461p-13
kernel_seconds 0x1.fa06589154b2bp-9
)"},
      {"mycielski6/vecsc_push", R"(
bc_accum 47 508 226 508 226 0 0x1.5d5e9dceeb95ep-13
bfs_init 47 0 94 0 94 0 0x1.59bae855554b8p-13
bfs_spmv_vecsc 141 41441 2392 40105 3728 0 0x1.0787444a668ecp-11
bfs_update 141 1351 2043 3013 381 0 0x1.0782adf86fc2dp-11
dep_prepare 47 561 801 801 561 0 0x1.60a694e139f09p-13
dep_spmv_vecsc 47 19646 2392 21729 309 0 0x1.61972772e5823p-13
dep_update 47 960 226 1183 3 0 0x1.5fe2dc8d6d461p-13
kernel_seconds 0x1.defd4c635955cp-9
)"},
      {"mycielski6/sccooc_push", R"(
bc_accum 47 508 226 508 226 0 0x1.5d5e9dceeb95ep-13
bfs_init 47 0 94 0 94 0 0x1.59bae855554b8p-13
bfs_spmv_sccooc 141 24509 2172 20674 6007 0 0x1.0ad9ef714a1abp-11
bfs_update 141 1475 3202 4057 620 0 0x1.0942b1e842406p-11
dep_prepare 47 561 801 801 561 0 0x1.60a694e139f09p-13
dep_spmv_sccooc 47 9164 935 9817 282 0 0x1.87d53ba7f3063p-13
dep_update 47 960 226 1183 3 0 0x1.5fe2dc8d6d461p-13
kernel_seconds 0x1.e2a5d96c57b0cp-9
)"},
      {"mycielski6/sccsc_pull", R"(
bc_accum 47 508 226 508 226 0 0x1.5d5e9dceeb95ep-13
bfs_init 47 0 94 0 94 0 0x1.59bae855554b8p-13
bfs_spmv_pull_sccsc 141 41997 5843 44351 3489 0 0x1.4cc83d4691cd4p-11
bfs_update 141 2407 2417 4439 385 0 0x1.0ed9635228552p-11
dep_prepare 47 561 801 801 561 0 0x1.60a694e139f09p-13
dep_spmv_pull_sccsc 47 25153 8463 33307 309 0 0x1.10f168cec584bp-12
dep_update 47 960 226 1183 3 0 0x1.5fe2dc8d6d461p-13
frontier_to_bitmap 188 8648 564 8883 329 0 0x1.6bb254069eec9p-11
kernel_seconds 0x1.2c8a4de66c60fp-8
)"},
      {"mycielski6/batched64_compress", R"(
bc_accum_batched 1 2168 6 2168 6 0 0x1.37e2e5fb4ea53p-17
bfs_init_msbfs 1 100 71 94 77 47 0x1.045d8b089929p-18
bfs_spmm_msbfs_ccsc 3 2089 5758 7295 552 2311 0x1.003ed46174e8dp-15
dep_prepare_batched 1 3899 3899 7248 550 0 0x1.8b6ebf87d6a7fp-16
dep_spmm_ccsc 1 6439 4737 10900 276 519 0x1.0fa721c15c255p-15
dep_update_batched 1 1163 2934 4093 4 0 0x1.f107c3eb69b4p-17
kernel_seconds 0x1.4faf0688a7281p-13
)"},
  };
  return table;
}

class ModeledFingerprint
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

TEST_P(ModeledFingerprint, ExactBcAggregatesAreBitIdentical) {
  const std::string graph_name = std::get<0>(GetParam());
  const std::string config = std::get<1>(GetParam());
  const std::string key = graph_name + "/" + config;
  sim::Device dev;
  configs().at(config)(dev, golden_graph(graph_name));
  const std::string actual = fingerprint(dev);
  const auto it = expected().find(key);
  ASSERT_NE(it, expected().end()) << "no pinned fingerprint for " << key
                                  << "; actual:" << actual;
  EXPECT_EQ(it->second, actual) << key << " actual:" << actual;
}

INSTANTIATE_TEST_SUITE_P(
    GoldenGraphs, ModeledFingerprint,
    ::testing::Combine(::testing::Values("grid8x8", "mycielski6"),
                       ::testing::Values("sccsc_push", "vecsc_push",
                                         "sccooc_push", "sccsc_pull",
                                         "batched64_compress")),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

}  // namespace
}  // namespace turbobc
