// Byte-identity property tests for the packed-basis block solver: the
// spectral orders on three reference workloads must match the committed
// fingerprints of the pre-refactor (unpacked VectorBlock) solver exactly
// — warm and cold, at parallelism 1/2/8. Any change to these hashes means
// the packed kernels, the strided SpMM, or the counter-driven control
// flow altered the solver's arithmetic, which breaks the cache/sharding
// layers' byte-identity contract.
//
// A second set of goldens pins the order hash *and* the `detail` string of
// the spectral-family paths the three grid hashes never reach: recursive
// bisection, sharded-spectral, disconnected inputs (many components,
// singletons included), and affinity edges through each engine. The graph
// build, the rank-quantized sort and the component split are shared by all
// of these engines, so a change to any of them shows up here.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "space/point_set.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"

namespace spectral {
namespace {

// Order-rank fingerprints of the solver as of the packed-basis refactor,
// identical to the unpacked solver they replaced (regenerated with
// the same Hasher walk below).
constexpr const char* kGrid64x64Hash = "7a5565039030866a429dd6c6867d426c";
constexpr const char* kGrid128x32Hash = "5ef0b1c1b16a8af52150e93b68eab495";
constexpr const char* kKernelBlobHash = "f9ec1b2bad983062563564937fc3f5fc";

PointSet LexSorted(const PointSet& in) {
  std::vector<std::vector<Coord>> rows;
  rows.reserve(static_cast<size_t>(in.size()));
  for (int64_t i = 0; i < in.size(); ++i) {
    rows.emplace_back(in[i].begin(), in[i].end());
  }
  std::sort(rows.begin(), rows.end());
  PointSet out(in.dims());
  for (const auto& row : rows) out.Add(row);
  return out;
}

std::string OrderHash(const LinearOrder& order) {
  Hasher h;
  for (int64_t i = 0; i < order.size(); ++i) h.MixInt(order.RankOf(i));
  return h.Finish().ToHex();
}

void ExpectGoldenOrders(const std::string& name, const PointSet& points,
                        const SpectralLpmOptions& base,
                        const std::string& expected_hash) {
  for (bool warm : {false, true}) {
    for (int parallelism : {1, 2, 8}) {
      OrderingRequest request = OrderingRequest::ForPoints(points);
      request.options.spectral = base;
      request.options.spectral.parallelism = parallelism;
      if (!warm) request.options.spectral.warm_start_threshold = 0;
      auto engine = MakeOrderingEngine("spectral");
      ASSERT_TRUE(engine.ok());
      auto result = (*engine)->Order(request);
      ASSERT_TRUE(result.ok())
          << name << " warm=" << warm << " p=" << parallelism << ": "
          << result.status();
      EXPECT_EQ(OrderHash(result->order), expected_hash)
          << name << " warm=" << warm << " p=" << parallelism
          << " method=" << result->method;
    }
  }
}

TEST(PackedIdentity, Grid64x64MatchesPreRefactorOrders) {
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;
  ExpectGoldenOrders("grid64x64", PointSet::FullGrid(GridSpec::Uniform(2, 64)),
                     options, kGrid64x64Hash);
}

TEST(PackedIdentity, Grid128x32MatchesPreRefactorOrders) {
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;
  ExpectGoldenOrders("grid128x32", PointSet::FullGrid(GridSpec({128, 32})),
                     options, kGrid128x32Hash);
}

TEST(PackedIdentity, KernelBlobMatchesPreRefactorOrders) {
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;
  options.graph.radius = 2;
  options.graph.kernel = WeightKernel::kGaussian;
  options.graph.gaussian_sigma = 1.5;
  Rng rng(12345);
  ExpectGoldenOrders(
      "kernelblob300x30",
      LexSorted(SampleConnectedBlob(GridSpec({300, 30}), 5000, rng)), options,
      kKernelBlobHash);
}

// The deterministic halves of the kernel profile must also be identical
// across pool sizes (the wall-time halves are machine state, explicitly
// exempt) — they feed OrderingResult::detail, which caching and sharding
// layers compare byte for byte.
TEST(PackedIdentity, ProfileFlopsArePoolInvariant) {
  const PointSet points = PointSet::FullGrid(GridSpec::Uniform(2, 64));
  auto solve = [&](int parallelism) {
    OrderingRequest request = OrderingRequest::ForPoints(points);
    request.options.spectral.fiedler.num_pairs = 3;
    request.options.spectral.parallelism = parallelism;
    request.options.spectral.warm_start_threshold = 0;
    auto engine = MakeOrderingEngine("spectral");
    auto result = (*engine)->Order(request);
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  };
  const OrderingResult serial = solve(1);
  EXPECT_GT(serial.profile.spmm_flops, 0);
  EXPECT_GT(serial.profile.reorth_flops, 0);
  EXPECT_GT(serial.profile.hfill_flops, 0);
  EXPECT_GT(serial.profile.rr_flops, 0);
  for (int parallelism : {2, 8}) {
    const OrderingResult pooled = solve(parallelism);
    EXPECT_EQ(pooled.profile.spmm_flops, serial.profile.spmm_flops);
    EXPECT_EQ(pooled.profile.reorth_flops, serial.profile.reorth_flops);
    EXPECT_EQ(pooled.profile.hfill_flops, serial.profile.hfill_flops);
    EXPECT_EQ(pooled.profile.rr_flops, serial.profile.rr_flops);
    EXPECT_EQ(pooled.profile.cheb_flops, serial.profile.cheb_flops);
    EXPECT_EQ(pooled.detail, serial.detail);
  }
}

// Order hash + detail of one request, computed by the engine it names.
struct Golden {
  const char* hash;
  const char* detail;
};

// 2048 points in four Gaussian clusters on a 128x128 grid: hundreds of
// connected components at radius 1, many of them singletons (the query
// bench's "clusters2k" workload).
PointSet Clusters2k() {
  Rng rng(0xc1a5ull);
  return SampleGaussianClusters(GridSpec({128, 128}), /*num_clusters=*/4,
                                /*count=*/2048, /*stddev_fraction=*/0.08,
                                rng);
}

// A 32x16 grid plus two long-range affinity edges (paper section 4).
const std::vector<GraphEdge>& AffinityEdges() {
  static const std::vector<GraphEdge> edges = {{0, 511, 3.0}, {40, 300, 2.0}};
  return edges;
}

void ExpectGolden(const std::string& name, OrderingRequest request,
                  const Golden& golden) {
  for (int parallelism : {1, 4}) {
    request.options.spectral.parallelism = parallelism;
    auto engine = MakeOrderingEngine(request.engine);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto result = (*engine)->Order(request);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    EXPECT_EQ(OrderHash(result->order), golden.hash)
        << name << " p=" << parallelism;
    EXPECT_EQ(result->detail, golden.detail) << name << " p=" << parallelism;
  }
}

TEST(PathGoldens, BisectionGrid24) {
  const PointSet points = PointSet::FullGrid(GridSpec::Uniform(2, 24));
  ExpectGolden("bisection grid24x24",
               OrderingRequest::ForPoints(points, "bisection"),
               {"00cb963ddefb3b91d95ea4662e5bc759",
                "solves=252 warm_solves=30 matvecs=5795 depth=7"});
}

TEST(PathGoldens, BisectionClusters2k) {
  const PointSet points = Clusters2k();
  ExpectGolden("bisection clusters2k",
               OrderingRequest::ForPoints(points, "bisection"),
               {"771650d7042e6c763e77701bfa00e2e9",
                "solves=553 warm_solves=48 matvecs=17479 depth=7"});
}

TEST(PathGoldens, SpectralClusters2k) {
  const PointSet points = Clusters2k();
  ExpectGolden(
      "spectral clusters2k", OrderingRequest::ForPoints(points),
      {"406e0c0736c4a1c305009be6f4b27c48",
       "engine=multilevel(6 levels, coarsest 75)+block-lanczos+warm "
       "lambda2=0.002158 components=376 matvecs=3895 restarts=9 spmm=776 "
       "reorth_panels=2330 "
       "flops=694260/19225774/3331056/4764138/21108270 converged=1"});
}

TEST(PathGoldens, ShardedGrid128x32) {
  const PointSet points = PointSet::FullGrid(GridSpec({128, 32}));
  OrderingRequest request =
      OrderingRequest::ForPoints(points, "sharded-spectral");
  request.options.sharded.num_shards = 4;
  ExpectGolden("sharded-spectral K=4 grid128x32", request,
               {"f62feb9e56a63085dce050442982ffd2",
                "shards=4 coarse_n=1024 cut_edges=96 cut_weight=96 flips=0"});
}

TEST(PathGoldens, AffinityThroughEachEngine) {
  const PointSet points = PointSet::FullGrid(GridSpec({32, 16}));
  ExpectGolden("spectral affinity",
               OrderingRequest::ForPointsWithAffinity(points, AffinityEdges()),
               {"fe7054e37f42294c7ed19a8e32aadf95",
                "engine=multilevel(4 levels, coarsest 66)+block-lanczos+warm "
                "lambda2=0.016498 components=1 matvecs=816 restarts=3 "
                "spmm=165 reorth_panels=774 "
                "flops=375480/8088576/1426800/1720572/6267320 converged=1"});
  ExpectGolden("bisection affinity",
               OrderingRequest::ForPointsWithAffinity(points, AffinityEdges(),
                                                      "bisection"),
               {"3723e47244edfab64abc1843e1d5e57c",
                "solves=127 warm_solves=14 matvecs=3412 depth=6"});
  OrderingRequest sharded = OrderingRequest::ForPointsWithAffinity(
      points, AffinityEdges(), "sharded-spectral");
  sharded.options.sharded.num_shards = 2;
  ExpectGolden("sharded-spectral K=2 affinity", sharded,
               {"6d178d09f923dc09f68440bea8118f9c",
                "shards=2 coarse_n=512 cut_edges=24 cut_weight=24 flips=0"});
}

// "spectral-multilevel" is the same computation as "spectral": on the
// square grid both must return the golden order with equal bytes.
TEST(PathGoldens, SpectralMultilevelEqualsSpectral) {
  const PointSet points = PointSet::FullGrid(GridSpec::Uniform(2, 64));
  auto solve = [&](const std::string& name) {
    auto engine = MakeOrderingEngine(name);
    EXPECT_TRUE(engine.ok()) << engine.status();
    auto result = (*engine)->Order(OrderingRequest::ForPoints(points, name));
    EXPECT_TRUE(result.ok()) << name << ": " << result.status();
    return *std::move(result);
  };
  const OrderingResult spectral = solve("spectral");
  const OrderingResult multilevel = solve("spectral-multilevel");
  EXPECT_EQ(OrderHash(multilevel.order), kGrid64x64Hash);
  EXPECT_EQ(OrderHash(spectral.order), kGrid64x64Hash);
  EXPECT_EQ(multilevel.detail, spectral.detail);
  EXPECT_EQ(multilevel.method, spectral.method);
  EXPECT_EQ(multilevel.embedding, spectral.embedding);
}

}  // namespace
}  // namespace spectral
