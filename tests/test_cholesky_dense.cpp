// Mixed-precision dense tile Cholesky against the LAPACK-style reference.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "cholesky/cholesky_dag.hpp"
#include "cholesky/factorize.hpp"
#include "cholesky/tile_batch.hpp"
#include "cholesky/tile_solve.hpp"
#include "dist/placement.hpp"
#include "la/lapack.hpp"
#include "test_utils.hpp"

namespace gsx::cholesky {
namespace {

using gsx::test::rel_frobenius_diff;

/// SPD covariance-like test matrix with exponential decay.
tile::SymTileMatrix make_spd_tiles(std::size_t n, std::size_t ts, double rate) {
  tile::SymTileMatrix a(n, ts);
  gsx::test::generate_elementwise(a, 
      [&](std::size_t i, std::size_t j) {
        const double d = static_cast<double>(i > j ? i - j : j - i);
        return std::exp(-rate * d) + (i == j ? 0.5 : 0.0);
      },
      1);
  return a;
}

la::Matrix<double> reference_chol(const tile::SymTileMatrix& a) {
  la::Matrix<double> full = a.to_full();
  EXPECT_EQ(la::potrf<double>(la::Uplo::Lower, full.view()), 0);
  for (std::size_t j = 0; j < full.cols(); ++j)
    for (std::size_t i = 0; i < j; ++i) full(i, j) = 0.0;
  return full;
}

struct DenseCase {
  std::size_t n, ts, workers;
};

class DenseCholesky : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseCholesky, Fp64MatchesLapackReference) {
  const auto [n, ts, workers] = GetParam();
  auto a = make_spd_tiles(n, ts, 0.3);
  const la::Matrix<double> expect = reference_chol(a);

  FactorOptions opts;
  opts.workers = workers;
  const FactorReport rep = tile_cholesky_dense(a, opts);
  ASSERT_EQ(rep.info, 0);
  EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a), expect), 1e-12);

  // Task count: nt potrf + nt(nt-1)/2 trsm + nt(nt-1)/2 syrk + one gemm
  // task per <= kGemmBatchMax chunk of each (k, n) panel column.
  const std::size_t nt = a.nt();
  std::size_t expected_tasks = nt + nt * (nt - 1) / 2 + nt * (nt - 1) / 2;
  for (std::size_t k = 0; k < nt; ++k)
    for (std::size_t n = k + 1; n < nt; ++n)
      expected_tasks += (nt - n - 1 + kGemmBatchMax - 1) / kGemmBatchMax;
  EXPECT_EQ(rep.graph.num_tasks, expected_tasks);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseCholesky,
                         ::testing::Values(DenseCase{16, 16, 1},   // single tile
                                           DenseCase{32, 8, 1},
                                           DenseCase{45, 8, 1},    // ragged edge
                                           DenseCase{64, 16, 4},   // parallel
                                           DenseCase{96, 16, 8},
                                           DenseCase{33, 32, 2})); // 2 tiles ragged

TEST(DenseCholesky, ParallelMatchesSequentialExactly) {
  auto a1 = make_spd_tiles(80, 16, 0.4);
  auto a2 = make_spd_tiles(80, 16, 0.4);
  FactorOptions seq, par;
  seq.workers = 1;
  par.workers = 8;
  ASSERT_EQ(tile_cholesky_dense(a1, seq).info, 0);
  ASSERT_EQ(tile_cholesky_dense(a2, par).info, 0);
  // FP64 tile kernels are deterministic: results must agree bit-for-bit.
  EXPECT_EQ(rel_frobenius_diff(reconstruct_lower(a1), reconstruct_lower(a2)), 0.0);
}

TEST(DenseCholesky, AllSchedulingPoliciesAgree) {
  const la::Matrix<double> expect = [] {
    auto a = make_spd_tiles(64, 16, 0.4);
    return reference_chol(a);
  }();
  for (rt::SchedPolicy pol :
       {rt::SchedPolicy::Fifo, rt::SchedPolicy::Lifo, rt::SchedPolicy::Priority}) {
    auto a = make_spd_tiles(64, 16, 0.4);
    FactorOptions opts;
    opts.workers = 4;
    opts.sched = pol;
    ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
    EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a), expect), 1e-12);
  }
}

TEST(DenseCholesky, MixedPrecisionBandStaysAccurate) {
  auto a = make_spd_tiles(96, 16, 0.8);
  const la::Matrix<double> expect = reference_chol(a);

  PrecisionPolicy p;
  p.rule = PrecisionRule::Band;
  p.band = BandConfig{2, 4};
  apply_precision_policy(a, p);

  FactorOptions opts;
  opts.workers = 4;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  // FP32/FP16 off-band tiles: accuracy driven by the demoted storage.
  EXPECT_LT(rel_frobenius_diff(reconstruct_lower(a), expect), 5e-3);
}

TEST(DenseCholesky, AdaptivePrecisionTracksEpsTarget) {
  double prev_err = -1.0;
  for (double eps : {1e-2, 1e-6, 1e-12}) {
    auto a = make_spd_tiles(96, 16, 1.0);
    const la::Matrix<double> expect = reference_chol(a);
    PrecisionPolicy p;
    p.rule = PrecisionRule::AdaptiveFrobenius;
    p.eps_target = eps;
    apply_precision_policy(a, p);
    FactorOptions opts;
    ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
    const double err = rel_frobenius_diff(reconstruct_lower(a), expect);
    if (prev_err >= 0.0)
      EXPECT_LE(err, prev_err * 1.5 + 1e-15) << "tighter eps must not lose accuracy";
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-11) << "eps=1e-12 keeps everything FP64";
}

TEST(DenseCholesky, TilePrecisionPreservedThroughFactorization) {
  auto a = make_spd_tiles(64, 16, 1.5);
  PrecisionPolicy p;
  p.rule = PrecisionRule::Band;
  p.band = BandConfig{1, 2};
  apply_precision_policy(a, p);
  std::vector<Precision> before;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i) before.push_back(a.at(i, j).precision());
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  std::size_t idx = 0;
  for (std::size_t j = 0; j < a.nt(); ++j)
    for (std::size_t i = j; i < a.nt(); ++i)
      EXPECT_EQ(a.at(i, j).precision(), before[idx++]) << "storage precision is sticky";
}

TEST(DenseCholesky, NonSpdReportsPivot) {
  tile::SymTileMatrix a(32, 8);
  gsx::test::generate_elementwise(a, 
      [](std::size_t i, std::size_t j) {
        if (i != j) return 0.01;
        return (i == 20) ? -5.0 : 1.0;  // negative pivot in tile 2
      },
      1);
  FactorOptions opts;
  const FactorReport rep = tile_cholesky_dense(a, opts);
  EXPECT_NE(rep.info, 0);
  EXPECT_GT(rep.info, 16);  // failure after the first two tiles
  EXPECT_LE(rep.info, 24);
}

TEST(DenseCholesky, LogdetMatchesReference) {
  auto a = make_spd_tiles(48, 16, 0.6);
  const la::Matrix<double> ref = reference_chol(a);
  double expect = 0.0;
  for (std::size_t i = 0; i < 48; ++i) expect += 2.0 * std::log(ref(i, i));
  FactorOptions opts;
  ASSERT_EQ(tile_cholesky_dense(a, opts).info, 0);
  EXPECT_NEAR(tile_logdet(a), expect, 1e-9);
}


// ------------------------------------------------- Algorithm-1 task list

std::vector<CholeskyTask> collect_tasks(std::size_t nt, const dist::ProcessGrid& grid) {
  std::vector<CholeskyTask> out;
  for_each_cholesky_task(
      nt, [&grid](std::size_t i, std::size_t j) { return grid.owner(i, j); },
      [&out](const CholeskyTask& t) { out.push_back(t); });
  return out;
}

TEST(CholeskyDag, SingleOwnerSequenceForFiveTiles) {
  using obs::KernelOp;
  struct Expect {
    KernelOp op;
    std::size_t k, col;
    std::vector<std::size_t> rows;
    int priority;
  };
  const KernelOp P = KernelOp::Potrf, T = KernelOp::Trsm, S = KernelOp::Syrk,
                 G = KernelOp::Gemm;
  const std::vector<Expect> expect = {
      {P, 0, 0, {0}, 17},    {T, 0, 0, {1}, 16},    {T, 0, 0, {2}, 16},
      {T, 0, 0, {3}, 16},    {T, 0, 0, {4}, 16},    {S, 0, 1, {1}, 15},
      {S, 0, 2, {2}, 15},    {S, 0, 3, {3}, 15},    {S, 0, 4, {4}, 15},
      {G, 0, 1, {2, 3, 4}, 15}, {G, 0, 2, {3, 4}, 15}, {G, 0, 3, {4}, 15},
      {P, 1, 1, {1}, 14},    {T, 1, 1, {2}, 13},    {T, 1, 1, {3}, 13},
      {T, 1, 1, {4}, 13},    {S, 1, 2, {2}, 12},    {S, 1, 3, {3}, 12},
      {S, 1, 4, {4}, 12},    {G, 1, 2, {3, 4}, 12}, {G, 1, 3, {4}, 12},
      {P, 2, 2, {2}, 11},    {T, 2, 2, {3}, 10},    {T, 2, 2, {4}, 10},
      {S, 2, 3, {3}, 9},     {S, 2, 4, {4}, 9},     {G, 2, 3, {4}, 9},
      {P, 3, 3, {3}, 8},     {T, 3, 3, {4}, 7},     {S, 3, 4, {4}, 6},
      {P, 4, 4, {4}, 5},
  };
  const std::vector<CholeskyTask> got = collect_tasks(5, dist::ProcessGrid{1, 1});
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t x = 0; x < got.size(); ++x) {
    EXPECT_EQ(got[x].op, expect[x].op) << x;
    EXPECT_EQ(got[x].k, expect[x].k) << x;
    EXPECT_EQ(got[x].col, expect[x].col) << x;
    EXPECT_EQ(got[x].rows, expect[x].rows) << x;
    EXPECT_EQ(got[x].priority, expect[x].priority) << x;
  }
  // Names, tile updates and access order are the single-process graph's.
  EXPECT_EQ(got[0].name(), "potrf(0)");
  EXPECT_EQ(got[1].name(), "trsm(1,0)");
  EXPECT_EQ(got[5].name(), "syrk(1,0)");
  EXPECT_EQ(got[9].name(), "gemm(2..4,1,0)");
  EXPECT_EQ(got[11].name(), "gemm(4,3,0)");
  std::vector<std::tuple<std::size_t, std::size_t, bool>> access;
  got[10].for_each_access([&](TileCoord c, bool write) { access.emplace_back(c.i, c.j, write); });
  const std::vector<std::tuple<std::size_t, std::size_t, bool>> gemm_access = {
      {2, 0, false}, {3, 0, false}, {3, 2, true}, {4, 0, false}, {4, 2, true}};
  EXPECT_EQ(access, gemm_access);
}

TEST(CholeskyDag, BatchesAreChunkedUnderOneOwner) {
  // nt = 40: column n = 1 of step 0 has rows 2..39, one batch of 32 and one
  // of 6.
  const std::vector<CholeskyTask> got = collect_tasks(40, dist::ProcessGrid{1, 1});
  std::vector<std::vector<std::size_t>> col1;
  for (const CholeskyTask& t : got)
    if (t.op == obs::KernelOp::Gemm && t.k == 0 && t.col == 1) col1.push_back(t.rows);
  ASSERT_EQ(col1.size(), 2u);
  EXPECT_EQ(col1[0].size(), kGemmBatchMax);
  EXPECT_EQ(col1[0].front(), 2u);
  EXPECT_EQ(col1[1].front(), 2u + kGemmBatchMax);
  EXPECT_EQ(col1[1].back(), 39u);
}

TEST(CholeskyDag, EveryUpdateOnExactlyOneRankAndBatchesNeverMixOwners) {
  const std::size_t nt = 40;
  for (const dist::ProcessGrid grid :
       {dist::ProcessGrid{1, 1}, dist::ProcessGrid{2, 2}, dist::ProcessGrid{1, 3}}) {
    // (op, k, out.i, out.j) -> ranks whose list holds it.
    std::map<std::tuple<int, std::size_t, std::size_t, std::size_t>, std::set<std::size_t>> seen;
    std::size_t updates = 0;
    for (std::size_t rank = 0; rank < grid.nodes(); ++rank)
      for (const CholeskyTask& t : collect_tasks(nt, grid)) {
        ASSERT_LE(t.rows.size(), kGemmBatchMax);
        const TileCoord first = t.out(0);
        if (grid.owner(first.i, first.j) != rank) continue;
        for (std::size_t b = 0; b < t.rows.size(); ++b) {
          const TileCoord out = t.out(b);
          EXPECT_EQ(grid.owner(out.i, out.j), rank) << t.name() << " mixes owners";
          seen[{static_cast<int>(t.op), t.k, out.i, out.j}].insert(rank);
          ++updates;
        }
      }
    // potrf nt, trsm and syrk nt(nt-1)/2 each, gemm C(nt, 3).
    EXPECT_EQ(seen.size(), nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6);
    EXPECT_EQ(updates, seen.size()) << "an update appears on more than one rank";
    for (const auto& [key, ranks] : seen) EXPECT_EQ(ranks.size(), 1u);
  }
}

}  // namespace
}  // namespace gsx::cholesky
