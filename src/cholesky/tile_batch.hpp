// Kernels of the cholesky_dag.hpp tasks, shared by the single-process and
// the distributed factorization. All GEMMs of one (k, n) panel column share the B operand A(n,k); grouping
// them into one la::*gemm_batch call re-uses the packed op(B) panel across
// the whole group and amortises the per-call conversion/packing overhead
// that dominates small-tile TLR sweeps. Results are bit-identical to issuing
// the per-tile kernels one by one.
#pragma once

#include <array>
#include <span>

#include "cholesky/cholesky_dag.hpp"
#include "cholesky/tile_kernels.hpp"
#include "common/error.hpp"
#include "tile/tile.hpp"

namespace gsx::cholesky {

/// Apply out[b] -= left[b] * right^T for every b: the trailing updates
/// A(m,n) -= A(m,k) * A(n,k)^T of one panel column, with right = A(n,k),
/// left[b] = A(m_b,k) and out[b] = A(m_b,n). The tiles may live anywhere (a
/// SymTileMatrix, a rank's leased or staged tiles).
///
/// Dense tiles are grouped by (output precision, rows) — cols and the inner
/// dimension are fixed by `right` — and dispatched to the batched GEMM entry
/// point of that precision. In TLR mode (`tlr_mode`), any update touching a
/// low-rank tile falls back to the per-op gemm_mixed_tile with the given
/// rounding tolerance; dense-only updates still batch.
void gemm_tile_batch(const tile::Tile& right, std::span<const tile::Tile* const> left,
                     std::span<tile::Tile* const> out, bool tlr_mode, double abs_tol,
                     tlr::RoundingMethod rounding = tlr::RoundingMethod::QrSvd);

/// Run one trsm, syrk or gemm-batch task on the tiles `tile_at(TileCoord)`
/// resolves (potrf, whose failure handling differs, stays with the
/// executor). In TLR mode low-rank tiles take the low-rank kernels.
template <class TileAt>
void run_update_task(const CholeskyTask& t, TileAt&& tile_at, bool tlr_mode, double abs_tol,
                     tlr::RoundingMethod rounding) {
  GSX_REQUIRE(t.op != obs::KernelOp::Potrf && t.rows.size() <= kGemmBatchMax,
              "run_update_task: expects a trsm, syrk or gemm-batch task");
  const tile::Tile& shared = tile_at(TileCoord{t.col, t.k});
  const auto lowrank = [tlr_mode](const tile::Tile& x) {
    return tlr_mode && x.format() == tile::TileFormat::LowRank;
  };
  if (t.op == obs::KernelOp::Trsm) {
    tile::Tile& b = tile_at(t.out(0));
    lowrank(b) ? trsm_lr_tile(shared, b) : trsm_tile(shared, b);
  } else if (t.op == obs::KernelOp::Syrk) {
    lowrank(shared) ? syrk_lr_tile(shared, tile_at(t.out(0)))
                    : syrk_tile(shared, tile_at(t.out(0)));
  } else {
    std::array<const tile::Tile*, kGemmBatchMax> left{};
    std::array<tile::Tile*, kGemmBatchMax> out{};
    for (std::size_t b = 0; b < t.rows.size(); ++b) {
      left[b] = &tile_at(TileCoord{t.rows[b], t.k});
      out[b] = &tile_at(t.out(b));
    }
    gemm_tile_batch(shared, std::span(left.data(), t.rows.size()),
                    std::span(out.data(), t.rows.size()), tlr_mode, abs_tol, rounding);
  }
}

}  // namespace gsx::cholesky
