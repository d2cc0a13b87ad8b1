#include "cholesky/tile_batch.hpp"

#include <deque>
#include <vector>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/half_blas.hpp"
#include "obs/flops.hpp"
#include "obs/trace.hpp"

namespace gsx::cholesky {

using obs::KernelOp;
using tile::Tile;
using tile::TileFormat;

namespace {

/// One precision-uniform slice of a panel column's trailing updates. All
/// outputs share (rows, cols); a ragged last tile row lands in its own group
/// (batched kernels require uniform shapes). `idx` indexes the batch.
struct Group {
  Precision p = Precision::FP64;
  std::size_t rows = 0;
  std::vector<std::size_t> idx;
};

/// Run one group with the precision's operand converter and batched kernel
/// — the same converters, kernel and (NoTrans, Trans, -1, +1) update as the
/// switch in gemm_tile. Operands live in a deque so their views stay valid
/// for the whole call.
template <class Operand, class Item, class OutView, class Kernel>
void run_group(const Tile& right, std::span<const Tile* const> left,
               std::span<Tile* const> out, const Group& g, OutView out_view, Kernel kernel) {
  const Operand b(right);
  std::deque<Operand> ops;
  std::vector<Item> items;
  items.reserve(g.idx.size());
  for (const std::size_t x : g.idx) {
    ops.emplace_back(*left[x]);
    items.push_back({ops.back().view(), b.view(), out_view(*out[x])});
  }
  const obs::KernelTimer timer(KernelOp::Gemm, g.p);
  kernel(items.data(), items.size());
}

}  // namespace

void gemm_tile_batch(const Tile& right, std::span<const Tile* const> left,
                     std::span<Tile* const> out, bool tlr_mode, double abs_tol,
                     tlr::RoundingMethod rounding) {
  GSX_REQUIRE(left.size() == out.size(), "gemm_tile_batch: operand/output count mismatch");
  const bool right_lr = right.format() == TileFormat::LowRank;
  std::vector<Group> groups;
  for (std::size_t x = 0; x < out.size(); ++x) {
    const Tile& amk = *left[x];
    Tile& amn = *out[x];
    // Updates involving a low-rank tile keep the per-op LR algebra; each
    // output tile is touched exactly once per k, so interleaving per-op and
    // batched items cannot change any result.
    if (tlr_mode && (right_lr || amk.format() == TileFormat::LowRank ||
                     amn.format() == TileFormat::LowRank)) {
      gemm_mixed_tile(amk, right, amn, abs_tol, rounding);
      continue;
    }
    GSX_REQUIRE(amn.format() == TileFormat::Dense,
                "gemm_tile_batch: expects a dense output tile");
    Group* g = nullptr;
    for (Group& cand : groups)
      if (cand.p == amn.precision() && cand.rows == amn.rows()) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      groups.push_back({amn.precision(), amn.rows(), {}});
      g = &groups.back();
    }
    g->idx.push_back(x);
  }

  for (const Group& g : groups) {
    if (obs::enabled()) {
      // Ledger parity with the per-op path: one gemm_flops entry per tile
      // update (the batch histogram, recorded inside the kernel, is what
      // tracks actual launch granularity).
      std::uint64_t flops = 0;
      for (const std::size_t x : g.idx) {
        const std::uint64_t f =
            obs::gemm_flops(out[x]->rows(), out[x]->cols(), left[x]->cols());
        obs::add_flops(KernelOp::Gemm, g.p, f);
        flops += f;
      }
      obs::annotate_task(g.p, -1, flops);
    }
    constexpr auto N = la::Trans::NoTrans, T = la::Trans::Trans;
    switch (g.p) {
      case Precision::FP64:
        run_group<F64Operand, la::GemmBatchItem<double>>(
            right, left, out, g, [](Tile& t) { return t.d64().view(); },
            [&](auto* it, std::size_t n) { la::gemm_batch<double>(N, T, -1.0, it, n, 1.0); });
        break;
      case Precision::FP32:
        run_group<F32Operand, la::GemmBatchItem<float>>(
            right, left, out, g, [](Tile& t) { return t.d32().view(); },
            [&](auto* it, std::size_t n) { la::gemm_batch<float>(N, T, -1.0f, it, n, 1.0f); });
        break;
      case Precision::FP16:
        run_group<F16Operand, la::Gemm16BatchItem<half>>(
            right, left, out, g, [](Tile& t) { return t.d16().view(); },
            [&](auto* it, std::size_t n) { la::hgemm_batch(N, T, -1.0f, it, n, 1.0f); });
        break;
      case Precision::BF16:
        run_group<Bf16Operand, la::Gemm16BatchItem<bfloat16>>(
            right, left, out, g, [](Tile& t) { return t.dbf16().view(); },
            [&](auto* it, std::size_t n) { la::bgemm_batch(N, T, -1.0f, it, n, 1.0f); });
        break;
    }
  }
}

}  // namespace gsx::cholesky
