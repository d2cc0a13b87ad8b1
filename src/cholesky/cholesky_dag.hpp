// Algorithm 1 as one task list, walked by every executor of the tile
// Cholesky: the single-process TaskGraph (cholesky/factorize.cpp), the
// distributed rank engine (dist/dist_cholesky.cpp) and the discrete-event
// simulator (distsim/distsim.cpp). Header-only, like dist/placement.hpp, so
// the simulator shares the loop without linking the kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/flops.hpp"

namespace gsx::cholesky {

/// Max trailing-update GEMMs grouped into one task (and thus one batched
/// kernel call). Bounds both task granularity and the converted-operand
/// scratch footprint of a single batch.
inline constexpr std::size_t kGemmBatchMax = 32;

struct TileCoord {
  std::size_t i = 0;
  std::size_t j = 0;
};

/// One task: `op` (Potrf, Trsm, Syrk or Gemm) at step k writes tiles
/// (m, col) for m in `rows` — (k,k), (m,k), (m,m), or (m,n) for each m of a
/// gemm batch. Every task but potrf reads (col, k): L(k,k) for trsm, the
/// panel tile for syrk and the shared A(n,k) of a gemm batch; a gemm also
/// reads A(m,k) per row.
struct CholeskyTask {
  obs::KernelOp op = obs::KernelOp::Potrf;
  std::size_t k = 0;
  std::size_t col = 0;
  std::vector<std::size_t> rows;
  int priority = 0;

  [[nodiscard]] TileCoord out(std::size_t b) const { return {rows[b], col}; }

  /// Calls fn(TileCoord, bool write) for every access in dependency-list
  /// order: the shared read, then per row its gemm read and its output.
  template <class Fn>
  void for_each_access(Fn&& fn) const {
    if (op != obs::KernelOp::Potrf) fn(TileCoord{col, k}, false);
    for (std::size_t b = 0; b < rows.size(); ++b) {
      if (op == obs::KernelOp::Gemm) fn(TileCoord{rows[b], k}, false);
      fn(out(b), true);
    }
  }

  /// potrf(k), trsm(m,k), syrk(m,k), gemm(m,n,k) or gemm(first..last,n,k).
  [[nodiscard]] std::string name() const {
    const auto s = [](std::size_t v) { return std::to_string(v); };
    const std::string kernel(obs::kernel_op_name(op));
    if (op == obs::KernelOp::Potrf) return kernel + "(" + s(k) + ")";
    if (op != obs::KernelOp::Gemm) return kernel + "(" + s(rows[0]) + "," + s(k) + ")";
    return "gemm(" + s(rows.front()) + (rows.size() > 1 ? ".." + s(rows.back()) : "") + "," +
           s(col) + "," + s(k) + ")";
  }
};

/// Emit Algorithm 1 over nt tile rows, calling fn(const CholeskyTask&) per
/// task (the object is reused: copy what outlives the call). Per step k:
/// potrf(k), every trsm(m,k), every syrk(m,k), then the gemm batches of each
/// column n > k — its rows grouped by owner(m, n) in order of first
/// appearance and cut into chunks of kGemmBatchMax, so one owner means
/// consecutive row chunks. Priorities 3(nt-k) + {2, 1, 0} let the panel
/// chain overtake trailing updates.
template <class Owner, class Fn>
void for_each_cholesky_task(std::size_t nt, Owner&& owner, Fn&& fn) {
  using obs::KernelOp;
  CholeskyTask t;
  const auto emit = [&](KernelOp op, std::size_t col, int priority, auto first, auto last) {
    t.op = op;
    t.col = col;
    t.priority = priority;
    t.rows.assign(first, last);
    fn(std::as_const(t));
  };
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> groups;
  for (std::size_t k = 0; k < nt; ++k) {
    const int base = 3 * static_cast<int>(nt - k);
    t.k = k;
    emit(KernelOp::Potrf, k, base + 2, &k, &k + 1);
    for (std::size_t m = k + 1; m < nt; ++m) emit(KernelOp::Trsm, k, base + 1, &m, &m + 1);
    for (std::size_t m = k + 1; m < nt; ++m) emit(KernelOp::Syrk, m, base, &m, &m + 1);
    for (std::size_t n = k + 1; n < nt; ++n) {
      groups.clear();
      for (std::size_t m = n + 1; m < nt; ++m) {
        const std::size_t o = owner(m, n);
        auto g = std::find_if(groups.begin(), groups.end(),
                              [o](const auto& grp) { return grp.first == o; });
        if (g == groups.end()) g = groups.insert(g, {o, {}});
        g->second.push_back(m);
      }
      for (const auto& [o, ms] : groups)
        for (std::size_t c = 0; c < ms.size(); c += kGemmBatchMax)
          emit(KernelOp::Gemm, n, base, ms.begin() + static_cast<std::ptrdiff_t>(c),
               ms.begin() + static_cast<std::ptrdiff_t>(std::min(ms.size(), c + kGemmBatchMax)));
    }
  }
}

}  // namespace gsx::cholesky
