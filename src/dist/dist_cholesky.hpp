// Distributed tile Cholesky: one rank's slice of Algorithm 1 under 2D
// block-cyclic ownership (dist/placement.hpp), with remote operand tiles
// arriving over the TileTransport data plane.
//
// Execution model (the PaRSEC idea, on this repo's runtime):
//   - every rank walks the SAME Algorithm-1 task list the single-process
//     factorization runs (cholesky/cholesky_dag.hpp, block-cyclic owner,
//     so each gemm batch has one owner) and submits only the tasks whose
//     output tiles it owns; trailing updates run as batched GEMMs;
//   - a remote operand becomes an externally-completed "recv" task in the
//     TaskGraph plus a staging slot; the transport's delivery callback
//     stages the tile and notify()s the task, releasing local consumers
//     without parking a worker thread in a blocking receive;
//   - broadcast sets come from the same list: the task that writes a tile
//     last ships it, from inside its own body, to every rank whose tasks
//     read it — at the tile's *stored* precision.
//
// Precision parity with the single-process oracle: every per-tile decision
// (mixed-precision demotion, TLR compression, FP32 low-rank storage) is a
// pure function of (i, j, tile values, global Frobenius norm). The global
// norm is allreduced through the coordinator, and the oracle is handed that
// same number — so a distributed run and the oracle make bit-identical
// decisions and, with the kernel order fixed by the DAG's dependency chains,
// produce bit-identical factors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cholesky/factorize.hpp"
#include "dist/coordinator.hpp"
#include "dist/placement.hpp"
#include "tile/sym_tile_matrix.hpp"
#include "tile/tile.hpp"

namespace gsx::dist {

/// Which per-tile storage policy shapes the matrix before factorization.
enum class DistPolicy : unsigned char {
  Dense,           ///< all tiles dense FP64 (reference)
  MixedPrecision,  ///< adaptive-Frobenius dense demotion (FP64/32/16)
  Tlr,             ///< dense band + low-rank off-band tiles
};

[[nodiscard]] constexpr const char* dist_policy_name(DistPolicy p) noexcept {
  switch (p) {
    case DistPolicy::Dense: return "dense";
    case DistPolicy::MixedPrecision: return "mp";
    case DistPolicy::Tlr: return "tlr";
  }
  return "?";
}

/// Parse "dense" / "mp" / "tlr"; throws InvalidArgument otherwise.
[[nodiscard]] DistPolicy parse_dist_policy(const std::string& name);

/// The synthetic Matérn problem every rank regenerates locally (only the
/// owned tiles are materialized). Deterministic in `seed`: all ranks and the
/// oracle see the same Sigma.
struct DistProblemConfig {
  std::size_t n = 512;
  std::size_t tile_size = 64;
  std::uint64_t seed = 7;
  double range = 0.1;
  double smoothness = 0.5;
  double nugget = 1e-6;
};

/// Per-tile policy parameters shared by the distributed ranks and the
/// oracle.
struct DistPolicyOptions {
  DistPolicy policy = DistPolicy::Dense;
  bool allow_fp16 = true;  ///< MP: FP16 storage allowed
  /// TLR: compress_offband's options (tiles with |i-j| >= band_size are
  /// compressed to the absolute tolerance `tol`, also the factorization's
  /// rounding tolerance). Its eps_target is also the MP accuracy target.
  cholesky::TlrCompressOptions tlr{.tol = 1.0e-7, .band_size = 2};
};

/// One rank's run parameters.
struct DistRunConfig {
  int rank = 0;
  int nprocs = 1;
  std::uint16_t coord_port = 0;  ///< launcher's control-plane port
  std::size_t workers = 2;       ///< task-graph worker threads
  DistPolicyOptions policy;
  std::size_t ooc_bytes = 0;     ///< >0: out-of-core pool byte bound
  std::string spill_dir;         ///< required when ooc_bytes > 0
  std::size_t heartbeats = 3;    ///< clock-alignment beats to emit
};

/// What one rank reports back.
struct DistResult {
  double global_norm = 0.0;      ///< allreduced ||Sigma||_F
  double factor_seconds = 0.0;
  RankStats stats;               ///< wire + spill counters of this rank
  /// Rank 0 only: the gathered factor (every stored tile, own + received).
  std::unique_ptr<tile::SymTileMatrix> factor;
};

/// Apply the per-tile storage policy to one generated (dense FP64) tile.
/// Pure in (tile values, i, j, nt, global_norm, opts) — the parity contract
/// between ranks and oracle. Diagonal tiles always stay dense FP64; TLR
/// off-band tiles take cholesky::compress_tile, compress_offband's decision.
void apply_dist_tile_policy(tile::Tile& t, std::size_t i, std::size_t j,
                            std::size_t nt, double global_norm,
                            const DistPolicyOptions& opts);

/// Partial weighted sum of squares (off-diagonal tiles count twice) over
/// `coords` — the local contribution to ||Sigma||_F^2 before the allreduce.
[[nodiscard]] double weighted_sumsq(
    const tile::SymTileMatrix& a,
    const std::vector<std::pair<std::size_t, std::size_t>>& coords);

/// Execute one rank end-to-end: rendezvous, generate owned tiles, policy,
/// factorize with remote-dependency tasks, gather to rank 0, report stats.
/// Throws on any failure (the caller reports dist_done ok=false).
DistResult run_dist_rank(const DistProblemConfig& prob, const DistRunConfig& run);

/// Single-process reference factorization using the SAME policy decisions as
/// the distributed run (pass the allreduced global_norm from DistResult so
/// precision choices match bit-for-bit).
[[nodiscard]] std::unique_ptr<tile::SymTileMatrix> oracle_factor(
    const DistProblemConfig& prob, const DistPolicyOptions& opts,
    double global_norm, std::size_t workers);

/// Element-wise comparison of two factors at stored precision.
struct FactorComparison {
  bool identical = false;       ///< every stored tile byte-identical
  std::size_t tiles_compared = 0;
  std::size_t mismatched_tiles = 0;
  double max_abs_diff = 0.0;    ///< over FP64-materialized tiles (diagnostic)
};
[[nodiscard]] FactorComparison compare_factors(const tile::SymTileMatrix& a,
                                               const tile::SymTileMatrix& b);

}  // namespace gsx::dist
