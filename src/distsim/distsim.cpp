#include "distsim/distsim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "cholesky/cholesky_dag.hpp"
#include "common/error.hpp"

namespace gsx::distsim {

TileStructure::TileStructure(std::size_t nt, std::size_t tile_size)
    : nt_(nt), ts_(tile_size), tiles_(nt * (nt + 1) / 2) {
  GSX_REQUIRE(nt >= 1 && tile_size >= 1, "TileStructure: empty structure");
}

TileInfo& TileStructure::at(std::size_t i, std::size_t j) {
  GSX_REQUIRE(i < nt_ && j <= i, "TileStructure: need i >= j");
  return tiles_[j * nt_ - j * (j - 1) / 2 + (i - j)];
}

const TileInfo& TileStructure::at(std::size_t i, std::size_t j) const {
  GSX_REQUIRE(i < nt_ && j <= i, "TileStructure: need i >= j");
  return tiles_[j * nt_ - j * (j - 1) / 2 + (i - j)];
}

std::size_t TileStructure::tile_bytes(std::size_t i, std::size_t j) const {
  const TileInfo& t = at(i, j);
  const std::size_t elem = bytes_of(t.precision);
  if (t.lowrank) return 2 * ts_ * t.rank * elem;
  return ts_ * ts_ * elem;
}

TileStructure TileStructure::from_matrix(const tile::SymTileMatrix& a) {
  TileStructure s(a.nt(), a.tile_size());
  for (std::size_t j = 0; j < a.nt(); ++j) {
    for (std::size_t i = j; i < a.nt(); ++i) {
      const tile::Tile& t = a.at(i, j);
      TileInfo& info = s.at(i, j);
      info.lowrank = (t.format() == tile::TileFormat::LowRank);
      info.rank = info.lowrank ? t.rank() : a.tile_size();
      info.precision = t.precision();
    }
  }
  return s;
}

TileStructure TileStructure::synthetic(std::size_t nt, std::size_t tile_size,
                                       std::size_t band, double rank_decay,
                                       std::size_t min_rank, bool mixed_precision) {
  GSX_REQUIRE(band >= 1, "TileStructure::synthetic: band must include the diagonal");
  TileStructure s(nt, tile_size);
  for (std::size_t j = 0; j < nt; ++j) {
    for (std::size_t i = j; i < nt; ++i) {
      const std::size_t d = i - j;
      TileInfo& info = s.at(i, j);
      if (d < band) {
        info.lowrank = false;
        info.rank = tile_size;
        if (!mixed_precision || d == 0) {
          info.precision = Precision::FP64;
        } else {
          info.precision = Precision::FP32;
        }
      } else {
        info.lowrank = true;
        const double r = static_cast<double>(tile_size) *
                         std::exp(-rank_decay * static_cast<double>(d));
        info.rank = std::max<std::size_t>(min_rank, static_cast<std::size_t>(r));
        info.rank = std::min(info.rank, tile_size / 2);
        info.precision =
            (mixed_precision && d >= 2 * band) ? Precision::FP32 : Precision::FP64;
      }
    }
  }
  return s;
}

namespace {

/// Per-tile dependency clock plus remote-availability cache (a PaRSEC-like
/// runtime keeps a received copy until the next write invalidates it).
struct TileClock {
  double last_write_end = 0.0;
  double max_read_end = 0.0;
  std::unordered_map<std::size_t, double> cached_at;  // node -> availability
};

/// One node's cores as a min-heap of next-free times.
class NodeCores {
 public:
  explicit NodeCores(std::size_t cores) {
    for (std::size_t c = 0; c < cores; ++c) free_.push(0.0);
  }

  /// Run a task that becomes ready at `ready` and costs `cost`; returns its
  /// completion time.
  double run(double ready, double cost) {
    const double core_free = free_.top();
    free_.pop();
    const double start = std::max(ready, core_free);
    const double end = start + cost;
    free_.push(end);
    return end;
  }

 private:
  std::priority_queue<double, std::vector<double>, std::greater<>> free_;
};

/// Cost of one tile update writing `out`, derived from the calibrated
/// per-core GEMM timings by flop ratios (GEMM = 2 ts^3 flops is the unit).
/// `pn` is the task's shared read (col, k), `pm` a gemm's row read (m, k).
struct Costs {
  const perfmodel::KernelModel* k = nullptr;
  std::size_t ts = 0;

  [[nodiscard]] double operator()(obs::KernelOp op, const TileInfo& out, const TileInfo& pn,
                                  const TileInfo& pm) const {
    const double g64 = k->dense_gemm_seconds(Precision::FP64);
    const double t = static_cast<double>(ts);
    switch (op) {
      case obs::KernelOp::Potrf:
        return g64 / 6.0;  // ts^3/3 over 2 ts^3
      case obs::KernelOp::Trsm:  // low rank: V := L^{-1} V, ts^2 * rank flops
        return out.lowrank ? g64 * static_cast<double>(out.rank) / (2.0 * t)
                           : k->dense_gemm_seconds(out.precision) / 2.0;
      case obs::KernelOp::Syrk: {  // low rank: ~4 ts k^2 + 2 ts^2 k flops
        const double r = static_cast<double>(pn.rank);
        return pn.lowrank ? g64 * (4.0 * t * r * r + 2.0 * t * t * r) / (2.0 * t * t * t)
                          : g64 / 2.0;
      }
      default:
        if (out.lowrank)
          return k->tlr_gemm_seconds(std::max(
              {out.rank, pm.lowrank ? pm.rank : out.rank, pn.lowrank ? pn.rank : out.rank}));
        if (pm.lowrank || pn.lowrank) {  // C(dense) -= LR product: ~2 ts^2 k flops
          const std::size_t r = std::min(pm.lowrank ? pm.rank : ts, pn.lowrank ? pn.rank : ts);
          return k->dense_gemm_seconds(out.precision) * static_cast<double>(r) / t;
        }
        return k->dense_gemm_seconds(out.precision);
    }
  }
};

}  // namespace

SimResult simulate_cholesky(const TileStructure& a, const ProcessGrid& grid,
                            const NodeModel& node, const LinkModel& link) {
  GSX_REQUIRE(node.kernels != nullptr, "simulate_cholesky: node model needs kernels");
  GSX_REQUIRE(node.kernels->tile_size() == a.tile_size(),
              "simulate_cholesky: kernel model tile size mismatch");
  const std::size_t nt = a.nt();
  const Costs costs{node.kernels, a.tile_size()};

  std::vector<TileClock> clocks(nt * (nt + 1) / 2);
  auto clock = [&](std::size_t i, std::size_t j) -> TileClock& {
    return clocks[j * nt - j * (j - 1) / 2 + (i - j)];
  };
  std::vector<NodeCores> cores(grid.nodes(), NodeCores(node.cores));

  SimResult result;

  // Read an operand from `exec_node`; returns availability time, charging a
  // transfer when the tile lives elsewhere (cached per destination until the
  // next write).
  auto read_operand = [&](std::size_t i, std::size_t j, std::size_t exec_node) {
    TileClock& c = clock(i, j);
    const std::size_t owner = grid.owner(i, j);
    if (owner == exec_node) return c.last_write_end;
    auto [it, inserted] = c.cached_at.try_emplace(exec_node, 0.0);
    if (inserted) {
      const double xfer = link.transfer_seconds(a.tile_bytes(i, j));
      it->second = c.last_write_end + xfer;
      ++result.remote_transfers;
      result.comm_bytes += a.tile_bytes(i, j);
      result.total_comm_seconds += xfer;
    }
    return it->second;
  };

  auto note_read = [&](cholesky::TileCoord t, double end) {
    TileClock& c = clock(t.i, t.j);
    c.max_read_end = std::max(c.max_read_end, end);
  };

  using cholesky::TileCoord;
  // Replay Algorithm 1's task list; each update of a gemm batch is charged
  // as its own task on the output's node.
  const auto owner = [&grid](std::size_t i, std::size_t j) { return grid.owner(i, j); };
  cholesky::for_each_cholesky_task(nt, owner, [&](const cholesky::CholeskyTask& task) {
    const bool potrf = task.op == obs::KernelOp::Potrf;
    const bool gemm = task.op == obs::KernelOp::Gemm;
    const TileCoord shared{task.col, task.k};
    for (std::size_t b = 0; b < task.rows.size(); ++b) {
      const TileCoord o = task.out(b);
      const TileCoord panel{task.rows[b], task.k};
      TileClock& out = clock(o.i, o.j);
      const std::size_t exec_node = grid.owner(o.i, o.j);
      double ready = std::max(out.last_write_end, out.max_read_end);
      if (!potrf) ready = std::max(ready, read_operand(shared.i, shared.j, exec_node));
      if (gemm) ready = std::max(ready, read_operand(panel.i, panel.j, exec_node));
      const double cost =
          costs(task.op, a.at(o.i, o.j), a.at(shared.i, shared.j), a.at(panel.i, panel.j));
      const double end = cores[exec_node].run(ready, cost);
      out.last_write_end = end;
      out.max_read_end = 0.0;
      out.cached_at.clear();
      result.total_compute_seconds += cost;
      ++result.num_tasks;
      if (!potrf) note_read(shared, end);
      if (gemm) note_read(panel, end);
    }
  });

  double makespan = 0.0;
  for (auto& c : clocks) makespan = std::max(makespan, c.last_write_end);
  result.makespan_seconds = makespan;
  return result;
}

}  // namespace gsx::distsim
