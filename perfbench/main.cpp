// Repository benchmark program (see perfbench/README.md).
//
//   gsx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads, each run alone in its own process with at most four busy
// threads:
//   mle_mp      closed loop of GsxModel::evaluate, MPDense, n=2048, tile 256,
//               Matern nu != 0.5 (covariance assembly dominates)
//   mle_exp     same loop, n=4096, nu = 0.5 (tile Cholesky dominates)
//   mle_tlr     same loop, MPDenseTLR, n=2048, tile 128 (compression dominates)
//   krige_serve open loop of 8-point requests into serve::KrigingEngine
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same work
// layer by layer through the public calls and prints per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cholesky/factorize.hpp"
#include "cholesky/precision_policy.hpp"
#include "cholesky/tile_solve.hpp"
#include "common/rng.hpp"
#include "core/model.hpp"
#include "geostat/assemble.hpp"
#include "geostat/covariance.hpp"
#include "geostat/likelihood.hpp"
#include "geostat/locations.hpp"
#include "geostat/prediction.hpp"
#include "la/autotune.hpp"
#include "la/blas.hpp"
#include "la/gemm_kernel.hpp"
#include "la/lapack.hpp"
#include "perfmodel/band_tuner.hpp"
#include "perfmodel/kernel_model.hpp"
#include "serve/checkpoint.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "stats.hpp"

namespace {

using gsx::geostat::Location;
using perfbench::median;

// ---------------------------------------------------------------------------
// Clocks, resources, host interference

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Aggregate CPU ticks from /proc/stat: steal is time the hypervisor ran
/// someone else while this VM had work.
struct HostTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

HostTicks read_host_ticks() {
  HostTicks t;
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int k = 0; k < 8; ++k) {
    unsigned long long v = 0;
    if (!(f >> v)) return HostTicks{};
    t.total += v;
    if (k == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const HostTicks& a, const HostTicks& b) {
  const unsigned long long dt = b.total - a.total;
  return dt == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / static_cast<double>(dt);
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit);
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "gsx_perfbench: refusing to run: %s\n", why.c_str());
  std::exit(2);
}

/// The kernels must run with the compiled blocking and the dispatched ISA,
/// in an optimized build, so two checkouts measure the same code.
void pin_environment() {
  for (const char* v : {"GSX_GEMM_MC", "GSX_GEMM_KC", "GSX_GEMM_NC", "GSX_GEMM_ISA",
                        "GSX_TUNE_PROFILE"}) {
    if (std::getenv(v) != nullptr) refuse(std::string(v) + " is set");
  }
  if (std::filesystem::exists("gsx-tune.json"))
    refuse("./gsx-tune.json is present in the working directory");
  if (std::string(GSX_PERFBENCH_BUILD_TYPE) != "Release")
    refuse(std::string("build type is '") + GSX_PERFBENCH_BUILD_TYPE + "', not Release");
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  refuse("not an optimized build (NDEBUG and __OPTIMIZE__ required)");
#endif
  const bool profile = gsx::la::detail::startup_tune_profile().has_value();
  std::printf("env: isa=%s tune_profile=%s build=%s\n", gsx::la::gemm_kernel_isa(),
              profile ? "loaded" : "compiled-defaults", GSX_PERFBENCH_BUILD_TYPE);
}

// ---------------------------------------------------------------------------
// Inputs

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kThetas = 8;
constexpr std::size_t kMinEvals = 3;
constexpr double kLoglikRelTol = 1e-3;  // tier-1 tolerance vs dense_loglik
constexpr double kKrigeTol = 1e-4;      // tier-1 tolerance for approximate factors

struct Problem {
  std::vector<Location> locs;
  std::vector<double> z;
};

/// Jittered grid in the unit square, Morton-sorted, with i.i.d. normal
/// observations. The covariance structure (and so every work count) depends
/// on the locations and theta only.
Problem make_problem(std::size_t n, std::uint64_t seed) {
  gsx::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  Problem p;
  p.locs = gsx::geostat::perturbed_grid_locations(n, rng);
  gsx::geostat::sort_morton(p.locs);
  p.z.resize(n);
  for (double& v : p.z) v = std::sqrt(0.67) * rng.normal();
  return p;
}

/// A fixed seeded list around the paper's soil-moisture estimate
/// theta = (0.67, 0.17, 0.44). With `exponential` nu is 0.5 (the exp() fast
/// path); otherwise nu stays in [0.40, 0.48), away from the closed forms at
/// 0.5 and 1.5, so every element goes through the Bessel function.
std::vector<std::array<double, 3>> make_thetas(std::uint64_t seed, bool exponential) {
  gsx::Rng rng(seed ^ 0x7468657461ull);
  std::vector<std::array<double, 3>> out(kThetas);
  for (auto& t : out) {
    t[0] = 0.67 * rng.uniform(0.9, 1.1);
    t[1] = 0.17 * rng.uniform(0.9, 1.1);
    t[2] = exponential ? 0.5 : rng.uniform(0.40, 0.48);
  }
  return out;
}

struct MleWorkload {
  const char* name;
  gsx::core::ComputeVariant variant;
  std::size_t n;
  std::size_t tile;
  bool exponential;
};

constexpr MleWorkload kMleWorkloads[] = {
    {"mle_mp", gsx::core::ComputeVariant::MPDense, 2048, 256, false},
    {"mle_exp", gsx::core::ComputeVariant::MPDense, 4096, 256, true},
    {"mle_tlr", gsx::core::ComputeVariant::MPDenseTLR, 2048, 128, false},
};

gsx::core::ModelConfig mle_config(const MleWorkload& w) {
  gsx::core::ModelConfig c;
  c.variant = w.variant;
  c.tile_size = w.tile;
  c.workers = kWorkers;
  // The calibrated model times kernels at set-up and Algorithm 2's band is
  // derived from those timings, so the work would depend on a timing; the
  // flop model keeps it identical in every run (README: findings).
  c.calibrate_perf_model = false;
  return c;
}

std::unique_ptr<gsx::geostat::CovarianceModel> make_kernel(const std::array<double, 3>& t) {
  return std::make_unique<gsx::geostat::MaternCovariance>(t[0], t[1], t[2]);
}

/// Dense FP64 oracle log-likelihoods for the given theta indices, a few
/// thetas at a time (each holds one dense n x n matrix).
std::map<std::size_t, gsx::geostat::LoglikValue> oracle_logliks(
    const std::vector<std::array<double, 3>>& thetas, const std::vector<std::size_t>& which,
    const Problem& p, std::size_t threads) {
  std::vector<gsx::geostat::LoglikValue> out(which.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < std::min(threads, which.size()); ++t) {
      pool.emplace_back([&] {
        try {
          for (std::size_t k = next++; k < which.size(); k = next++) {
            const auto kernel = make_kernel(thetas[which[k]]);
            out[k] = gsx::geostat::dense_loglik(*kernel, p.locs, p.z);
          }
        } catch (...) {
          const std::lock_guard lk(error_mu);
          error = std::current_exception();
        }
      });
    }
  }
  if (error) std::rethrow_exception(error);
  std::map<std::size_t, gsx::geostat::LoglikValue> m;
  for (std::size_t k = 0; k < which.size(); ++k) m[which[k]] = out[k];
  return m;
}

bool loglik_matches(const gsx::geostat::LoglikValue& got,
                    const gsx::geostat::LoglikValue& ref) {
  return got.ok && ref.ok && std::isfinite(got.loglik) &&
         std::fabs(got.loglik - ref.loglik) <= kLoglikRelTol * std::fabs(ref.loglik);
}

std::size_t stored_elements(std::size_t n, std::size_t ts) {
  const std::size_t nt = (n + ts - 1) / ts;
  std::size_t e = 0;
  for (std::size_t j = 0; j < nt; ++j)
    for (std::size_t i = j; i < nt; ++i)
      e += std::min(ts, n - i * ts) * std::min(ts, n - j * ts);
  return e;
}

/// Work an evaluation did, from its breakdown. Two runs with one seed must
/// print the same counts; a count that moves exposes timing-dependent work.
struct WorkCounts {
  std::size_t cov_elems = 0, fp64 = 0, fp32 = 0, fp16 = 0, bf16 = 0;
  std::size_t compressed = 0, kept_lr = 0, band = 0, tasks = 0;
  bool operator==(const WorkCounts&) const = default;
};

WorkCounts work_counts(const MleWorkload& w, const gsx::core::EvalBreakdown& bd) {
  WorkCounts c;
  const std::size_t nt = (w.n + w.tile - 1) / w.tile;
  c.cov_elems = stored_elements(w.n, w.tile);
  c.fp64 = bd.policy.fp64_tiles;
  c.fp32 = bd.policy.fp32_tiles;
  c.fp16 = bd.policy.fp16_tiles;
  c.bf16 = bd.policy.bf16_tiles;
  if (w.variant == gsx::core::ComputeVariant::MPDenseTLR) {
    c.compressed = nt * (nt - 1) / 2;  // auto band: every off-diagonal tile
    c.kept_lr = nt * (nt + 1) / 2 - (c.fp64 + c.fp32 + c.fp16 + c.bf16);
    c.band = bd.band_size_dense;
  }
  c.tasks = bd.factor.graph.num_tasks;
  return c;
}

std::string counts_json(const WorkCounts& c) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"cov_elems\": %zu, \"tiles_fp64\": %zu, \"tiles_fp32\": %zu, "
                "\"tiles_fp16\": %zu, \"tiles_bf16\": %zu, \"tiles_compressed\": %zu, "
                "\"tiles_kept_lr\": %zu, \"band\": %zu, \"dag_tasks\": %zu}",
                c.cov_elems, c.fp64, c.fp32, c.fp16, c.bf16, c.compressed, c.kept_lr,
                c.band, c.tasks);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans (traced runs): kept in memory, written out when the run ends.

struct Span {
  const char* name;
  double start;
  double end;
  long parent;        ///< index of the parent span, -1 for a root
  std::uint64_t op;   ///< one id per evaluation or request
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(4096);
  }
  long begin(const char* name, long parent, std::uint64_t op) {
    if (!on_) return -1;
    spans_.push_back(Span{name, wall_now(), 0.0, parent, op});
    return static_cast<long>(spans_.size()) - 1;
  }
  void end(long s) {
    if (s >= 0) spans_[static_cast<std::size_t>(s)].end = wall_now();
  }
  double duration(long s) const {
    return s >= 0 ? spans_[static_cast<std::size_t>(s)].end -
                        spans_[static_cast<std::size_t>(s)].start
                  : 0.0;
  }
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"schema\": \"gsx-perfbench-spans-v1\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %ld, \"op\": %llu}",
                    i == 0 ? "" : ",\n", i, s.name, s.start, s.end, s.parent,
                    static_cast<unsigned long long>(s.op));
      f << buf;
    }
    f << "\n]}\n";
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// A span plus the process CPU seconds spent inside it.
class Timed {
 public:
  Timed(Tracer& tr, const char* name, long parent, std::uint64_t op)
      : tr_(tr), span_(tr.begin(name, parent, op)), w0_(wall_now()), c0_(cpu_now()) {}
  void stop() {
    wall_ = wall_now() - w0_;
    cpu_ = cpu_now() - c0_;
    tr_.end(span_);
  }
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }

 private:
  Tracer& tr_;
  long span_;
  double w0_, c0_;
  double wall_ = 0.0, cpu_ = 0.0;
};

// ---------------------------------------------------------------------------
// MLE workloads

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

/// One evaluation replayed layer by layer through the public calls that
/// GsxModel::evaluate makes, in the same order and with the same options.
struct LayerSample {
  double assemble_s = 0, assemble_cpu = 0, compress_s = 0, compress_cpu = 0;
  double policy_s = 0, factorize_s = 0, factorize_cpu = 0;
  double loglik_s = 0, total_s = 0, span_sum_s = 0;
  std::size_t kept_lr = 0, band = 0, fp64 = 0, fp32 = 0, fp16 = 0, tasks = 0;
  double rank_mean = 0;
  gsx::geostat::LoglikValue value;
};

LayerSample replay_evaluate(const gsx::core::ModelConfig& cfg,
                            const std::array<double, 3>& theta, const Problem& p,
                            Tracer& tr, std::uint64_t op) {
  namespace ch = gsx::cholesky;
  LayerSample s;
  const double t0 = wall_now();
  const long root = tr.begin("evaluate", -1, op);
  const auto kernel = make_kernel(theta);
  gsx::tile::SymTileMatrix a(p.locs.size(), cfg.tile_size);

  Timed assemble(tr, "geostat.fill_covariance_tiles", root, op);
  gsx::geostat::fill_covariance_tiles(a, *kernel, p.locs, cfg.workers);
  assemble.stop();
  s.assemble_s = assemble.wall();
  s.assemble_cpu = assemble.cpu();
  s.span_sum_s += assemble.wall();

  if (cfg.variant == gsx::core::ComputeVariant::MPDenseTLR) {
    ch::TlrCompressOptions copt;
    copt.tol = cfg.tlr_tol;
    copt.method = cfg.compression;
    copt.lr_fp32 = cfg.lr_fp32;
    copt.eps_target = cfg.eps_target;
    copt.band_size = 1;
    Timed compress(tr, "tlr.compress_offband", root, op);
    (void)ch::compress_offband(a, copt, cfg.workers);
    compress.stop();
    s.compress_s = compress.wall();
    s.compress_cpu = compress.cpu();

    Timed tune(tr, "perfmodel.tune_band_size", root, op);
    const auto model = gsx::perfmodel::KernelModel::theoretical(a.tile_size());
    const auto bd = gsx::perfmodel::tune_band_size(a, model, cfg.fluctuation);
    s.band = std::max<std::size_t>(1, bd.band_size_dense);
    tune.stop();

    // GsxModel::prepare's in-band revert, repeated with public Tile calls.
    Timed revert(tr, "tlr.band_revert", root, op);
    std::size_t rank_sum = 0;
    for (std::size_t j = 0; j < a.nt(); ++j) {
      for (std::size_t i = j; i < a.nt(); ++i) {
        gsx::tile::Tile& t = a.at(i, j);
        if (t.format() != gsx::tile::TileFormat::LowRank) continue;
        if (i - j >= 1 && i - j < s.band) {
          gsx::la::Matrix<double> full = t.to_dense64();
          t.assign_dense64(std::move(full));
        } else {
          ++s.kept_lr;
          rank_sum += t.rank();
        }
      }
    }
    revert.stop();
    s.rank_mean = s.kept_lr == 0 ? 0.0
                                 : static_cast<double>(rank_sum) / static_cast<double>(s.kept_lr);
    s.span_sum_s += compress.wall() + tune.wall() + revert.wall();
  }

  ch::PrecisionPolicy policy;
  policy.band = cfg.band;
  policy.eps_target = cfg.eps_target;
  policy.allow_fp16 = cfg.allow_fp16;
  policy.allow_bf16 = cfg.allow_bf16;
  policy.rule = cfg.mp_rule;
  Timed pol(tr, "cholesky.apply_precision_policy", root, op);
  const ch::PolicyStats ps = ch::apply_precision_policy(a, policy);
  pol.stop();
  s.policy_s = pol.wall();
  s.fp64 = ps.fp64_tiles;
  s.fp32 = ps.fp32_tiles;
  s.fp16 = ps.fp16_tiles;

  ch::FactorOptions fopt;
  fopt.workers = cfg.workers;
  fopt.sched = cfg.sched;
  fopt.rounding = cfg.rounding;
  fopt.rule = cfg.mp_rule;
  const bool tlr = cfg.variant == gsx::core::ComputeVariant::MPDenseTLR;
  Timed fact(tr, tlr ? "cholesky.tile_cholesky_tlr" : "cholesky.tile_cholesky_dense", root,
             op);
  const ch::FactorReport rep =
      tlr ? ch::tile_cholesky_tlr(a, cfg.tlr_tol, fopt) : ch::tile_cholesky_dense(a, fopt);
  fact.stop();
  s.factorize_s = fact.wall();
  s.factorize_cpu = fact.cpu();
  s.tasks = rep.graph.num_tasks;

  Timed ll(tr, "cholesky.tile_loglik", root, op);
  if (rep.info == 0) s.value = ch::tile_loglik(a, p.z);
  ll.stop();
  s.loglik_s = ll.wall();
  s.span_sum_s += pol.wall() + fact.wall() + ll.wall();
  tr.end(root);
  s.total_s = wall_now() - t0;
  return s;
}

double gemm256_gflops() {
  constexpr std::size_t kN = 256;
  gsx::Rng rng(7);
  gsx::la::Matrix<double> a(kN, kN), b(kN, kN), c(kN, kN);
  for (std::size_t j = 0; j < kN; ++j)
    for (std::size_t i = 0; i < kN; ++i) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      b(i, j) = rng.uniform(-1.0, 1.0);
    }
  std::vector<double> t;
  for (int r = 0; r < 33; ++r) {
    const double t0 = wall_now();
    gsx::la::gemm<double>(gsx::la::Trans::NoTrans, gsx::la::Trans::NoTrans, 1.0, a.cview(),
                          b.cview(), 0.0, c.view());
    if (r >= 3) t.push_back(wall_now() - t0);
  }
  if (!std::isfinite(c(0, 0))) throw std::runtime_error("gemm256 produced a non-finite value");
  return 2.0 * kN * kN * kN / median(t) * 1e-9;
}

/// End-to-end figures of one untraced run.
struct EndToEnd {
  double setup_cpu_s = 0, op_cpu_s = 0, cpu_per_ok_s = 0, peak_rss_mb = 0, ok_frac = 0;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_cpu_s, "s"},
      {"eval_cpu_s", e.op_cpu_s, "s"},
      {"cpu_ms_per_req", 1e3 * e.cpu_per_ok_s, "ms"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"ok_frac", e.ok_frac, "ratio"},
  };
}

/// Per-layer figures of one traced run; layers the workload does not run
/// stay 0. The wall-time figures at the end are end-to-end guards whose
/// run-to-run spread is too wide on a shared host to bound (README).
struct Layers {
  double assemble_s = 0, assemble_cpu_s = 0, cov_elems = 0;
  double compress_s = 0, compress_cpu_s = 0, tiles_compressed = 0, tiles_kept_lr = 0;
  double band = 0, rank_mean = 0;
  double policy_s = 0, tiles_fp64 = 0, tiles_fp32 = 0, tiles_fp16 = 0;
  double factorize_s = 0, factorize_cpu_s = 0, factorize_flops = 0, loglik_s = 0, tasks = 0;
  double cross_ms = 0, fwd_solve_ms = 0, krige_ms = 0, queue_ms = 0, batch_mean = 0;
  double rejected = 0, overhead_frac = 0, span_cover_frac = 0;
  double setup_wall_s = 0, eval_wall_s = 0, tail_s = 0, max_rps = 0;
};

std::vector<Metric> layer_metrics(const Layers& l) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double workers = static_cast<double>(kWorkers);
  return {
      {"geostat.assemble_s", l.assemble_s, "s"},
      {"geostat.assemble_cpu_s", l.assemble_cpu_s, "s"},
      {"geostat.cov_elems", l.cov_elems, "count"},
      {"geostat.ns_per_elem", 1e9 * ratio(l.assemble_cpu_s, l.cov_elems), "ns"},
      {"tlr.compress_s", l.compress_s, "s"},
      {"tlr.compress_cpu_s", l.compress_cpu_s, "s"},
      {"tlr.tiles_compressed", l.tiles_compressed, "count"},
      {"tlr.tiles_kept_lr", l.tiles_kept_lr, "count"},
      {"tlr.kept_frac", ratio(l.tiles_kept_lr, l.tiles_compressed), "ratio"},
      {"tlr.band", l.band, "count"},
      {"tlr.rank_mean", l.rank_mean, "count"},
      {"cholesky.policy_s", l.policy_s, "s"},
      {"cholesky.tiles_fp64", l.tiles_fp64, "count"},
      {"cholesky.tiles_fp32", l.tiles_fp32, "count"},
      {"cholesky.tiles_fp16", l.tiles_fp16, "count"},
      {"cholesky.factorize_s", l.factorize_s, "s"},
      {"cholesky.factorize_cpu_s", l.factorize_cpu_s, "s"},
      {"cholesky.loglik_s", l.loglik_s, "s"},
      {"la.factorize_gflops", 1e-9 * ratio(l.factorize_flops, l.factorize_s), "Gflop/s"},
      {"la.gemm256_gflops", gemm256_gflops(), "Gflop/s"},
      {"runtime.idle_frac",
       l.factorize_s > 0.0 ? 1.0 - l.factorize_cpu_s / (l.factorize_s * workers) : 0.0,
       "ratio"},
      {"runtime.tasks", l.tasks, "count"},
      {"serve.cross_ms", l.cross_ms, "ms"},
      {"serve.fwd_solve_ms", l.fwd_solve_ms, "ms"},
      {"serve.krige_ms", l.krige_ms, "ms"},
      {"serve.queue_ms", l.queue_ms, "ms"},
      {"serve.batch_mean", l.batch_mean, "count"},
      {"serve.rejected", l.rejected, "count"},
      {"trace.overhead_frac", l.overhead_frac, "ratio"},
      {"trace.span_cover_frac", l.span_cover_frac, "ratio"},
      {"setup_wall_s", l.setup_wall_s, "s"},
      {"eval_wall_s", l.eval_wall_s, "s"},
      {"lat_p50_ms", 1e3 * l.eval_wall_s, "ms"},
      {"lat_tail_ms", 1e3 * l.tail_s, "ms"},
      {"max_rps", l.max_rps, "1/s"},
  };
}

RunResult run_mle(const MleWorkload& w, std::uint64_t seed, double seconds, bool trace,
                  const std::string& out_dir) {
  const Problem p = make_problem(w.n, seed);
  const auto thetas = make_thetas(seed, w.exponential);
  const gsx::core::ModelConfig cfg = mle_config(w);
  RunResult r;

  // Set-up: model construction plus one warm-up evaluation, repeated.
  const int setups = trace ? 1 : 3;
  std::vector<double> setup_cpu, setup_wall;
  std::unique_ptr<gsx::core::GsxModel> model;
  gsx::core::EvalBreakdown warm_bd;
  gsx::geostat::LoglikValue warm{};
  for (int k = 0; k < setups; ++k) {
    const double t0 = wall_now();
    const double c0 = cpu_now();
    model = std::make_unique<gsx::core::GsxModel>(make_kernel(thetas[0]), cfg);
    warm = model->evaluate(thetas[0], p.locs, p.z, &warm_bd);
    setup_cpu.push_back(cpu_now() - c0);
    setup_wall.push_back(wall_now() - t0);
  }
  const WorkCounts counts0 = work_counts(w, warm_bd);

  struct Eval {
    std::size_t theta;
    double wall, cpu;
    gsx::geostat::LoglikValue v;
  };
  std::vector<Eval> evals;
  std::vector<LayerSample> layers;
  std::map<std::size_t, WorkCounts> counts_by_theta{{0, counts0}};
  bool counts_stable = true;
  bool replay_exact = true;
  Tracer tracer(trace);

  const HostTicks h0 = read_host_ticks();
  const double loop_c0 = cpu_now();
  const double loop_t0 = wall_now();
  const double deadline = loop_t0 + seconds;
  for (std::size_t i = 0; wall_now() < deadline || evals.size() < kMinEvals; ++i) {
    const std::size_t ti = i % thetas.size();
    gsx::core::EvalBreakdown bd;
    const double w0 = wall_now();
    const double c0 = cpu_now();
    const gsx::geostat::LoglikValue v = model->evaluate(thetas[ti], p.locs, p.z, &bd);
    evals.push_back(Eval{ti, wall_now() - w0, cpu_now() - c0, v});
    const WorkCounts c = work_counts(w, bd);
    const auto [it, fresh] = counts_by_theta.emplace(ti, c);
    if (!fresh && !(it->second == c)) counts_stable = false;
    if (trace) {
      layers.push_back(replay_evaluate(cfg, thetas[ti], p, tracer, i + 1));
      const LayerSample& s = layers.back();
      if (std::memcmp(&s.value.loglik, &v.loglik, sizeof(double)) != 0 || s.value.ok != v.ok ||
          s.fp64 != c.fp64 || s.fp32 != c.fp32 || s.fp16 != c.fp16 || s.tasks != c.tasks ||
          (c.band != 0 && (s.band != c.band || s.kept_lr != c.kept_lr)))
        replay_exact = false;
    }
  }
  const double loop_cpu = cpu_now() - loop_c0;
  const HostTicks h1 = read_host_ticks();
  const double rss = peak_rss_mb();

  // Oracle, after timing so its dense matrices stay out of peak_rss_mb.
  std::vector<std::size_t> used{0};
  for (const auto& [ti, c] : counts_by_theta)
    if (ti != 0) used.push_back(ti);
  const auto oracle = oracle_logliks(thetas, used, p, w.n > 2048 ? 2 : kWorkers);
  std::size_t ok = 0;
  for (const Eval& e : evals) {
    if (loglik_matches(e.v, oracle.at(e.theta))) {
      ++ok;
    } else {
      std::printf("FAIL: %s theta[%zu] loglik %.17g vs dense oracle %.17g\n", w.name, e.theta,
                  e.v.loglik, oracle.at(e.theta).loglik);
    }
  }
  if (!loglik_matches(warm, oracle.at(0))) {
    std::printf("FAIL: %s warm-up loglik %.17g vs dense oracle %.17g\n", w.name, warm.loglik,
                oracle.at(0).loglik);
    r.correct = false;
  }
  r.attempted = evals.size();
  r.failed = evals.size() - ok;
  r.correct = r.correct && r.failed == 0 && counts_stable && replay_exact;

  std::printf("counts: %s\n", counts_json(counts0).c_str());
  for (std::size_t ti = 1; ti < kMinEvals; ++ti)
    std::printf("counts_theta%zu: %s\n", ti, counts_json(counts_by_theta.at(ti)).c_str());
  std::printf("host: steal_frac=%.4f generator_max_lateness_s=0 (closed loop)\n",
              steal_frac(h0, h1));
  std::printf("evals: %zu ok=%zu counts_stable=%s\n", evals.size(), ok,
              counts_stable ? "true" : "false");

  std::vector<double> walls, cpus;
  for (const Eval& e : evals) {
    walls.push_back(e.wall);
    cpus.push_back(e.cpu);
  }
  const double eval_wall = median(walls);
  const double eval_cpu = median(cpus);
  const double wall_max = *std::max_element(walls.begin(), walls.end());

  if (!trace) {
    std::printf("wall: setup p50=%.4f s; evaluate p50=%.4f s, max %.4f s\n", median(setup_wall),
                eval_wall, wall_max);
    EndToEnd e;
    e.setup_cpu_s = median(setup_cpu);
    e.op_cpu_s = eval_cpu;
    e.cpu_per_ok_s = ok == 0 ? 0.0 : loop_cpu / static_cast<double>(ok);
    e.peak_rss_mb = rss;
    e.ok_frac = static_cast<double>(ok) / static_cast<double>(evals.size());
    r.metrics = end_to_end_metrics(e);
    return r;
  }

  // Traced run: per-layer metrics from the replays.
  std::printf("trace: replay loglik bit-identical and work counts equal to evaluate: %s\n",
              replay_exact ? "true" : "false");
  auto med = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const LayerSample& s : layers) v.push_back(s.*field);
    return median(v);
  };
  const LayerSample& s0 = layers.front();
  const double nd = static_cast<double>(w.n);
  double wall_sum = 0.0;
  for (const double v : walls) wall_sum += v;
  std::vector<double> cover;
  for (const LayerSample& s : layers) cover.push_back(s.span_sum_s / s.total_s);

  Layers l;
  l.assemble_s = med(&LayerSample::assemble_s);
  l.assemble_cpu_s = med(&LayerSample::assemble_cpu);
  l.cov_elems = static_cast<double>(stored_elements(w.n, w.tile));
  l.compress_s = med(&LayerSample::compress_s);
  l.compress_cpu_s = med(&LayerSample::compress_cpu);
  l.tiles_compressed = static_cast<double>(counts0.compressed);
  l.tiles_kept_lr = static_cast<double>(s0.kept_lr);
  l.band = static_cast<double>(s0.band);
  l.rank_mean = s0.rank_mean;
  l.policy_s = med(&LayerSample::policy_s);
  l.tiles_fp64 = static_cast<double>(s0.fp64);
  l.tiles_fp32 = static_cast<double>(s0.fp32);
  l.tiles_fp16 = static_cast<double>(s0.fp16);
  l.factorize_s = med(&LayerSample::factorize_s);
  l.factorize_cpu_s = med(&LayerSample::factorize_cpu);
  l.factorize_flops = nd * nd * nd / 3.0;  // computed: dense Cholesky flops
  l.loglik_s = med(&LayerSample::loglik_s);
  l.tasks = static_cast<double>(s0.tasks);
  l.overhead_frac = med(&LayerSample::total_s) / eval_wall - 1.0;
  l.span_cover_frac = median(cover);
  l.setup_wall_s = median(setup_wall);
  l.eval_wall_s = eval_wall;
  // A closed loop yields far fewer than the 100 samples the tail rule needs
  // to reach p90, so the tail of an MLE run is its slowest evaluation.
  l.tail_s = wall_max;
  l.max_rps = static_cast<double>(walls.size()) / wall_sum;
  std::printf("trace: layer spans cover %.4f of the replayed evaluation; overhead %.4f\n",
              l.span_cover_frac, l.overhead_frac);
  const std::string path = out_dir + "/perfbench-spans-" + w.name + ".json";
  tracer.write(path);
  std::printf("trace: spans written to %s\n", path.c_str());
  r.metrics = layer_metrics(l);
  return r;
}

// ---------------------------------------------------------------------------
// krige_serve

constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kPointsPerRequest = 8;
constexpr double kBaseRate = 20.0;       // req/s, about 40% of capacity
constexpr double kLatencyLimit = 0.100;  // s, on the tail percentile
constexpr double kBacklogGrowth = 0.025; // s, last-quarter minus first-quarter median

struct Request {
  std::vector<Location> points;
};

std::vector<Request> make_pool(std::uint64_t seed) {
  gsx::Rng rng(seed * 0x2545f4914f6cdd1dull + 0x6b72);
  std::vector<Request> pool(kPoolSize);
  for (Request& q : pool) {
    q.points.resize(kPointsPerRequest);
    for (Location& l : q.points) l = Location{rng.uniform(), rng.uniform(), 0.0};
  }
  return pool;
}

struct Answer {
  std::size_t pool_index = 0;
  bool ok = false;
  std::vector<double> mean, variance;
};

struct OpenLoop {
  std::vector<double> latencies;  ///< completed requests, in send order
  std::vector<Answer> answers;    ///< every request sent, in send order
  std::size_t sent = 0, ok = 0, failed = 0;
  double max_lateness = 0.0;
  double cpu = 0.0;
  std::vector<double> queue_s, service_s;  ///< engine-reported, completed requests
  double batch_sum = 0.0;
  bool aborted = false;           ///< stopped sending: backlog far past the limit
};

/// Send `rate` req/s for `duration` seconds on a fixed schedule, whatever the
/// engine's progress, and time each request from its due send time.
OpenLoop open_loop(gsx::serve::KrigingEngine& engine,
                   const std::shared_ptr<const gsx::serve::LoadedModel>& model,
                   const std::vector<Request>& pool, double rate, double duration,
                   std::size_t& next_request) {
  struct InFlight {
    double due;
    std::size_t pool_index;
    std::future<gsx::serve::PredictOutcome> fut;
  };
  OpenLoop out;
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(rate * duration));
  // Far past the limit the probe can only fail; stop early instead of
  // queueing seconds of work (no request is ever refused this way).
  const std::size_t abort_outstanding = static_cast<std::size_t>(rate * 0.5) + 8;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done_sending = false;
  std::atomic<std::size_t> completed{0};
  out.latencies.reserve(n);
  out.answers.reserve(n);

  const double c0 = cpu_now();
  const double start = wall_now() + 0.002;
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return !queue.empty() || done_sending; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      gsx::serve::PredictOutcome o = f.fut.get();
      const double done = wall_now();
      Answer a;
      a.pool_index = f.pool_index;
      a.ok = o.ok;
      if (o.ok) {
        out.latencies.push_back(perfbench::open_loop_latency(f.due, done));
        a.mean = std::move(o.mean);
        a.variance = std::move(o.variance);
        out.queue_s.push_back(o.queue_seconds);
        out.service_s.push_back(o.assemble_seconds + o.solve_seconds);
        out.batch_sum += static_cast<double>(o.batched_with);
      } else {
        std::printf("FAIL: request refused or failed: %s\n", o.error.c_str());
      }
      out.answers.push_back(std::move(a));
      completed.fetch_add(1);
    }
  });
  auto finish_collector = [&] {
    {
      std::lock_guard lk(mu);
      done_sending = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const double due = perfbench::due_time(start, i, rate);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due))));
      out.max_lateness = std::max(out.max_lateness, wall_now() - due);
      if (i - completed.load() > abort_outstanding) {
        out.aborted = true;
        break;
      }
      const std::size_t pi = next_request++ % pool.size();
      auto fut = engine.submit(model, pool[pi].points, true);
      {
        std::lock_guard lk(mu);
        queue.push_back(InFlight{due, pi, std::move(fut)});
      }
      cv.notify_one();
      ++out.sent;
    }
  } catch (...) {
    finish_collector();
    throw;
  }
  finish_collector();
  out.cpu = cpu_now() - c0;
  for (const Answer& a : out.answers) (a.ok ? out.ok : out.failed) += 1;
  return out;
}

bool probe_passes(const OpenLoop& o) {
  return !o.aborted &&
         perfbench::meets_limit(o.latencies, o.failed, kLatencyLimit, kBacklogGrowth);
}

RunResult run_krige(std::uint64_t seed, double seconds, bool trace, const std::string& out_dir) {
  const MleWorkload& w = kMleWorkloads[0];  // the mle_mp model, served
  const Problem p = make_problem(w.n, seed);
  const auto theta = make_thetas(seed, false)[0];
  const std::vector<Request> pool = make_pool(seed);
  const std::string ckpt = out_dir + "/perfbench-krige-" + std::to_string(seed) + ".ckpt";
  {
    const gsx::core::GsxModel gm(make_kernel(theta), mle_config(w));
    gsx::serve::ModelCheckpoint ck;
    ck.kernel = "matern";
    ck.theta.assign(theta.begin(), theta.end());
    ck.config = gm.config();
    ck.train_locs = p.locs;
    ck.z_train = p.z;
    ck.factor = gm.factor_at(ck.theta, p.locs);
    gsx::serve::save_model_checkpoint(ckpt, ck);
  }

  // Set-up: checkpoint load plus engine start, repeated.
  std::vector<double> setup_cpu, setup_wall;
  std::shared_ptr<const gsx::serve::LoadedModel> model;
  std::unique_ptr<gsx::serve::KrigingEngine> engine;
  for (int k = 0; k < 9; ++k) {
    engine.reset();
    model.reset();
    const double t0 = wall_now();
    const double c0 = cpu_now();
    model = gsx::serve::LoadedModel::from_checkpoint("soil", ckpt);
    engine = std::make_unique<gsx::serve::KrigingEngine>(gsx::serve::EngineConfig{});
    setup_cpu.push_back(cpu_now() - c0);
    setup_wall.push_back(wall_now() - t0);
  }
  std::filesystem::remove(ckpt);

  RunResult r;
  std::vector<Answer> answers;
  std::size_t next_request = 0;
  const HostTicks h0 = read_host_ticks();
  double max_lateness = 0.0;
  auto keep = [&](OpenLoop& o) {
    max_lateness = std::max(max_lateness, o.max_lateness);
    for (Answer& a : o.answers) answers.push_back(std::move(a));
  };

  auto print_rate = [](const OpenLoop& o) {
    const perfbench::Tail tail = perfbench::tail_latency(o.latencies, o.failed);
    std::printf("rate %.1f req/s: sent=%zu ok=%zu failed=%zu p50=%.3f ms tail=p%.1f %.3f ms "
                "over %zu samples; engine queue p50=%.3f ms service p50=%.3f ms\n",
                kBaseRate, o.sent, o.ok, o.failed, 1e3 * median(o.latencies), tail.percentile,
                1e3 * tail.value, tail.samples, 1e3 * median(o.queue_s),
                1e3 * median(o.service_s));
    return tail;
  };

  EndToEnd e;
  Layers l;
  if (!trace) {
    // CPU per request at a fixed 20 req/s, about 40% of capacity.
    OpenLoop base = open_loop(*engine, model, pool, kBaseRate, seconds, next_request);
    print_rate(base);
    std::printf("requests: sent=%zu ok=%zu rejected=%zu\n", base.sent, base.ok, base.failed);
    e.setup_cpu_s = median(setup_cpu);
    e.op_cpu_s = e.cpu_per_ok_s = base.ok == 0 ? 0.0 : base.cpu / static_cast<double>(base.ok);
    e.peak_rss_mb = peak_rss_mb();
    keep(base);
  } else {
    // The serve calls timed directly on the same request pool, untraced and
    // then traced.
    Tracer tracer(true);
    Tracer untraced(false);
    std::vector<double> cross, fwd, krige, krige_plain, cross_cpu, cover;
    const std::size_t reps = 2 * pool.size();
    for (std::size_t i = 0; i < reps; ++i) {
      const Request& q = pool[i % pool.size()];
      Timed plain(untraced, "serve.tile_krige_solved", -1, i);
      (void)gsx::cholesky::tile_krige_solved(*model->kernel, model->factor, model->y_solved,
                                             model->train_locs, q.points, true, 1);
      plain.stop();
      krige_plain.push_back(plain.wall());
    }
    for (std::size_t i = 0; i < reps; ++i) {
      const Request& q = pool[i % pool.size()];
      const long root = tracer.begin("request", -1, i + 1);
      Timed c(tracer, "geostat.cross_covariance", root, i + 1);
      gsx::la::Matrix<double> b =
          gsx::geostat::cross_covariance(*model->kernel, model->train_locs, q.points);
      c.stop();
      Timed f(tracer, "cholesky.tile_forward_solve_multi", root, i + 1);
      gsx::cholesky::tile_forward_solve_multi(model->factor, b.view(), 1);
      f.stop();
      Timed k(tracer, "serve.tile_krige_solved", root, i + 1);
      (void)gsx::cholesky::tile_krige_solved(*model->kernel, model->factor, model->y_solved,
                                             model->train_locs, q.points, true, 1);
      k.stop();
      tracer.end(root);
      cover.push_back((c.wall() + f.wall() + k.wall()) / tracer.duration(root));
      cross.push_back(c.wall());
      cross_cpu.push_back(c.cpu());
      fwd.push_back(f.wall());
      krige.push_back(k.wall());
    }
    const std::string path = out_dir + "/perfbench-spans-krige_serve.json";
    tracer.write(path);
    std::printf("trace: spans written to %s\n", path.c_str());

    // Latency at 20 req/s over three windows placed before, between and after
    // the max_rps probes, so a burst of host interference weighs on a smaller
    // share of the samples.
    constexpr int kBaseWindows = 3;
    OpenLoop base;
    auto base_window = [&] {
      OpenLoop o = open_loop(*engine, model, pool, kBaseRate, 0.4 * seconds / kBaseWindows,
                             next_request);
      const bool pass = probe_passes(o);
      base.latencies.insert(base.latencies.end(), o.latencies.begin(), o.latencies.end());
      base.queue_s.insert(base.queue_s.end(), o.queue_s.begin(), o.queue_s.end());
      base.service_s.insert(base.service_s.end(), o.service_s.begin(), o.service_s.end());
      base.sent += o.sent;
      base.ok += o.ok;
      base.failed += o.failed;
      base.batch_sum += o.batch_sum;
      keep(o);
      return pass;
    };

    // max_rps: bisection on the offered rate over the rest of the budget,
    // bracketed by the base rate and six times it (capacity is ~50-90 req/s
    // on a 4-vCPU host); six halvings resolve it to ~1.6 req/s.
    constexpr int kSteps = 6;
    const double probe_s = 0.6 * seconds / kSteps;
    const bool base_passes = base_window();
    double lo = base_passes ? kBaseRate : 1.0;
    double hi = base_passes ? 6.0 * kBaseRate : kBaseRate;
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) base_window();
      const double rate = 0.5 * (lo + hi);
      OpenLoop o = open_loop(*engine, model, pool, rate, probe_s, next_request);
      const bool pass = probe_passes(o);
      std::printf("probe %.2f req/s: sent=%zu ok=%zu %s%s\n", rate, o.sent, o.ok,
                  pass ? "meets limit" : "misses limit", o.aborted ? " (aborted)" : "");
      keep(o);
      (pass ? lo : hi) = rate;
    }
    base_window();
    const perfbench::Tail tail = print_rate(base);
    l.assemble_s = median(cross);
    l.assemble_cpu_s = median(cross_cpu);
    l.cov_elems = static_cast<double>(w.n * kPointsPerRequest);
    l.cross_ms = 1e3 * median(cross);
    l.fwd_solve_ms = 1e3 * median(fwd);
    l.krige_ms = 1e3 * median(krige);
    l.queue_ms = 1e3 * median(base.queue_s);
    l.batch_mean = base.ok == 0 ? 0.0 : base.batch_sum / static_cast<double>(base.ok);
    l.rejected = static_cast<double>(base.failed);
    l.overhead_frac = median(krige) / median(krige_plain) - 1.0;
    l.span_cover_frac = median(cover);
    l.setup_wall_s = median(setup_wall);
    l.eval_wall_s = median(base.latencies);
    l.tail_s = tail.valid ? tail.value : 0.0;
    l.max_rps = lo;
  }
  const HostTicks h1 = read_host_ticks();
  engine->drain();
  const gsx::serve::EngineStats st = engine->stats();
  std::printf("host: steal_frac=%.4f generator_max_lateness_s=%.6f\n", steal_frac(h0, h1),
              max_lateness);
  std::printf("engine: accepted=%llu completed=%llu rejected=%llu batches=%llu\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.rejected_queue_full + st.rejected_deadline),
              static_cast<unsigned long long>(st.batches));

  // Oracle: dense FP64 kriging through one dense Cholesky of Sigma_nn.
  const auto kernel = make_kernel(theta);
  gsx::la::Matrix<double> chol = gsx::geostat::covariance_matrix(*kernel, p.locs);
  if (gsx::la::potrf<double>(gsx::la::Uplo::Lower, chol.view()) != 0)
    throw std::runtime_error("krige oracle: covariance not SPD");
  std::vector<gsx::geostat::KrigingResult> ref(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i)
    ref[i] = gsx::geostat::krige_with_cholesky(*kernel, chol, p.locs, p.z, pool[i].points);
  std::size_t ok = 0;
  double worst = 0.0;
  for (const Answer& a : answers) {
    bool good = a.ok && a.mean.size() == kPointsPerRequest &&
                a.variance.size() == kPointsPerRequest;
    for (std::size_t j = 0; good && j < kPointsPerRequest; ++j) {
      const auto& e = ref[a.pool_index];
      const double dm = std::fabs(a.mean[j] - e.mean[j]);
      const double dv = std::fabs(a.variance[j] - e.variance[j]);
      worst = std::max({worst, dm, dv});
      good = dm <= kKrigeTol * std::max(1.0, std::fabs(e.mean[j])) &&
             dv <= kKrigeTol * std::max(1.0, std::fabs(e.variance[j]));
    }
    if (good) ++ok;
  }
  std::printf("oracle: %zu of %zu requests match dense kriging (max abs diff %.3g)\n", ok,
              answers.size(), worst);
  r.attempted = answers.size();
  r.failed = answers.size() - ok;
  r.correct = r.failed == 0;
  e.ok_frac = static_cast<double>(ok) / static_cast<double>(answers.size());
  r.metrics = trace ? layer_metrics(l) : end_to_end_metrics(e);
  return r;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in --key value pairs");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    pin_environment();
    std::filesystem::create_directories(args.out_dir);
    RunResult r;
    if (args.workload == "krige_serve") {
      r = run_krige(args.seed, args.seconds, args.trace, args.out_dir);
    } else {
      const MleWorkload* w = nullptr;
      for (const MleWorkload& m : kMleWorkloads)
        if (args.workload == m.name) w = &m;
      if (w == nullptr) throw std::invalid_argument("unknown workload '" + args.workload + "'");
      r = run_mle(*w, args.seed, args.seconds, args.trace, args.out_dir);
    }
    print_result(r.correct, r.attempted, r.failed, r.metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsx_perfbench: %s\n", e.what());
    return 1;
  }
}
