// The traced pass's layer replay: the calls svd()/svd_batch() make,
// issued one by one through each layer's public API with a span around
// each, plus the tallies and per-layer metrics computed from them.
#pragma once

#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "harness.hpp"
#include "heterosvd.hpp"
#include "jacobi/hestenes.hpp"

namespace perfbench {

// One replay of planned_config -> HeteroSvdAccelerator ctor -> run ->
// derive_v for a batch (a single matrix is a batch of one).
struct Replay {
  hsvd::accel::HeteroSvdConfig config;
  hsvd::accel::RunResult run;
  std::vector<hsvd::linalg::MatrixF> v;  // derive_v per task (empty if failed)
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  double replay_s = 0.0;  // plan + build + run + derive_v
};

// A batch of one replays svd(): one derive_v call with options.threads.
// A larger batch replays svd_batch(): the derive_v post-pass fans the
// tasks out over the pool, one thread each. Each derive_v call's wall
// time is appended to `derive_call_s`.
Replay replay_accelerator(SpanRecorder& spans, int op,
                          const std::vector<hsvd::linalg::MatrixF>& batch,
                          const hsvd::SvdOptions& options,
                          std::vector<double>* derive_call_s);

// The host Jacobi doing the accelerator's work: same block size (P_eng),
// shifting ring, the accelerator's sweep count, no V. Recorded as
// "jacobi.math".
hsvd::jacobi::HestenesResult jacobi_reference(
    SpanRecorder& spans, int op, const hsvd::linalg::MatrixF& a,
    const hsvd::accel::HeteroSvdConfig& config, int sweeps);

// Replay fidelity: the replayed task must reproduce the facade result
// bit for bit (sigma, V, iterations, status, simulated seconds). Returns
// an empty string on a match, else what differs.
std::string fidelity_mismatch(const hsvd::Svd& facade,
                              const hsvd::accel::TaskResult& task,
                              const hsvd::linalg::MatrixF& v);

// The Jacobi reference agrees with the accelerator's sigma to within the
// verifier's residual bound (relative to sigma_max). Empty on a match.
std::string reference_mismatch(const hsvd::accel::TaskResult& task,
                               const hsvd::jacobi::HestenesResult& ref,
                               std::size_t cols, double precision);

// Exact model outputs of the replayed runs inside the fingerprint
// prefix: identical for a given seed on any host, and across commits
// that do not change the modelled design.
struct Tally {
  hsvd::versal::ArrayStats stats;
  std::uint64_t sweeps = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ok_tasks = 0;
  std::uint64_t not_converged = 0;
  std::uint64_t watchdog_stalls = 0;
  double sim_accelerator_s = 0.0;
  double sim_batch_s = 0.0;
  std::uint64_t sigma_digest = 0xcbf29ce484222325ULL;

  void add(const hsvd::accel::RunResult& run);
};

// Facade-level counts over the same prefix (from the returned Svd).
struct FacadeTally {
  std::uint64_t verify_checked = 0;
  std::uint64_t verify_escalated = 0;
  std::uint64_t dispatch_classic = 0;  // un-routed AIE path (backend "")
  std::uint64_t dispatch_cpu = 0;
  std::uint64_t sigma_digest = 0xcbf29ce484222325ULL;

  void add(const hsvd::Svd& result);
};

// Per-layer metrics shared by every workload. Times come from the spans
// of the whole traced pass; counts and ratios from the prefix tallies.
struct LayerInputs {
  const SpanRecorder* spans = nullptr;
  Tally all;     // every replayed run (pairs with the run wall/CPU times)
  Tally prefix;  // the fingerprint prefix only (exact, seed-determined)
  FacadeTally facade;  // prefix
  double run_cpu_s = 0.0;       // process CPU across every run() call
  double run_wall_s = 0.0;      // wall across every run() call
  std::vector<double> facade_s;     // per facade call: wall minus replay
  std::vector<double> derive_v_s;   // per derive_v call
  double obs_plain_s = 0.0;     // svd() wall without an observer
  double obs_traced_s = 0.0;    // same inputs with a tracing ObsContext
};
void report_layer_metrics(Report& report, const LayerInputs& in);

// Serve-layer per-layer metrics every workload reports (zero where the
// workload runs no server).
struct ServeLayer {
  double cache_hit_ratio = 0.0;
  double batch_fill = 0.0;
  double peak_queue_depth = 0.0;
  double shed = 0.0;
  double expired = 0.0;
  double retries = 0.0;
  double preemptions = 0.0;
  // Simulator (accelerator run) share of worker busy time.
  double sim_busy_share = 0.0;
};
void report_serve_layer(Report& report, const ServeLayer& serve);

// Fresh router scoring of one shape (memo miss), recorded as
// "backend.route".
void time_route(SpanRecorder& spans, int op, std::size_t rows,
                std::size_t cols, const hsvd::SvdOptions& options);

// Exact simulated statistics of the prefix, for compare.py.
void fingerprint_tallies(Report& report, const Tally& tally,
                         const FacadeTally& facade);

}  // namespace perfbench
