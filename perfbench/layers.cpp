#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "backend/backends.hpp"
#include "backend/router.hpp"
#include "common/thread_pool.hpp"
#include "dse/explorer.hpp"
#include "jacobi/block.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using hsvd::linalg::MatrixF;

Replay replay_accelerator(SpanRecorder& spans, int op,
                          const std::vector<MatrixF>& batch,
                          const hsvd::SvdOptions& options,
                          std::vector<double>* derive_call_s) {
  Replay out;
  const double start = now_s();
  const MatrixF& first = batch.front();
  {
    ScopedSpan span(spans, "dse.plan", op);
    out.config = hsvd::planned_config(first.rows(), first.cols(),
                                      static_cast<int>(batch.size()), options);
  }
  std::unique_ptr<hsvd::accel::HeteroSvdAccelerator> acc;
  {
    ScopedSpan span(spans, "accel.build", op);
    acc = std::make_unique<hsvd::accel::HeteroSvdAccelerator>(out.config);
  }
  {
    ScopedSpan span(spans, "accel.run", op);
    const double cpu0 = process_cpu_s();
    const double wall0 = now_s();
    out.run = acc->run(batch);
    out.run_wall_s = now_s() - wall0;
    out.run_cpu_s = process_cpu_s() - cpu0;
  }
  out.v.resize(batch.size());
  if (options.want_v) {
    ScopedSpan span(spans, "hsvd.derive_v", op);
    std::vector<double> call_s(batch.size(), 0.0);
    const auto derive = [&](std::size_t i, int threads) {
      const auto& task = out.run.tasks[i];
      if (!task.ok()) return;
      const double t0 = now_s();
      out.v[i] = hsvd::derive_v(batch[i], task.u, task.sigma, threads);
      call_s[i] = now_s() - t0;
    };
    if (batch.size() == 1) {
      // svd(): one derive_v call with the caller's thread budget.
      derive(0, options.threads);
    } else {
      // svd_batch(): the post-pass fans the tasks out over the pool.
      const int width = hsvd::common::ThreadPool::resolve_threads(options.threads);
      hsvd::common::ThreadPool::shared().parallel_for(
          batch.size(), width, [&](std::size_t i) { derive(i, 1); });
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (out.run.tasks[i].ok()) derive_call_s->push_back(call_s[i]);
    }
  }
  out.replay_s = now_s() - start;
  return out;
}

hsvd::jacobi::HestenesResult jacobi_reference(
    SpanRecorder& spans, int op, const MatrixF& a,
    const hsvd::accel::HeteroSvdConfig& config, int sweeps) {
  hsvd::jacobi::BlockOptions opts;
  opts.block_cols = config.p_eng;
  opts.ordering = hsvd::jacobi::OrderingKind::kShiftingRing;
  opts.precision = config.precision.value_or(1e-6);
  opts.fixed_sweeps = std::max(1, sweeps);
  opts.accumulate_v = false;
  // Zero-pad like the accelerator front end (whole blocks of P_eng
  // columns); zero rows keep the engine's rows >= cols precondition.
  // Zero columns are fixed points and sort last with sigma = 0.
  const std::size_t cols = config.padded_cols();
  const std::size_t rows = std::max(a.rows(), cols);
  MatrixF padded;
  if (rows != a.rows() || cols != a.cols()) {
    padded = MatrixF(rows, cols);
    for (std::size_t c = 0; c < a.cols(); ++c) {
      for (std::size_t r = 0; r < a.rows(); ++r) padded(r, c) = a(r, c);
    }
  }
  ScopedSpan span(spans, "jacobi.math", op);
  return hsvd::jacobi::block_hestenes_svd(padded.empty() ? a : padded, opts);
}

std::string fidelity_mismatch(const hsvd::Svd& facade,
                              const hsvd::accel::TaskResult& task,
                              const MatrixF& v) {
  if (facade.status != task.status) return "status differs";
  if (facade.iterations != task.iterations) {
    return "iterations " + std::to_string(facade.iterations) + " vs replay " +
           std::to_string(task.iterations);
  }
  if (!same_bits(facade.sigma, task.sigma)) return "sigma bits differ";
  if (!same_bits(facade.u, task.u)) return "U bits differ";
  if (!same_bits(facade.v, v)) return "V bits differ";
  if (facade.accelerator_seconds != task.latency_seconds()) {
    return "simulated seconds differ";
  }
  return {};
}

std::string reference_mismatch(const hsvd::accel::TaskResult& task,
                               const hsvd::jacobi::HestenesResult& ref,
                               std::size_t cols, double precision) {
  if (task.status != hsvd::SvdStatus::kOk) return {};
  if (ref.sigma.size() < task.sigma.size()) return "reference sigma too short";
  const double scale = task.sigma.empty() ? 0.0 : task.sigma.front();
  const double tol =
      hsvd::verify::ResultVerifier::residual_bound(cols, precision) * scale;
  for (std::size_t i = 0; i < task.sigma.size(); ++i) {
    const double diff = std::abs(static_cast<double>(task.sigma[i]) - ref.sigma[i]);
    if (diff > tol) {
      return "jacobi reference sigma[" + std::to_string(i) + "] off by " +
             std::to_string(diff) + " (tolerance " + std::to_string(tol) + ")";
    }
  }
  return {};
}

void Tally::add(const hsvd::accel::RunResult& run) {
  stats.neighbour_transfers += run.stats.neighbour_transfers;
  stats.dma_transfers += run.stats.dma_transfers;
  stats.dma_bytes += run.stats.dma_bytes;
  stats.stream_packets += run.stats.stream_packets;
  stats.stream_bytes += run.stats.stream_bytes;
  stats.kernel_invocations += run.stats.kernel_invocations;
  sim_batch_s += run.batch_seconds;
  for (const auto& task : run.tasks) {
    ++tasks;
    if (task.status == hsvd::SvdStatus::kOk) ++ok_tasks;
    if (task.status == hsvd::SvdStatus::kNotConverged) ++not_converged;
    if (task.watchdog_stalled) ++watchdog_stalls;
    sweeps += static_cast<std::uint64_t>(task.iterations);
    sim_accelerator_s += task.latency_seconds();
    sigma_digest = fnv1a_bits(task.sigma, sigma_digest);
  }
}

void FacadeTally::add(const hsvd::Svd& result) {
  if (result.verify_report.checked) ++verify_checked;
  if (result.verify_report.escalated()) ++verify_escalated;
  if (result.backend.empty()) ++dispatch_classic;
  if (result.backend == "cpu") ++dispatch_cpu;
  sigma_digest = fnv1a_bits(result.sigma, sigma_digest);
}

void report_layer_metrics(Report& report, const LayerInputs& in) {
  const SpanRecorder& spans = *in.spans;
  const auto median_ms = [&](const char* name) {
    return 1e3 * median(spans.durations(name));
  };
  const Tally& all = in.all;
  const Tally& pre = in.prefix;
  const double math_s = sum(spans.durations("jacobi.math"));
  report.metric("dse.plan_ms", median_ms("dse.plan"), "ms");
  report.metric("accel.build_ms", median_ms("accel.build"), "ms");
  report.metric("accel.run_ms", median_ms("accel.run"), "ms");
  report.metric("accel.host_ns_per_kernel",
                all.stats.kernel_invocations > 0
                    ? 1e9 * in.run_wall_s /
                          static_cast<double>(all.stats.kernel_invocations)
                    : 0.0,
                "ns");
  report.metric("accel.sim_overhead_ratio",
                math_s > 0.0 ? in.run_wall_s / math_s : 0.0, "ratio");
  report.metric("accel.cpu_per_wall",
                in.run_wall_s > 0.0 ? in.run_cpu_s / in.run_wall_s : 0.0,
                "ratio");
  report.metric("accel.ok_ratio",
                pre.tasks > 0 ? static_cast<double>(pre.ok_tasks) /
                                    static_cast<double>(pre.tasks)
                              : 0.0,
                "ratio");
  report.metric("accel.not_converged", static_cast<double>(pre.not_converged),
                "count");
  report.metric("accel.watchdog_stalls",
                static_cast<double>(pre.watchdog_stalls), "count");
  report.metric("jacobi.math_ms", median_ms("jacobi.math"), "ms");
  report.metric("jacobi.sweeps", static_cast<double>(pre.sweeps), "count");
  report.metric("versal.kernel_invocations",
                static_cast<double>(pre.stats.kernel_invocations), "count");
  report.metric("versal.dma_transfers",
                static_cast<double>(pre.stats.dma_transfers), "count");
  report.metric("versal.dma_bytes", static_cast<double>(pre.stats.dma_bytes),
                "bytes");
  report.metric("versal.neighbour_transfers",
                static_cast<double>(pre.stats.neighbour_transfers), "count");
  report.metric("versal.stream_packets",
                static_cast<double>(pre.stats.stream_packets), "count");
  report.metric("versal.stream_bytes",
                static_cast<double>(pre.stats.stream_bytes), "bytes");
  report.metric("sim.accelerator_s", pre.sim_accelerator_s, "sim_s");
  report.metric("sim.batch_s", pre.sim_batch_s, "sim_s");
  report.metric("sim.tasks_per_s",
                pre.sim_batch_s > 0.0
                    ? static_cast<double>(pre.tasks) / pre.sim_batch_s
                    : 0.0,
                "1/sim_s");
  report.metric("hsvd.derive_v_ms", 1e3 * median(in.derive_v_s), "ms");
  report.metric("hsvd.facade_ms", 1e3 * median(in.facade_s), "ms");
  report.metric("verify.check_ms", median_ms("verify.check"), "ms");
  report.metric("verify.checked", static_cast<double>(in.facade.verify_checked),
                "count");
  report.metric("verify.escalated",
                static_cast<double>(in.facade.verify_escalated), "count");
  report.metric("backend.route_ms", median_ms("backend.route"), "ms");
  report.metric("backend.dispatch.classic",
                static_cast<double>(in.facade.dispatch_classic), "count");
  report.metric("backend.dispatch.cpu",
                static_cast<double>(in.facade.dispatch_cpu), "count");
  report.metric("obs.trace_overhead_ratio",
                in.obs_plain_s > 0.0 ? in.obs_traced_s / in.obs_plain_s : 0.0,
                "ratio");
}

void report_serve_layer(Report& report, const ServeLayer& serve) {
  report.metric("serve.cache_hit_ratio", serve.cache_hit_ratio, "ratio");
  report.metric("serve.batch_fill", serve.batch_fill, "ratio");
  report.metric("serve.peak_queue_depth", serve.peak_queue_depth, "count");
  report.metric("serve.shed", serve.shed, "count");
  report.metric("serve.expired", serve.expired, "count");
  report.metric("serve.retries", serve.retries, "count");
  report.metric("serve.preemptions", serve.preemptions, "count");
  report.metric("serve.sim_busy_share", serve.sim_busy_share, "share");
}

void time_route(SpanRecorder& spans, int op, std::size_t rows,
                std::size_t cols, const hsvd::SvdOptions& options) {
  // A fresh router per call, so every timing is the scoring path (the
  // router memoizes decisions per shape and SLO class).
  hsvd::backend::Router router(
      hsvd::backend::make_backends(hsvd::dse::DesignSpaceExplorer{}));
  ScopedSpan span(spans, "backend.route", op);
  router.route(rows, cols, hsvd::backend::Slo{}, options);
}

void fingerprint_tallies(Report& report, const Tally& tally,
                         const FacadeTally& facade) {
  report.fingerprint("versal.kernel_invocations", tally.stats.kernel_invocations);
  report.fingerprint("versal.dma_transfers", tally.stats.dma_transfers);
  report.fingerprint("versal.dma_bytes", tally.stats.dma_bytes);
  report.fingerprint("versal.neighbour_transfers", tally.stats.neighbour_transfers);
  report.fingerprint("versal.stream_packets", tally.stats.stream_packets);
  report.fingerprint("versal.stream_bytes", tally.stats.stream_bytes);
  report.fingerprint("jacobi.sweeps", tally.sweeps);
  report.fingerprint("accel.tasks", tally.tasks);
  report.fingerprint("accel.ok_tasks", tally.ok_tasks);
  report.fingerprint("accel.not_converged", tally.not_converged);
  report.fingerprint("accel.watchdog_stalls", tally.watchdog_stalls);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", tally.sim_accelerator_s);
  report.fingerprint("sim.accelerator_s", buf);
  std::snprintf(buf, sizeof buf, "%.17g", tally.sim_batch_s);
  report.fingerprint("sim.batch_s", buf);
  report.fingerprint("accel.sigma_digest", hex64(tally.sigma_digest));
  report.fingerprint("result.sigma_digest", hex64(facade.sigma_digest));
}

}  // namespace perfbench
