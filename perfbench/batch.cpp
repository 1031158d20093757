// batch-throughput: one closed-loop caller of hsvd::svd_batch() on
// same-shape batches of 64x64 Gaussian matrices under the DSE throughput
// objective, with min(4, nproc) host threads.
#include <algorithm>
#include <thread>

#include "layers.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

using hsvd::linalg::MatrixF;

constexpr std::size_t kN = 64;
constexpr std::size_t kBatch = 16;
// A run's corpus (see FirstSolves): this many batches, solved in order
// and then again until --seconds is used up. The first pass always
// completes. The matrices are drawn from kCorpusSeed, the same for every
// workload seed, so every run meets the same convergence-watchdog
// misfires and `failed` is one exact count that any two runs, of any
// seeds or commits, can compare. The workload seed deals the matrices
// into batches.
constexpr int kCorpusBatches = 6;
constexpr std::uint64_t kCorpusSeed = 1;

// One svd_batch() call: its matrices and their indices in the corpus.
struct Batch {
  std::vector<std::size_t> index;
  std::vector<MatrixF> a;
};

int batch_threads() {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(4, nproc);
}

hsvd::SvdOptions batch_options() {
  hsvd::SvdOptions options;
  options.threads = batch_threads();
  return options;
}

// The seeded deal: a shuffled order of the whole corpus, cut into
// batches of kBatch.
std::vector<std::size_t> deal(std::uint64_t seed) {
  std::vector<std::size_t> order(kCorpusBatches * kBatch);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Gen gen(mix(seed, 0xba7c4ULL));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[gen.below(i)]);
  }
  return order;
}

Batch make_batch(const std::vector<std::size_t>& order, int b) {
  Batch batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::size_t index = order[b * kBatch + i];
    batch.index.push_back(index);
    batch.a.push_back(gaussian_matrix(kN, kN, mix(kCorpusSeed, index)));
  }
  return batch;
}

// The deal and the first batch's inputs, plus one warm-up solve that
// starts the pool at full width.
void setup_once(std::uint64_t seed, std::vector<std::size_t>* order, Batch* first) {
  *order = deal(seed);
  *first = make_batch(*order, 0);
  hsvd::svd(warmup_matrix(kN, kN), batch_options());
}

void timed_pass(const Args& args, Report& report) {
  const hsvd::SvdOptions options = batch_options();
  const double limit_ms = args.limit_ms();
  std::vector<std::size_t> order;
  std::vector<Batch> corpus(1);
  measure_setup(report, true, [&] { setup_once(args.seed, &order, &corpus[0]); });
  Gate gate(options.precision);
  FirstSolves firsts(gate);
  FacadeTally prefix;
  Reference reference;
  std::vector<double> call_ms;
  int tasks = 0;
  int ok = 0;
  int met = 0;
  double elapsed = 0.0;
  double cpu_s = 0.0;
  std::vector<std::vector<double>> batch_cpu_s(kCorpusBatches);
  double sim_batch_s = 0.0;
  hsvd::accel::HeteroSvdConfig config;
  for (int k = 0; k < kCorpusBatches || elapsed < args.seconds; ++k) {
    const int b = k % kCorpusBatches;
    if (b == static_cast<int>(corpus.size())) corpus.push_back(make_batch(order, b));
    const Batch& in = corpus[b];
    const std::vector<MatrixF>& batch = in.a;
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    hsvd::BatchSvd out = hsvd::svd_batch(batch, options);
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - c0;
    cpu_s += cpu;
    batch_cpu_s[b].push_back(cpu);
    elapsed += wall;
    call_ms.push_back(1e3 * wall);
    sim_batch_s += out.batch_seconds;
    config = out.config;
    // Scored outside the timed region.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++tasks;
      if (firsts.score(in.index[i], batch[i], out.results[i])) {
        ++ok;
        if (1e3 * wall <= limit_ms) ++met;
      }
      if (k == 0) prefix.add(out.results[i]);
    }
    reference.sample(4);
  }
  // Throughput over one pass of the corpus, each batch's CPU time the
  // median of its calls: the batches a run repeats then do not re-weight
  // the corpus, and a call slowed by the host counts once at most.
  double pass_cpu_s = 0.0;
  for (const auto& seconds : batch_cpu_s) pass_cpu_s += median(seconds);
  reference.report(report, firsts.attempted() - firsts.failed(), pass_cpu_s);
  report.metric("slo_met_share", static_cast<double>(met) / tasks, "share");
  report.info("ok_per_s", ok / elapsed, "1/s");
  report.info("cpu_per_wall", cpu_s / elapsed, "ratio");
  report.info("latency_ms_p50", quantile(call_ms, 0.5), "ms");
  report.info("latency_ms_p90", quantile(call_ms, 0.9), "ms");
  report.info("batches", static_cast<double>(call_ms.size()), "count");
  report.info("config.p_eng", config.p_eng, "count");
  report.info("config.p_task", config.p_task, "count");
  report.info("sim.tasks_per_s", tasks / sim_batch_s, "1/sim_s");
  report.info("solves", tasks, "count");
  report.attempted = firsts.attempted();
  report.failed = firsts.failed();
  report.correct = !gate.violated();
  report.problems.insert(report.problems.end(), gate.violations().begin(),
                         gate.violations().end());
  report.fingerprint("result.sigma_digest", hex64(prefix.sigma_digest));
}

void traced_pass(const Args& args, Report& report) {
  const hsvd::SvdOptions options = batch_options();
  std::vector<std::size_t> order;
  std::vector<Batch> corpus(1);
  measure_setup(report, false, [&] { setup_once(args.seed, &order, &corpus[0]); });
  Gate gate(options.precision);
  FirstSolves firsts(gate);
  SpanRecorder spans;
  LayerInputs layers;
  layers.spans = &spans;
  double elapsed = 0.0;
  for (int k = 0; k < kCorpusBatches || elapsed < args.seconds; ++k) {
    const int b = k % kCorpusBatches;
    if (b == static_cast<int>(corpus.size())) corpus.push_back(make_batch(order, b));
    const Batch& in = corpus[b];
    const std::vector<MatrixF>& batch = in.a;
    const int op = k;
    const double t0 = now_s();
    const int root = spans.begin("op", op);
    hsvd::BatchSvd out;
    double facade_s = 0.0;
    {
      ScopedSpan span(spans, "hsvd.svd_batch", op);
      out = hsvd::svd_batch(batch, options);
      facade_s = now_s() - t0;
    }
    const Replay replay =
        replay_accelerator(spans, op, batch, options, &layers.derive_v_s);
    std::vector<hsvd::jacobi::HestenesResult> refs;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      refs.push_back(jacobi_reference(spans, op, batch[i], replay.config,
                                      replay.run.tasks[i].iterations));
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t index = in.index[i];
      if (firsts.first(index)) {
        ScopedSpan span(spans, "verify.check", op);
        firsts.score(index, batch[i], out.results[i]);
      } else {
        firsts.score(index, batch[i], out.results[i]);  // a bit compare
      }
    }
    time_route(spans, op, kN, kN, options);
    if (k == 0) {
      // The first batch again with a tracing observer attached.
      hsvd::obs::ObsContext observer;
      observer.enable_tracing();
      hsvd::SvdOptions traced = options;
      traced.observer = &observer;
      ScopedSpan span(spans, "obs.traced_svd_batch", op);
      const double o0 = now_s();
      hsvd::svd_batch(batch, traced);
      layers.obs_traced_s += now_s() - o0;
      layers.obs_plain_s += facade_s;
    }
    spans.end(root);

    std::string mismatch;
    if (out.batch_seconds != replay.run.batch_seconds) {
      mismatch = "simulated batch seconds differ";
    }
    for (std::size_t i = 0; i < batch.size() && mismatch.empty(); ++i) {
      const auto& task = replay.run.tasks[i];
      mismatch = fidelity_mismatch(out.results[i], task, replay.v[i]);
      if (mismatch.empty()) {
        mismatch = reference_mismatch(task, refs[i], kN, options.precision);
      }
      if (!mismatch.empty()) mismatch = "task " + std::to_string(i) + ": " + mismatch;
    }
    if (!mismatch.empty()) {
      report.correct = false;
      report.problems.push_back("replay fidelity, batch " + std::to_string(b) +
                                ": " + mismatch);
    }
    layers.facade_s.push_back(facade_s - replay.replay_s);
    layers.run_wall_s += replay.run_wall_s;
    layers.run_cpu_s += replay.run_cpu_s;
    layers.all.add(replay.run);
    if (k == 0) {
      layers.prefix.add(replay.run);
      for (const auto& result : out.results) layers.facade.add(result);
    }
    elapsed += now_s() - t0;
  }
  report_layer_metrics(report, layers);
  report_serve_layer(report, ServeLayer{});
  fingerprint_tallies(report, layers.prefix, layers.facade);
  report.attempted = firsts.attempted();
  report.failed = firsts.failed();
  if (gate.violated()) report.correct = false;
  report.problems.insert(report.problems.end(), gate.violations().begin(),
                         gate.violations().end());
  if (!spans.write(output_stem(args) + "-spans.json")) {
    report.problems.push_back("could not write the span file");
  }
}

}  // namespace

void run_batch_throughput(const Args& args, Report& report) {
  report.env("threads", std::to_string(batch_threads()));
  report.env("workers", "1");
  report.env("batch", std::to_string(kBatch) + "x" + std::to_string(kN) + "x" +
                          std::to_string(kN));
  if (args.trace) {
    traced_pass(args, report);
  } else {
    timed_pass(args, report);
  }
}

}  // namespace perfbench
