// serve-mixed: open-loop Poisson traffic from one generator thread into a
// QoS SvdServer (two tenants, coalescing, result cache, sampled
// attestation). Phase 1 holds a fixed arrival rate; phase 2 steps the
// rate up to find the highest one that meets the latency limit without
// a growing backlog.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "layers.hpp"
#include "linalg/generators.hpp"
#include "linalg/ops.hpp"
#include "linalg/qr.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using hsvd::linalg::MatrixD;
using hsvd::linalg::MatrixF;
using hsvd::serve::Priority;
using hsvd::serve::Response;
using hsvd::serve::ServeStatus;

// Phase 1 arrival rate (requests per second): about a quarter of the two
// workers' capacity on a 4-core host, so a stretch of slower host does
// not push the queue toward saturation, where latency would swing with
// it. Then the phase-2 ladder.
constexpr double kRate = 20.0;
constexpr double kStepFactor = 1.25;
constexpr double kStepSeconds = 1.5;
// Share of `--seconds` spent in phase 1; phase 2 gets the rest.
constexpr double kPhase1Share = 2.0 / 3.0;
// A step whose queue is deeper than this when its arrivals stop has a
// growing backlog.
constexpr std::size_t kBacklogLimit = 8;
// Distinct requests of phase 1 replayed layer by layer in the traced
// pass; their exact outputs are the fingerprint.
constexpr int kPrefix = 60;
// Period of the reference-kernel samples taken during phase 1.
constexpr std::chrono::milliseconds kReferenceInterval{50};
// How long the collector waits on the oldest outstanding response before
// it polls the others: the resolution of the measured latency.
constexpr std::chrono::milliseconds kPollInterval{1};

int workers() {
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::min(2, nproc);
}

enum class Kind { kAie, kCpu, kTallSkinny, kTruncated };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kAie: return "aie";
    case Kind::kCpu: return "cpu";
    case Kind::kTallSkinny: return "tall-skinny";
    case Kind::kTruncated: return "truncated";
  }
  return "?";
}

struct Spec {
  Kind kind = Kind::kAie;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::uint64_t matrix_seed = 0;
  bool repeat = false;  // exact copy of an earlier request of the stream
};

// The request mix: classic AIE n=32 squares (coalescible) and cpu pins
// at n=64..96 for the interactive tenant; tall-skinny 1024x32 and top-8
// of 256x128 for the bulk tenant; a fifth are exact repeats of an
// earlier request of the same kind (result-cache candidates). The kinds
// are the ones the workload must cover; their shares, the repeat share
// and the tenant weights are assumptions, not measured traffic (see
// README.md). The traced pass measures what the mix costs: each kind's
// share of worker busy time and the simulator's share of it.
constexpr std::array<std::pair<Kind, double>, 4> kMix{{{Kind::kAie, 0.47},
                                                      {Kind::kCpu, 0.29},
                                                      {Kind::kTallSkinny, 0.12},
                                                      {Kind::kTruncated, 0.12}}};
constexpr double kRepeatShare = 0.20;
// Phase 1's matrices are drawn from this seed, the same for every
// workload seed (see make_stream).
constexpr std::uint64_t kCorpusSeed = 1;

Spec spec_of(Kind kind, std::size_t cpu_cols) {
  Spec spec;
  spec.kind = kind;
  switch (kind) {
    case Kind::kAie: spec.rows = spec.cols = 32; break;
    case Kind::kCpu: spec.rows = spec.cols = cpu_cols; break;
    case Kind::kTallSkinny: spec.rows = 1024; spec.cols = 32; break;
    case Kind::kTruncated: spec.rows = 256; spec.cols = 128; break;
  }
  return spec;
}

hsvd::serve::Request make_request(const Spec& spec, const MatrixF& a) {
  hsvd::serve::Request request;
  request.matrix = a;
  switch (spec.kind) {
    case Kind::kAie:
      request.tenant = "interactive";
      request.priority = Priority::kLatency;
      break;
    case Kind::kCpu:
      request.tenant = "interactive";
      request.priority = Priority::kLatency;
      request.backend = "cpu";
      break;
    case Kind::kTallSkinny:
      request.tenant = "bulk";
      request.scenario = "tall-skinny";
      break;
    case Kind::kTruncated:
      request.tenant = "bulk";
      request.scenario = "truncated";
      request.top_k = 8;
      break;
  }
  return request;
}

// One phase of open-loop traffic: Poisson arrival offsets and the
// requests, generated before the phase starts.
struct Stream {
  std::vector<Spec> specs;
  std::vector<MatrixF> matrices;
  std::vector<double> due_s;  // offset from the phase start
};

// The requests are a fixed multiset drawn from `pool`: per kind, a
// rounded exact count of distinct requests (the k-th from
// mix(mix(pool, kind), k); cpu pins cycle through n = 64, 80, 96), the
// first of which are sent twice. `seed` shuffles them, and the second
// copy of a pair is the exact repeat. Arrivals are Poisson conditioned
// on exactly rate * seconds of them in the phase (exponential gaps
// rescaled to span it). So every seed sends the same matrices the same
// number of times and only the order and arrival pattern vary: a
// request that fails, fails on every seed, and `failed` is one exact
// count.
Stream make_stream(std::uint64_t seed, std::uint64_t pool, double rate,
                   double seconds) {
  Stream stream;
  Gen gen(seed);
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(rate * seconds)));
  std::vector<double> gaps(count + 1);
  for (double& g : gaps) g = gen.exponential();
  const double scale = seconds / sum(gaps);
  const auto share_of = [&](double share) {
    return static_cast<std::size_t>(std::lround(share * static_cast<double>(count)));
  };
  const auto distinct = [&](Kind kind, std::size_t k) {
    Spec spec = spec_of(kind, 64 + 16 * (k % 3));
    spec.matrix_seed = mix(mix(pool, static_cast<std::uint64_t>(kind)), k);
    return spec;
  };
  std::vector<Spec> specs;
  for (const auto& [kind, share] : kMix) {
    const std::size_t repeats = share_of(share * kRepeatShare);
    for (std::size_t k = 0; k < share_of(share * (1.0 - kRepeatShare)); ++k) {
      specs.push_back(distinct(kind, k));
      if (k < repeats) specs.push_back(specs.back());
    }
  }
  // Rounding: drop from the end, or top up with distinct AIE requests.
  for (std::size_t k = share_of(kMix[0].second * (1.0 - kRepeatShare));
       specs.size() < count; ++k) {
    specs.push_back(distinct(Kind::kAie, k));
  }
  specs.resize(count);
  for (std::size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[gen.below(i)]);
  }
  std::set<std::pair<Kind, std::uint64_t>> sent;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gaps[i] * scale;
    Spec& spec = specs[i];
    spec.repeat = !sent.insert({spec.kind, spec.matrix_seed}).second;
    stream.matrices.push_back(gaussian_matrix(spec.rows, spec.cols, spec.matrix_seed));
    stream.due_s.push_back(t);
  }
  stream.specs = std::move(specs);
  return stream;
}

// Attestation samples requests by matrix digest and verify.seed; a
// constant seed keeps the sampled set, and the failures its ladder
// repairs, the same on every workload seed.
hsvd::SvdOptions server_svd_options() {
  hsvd::SvdOptions svd;
  svd.threads = 1;
  svd.verify.mode = hsvd::verify::VerifyMode::kSample;
  svd.verify.sample_rate = 0.25;
  svd.verify.seed = kCorpusSeed;
  return svd;
}

std::unique_ptr<hsvd::serve::SvdServer> make_server() {
  hsvd::serve::ServerOptions options;
  options.workers = workers();
  options.queue_capacity = 4096;
  options.svd = server_svd_options();
  hsvd::serve::TenantConfig interactive;
  interactive.name = "interactive";
  interactive.weight = 2.0;
  interactive.quota_rate = 1e6;
  interactive.quota_burst = 1e6;
  hsvd::serve::TenantConfig bulk = interactive;
  bulk.name = "bulk";
  bulk.weight = 1.0;
  options.qos.tenants = {interactive, bulk};
  options.qos.coalesce_max_batch = 4;
  options.qos.cache_enabled = true;
  options.qos.cache_capacity = 256;
  return std::make_unique<hsvd::serve::SvdServer>(std::move(options));
}

struct Sent {
  double lag_s = 0.0;      // submit time minus due time
  double latency_s = 0.0;  // due time to response ready, benchmark clock
  Response response;
};

struct PhaseResult {
  std::vector<Sent> sent;
  std::size_t depth_at_end = 0;  // queue depth when the arrivals stopped
};

// Drives the stream from this thread: sleeps until each due time, then
// submits. A collector thread watches the outstanding futures and stamps
// each response when it is ready, so latency runs from due time to
// response on the benchmark's clock, whatever the server stamps itself.
// With nothing outstanding the collector sleeps until the next submit.
PhaseResult run_phase(hsvd::serve::SvdServer& server, const Stream& stream) {
  const std::size_t count = stream.specs.size();
  PhaseResult out;
  out.sent.resize(count);
  std::vector<hsvd::serve::Request> requests;
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(make_request(stream.specs[i], stream.matrices[i]));
  }
  std::vector<std::future<Response>> futures(count);
  std::vector<SteadyClock::time_point> due(count);
  // futures[i] and due[i] are written before `submitted` passes i and
  // read by the collector only after; `expected` drops to `submitted`
  // if the generator stops early. Both change under `mutex`.
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> expected{count};
  std::mutex mutex;
  std::condition_variable wake;
  const auto publish = [&](std::atomic<std::size_t>& counter, std::size_t value) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      counter.store(value);
    }
    wake.notify_one();
  };
  std::thread collector([&] {
    std::vector<std::size_t> pending;
    std::size_t seen = 0;
    std::size_t done = 0;
    while (done < expected.load()) {
      if (pending.empty()) {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] {
          return submitted.load() > seen || done >= expected.load();
        });
      }
      for (const std::size_t n = submitted.load(); seen < n; ++seen) {
        pending.push_back(seen);
      }
      if (pending.empty()) continue;
      futures[pending.front()].wait_for(kPollInterval);
      for (std::size_t k = 0; k < pending.size();) {
        const std::size_t i = pending[k];
        if (futures[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        out.sent[i].latency_s =
            std::chrono::duration<double>(SteadyClock::now() - due[i]).count();
        out.sent[i].response = futures[i].get();
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
        ++done;
      }
    }
  });
  const SteadyClock::time_point start = SteadyClock::now();
  try {
    for (std::size_t i = 0; i < count; ++i) {
      due[i] = start + std::chrono::duration_cast<SteadyClock::duration>(
                           std::chrono::duration<double>(stream.due_s[i]));
      std::this_thread::sleep_until(due[i]);
      out.sent[i].lag_s =
          std::chrono::duration<double>(SteadyClock::now() - due[i]).count();
      futures[i] = server.submit(std::move(requests[i]));
      publish(submitted, i + 1);
    }
  } catch (...) {
    publish(expected, submitted.load());
    collector.join();
    throw;
  }
  out.depth_at_end = server.stats().queue_depth;
  collector.join();
  return out;
}

// Generating the phase-1 stream, starting the server, and one request of
// each kind on the fixed warm-up inputs (not part of any stream).
void setup_once(std::uint64_t seed, double phase_s, Stream* stream,
                std::unique_ptr<hsvd::serve::SvdServer>* server) {
  server->reset();
  *stream = make_stream(mix(seed, 1), kCorpusSeed, kRate, phase_s);
  *server = make_server();
  for (Kind kind : {Kind::kAie, Kind::kCpu, Kind::kTallSkinny, Kind::kTruncated}) {
    const Spec spec = spec_of(kind, 64);
    (*server)->serve(make_request(spec, warmup_matrix(spec.rows, spec.cols)));
  }
}

// The matrix a scenario request hands to its inner dense solve, rebuilt
// from the public linalg API the way the scenario front-end builds it:
// R of A = QR (tall-skinny), or B^T with B = Q^T A over the seeded
// subspace sketch Q (truncated). The replay checks that the rebuilt
// solve reproduces the request's sigma bits.
MatrixF fabric_input(const Spec& spec, const MatrixF& a,
                     const hsvd::SvdOptions& options) {
  namespace la = hsvd::linalg;
  const MatrixD ad = a.cast<double>();
  if (spec.kind == Kind::kTallSkinny) {
    return la::householder_qr(ad).r.cast<float>();
  }
  const auto& knobs = options.scenario_opts;
  const std::size_t l = std::min(a.cols(), options.top_k + knobs.oversample);
  hsvd::Rng rng(knobs.sketch_seed);
  const MatrixD omega = la::random_gaussian(a.cols(), l, rng);
  MatrixD q = la::householder_qr(la::matmul(ad, omega)).q;
  for (int it = 0; it < knobs.power_iterations; ++it) {
    const MatrixD z = la::householder_qr(la::matmul(la::transpose(ad), q)).q;
    q = la::householder_qr(la::matmul(ad, z)).q;
  }
  return la::transpose(la::matmul(la::transpose(q), ad)).cast<float>();
}

struct Scored {
  int ok = 0;
  int met = 0;
  std::vector<double> latency_ms;
  // Failed requests by "<kind>.<status>" (coalesced ones as
  // "<kind>.<status>.coalesced").
  std::map<std::string, int> failed;
};

Scored score_phase(const PhaseResult& phase, const Stream& stream, Gate& gate,
                   double limit_ms) {
  Scored out;
  for (std::size_t i = 0; i < phase.sent.size(); ++i) {
    const Sent& s = phase.sent[i];
    const double ms = 1e3 * s.latency_s;
    out.latency_ms.push_back(ms);
    const bool verified = s.response.status == ServeStatus::kOk &&
                          gate.score(stream.matrices[i], s.response.result);
    if (verified) {
      ++out.ok;
      if (ms <= limit_ms) ++out.met;
    } else {
      ++out.failed[std::string(kind_name(stream.specs[i].kind)) + "." +
                   hsvd::serve::to_string(s.response.status) +
                   (s.response.batch_size > 1 ? ".coalesced" : "")];
    }
  }
  return out;
}

void timed_pass(const Args& args, Report& report) {
  const double phase1_s = args.seconds * kPhase1Share;
  const double limit_ms = args.limit_ms();
  Stream stream;
  std::unique_ptr<hsvd::serve::SvdServer> server;
  measure_setup(report, true,
                [&] { setup_once(args.seed, phase1_s, &stream, &server); });
  Gate gate(server_svd_options().precision);
  // The reference kernel runs on a thread of its own every
  // kReferenceInterval through phase 1 (a few percent of one core), so it
  // sees the host speed the workers see; its CPU time is taken out of
  // the phase's.
  Reference reference;
  std::atomic<bool> phase1_done{false};
  double sampler_cpu = 0.0;
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  std::thread sampler([&] {
    const double s0 = thread_cpu_s();
    while (!phase1_done.load()) {
      reference.sample(1);
      std::this_thread::sleep_for(kReferenceInterval);
    }
    sampler_cpu = thread_cpu_s() - s0;
  });

  PhaseResult phase1;
  try {
    phase1 = run_phase(*server, stream);
  } catch (...) {
    phase1_done.store(true);
    sampler.join();
    throw;
  }
  const double phase1_wall = now_s() - t0;
  phase1_done.store(true);
  sampler.join();
  const double phase1_cpu = process_cpu_s() - c0 - sampler_cpu;
  // Phase 2 drives the server into overload, so the memory figure is
  // taken before it.
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const Scored scored = score_phase(phase1, stream, gate, limit_ms);
  const double sent = static_cast<double>(phase1.sent.size());

  // Phase 2: step the rate up until the limit is missed or the queue
  // keeps growing; interpolate the crossing on the p90 latency.
  double pass_rate = 0.0;
  double pass_p90 = 0.0;
  double max_rate = 0.0;
  bool crossed = false;
  auto evaluate = [&](double rate, const PhaseResult& phase, const Stream& s) {
    const Scored sc = score_phase(phase, s, gate, limit_ms);
    const double p90 = quantile(sc.latency_ms, 0.9);
    const bool pass = sc.ok == static_cast<int>(phase.sent.size()) &&
                      p90 <= limit_ms && phase.depth_at_end <= kBacklogLimit;
    report.info("step.p90_ms@" + std::to_string(static_cast<int>(std::lround(rate))),
                p90, "ms");
    if (pass) {
      pass_rate = rate;
      pass_p90 = p90;
      return true;
    }
    crossed = true;
    if (pass_rate == 0.0) {
      // Even the base rate misses: scale it by how far p90 overshoots.
      max_rate = rate * std::min(1.0, limit_ms / std::max(p90, 1e-9));
    } else if (p90 > limit_ms) {
      max_rate = pass_rate + (rate - pass_rate) * (limit_ms - pass_p90) /
                                 std::max(p90 - pass_p90, 1e-9);
    } else {
      max_rate = pass_rate;  // backlog grew while p90 still met the limit
    }
    return false;
  };
  const double phase2_start = now_s();
  double rate = kRate;
  int steps = 0;
  if (evaluate(kRate, phase1, stream)) {
    while (now_s() - phase2_start < args.seconds - phase1_s) {
      rate *= kStepFactor;
      const Stream step = make_stream(mix(args.seed, 100 + steps),
                                      mix(kCorpusSeed, 100 + steps), rate, kStepSeconds);
      ++steps;
      if (!evaluate(rate, run_phase(*server, step), step)) break;
    }
  }
  if (!crossed) max_rate = pass_rate;
  report.info("max_rate_capped", crossed ? 0.0 : 1.0, "flag");
  report.info("phase2_steps", steps, "count");

  reference.report(report, scored.ok, phase1_cpu);
  report.metric("slo_met_share", scored.met / sent, "share");
  report.info("ok_per_s", scored.ok / phase1_wall, "1/s");
  report.info("latency_ms_p50", quantile(scored.latency_ms, 0.5), "ms");
  report.info("latency_ms_p90", quantile(scored.latency_ms, 0.9), "ms");
  // Reported as workload detail: the crossing sits where latency turns
  // up steeply, so it moves with every swing in host speed.
  report.info("max_rate_per_s", max_rate, "1/s");
  report.info("offered_rate_per_s", sent / phase1_wall, "1/s");
  for (const auto& [what, count] : scored.failed) {
    report.info("failed." + what, count, "count");
  }
  report.attempted = static_cast<int>(phase1.sent.size());
  report.failed = report.attempted - scored.ok;
  report.correct = !gate.violated();
  report.problems.insert(report.problems.end(), gate.violations().begin(),
                         gate.violations().end());
  server->shutdown();
}

// Response-derived serve and scenario figures of the traced phase.
// Returns each kind's share of worker busy time (cache hits are their
// own kind); a coalesced dispatch's service time is split over its
// members.
std::map<std::string, double> report_serve_detail(Report& report,
                                                  const PhaseResult& phase,
                                                  const Stream& stream) {
  std::vector<double> queue_ms, lag_ms;
  std::map<std::string, std::vector<double>> service_ms;
  std::map<std::string, double> busy;
  double busy_total = 0.0;
  for (std::size_t i = 0; i < phase.sent.size(); ++i) {
    const Sent& s = phase.sent[i];
    queue_ms.push_back(1e3 * s.response.queue_seconds);
    lag_ms.push_back(1e3 * s.lag_s);
    const std::string kind =
        s.response.cache_hit ? "cache" : kind_name(stream.specs[i].kind);
    const double share = s.response.service_seconds /
                         static_cast<double>(std::max<std::size_t>(1, s.response.batch_size));
    busy[kind] += share;
    busy_total += share;
    if (s.response.cache_hit) continue;
    service_ms[kind].push_back(1e3 * s.response.service_seconds);
  }
  for (auto& [kind, seconds] : busy) {
    seconds = busy_total > 0.0 ? seconds / busy_total : 0.0;
    report.info("serve.busy_share." + kind, seconds, "share");
  }
  report.info("serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms");
  report.info("serve.queue_ms_p90", quantile(queue_ms, 0.9), "ms");
  report.info("serve.generator_lag_ms_p90", quantile(lag_ms, 0.9), "ms");
  report.info("serve.service_ms_p50.aie", median(service_ms["aie"]), "ms");
  report.info("serve.service_ms_p50.cpu", median(service_ms["cpu"]), "ms");
  report.info("scenarios.service_ms_p50.tall-skinny",
              median(service_ms["tall-skinny"]), "ms");
  report.info("scenarios.service_ms_p50.truncated",
              median(service_ms["truncated"]), "ms");
  return busy;
}

void traced_pass(const Args& args, Report& report) {
  const double phase1_s = args.seconds * kPhase1Share;
  Stream stream;
  std::unique_ptr<hsvd::serve::SvdServer> server;
  measure_setup(report, false,
                [&] { setup_once(args.seed, phase1_s, &stream, &server); });
  const hsvd::serve::ServerStats before = server->stats();
  const PhaseResult phase = run_phase(*server, stream);
  const hsvd::serve::ServerStats after = server->stats();
  server->shutdown();

  const hsvd::SvdOptions options = server_svd_options();
  Gate gate(options.precision);
  SpanRecorder spans;
  LayerInputs layers;
  layers.spans = &spans;
  FacadeTally served;  // server responses of the prefix
  // Per kind, over the replayed requests: svd() wall, and the wall of
  // the accelerator run inside it (the simulator).
  std::map<std::string, double> solve_s, sim_s;
  SpanRecorder inner_spans;  // scenario inner replays, kept out of accel.*
  std::vector<double> inner_derive_s;
  int replayed = 0;
  for (std::size_t i = 0; i < stream.specs.size() && replayed < kPrefix; ++i) {
    const Spec& spec = stream.specs[i];
    const MatrixF& a = stream.matrices[i];
    served.add(phase.sent[i].response.result);
    if (spec.repeat) continue;
    const int op = replayed++;
    const int root = spans.begin("op", op);
    hsvd::SvdOptions direct = options;
    const hsvd::serve::Request request = make_request(spec, a);
    direct.backend = request.backend;
    if (!request.scenario.empty()) {
      direct.scenario = hsvd::scenarios::parse_scenario(request.scenario);
    }
    direct.top_k = request.top_k;
    hsvd::Svd result;
    double svd_s = 0.0;
    {
      ScopedSpan span(spans, "hsvd.svd", op);
      const double t0 = now_s();
      result = hsvd::svd(a, direct);
      svd_s = now_s() - t0;
    }
    solve_s[kind_name(spec.kind)] += svd_s;
    {
      ScopedSpan span(spans, "verify.check", op);
      gate.score(a, result);
    }
    time_route(spans, op, spec.rows, spec.cols, options);
    if (spec.kind == Kind::kTallSkinny || spec.kind == Kind::kTruncated) {
      hsvd::SvdOptions inner = direct;
      inner.scenario = hsvd::scenarios::Scenario::kOff;
      inner.top_k = 0;
      inner.want_v = true;
      ScopedSpan span(spans, "scenarios.fabric_replay", op);
      const Replay replay = replay_accelerator(
          inner_spans, op, {fabric_input(spec, a, direct)}, inner, &inner_derive_s);
      sim_s[kind_name(spec.kind)] += replay.run_wall_s;
      const auto& task = replay.run.tasks.front();
      const bool same =
          task.sigma.size() >= result.sigma.size() &&
          same_bits(std::vector<float>(task.sigma.begin(),
                                       task.sigma.begin() + result.sigma.size()),
                    result.sigma);
      if (!result.verify_report.escalated() && !same) {
        report.correct = false;
        report.problems.push_back("replay fidelity, request " + std::to_string(i) +
                                  ": " + kind_name(spec.kind) +
                                  " inner solve sigma bits differ");
      }
    }
    if (spec.kind == Kind::kAie) {
      const Replay replay =
          replay_accelerator(spans, op, {a}, options, &layers.derive_v_s);
      sim_s["aie"] += replay.run_wall_s;
      const auto& task = replay.run.tasks.front();
      jacobi_reference(spans, op, a, replay.config, task.iterations);
      {
        hsvd::obs::ObsContext observer;
        observer.enable_tracing();
        hsvd::SvdOptions traced = options;
        traced.observer = &observer;
        ScopedSpan span(spans, "obs.traced_svd", op);
        const double o0 = now_s();
        hsvd::svd(a, traced);
        layers.obs_traced_s += now_s() - o0;
        layers.obs_plain_s += svd_s;
      }
      if (!result.verify_report.escalated()) {
        const std::string mismatch =
            fidelity_mismatch(result, task, replay.v.front());
        if (!mismatch.empty()) {
          report.correct = false;
          report.problems.push_back("replay fidelity, request " +
                                    std::to_string(i) + ": " + mismatch);
        }
      }
      layers.facade_s.push_back(svd_s - replay.replay_s);
      layers.run_wall_s += replay.run_wall_s;
      layers.run_cpu_s += replay.run_cpu_s;
      layers.all.add(replay.run);
      layers.prefix.add(replay.run);
    }
    spans.end(root);
  }
  layers.facade = served;
  report_layer_metrics(report, layers);

  ServeLayer serve;
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  const double dispatches =
      static_cast<double>(after.batch_dispatches - before.batch_dispatches);
  serve.cache_hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  serve.batch_fill = dispatches > 0.0
                         ? static_cast<double>(after.batch_tasks - before.batch_tasks) /
                               dispatches
                         : 0.0;
  serve.peak_queue_depth = static_cast<double>(after.peak_queue_depth);
  serve.shed = static_cast<double>(after.shed - before.shed);
  serve.expired = static_cast<double>(after.expired - before.expired);
  serve.retries = static_cast<double>(after.retries - before.retries);
  serve.preemptions = static_cast<double>(after.preemptions - before.preemptions);
  // The simulator's share of worker busy time: each kind's busy share
  // times the share of its replayed solves spent in the accelerator run.
  for (const auto& [kind, share] : report_serve_detail(report, phase, stream)) {
    if (solve_s[kind] <= 0.0) continue;
    const double in_sim = sim_s[kind] / solve_s[kind];
    report.info("serve.sim_share_of_solve." + kind, in_sim, "share");
    serve.sim_busy_share += share * in_sim;
  }
  report_serve_layer(report, serve);
  fingerprint_tallies(report, layers.prefix, layers.facade);

  report.attempted = static_cast<int>(phase.sent.size());
  report.failed =
      report.attempted - score_phase(phase, stream, gate, args.limit_ms()).ok;
  if (gate.violated()) report.correct = false;
  report.problems.insert(report.problems.end(), gate.violations().begin(),
                         gate.violations().end());
  if (!spans.write(output_stem(args) + "-spans.json")) {
    report.problems.push_back("could not write the span file");
  }
}

}  // namespace

void run_serve_mixed(const Args& args, Report& report) {
  report.env("threads", "1");
  report.env("workers", std::to_string(workers()));
  report.env("rate_per_s", std::to_string(kRate));
  if (args.trace) {
    traced_pass(args, report);
  } else {
    timed_pass(args, report);
  }
}

}  // namespace perfbench
