#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/simd.hpp"
#include "verify/verifier.hpp"

#ifndef HSVD_BENCH_BUILD_TYPE
#define HSVD_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---- clocks ------------------------------------------------------------

double now_s() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- inputs ------------------------------------------------------------

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Gen::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  return mix(state_, 0);
}

double Gen::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Gen::gaussian() {
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Gen::exponential() { return -std::log(1.0 - uniform()); }

hsvd::linalg::MatrixF gaussian_matrix(std::size_t rows, std::size_t cols,
                                      std::uint64_t seed) {
  Gen gen(seed);
  hsvd::linalg::MatrixF m(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      m(r, c) = static_cast<float>(gen.gaussian());
    }
  }
  return m;
}

hsvd::linalg::MatrixF warmup_matrix(std::size_t rows, std::size_t cols) {
  return gaussian_matrix(rows, cols, 0x3a7e0ULL);
}

void measure_setup(Report& report, bool contract,
                   const std::function<void()>& step) {
  constexpr int kRepeats = 11;
  std::vector<double> cpu;
  std::vector<double> wall;
  Reference reference;
  for (int r = 0; r < kRepeats; ++r) {
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    step();
    wall.push_back(now_s() - t0);
    cpu.push_back(process_cpu_s() - c0);
    reference.sample(3);
  }
  const double setup_s = median(cpu) * kReferenceNominalS / reference.median_s();
  if (contract) {
    report.metric("setup_s", setup_s, "s");
  } else {
    report.info("setup_s", setup_s, "s");
  }
  report.info("setup_cpu_s", median(cpu), "s");
  report.info("setup_wall_s", median(wall), "s");
}

// ---- host-speed reference -------------------------------------------------

namespace {

constexpr std::size_t kReferenceN = 32;
constexpr int kReferenceSweeps = 60;
volatile float reference_sink = 0.0f;

double reference_kernel_s() {
  std::vector<float> a(kReferenceN * kReferenceN);
  Gen gen(0x4ef4e4ce);
  for (float& x : a) x = static_cast<float>(gen.gaussian());
  const double c0 = thread_cpu_s();
  for (int sweep = 0; sweep < kReferenceSweeps; ++sweep) {
    for (std::size_t p = 0; p < kReferenceN; ++p) {
      for (std::size_t q = p + 1; q < kReferenceN; ++q) {
        float* x = &a[p * kReferenceN];
        float* y = &a[q * kReferenceN];
        float alpha = 0.0f, beta = 0.0f, gamma = 0.0f;
        for (std::size_t i = 0; i < kReferenceN; ++i) {
          alpha += x[i] * x[i];
          beta += y[i] * y[i];
          gamma += x[i] * y[i];
        }
        if (std::fabs(gamma) < 1e-12f) continue;
        const float zeta = (beta - alpha) / (2.0f * gamma);
        const float t = std::copysign(1.0f, zeta) /
                        (std::fabs(zeta) + std::sqrt(1.0f + zeta * zeta));
        const float c = 1.0f / std::sqrt(1.0f + t * t);
        const float s = c * t;
        for (std::size_t i = 0; i < kReferenceN; ++i) {
          const float u = x[i];
          const float v = y[i];
          x[i] = c * u - s * v;
          y[i] = s * u + c * v;
        }
      }
    }
  }
  reference_sink = a[0];
  return thread_cpu_s() - c0;
}

}  // namespace

void Reference::sample(int runs) {
  for (int i = 0; i < runs; ++i) runs_s_.push_back(reference_kernel_s());
}

double Reference::median_s() const { return median(runs_s_); }

void Reference::report(Report& report, double ok, double cpu_s) const {
  const double ref_s = median_s();
  report.metric("ok_per_kref", 1e3 * ok * ref_s / cpu_s, "1/kref");
  report.info("ok_per_cpu_s", ok / cpu_s, "1/cpu_s");
  report.info("ref_kernel_ms", 1e3 * ref_s, "ms");
  report.info("ref_kernel_runs", static_cast<double>(runs_s_.size()), "count");
}

// ---- order statistics --------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// ---- spans -------------------------------------------------------------

int SpanRecorder::begin(const std::string& name, int op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  // Spans close in LIFO order, so `index` is the top of the stack.
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  stack_.pop_back();
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_s();
  }
  // Children run inside their parent and one after another, so the part
  // of the parent's interval they cover is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration_s();
    }
  }
  return self;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.duration_s());
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times();
  out << "{\"spans\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, "
                  "\"parent\": %d, \"op\": %d}",
                  s.start_s, s.end_s, self[i], s.parent, s.op);
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", " << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- correctness gate --------------------------------------------------

namespace {

bool finite_descending(const hsvd::Svd& r, std::string* why) {
  for (std::size_t t = 0; t < r.sigma.size(); ++t) {
    if (!std::isfinite(r.sigma[t])) {
      *why = "non-finite sigma";
      return false;
    }
    if (t > 0 && r.sigma[t] > r.sigma[t - 1]) {
      *why = "sigma not descending";
      return false;
    }
  }
  for (float x : r.u.data()) {
    if (!std::isfinite(x)) {
      *why = "non-finite U";
      return false;
    }
  }
  for (float x : r.v.data()) {
    if (!std::isfinite(x)) {
      *why = "non-finite V";
      return false;
    }
  }
  return true;
}

// ||A - U diag(sigma) V^T||_F / ||A||_F in double.
double relative_residual(const hsvd::linalg::MatrixF& a, const hsvd::Svd& r) {
  double num = 0.0;
  double den = 0.0;
  const std::size_t k = r.sigma.size();
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      double approx = 0.0;
      for (std::size_t t = 0; t < k; ++t) {
        approx += static_cast<double>(r.u(i, t)) * r.sigma[t] * r.v(j, t);
      }
      const double x = a(i, j);
      num += (x - approx) * (x - approx);
      den += x * x;
    }
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace

bool Gate::score(const hsvd::linalg::MatrixF& a, const hsvd::Svd& result) {
  const bool claims_ok = result.status == hsvd::SvdStatus::kOk;
  std::string why;
  bool pass = !result.sigma.empty() && finite_descending(result, &why);
  if (pass) {
    if (result.scenario == "truncated") {
      // A top-k answer is held to its own a-posteriori bound; the
      // verifier scores the orthogonality of the k returned columns.
      hsvd::Svd factors_only = result;
      factors_only.v = hsvd::linalg::MatrixF();
      const auto outcome =
          hsvd::verify::ResultVerifier(precision_).check(a, factors_only);
      const double residual = relative_residual(a, result);
      pass = outcome.passed && residual <= result.scenario_bound;
      if (!outcome.passed) why = outcome.note;
      if (residual > result.scenario_bound) {
        why = "truncated residual " + std::to_string(residual) +
              " exceeds its bound " + std::to_string(result.scenario_bound);
      }
    } else {
      const auto outcome =
          hsvd::verify::ResultVerifier(precision_).check(a, result);
      pass = outcome.passed;
      if (!pass) why = outcome.note;
    }
  }
  if (claims_ok && !pass) {
    violations_.push_back("kOk result failed the correctness gate (" +
                          std::to_string(a.rows()) + "x" +
                          std::to_string(a.cols()) + "): " + why);
  }
  return claims_ok && pass;
}

bool FirstSolves::score(std::size_t index, const hsvd::linalg::MatrixF& a,
                        const hsvd::Svd& result) {
  if (index >= entries_.size()) entries_.resize(index + 1);
  Entry& entry = entries_[index];
  if (!entry.seen) {
    entry.seen = true;
    entry.ok = gate_.score(a, result);
    entry.result = result;
    return entry.ok;
  }
  const hsvd::Svd& was = entry.result;
  if (result.status != was.status || result.iterations != was.iterations ||
      !same_bits(result.sigma, was.sigma) || !same_bits(result.u, was.u) ||
      !same_bits(result.v, was.v)) {
    gate_.add_violation("input " + std::to_string(index) +
                        ": a repeat solve differs from the first solve");
  }
  return entry.ok;
}

int FirstSolves::attempted() const {
  return static_cast<int>(std::count_if(entries_.begin(), entries_.end(),
                                        [](const Entry& e) { return e.seen; }));
}

int FirstSolves::failed() const {
  return static_cast<int>(std::count_if(entries_.begin(), entries_.end(),
                                        [](const Entry& e) { return e.seen && !e.ok; }));
}

// ---- fingerprint -------------------------------------------------------

std::uint64_t fnv1a_bits(const std::vector<float>& values, std::uint64_t hash) {
  for (float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

namespace {

bool same_float_bits(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

}  // namespace

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && same_float_bits(a.data(), b.data(), a.size());
}

bool same_bits(const hsvd::linalg::MatrixF& a, const hsvd::linalg::MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_float_bits(a.data().data(), b.data().data(), a.data().size());
}

// ---- report ------------------------------------------------------------

namespace {

std::string number(double value) {
  char buf[64];
  if (!std::isfinite(value)) return "null";
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string metric_object(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

std::string string_object(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": " + quoted(v);
  }
  return out + "}";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_[name] = Metric{value, unit};
}

void Report::fingerprint(const std::string& name, const std::string& value) {
  fingerprint_[name] = value;
}

void Report::fingerprint(const std::string& name, std::uint64_t value) {
  fingerprint_[name] = std::to_string(value);
}

void Report::env(const std::string& name, const std::string& value) {
  env_[name] = value;
}

void Report::print_table() const {
  std::printf("environment\n");
  for (const auto& [name, v] : env_) {
    std::printf("  %-42s %s\n", name.c_str(), v.c_str());
  }
  const auto print = [](const char* title,
                        const std::map<std::string, Metric>& metrics) {
    if (metrics.empty()) return;
    std::printf("%s\n", title);
    for (const auto& [name, m] : metrics) {
      std::printf("  %-42s %18.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  };
  print("metrics", metrics_);
  print("workload detail", info_);
  if (!fingerprint_.empty()) {
    std::printf("fingerprint\n");
    for (const auto& [name, v] : fingerprint_) {
      std::printf("  %-42s %s\n", name.c_str(), v.c_str());
    }
  }
  std::printf("ops %d  failed %d  correct %s\n", attempted, failed,
              correct ? "true" : "false");
  for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
}

std::string Report::json_line() const {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metric_object(metrics_) + "}";
}

bool Report::write(const std::string& path, const Args& args) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"workload\": " << quoted(args.workload)
      << ",\n  \"seed\": " << args.seed
      << ",\n  \"trace\": " << (args.trace ? 1 : 0)
      << ",\n  \"seconds\": " << number(args.seconds)
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out << (i ? ", " : "") << quoted(problems[i]);
  }
  out << "],\n  \"env\": " << string_object(env_)
      << ",\n  \"metrics\": " << metric_object(metrics_)
      << ",\n  \"detail\": " << metric_object(info_)
      << ",\n  \"fingerprint\": " << string_object(fingerprint_) << "\n}\n";
  return static_cast<bool>(out);
}

double Args::limit_ms(const std::string& key) const {
  const auto it = limits_ms.find(key);
  if (it == limits_ms.end()) {
    throw std::runtime_error("no latency limit" +
                             (key.empty() ? std::string() : " for " + key) +
                             " in --limit-ms");
  }
  return it->second;
}

void record_environment(Report& report, const Args& args) {
  report.env("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.env("simd", hsvd::simd::active().name);
  report.env("build_type", HSVD_BENCH_BUILD_TYPE);
  report.env("seed", std::to_string(args.seed));
  report.env("seconds", number(args.seconds));
  report.env("pass", args.trace ? "traced" : "timed");
  for (const auto& [key, ms] : args.limits_ms) {
    report.env(key.empty() ? "latency_limit_ms" : "latency_limit_ms." + key,
               number(ms));
  }
  report.env("launcher_unset_env", args.unset_env.empty() ? "none" : args.unset_env);
}

std::string output_stem(const Args& args) {
  std::ostringstream stem;
  stem << args.out_dir << "/" << args.workload << "-seed" << args.seed << "-"
       << (args.trace ? "traced" : "timed");
  return stem.str();
}

}  // namespace perfbench
