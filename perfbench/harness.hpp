// Shared pieces of the end-to-end benchmark: clocks, seeded inputs,
// order statistics, the span recorder of the traced pass, the
// correctness gate, and the report that becomes the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "heterosvd.hpp"
#include "linalg/matrix.hpp"

namespace perfbench {

// ---- command line ------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  // Latency limits (ms) behind slo_met_share / max_rate_per_s: one under
  // the empty key, or one per key (dense-classic: "n64", "n128", ...).
  std::map<std::string, double> limits_ms;
  // The limit for `key`; throws when the launcher gave none.
  double limit_ms(const std::string& key = "") const;
  // NAME=value pairs the launcher removed from the environment (recorded).
  std::string unset_env;
};

// ---- clocks ------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

// Seconds on the steady clock since the first call in this process.
double now_s();
// CPU seconds consumed by the whole process (all threads).
double process_cpu_s();
// CPU seconds consumed by the calling thread.
double thread_cpu_s();
// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ---- inputs ------------------------------------------------------------

// Seed mixer for deriving independent per-input seeds from the workload
// seed (splitmix64 finalizer over a + golden-ratio multiple of b).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// The benchmark's own generator, independent of the library's, so the
// inputs stay fixed when the library's RNG changes.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();   // [0, 1)
  double gaussian();  // standard normal, Box-Muller
  double exponential();  // unit rate
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// Column-major rows x cols matrix of i.i.d. standard normal entries.
hsvd::linalg::MatrixF gaussian_matrix(std::size_t rows, std::size_t cols,
                                      std::uint64_t seed);
// The warm-up input of the set-up phase: the same for every seed, so
// set-up time does not depend on which matrix the seed draws.
hsvd::linalg::MatrixF warmup_matrix(std::size_t rows, std::size_t cols);


// ---- host-speed reference -------------------------------------------------

class Report;

// A fixed float workload owned by the benchmark: sweeps of one-sided
// Jacobi rotations over a fixed 32x32 matrix, a few ms of CPU. On a
// shared host the CPU time of every operation drifts by up to a third
// for minutes at a time (another tenant on the sibling hyperthread, the
// clock); this kernel's CPU time, sampled in the same run, drifts with
// it, so throughput counted in its units stays steady. Library changes
// cannot move it; a change to the compiler flags the benchmark is built
// with can, so for such a change read the raw ok_per_cpu_s detail.
// The reference kernel's median CPU seconds on the 4-vCPU host the
// benchmark's bounds were set on; the speed setup_s is scaled to.
inline constexpr double kReferenceNominalS = 3.0e-3;

class Reference {
 public:
  // Runs the kernel `runs` times on the calling thread, outside any
  // timed region; each run is timed in that thread's CPU seconds.
  void sample(int runs);
  // Median CPU seconds of one kernel run so far.
  double median_s() const;
  // Verified-correct operations per 1000 kernel-runs of CPU time (the
  // contract throughput) and the raw figures behind it (detail).
  void report(Report& report, double ok, double cpu_s) const;

 private:
  std::vector<double> runs_s_;
};

// ---- order statistics --------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
double sum(const std::vector<double>& values);

// ---- spans (traced pass only) -----------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the recorder's span list, -1 = root
  int op = -1;      // operation (input) the span belongs to
  double duration_s() const { return end_s - start_s; }
};

// Records spans around calls into the library. Spans nest through an
// explicit stack (the traced pass is single-threaded at the points it
// records) and stay in memory until write() at the end of the run.
class SpanRecorder {
 public:
  int begin(const std::string& name, int op);
  void end(int index);
  const std::vector<Span>& spans() const { return spans_; }
  // Span duration minus the time covered by its direct children.
  std::vector<double> self_times() const;
  // Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name, int op)
      : recorder_(recorder), index_(recorder.begin(name, op)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

// ---- correctness gate ---------------------------------------------------

// Scores returned results outside the timed region. A kOk result that
// fails the verifier, is non-finite, or has ascending sigma is a
// correctness violation (the benchmark exits non-zero); kNotConverged
// and kFailed results are failed operations, not violations.
class Gate {
 public:
  explicit Gate(double precision) : precision_(precision) {}
  // Returns true when the result is a verified-correct solution.
  bool score(const hsvd::linalg::MatrixF& a, const hsvd::Svd& result);
  bool violated() const { return !violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  void add_violation(const std::string& why) { violations_.push_back(why); }

 private:
  double precision_;
  std::vector<std::string> violations_;
};

// The closed-loop workloads solve a fixed seeded corpus of inputs, then
// solve it again, whole decks or batches at a time, until --seconds is
// used up. An input is one attempted operation, scored from its first
// solve, so `attempted` and `failed` depend on the seed alone, not on
// how many repeats the host's speed allowed. A repeat must reproduce the
// first solve bit for bit (status, iterations, sigma, U, V); one that
// differs is a correctness violation.
class FirstSolves {
 public:
  explicit FirstSolves(Gate& gate) : gate_(gate) {}
  // Scores input `index`'s first solve with the gate, or checks a repeat
  // against it; returns whether the input has a verified-correct result.
  bool score(std::size_t index, const hsvd::linalg::MatrixF& a,
             const hsvd::Svd& result);
  bool first(std::size_t index) const {
    return index >= entries_.size() || !entries_[index].seen;
  }
  int attempted() const;
  int failed() const;

 private:
  struct Entry {
    bool seen = false;
    bool ok = false;
    hsvd::Svd result;
  };
  Gate& gate_;
  std::vector<Entry> entries_;
};

// ---- fingerprint ---------------------------------------------------------

// FNV-1a over the bit patterns of a float sequence, chained across calls.
std::uint64_t fnv1a_bits(const std::vector<float>& values,
                         std::uint64_t hash = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);
bool same_bits(const std::vector<float>& a, const std::vector<float>& b);
bool same_bits(const hsvd::linalg::MatrixF& a, const hsvd::linalg::MatrixF& b);

// ---- report -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  // Metrics of the final JSON line (end-to-end or per-layer).
  void metric(const std::string& name, double value, const std::string& unit);
  bool has_metric(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  // Workload-specific figures written to the result file and printed in
  // the table, but not part of the contract line.
  void info(const std::string& name, double value, const std::string& unit);
  // Exact model outputs compared by compare.py.
  void fingerprint(const std::string& name, const std::string& value);
  void fingerprint(const std::string& name, std::uint64_t value);
  void env(const std::string& name, const std::string& value);

  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void print_table() const;
  std::string json_line() const;
  bool write(const std::string& path, const Args& args) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> info_;
  std::map<std::string, std::string> fingerprint_;
  std::map<std::string, std::string> env_;
};

// Runs a set-up step several times; the last repetition's state is the
// one the workload keeps. `setup_s` (a contract metric when `contract`,
// else detail) is the median process CPU seconds of one set-up, scaled
// to the host speed at which the reference kernel takes
// kReferenceNominalS (kernel sampled after every repetition); the raw
// median is the `setup_cpu_s` detail, the median wall seconds the
// `setup_wall_s` detail.
void measure_setup(Report& report, bool contract,
                   const std::function<void()>& step);

// Records nproc, SIMD kind, build type and the launcher's env handling.
void record_environment(Report& report, const Args& args);

// Result file stem for this run: <out_dir>/<workload>-seed<seed>-<pass>.
std::string output_stem(const Args& args);

// ---- workloads -------------------------------------------------------------

void run_dense_classic(const Args& args, Report& report);
void run_batch_throughput(const Args& args, Report& report);
void run_serve_mixed(const Args& args, Report& report);

}  // namespace perfbench
