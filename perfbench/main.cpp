// End-to-end benchmark binary. Runs one workload for a fixed time and
// prints a table followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of an untraced pass, --trace 1
// the per-layer metrics of a traced replay of the same inputs. See
// perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hsvd_perfbench --workload "
               "dense-classic|batch-throughput|serve-mixed --seed N "
               "--seconds S --trace 0|1 --limit-ms MS|KEY=MS,... [--out-dir DIR] "
               "[--unset-env LIST]\n",
               why);
  std::exit(2);
}

// "MS" (one limit, empty key) or "KEY=MS,KEY=MS,...".
bool parse_limits(const std::string& spec, std::map<std::string, double>* out) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = std::min(spec.find(',', begin), spec.size());
    const std::string item = spec.substr(begin, end - begin);
    const std::size_t eq = item.find('=');
    const std::string key = eq == std::string::npos ? "" : item.substr(0, eq);
    const double ms = std::atof(item.c_str() + (eq == std::string::npos ? 0 : eq + 1));
    if (!(ms > 0.0)) return false;
    (*out)[key] = ms;
    begin = end + 1;
  }
  return true;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--limit-ms") {
      if (!parse_limits(value, &args.limits_ms)) {
        usage("--limit-ms needs positive milliseconds");
      }
    } else if (key == "--unset-env") {
      args.unset_env = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.limits_ms.empty()) usage("--limit-ms is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Each of these silently switches the executor being measured (pool
  // width, pipelined vs sequential task execution).
  for (const char* var : {"HSVD_THREADS", "HSVD_PIPELINE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "error: %s is set; unset it to run the benchmark\n",
                   var);
      return 2;
    }
  }
  perfbench::Report report;
  perfbench::record_environment(report, args);
  try {
    if (args.workload == "dense-classic") {
      perfbench::run_dense_classic(args, report);
    } else if (args.workload == "batch-throughput") {
      perfbench::run_batch_throughput(args, report);
    } else if (args.workload == "serve-mixed") {
      perfbench::run_serve_mixed(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload aborted: %s\n", e.what());
    return 2;
  }
  // A workload whose timed pass ends in an unsteady phase reports its own
  // peak_rss_mb before that phase; the process-end figure is then detail.
  if (args.trace) {
    report.info("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  } else if (report.has_metric("peak_rss_mb")) {
    report.info("peak_rss_mb.process_end", perfbench::peak_rss_mb(), "MB");
  } else {
    report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }
  const std::string path = perfbench::output_stem(args) + ".json";
  if (!report.write(path, args)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 2;
  }
  report.print_table();
  std::printf("results: %s\n", path.c_str());
  std::printf("%s\n", report.json_line().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
