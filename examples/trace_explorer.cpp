// Execution-trace export: run a small configuration with tracing enabled
// and emit a Chrome trace-event JSON (chrome://tracing or
// https://ui.perfetto.dev) showing per-resource activity -- kernels per
// core, DMA transfers, stream packets.
//
//   build/examples/trace_explorer [n] [p_eng] [out.json]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/accelerator.hpp"
#include "obs/obs.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const int p_eng = argc > 2 ? std::atoi(argv[2]) : 4;
  const char* out = argc > 3 ? argv[3] : "heterosvd_trace.json";

  hsvd::accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.p_eng = p_eng;
  cfg.p_task = 1;
  cfg.iterations = 1;
  hsvd::accel::HeteroSvdAccelerator acc(cfg);

  hsvd::obs::ObsContext obs;
  obs.enable_tracing();
  acc.attach_observer(&obs);
  auto run = acc.estimate(1);
  const hsvd::obs::Tracer& trace = *obs.tracer();

  // Busy time per category: the sum of the simulated spans' durations.
  double kernel_s = 0.0;
  double dma_s = 0.0;
  double stream_s = 0.0;
  for (const auto& span : trace.spans()) {
    if (span.category == "kernel") kernel_s += span.duration_s;
    if (span.category == "dma") dma_s += span.duration_s;
    if (span.category == "stream") stream_s += span.duration_s;
  }

  std::printf("traced %zux%zu, P_eng=%d: %zu events over %.3f ms\n", n, n,
              p_eng, trace.event_count(), run.task_seconds * 1e3);
  std::printf("busy time: kernels %.3f ms, dma %.3f ms, streams %.3f ms\n",
              kernel_s * 1e3, dma_s * 1e3, stream_s * 1e3);

  if (!trace.write_chrome_json(out)) {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  std::printf("wrote %s (open in chrome://tracing or Perfetto)\nOK\n", out);
  return 0;
}
