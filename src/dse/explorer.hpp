// Design space exploration (paper section IV-C, Fig. 8).
//
// Problem (eq. (15)): given matrix size and batch size, choose
// (P_eng, P_task, Freq) minimizing runtime subject to the AIE / PLIO /
// BRAM / URAM budgets (eq. (16)).
//
// Two-stage flow: stage 1 enumerates P_eng and, for each, maximizes
// P_task under the resource constraints (placement gives exact AIE and
// PLIO usage; the resource model gives URAM/BRAM). Stage 2 scores every
// surviving design point with the analytic performance model and ranks
// by the requested objective.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/placement.hpp"
#include "dse/frequency_model.hpp"
#include "obs/obs.hpp"
#include "perfmodel/perf_model.hpp"
#include "perfmodel/power_model.hpp"
#include "perfmodel/resource_model.hpp"

namespace hsvd::dse {

enum class Objective { kLatency, kThroughput };

struct DesignPoint {
  int p_eng = 1;
  int p_task = 1;
  // Simulated AIE arrays the point spans (DESIGN.md section 11). S > 1
  // points replicate the S = 1 placement on S devices and add the
  // inter-shard ring edge to the latency model; resources/power cover
  // all S arrays plus the 2S link PLIOs.
  int shards = 1;
  double frequency_hz = 0.0;
  perf::LatencyBreakdown latency;
  perf::ResourceUsage resources;
  double power_watts = 0.0;
  double latency_seconds = 0.0;            // one task
  double throughput_tasks_per_s = 0.0;     // at the requested batch
  double energy_efficiency() const {       // tasks/s/W (Table III metric)
    return throughput_tasks_per_s / power_watts;
  }
  double energy_per_task_joules() const {   // W / (tasks/s)
    return power_watts / throughput_tasks_per_s;
  }
};

struct DseRequest {
  std::size_t rows = 128;
  std::size_t cols = 128;
  int batch = 1;
  int iterations = 6;
  Objective objective = Objective::kLatency;
  // When set, fixes the PL frequency; otherwise the frequency model
  // supplies the maximum achievable per design point.
  std::optional<double> frequency_hz;
  // Largest shard count to co-explore with (P_eng, P_task): every
  // feasible single-array point also spawns S = 2, 4, ... <= max_shards
  // variants scored with the sharded latency model, so the Pareto front
  // can include multi-array points. 1 (the default) explores the
  // paper's single-array space only.
  int max_shards = 1;
  versal::DeviceResources device = versal::vck190();
  // Host threads for evaluating independent P_eng slices of the design
  // space in parallel (0 = auto via HSVD_THREADS/hardware, 1 = inline).
  // The enumeration order and scores are thread-count invariant.
  int threads = 0;
  // Optional observability context (not owned): enumerate() records
  // placement-effort counters and -- through the pool observer -- a host
  // span per P_eng slice. Never changes the enumeration.
  obs::ObsContext* observer = nullptr;
  // In-memory cross-call memoization: when true, the full enumeration
  // (pre-sort, so one entry serves every objective) is cached in the
  // explorer's shared state under a digest of the request (shape, batch,
  // iterations, frequency, device budgets, shard limit; not the
  // objective), and a repeat request returns the cached points with zero
  // placement calls. Opt-in because the memo pins the scored points in
  // memory (up to 128 requests' worth, ~19 KB each, then it starts over);
  // the backend router and the svd()/svd_batch() facade, which ask for
  // the same handful of shapes over and over, turn it on.
  bool memoize = false;
};

// Placement-effort accounting for the most recent enumerate() on an
// explorer: every feasible or infeasible (P_eng, P_task) point is placed
// at most once; stage 2 reuses the placements stage 1 already computed.
struct DseStats {
  std::uint64_t placement_calls = 0;   // try_place + estimate_resources runs
  std::uint64_t placement_reuses = 0;  // served from the memo instead
  // Lifetime count of enumerate() calls answered entirely from the
  // cross-call memo (DseRequest::memoize).
  std::uint64_t enumerate_memo_hits = 0;
};

class DesignSpaceExplorer {
 public:
  DesignSpaceExplorer() = default;
  explicit DesignSpaceExplorer(FrequencyModel freq,
                               perf::PowerModel power = {},
                               perf::PerformanceModel perf = {})
      : freq_(freq), power_(power), perf_(perf) {}

  // Stage 1 + stage 2: all feasible design points, best first.
  std::vector<DesignPoint> enumerate(const DseRequest& request) const;

  // The winning design point; throws if no configuration fits.
  DesignPoint optimize(const DseRequest& request) const;

  // Stage 1 only: the largest feasible P_task for a given P_eng, or
  // nullopt when even P_task = 1 does not fit.
  std::optional<int> max_task_parallelism(const DseRequest& request,
                                          int p_eng) const;

  // Placement-call accounting of the most recent enumerate().
  DseStats last_stats() const;

 private:
  // One memoized placement attempt: the config it was derived from, the
  // placement (when one exists) and whether the point fits the device.
  struct PlacedPoint {
    accel::HeteroSvdConfig config;
    std::optional<accel::PlacementResult> placement;
    perf::ResourceUsage resources;
    bool feasible = false;
  };
  // Per-P_eng-slice memo: P_task -> placement attempt, plus how often an
  // attempt was served from it. Slices are independent, so each parallel
  // slice owns its own cache and there is no cross-thread sharing to
  // synchronize; every miss adds one entry, so points.size() is the
  // slice's placement-call count.
  struct SliceCache {
    std::map<int, std::shared_ptr<const PlacedPoint>> points;
    std::uint64_t reuses = 0;
  };

  accel::HeteroSvdConfig make_config(const DseRequest& request, int p_eng,
                                     int p_task) const;
  std::shared_ptr<const PlacedPoint> place_cached(const DseRequest& request,
                                                  int p_eng, int p_task,
                                                  SliceCache& cache) const;
  std::optional<int> max_task_parallelism_cached(const DseRequest& request,
                                                 int p_eng,
                                                 SliceCache& cache) const;

  // One memoized enumeration: the pre-sort points, so one entry serves
  // every objective, and each objective's winner, so optimize() answers
  // a hit without copying and sorting the points (empty when nothing
  // fits).
  struct MemoEntry {
    std::vector<DesignPoint> points;
    std::optional<DesignPoint> best_latency;
    std::optional<DesignPoint> best_throughput;
  };
  // The memo entry of `request` (counted as a hit) or nullptr. The caller
  // holds enumerate_memo_mutex.
  const MemoEntry* memo_hit(const DseRequest& request,
                            const std::string& key) const;

  FrequencyModel freq_;
  perf::PowerModel power_;
  perf::PerformanceModel perf_;
  // Shared (not copied per explorer value) so that the counters survive
  // the copies the by-value API encourages; atomics because one explorer
  // serves concurrent callers (each enumerate() counts its own slices and
  // publishes the totals once). The cross-call enumerate memo lives here
  // too, so copies of one explorer (the backend registry holds several)
  // share one memo.
  struct Counters {
    std::atomic<std::uint64_t> placement_calls{0};
    std::atomic<std::uint64_t> placement_reuses{0};
    std::atomic<std::uint64_t> enumerate_memo_hits{0};
    std::mutex enumerate_memo_mutex;
    // Request digest (request_digest) -> memoized enumeration.
    std::map<std::string, MemoEntry> enumerate_memo;
  };
  std::shared_ptr<Counters> counters_ = std::make_shared<Counters>();
};

}  // namespace hsvd::dse
