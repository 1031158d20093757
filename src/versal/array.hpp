// The AIE array simulator: tiles with core timelines and byte-ledgered
// memories, plus the three inter-tile transfer mechanisms of Fig. 1
// (neighbour access, DMA, packet streams) with their cost asymmetry.
//
// Tiles are addressed by their geometry index (ArrayGeometry::index_of),
// which a caller resolves once -- the accelerator does it when it
// compiles a task slot's program -- so no event re-derives it. A
// transfer moves a ColumnToken (versal/memory.hpp), which records where
// its column lives; the tiles keep only byte ledgers. The data plane
// mirrors the hardware's costs: a neighbour access hands the token to
// the consumer (the "free copy" through a shared memory module), a
// packet's token lands in the destination memory, and DMA is the only
// transfer that duplicates -- into the token's shadow copy on the
// destination, the twice-the-memory cost of the slow path, accounted by
// bytes.
//
// A token that never landed is moved by accounting and timing alone,
// which is how the timing-only estimate() runs (timing is
// data-independent once the iteration count is fixed).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "versal/faults.hpp"
#include "versal/geometry.hpp"
#include "versal/memory.hpp"
#include "versal/packet.hpp"
#include "versal/resources.hpp"
#include "versal/timeline.hpp"
#include "versal/utilization.hpp"

namespace hsvd::versal {

struct ArrayStats {
  std::uint64_t neighbour_transfers = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t stream_packets = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t kernel_invocations = 0;
};

class AieArraySim {
 public:
  AieArraySim(const ArrayGeometry& geometry, const DeviceResources& device);

  const ArrayGeometry& geometry() const { return geometry_; }
  const DeviceResources& device() const { return device_; }

  TileMemory& memory(int tile) {
    return memories_[static_cast<std::size_t>(tile)];
  }
  const TileMemory& memory(int tile) const {
    return memories_[static_cast<std::size_t>(tile)];
  }
  Timeline& core(const TileCoord& t);

  // --- Accounted transfers of column tokens ---------------------------
  // `src`/`dst` are tile indices; `bytes` is the column size the link
  // and engine tallies charge.

  // Neighbour transfer. Zero-copy in time and in data: the consuming
  // kernel reads the shared memory module directly, so a token live on
  // `src` becomes live on `dst`. Adjacency is the caller's precondition
  // (ArrayGeometry::require_neighbour_access), checked once when the
  // dataflow is compiled, not per move.
  void neighbour_move(int src, int dst, ColumnToken& column,
                      std::uint64_t bytes);

  // DMA transfer: allowed between any two tiles. A token live on `src`
  // gets a shadow copy on `dst` while `src` keeps its original -- the
  // "twice the memory" cost -- and the source tile's DMA engine is
  // occupied for bytes / dma_rate. Returns completion time.
  double dma_move(int src, int dst, ColumnToken& column, double ready,
                  std::uint64_t bytes);

  // The consumer's side of a DMA: the shadow on `dst` becomes the live
  // copy and the original on `src` is released. Returns false, changing
  // nothing, when no shadow landed on `dst` (a dropped DMA).
  bool resolve_dma(int src, int dst, ColumnToken& column);

  // Stream packet from PL into a tile (or between tiles) through the
  // packet-switched network; serializes on the destination's stream port.
  // With a `land` token the payload lands on `dst` as that token's live
  // copy; without one (timing-only execution) the packet only costs wire
  // time.
  double stream_packet(int dst, const Packet& packet, double ready,
                       ColumnToken* land);

  // Removes the live copy on `tile`, releasing its bytes, and returns it.
  // Throws std::invalid_argument when the column is not live there.
  Buffer take(int tile, ColumnToken& column);

  // Releases every copy held by the tokens of batch task `task` (a failed
  // task's stranded columns, so later tasks on the same tiles start
  // clean). Returns the number of copies released.
  std::size_t purge(std::span<ColumnToken> columns, std::uint32_t task);

  // Records a kernel run on core `tile`'s timeline.
  double run_kernel(int tile, double ready, double duration);

  // Totals of the per-tile counters, summed on each call.
  ArrayStats stats() const;
  void reset_time();

  // Aggregate peak memory over all tiles (bytes) -- resource report.
  std::uint64_t peak_memory_bytes() const;

  // Busy-time utilization of the cores that ran at least one kernel,
  // relative to `makespan` seconds.
  double core_utilization(double makespan) const;

  // Per-tile busy/stall/idle cycle tallies and link-byte counters for a
  // run whose critical path ended at `makespan` seconds. Reads the
  // timelines and per-tile counters only -- never perturbs the schedule.
  // Aggregates match the scalar accessors exactly (core_utilization,
  // stats().dma_bytes, ...).
  UtilizationReport utilization(double makespan) const;

  // DMA engine rate (bytes/s): 32-bit per AIE clock cycle.
  double dma_rate() const { return 4.0 * device_.aie_clock_hz; }

  // Per-transfer DMA setup: buffer-descriptor programming plus lock
  // acquire/release (~300 AIE cycles). Part of why DMA is the slow path.
  double dma_setup_seconds() const { return 300.0 / device_.aie_clock_hz; }

  // Optional fault injection: when attached, kernels, DMA transfers,
  // packet stores, and staged buffers are perturbed per the injector's
  // FaultPlan (not owned; pass nullptr to detach). A hung core reports
  // +infinity as its kernel completion time -- the accelerator's
  // detection points treat a non-finite timestamp as a dead tile.
  void attach_faults(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* faults() const { return faults_; }

  // Optional observability context (not owned; nullptr detaches). When
  // attached, transfers and kernels record metrics counters/histograms,
  // and -- when the context's tracer is enabled -- simulated-domain spans
  // (per-tile kernel/DMA/stream tracks) plus fault-injection instants.
  // An enabled *tracer* serializes the accelerator's batch engine so
  // event order stays reproducible;
  // metrics-only observation is sharded and stays parallel-safe.
  void attach_observer(obs::ObsContext* observer);
  obs::ObsContext* observer() const { return obs_; }

 private:
  ArrayGeometry geometry_;
  DeviceResources device_;
  std::vector<TileMemory> memories_;
  std::vector<Timeline> cores_;
  std::vector<Timeline> stream_ports_;
  std::vector<Timeline> dma_engines_;  // one per tile (mm2s side)
  // Per-tile event tallies behind stats() and the utilization report.
  // Plain counters: every event is charged to one tile -- the kernel's
  // core, a neighbour move's or packet's destination, a DMA's source --
  // and each tile is written only by the task slot whose placement owns
  // it. The accelerator's batch engine runs one slot's chain on one host
  // thread at a time, so no counter is ever written concurrently, and the
  // sums read after the chains join are exact and order-independent.
  struct TileCounters {
    std::uint64_t kernel_invocations = 0;
    std::uint64_t neighbour_transfers = 0;
    std::uint64_t neighbour_bytes = 0;
    std::uint64_t dma_transfers = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t stream_packets = 0;
    std::uint64_t stream_bytes = 0;
    double stall_seconds = 0.0;
  };
  std::vector<TileCounters> tile_counters_;
  FaultInjector* faults_ = nullptr;
  obs::ObsContext* obs_ = nullptr;
};

}  // namespace hsvd::versal
