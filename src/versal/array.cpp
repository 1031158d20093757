#include "versal/array.hpp"

#include <algorithm>
#include <limits>

#include "common/format.hpp"

namespace hsvd::versal {

AieArraySim::AieArraySim(const ArrayGeometry& geometry,
                         const DeviceResources& device)
    : geometry_(geometry),
      device_(device),
      memories_(static_cast<std::size_t>(geometry_.tile_count()),
                TileMemory(device_.tile_memory_bytes())),
      cores_(static_cast<std::size_t>(geometry_.tile_count())),
      stream_ports_(static_cast<std::size_t>(geometry_.tile_count())),
      dma_engines_(static_cast<std::size_t>(geometry_.tile_count())),
      tile_counters_(static_cast<std::size_t>(geometry_.tile_count())) {}

void AieArraySim::attach_observer(obs::ObsContext* observer) {
  obs_ = observer;
  if (obs_ == nullptr) return;
  // Cycle histograms share the default exponential bounds; registering is
  // idempotent so repeated attachment is safe.
  const auto bounds = obs::MetricsRegistry::default_bounds();
  obs_->metrics().register_histogram("sim.kernel.cycles", bounds);
  obs_->metrics().register_histogram("sim.dma.cycles", bounds);
  obs_->metrics().register_histogram("sim.stream.cycles", bounds);
}

Timeline& AieArraySim::core(const TileCoord& t) {
  return cores_[static_cast<std::size_t>(geometry_.index_of(t))];
}

void AieArraySim::neighbour_move(int src, int dst, ColumnToken& column,
                                 std::uint64_t bytes) {
  TileCounters& tally = tile_counters_[static_cast<std::size_t>(dst)];
  ++tally.neighbour_transfers;
  if (obs_ != nullptr) obs_->metrics().add("sim.neighbour.transfers");
  if (src == dst) return;
  if (column.live_tile == src) {
    memory(src).release(column.bytes);
    column.live_tile = ColumnToken::kNoTile;
    memory(dst).charge(column.key, column.bytes);
    column.live_tile = dst;
  }
  // The consuming tile reads the shared memory module: charge the link
  // bytes to the destination.
  tally.neighbour_bytes += bytes;
}

double AieArraySim::dma_move(int src, int dst, ColumnToken& column,
                             double ready, std::uint64_t bytes) {
  const auto src_index = static_cast<std::size_t>(src);
  TileCounters& tally = tile_counters_[src_index];
  ++tally.dma_transfers;
  bool drop = false;
  double stall = 0.0;
  if (faults_ != nullptr) {
    stall = faults_->on_dma(geometry_.coord_of(src), &drop);
  }
  if (stall > 0 || drop) {
    tally.stall_seconds += stall;
    if (obs_ != nullptr) {
      obs_->metrics().add(drop ? "sim.fault.inject.dma_drop"
                               : "sim.fault.inject.dma_stall");
      if (obs::Tracer* tr = obs_->tracer()) {
        tr->instant(obs::Domain::kSim, "faults",
                    cat(drop ? "inject:dma-drop " : "inject:dma-stall ",
                        to_string(geometry_.coord_of(src))),
                    "fault", ready);
      }
    }
  }
  // The shadow copy lives in the destination while the source keeps its
  // original until the consumer resolves it: the 2x memory cost of DMA.
  // A dropped DMA consumes the engine's time but never lands the shadow;
  // a staged shadow can take an injected SEU.
  if (column.live_tile == src && !drop) {
    Buffer shadow{column.bytes, column.live_stamp};
    if (faults_ != nullptr) {
      faults_->corrupt_payload(geometry_.coord_of(dst), shadow);
    }
    memory(dst).charge(column.key.shadow(), shadow.bytes);
    column.shadow_tile = dst;
    column.shadow_stamp = shadow.stamp;
  }
  tally.dma_bytes += bytes;
  Timeline& engine = dma_engines_[src_index];
  const double duration =
      stall + dma_setup_seconds() + static_cast<double>(bytes) / dma_rate();
  const double done = engine.schedule(ready, duration);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.dma.transfers");
    obs_->metrics().add("sim.dma.bytes", bytes);
    obs_->metrics().observe("sim.dma.cycles", duration * device_.aie_clock_hz);
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim,
               cat("dma", to_string(geometry_.coord_of(src))),
               cat(to_string(column.key), " -> ",
                   to_string(geometry_.coord_of(dst))),
               "dma", done - duration, duration);
    }
  }
  return done;
}

bool AieArraySim::resolve_dma(int src, int dst, ColumnToken& column) {
  if (column.shadow_tile != dst) return false;
  // The shadow's bytes stay on dst as the live copy's.
  if (column.live_tile == src) memory(src).release(column.bytes);
  column.live_tile = dst;
  column.live_stamp = column.shadow_stamp;
  column.shadow_tile = ColumnToken::kNoTile;
  return true;
}

double AieArraySim::stream_packet(int dst, const Packet& packet, double ready,
                                  ColumnToken* land) {
  const auto dst_index = static_cast<std::size_t>(dst);
  TileCounters& tally = tile_counters_[dst_index];
  const std::uint64_t wire_bytes = packet.bytes();
  ++tally.stream_packets;
  tally.stream_bytes += wire_bytes;
  bool drop = false;
  double stall = 0.0;
  if (faults_ != nullptr) {
    stall = faults_->on_stream(geometry_.coord_of(dst), &drop);
  }
  if (stall > 0 || drop) {
    tally.stall_seconds += stall;
    if (obs_ != nullptr) {
      obs_->metrics().add(drop ? "sim.fault.inject.stream_drop"
                               : "sim.fault.inject.stream_stall");
      if (obs::Tracer* tr = obs_->tracer()) {
        tr->instant(obs::Domain::kSim, "faults",
                    cat(drop ? "inject:stream-drop " : "inject:stream-stall ",
                        to_string(geometry_.coord_of(dst))),
                    "fault", ready);
      }
    }
  }
  if (land != nullptr && !drop) {
    Buffer payload = packet.payload;
    if (faults_ != nullptr) {
      faults_->corrupt_payload(geometry_.coord_of(dst), payload);
    }
    memories_[dst_index].charge(land->key, payload.bytes);
    land->bytes = payload.bytes;
    land->live_tile = dst;
    land->live_stamp = payload.stamp;
  }
  // Stream ports move 32 bits per AIE cycle.
  const double rate = 4.0 * device_.aie_clock_hz;
  Timeline& port = stream_ports_[dst_index];
  const double duration = stall + static_cast<double>(wire_bytes) / rate;
  const double done = port.schedule(ready, duration);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.stream.packets");
    obs_->metrics().add("sim.stream.bytes", wire_bytes);
    obs_->metrics().observe("sim.stream.cycles",
                            duration * device_.aie_clock_hz);
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim,
               cat("stream", to_string(geometry_.coord_of(dst))),
               cat("pkt c", packet.header.column, " t", packet.header.task),
               "stream", done - duration, duration);
    }
  }
  return done;
}

Buffer AieArraySim::take(int tile, ColumnToken& column) {
  HSVD_REQUIRE(column.live_tile == tile,
               cat("missing buffer '", to_string(column.key), "'"));
  memory(tile).release(column.bytes);
  column.live_tile = ColumnToken::kNoTile;
  return Buffer{column.bytes, column.live_stamp};
}

std::size_t AieArraySim::purge(std::span<ColumnToken> columns,
                               std::uint32_t task) {
  std::size_t released = 0;
  for (ColumnToken& column : columns) {
    if (column.key.task() != task) continue;
    for (int* tile : {&column.live_tile, &column.shadow_tile}) {
      if (*tile == ColumnToken::kNoTile) continue;
      memory(*tile).release(column.bytes);
      *tile = ColumnToken::kNoTile;
      ++released;
    }
  }
  return released;
}

double AieArraySim::run_kernel(int tile, double ready, double duration) {
  const auto index = static_cast<std::size_t>(tile);
  ++tile_counters_[index].kernel_invocations;
  if (faults_ != nullptr && faults_->hang_core(geometry_.coord_of(tile))) {
    // The core never completes: report an unreachable completion time and
    // leave the timeline untouched so healthy tiles stay unperturbed.
    if (obs_ != nullptr) {
      obs_->metrics().add("sim.fault.inject.tile_hang");
      if (obs::Tracer* tr = obs_->tracer()) {
        tr->instant(obs::Domain::kSim, "faults",
                    cat("inject:hang ", to_string(geometry_.coord_of(tile))),
                    "fault", ready);
      }
    }
    return std::numeric_limits<double>::infinity();
  }
  const double done = cores_[index].schedule(ready, duration);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.kernel.invocations");
    obs_->metrics().observe("sim.kernel.cycles",
                            duration * device_.aie_clock_hz);
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim,
               cat("core", to_string(geometry_.coord_of(tile))),
               "kernel", "kernel", done - duration, duration);
    }
  }
  return done;
}

ArrayStats AieArraySim::stats() const {
  ArrayStats total;
  for (const TileCounters& c : tile_counters_) {
    total.neighbour_transfers += c.neighbour_transfers;
    total.dma_transfers += c.dma_transfers;
    total.dma_bytes += c.dma_bytes;
    total.stream_packets += c.stream_packets;
    total.stream_bytes += c.stream_bytes;
    total.kernel_invocations += c.kernel_invocations;
  }
  return total;
}

void AieArraySim::reset_time() {
  for (auto& c : cores_) c.reset();
  for (auto& p : stream_ports_) p.reset();
  for (auto& d : dma_engines_) d.reset();
}

std::uint64_t AieArraySim::peak_memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : memories_) total += m.peak_bytes();
  return total;
}

double AieArraySim::core_utilization(double makespan) const {
  if (makespan <= 0) return 0.0;
  double busy = 0.0;
  int active = 0;
  for (const auto& c : cores_) {
    if (c.busy_seconds() > 0) {
      busy += c.busy_seconds();
      ++active;
    }
  }
  if (active == 0) return 0.0;
  return busy / (static_cast<double>(active) * makespan);
}

UtilizationReport AieArraySim::utilization(double makespan) const {
  UtilizationReport report;
  report.rows = geometry_.rows();
  report.cols = geometry_.cols();
  report.makespan_seconds = makespan;
  report.aie_clock_hz = device_.aie_clock_hz;
  const double hz = device_.aie_clock_hz;
  const double makespan_cycles = makespan * hz;
  report.tiles.resize(static_cast<std::size_t>(geometry_.tile_count()));
  for (int row = 0; row < geometry_.rows(); ++row) {
    for (int col = 0; col < geometry_.cols(); ++col) {
      const TileCoord coord{row, col};
      const auto i = static_cast<std::size_t>(geometry_.index_of(coord));
      TileUtilization& t = report.tiles[i];
      const TileCounters& c = tile_counters_[i];
      t.tile = coord;
      t.busy_cycles = cores_[i].busy_seconds() * hz;
      t.stalled_cycles = c.stall_seconds * hz;
      t.idle_cycles =
          std::max(0.0, makespan_cycles - t.busy_cycles - t.stalled_cycles);
      t.dma_busy_cycles = dma_engines_[i].busy_seconds() * hz;
      t.stream_busy_cycles = stream_ports_[i].busy_seconds() * hz;
      t.kernel_invocations = c.kernel_invocations;
      t.neighbour_bytes = c.neighbour_bytes;
      t.dma_bytes = c.dma_bytes;
      t.stream_bytes = c.stream_bytes;
    }
  }
  return report;
}

}  // namespace hsvd::versal
