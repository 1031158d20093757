#include "accel/dataflow.hpp"

#include "common/assert.hpp"

namespace hsvd::accel {

int LayerTransition::dma_count() const {
  int n = 0;
  for (const auto& m : moves) n += m.is_dma ? 1 : 0;
  return n;
}

int DataflowPlan::total_dma() const {
  int n = 0;
  for (const auto& t : transitions) n += t.dma_count();
  return n;
}

int DataflowPlan::total_neighbour() const {
  int n = 0;
  for (const auto& t : transitions)
    n += static_cast<int>(t.moves.size()) - t.dma_count();
  return n;
}

std::uint64_t DataflowPlan::dma_shadow_bytes(std::size_t column_rows) const {
  return static_cast<std::uint64_t>(total_dma()) * column_rows * sizeof(float);
}

namespace {

bool transfer_is_neighbour(const versal::ArrayGeometry& geo,
                           const versal::TileCoord& src,
                           const versal::TileCoord& dst,
                           MemoryStrategy strategy) {
  if (strategy == MemoryStrategy::kRelocated) {
    return geo.neighbour_transfer_possible(src, dst);
  }
  // Naive: the result sits in the producer's own memory module; the
  // consumer's core must be able to reach that exact module.
  return geo.core_can_access_memory(dst, src);
}

}  // namespace

DataflowPlan build_dataflow(const jacobi::EngineSchedule& schedule,
                            const TaskPlacement& task,
                            const versal::ArrayGeometry& geometry,
                            MemoryStrategy strategy) {
  const std::size_t layers = schedule.size();
  HSVD_REQUIRE(task.orth.size() == layers,
               "placement layer count must match the schedule");
  DataflowPlan plan;
  plan.transitions.reserve(layers - 1);
  for (std::size_t r = 0; r + 1 < layers; ++r) {
    LayerTransition tr;
    tr.layer = static_cast<int>(r);
    const auto from = jacobi::slot_map(schedule, r);
    const auto to = jacobi::slot_map(schedule, r + 1);
    for (std::size_t col = 0; col < from.size(); ++col) {
      ClassifiedMove m;
      m.column = static_cast<int>(col);
      m.src = task.orth[r][static_cast<std::size_t>(from[col].slot)];
      m.dst = task.orth[r + 1][static_cast<std::size_t>(to[col].slot)];
      m.dst_side = to[col].side;
      m.is_dma = !transfer_is_neighbour(geometry, m.src, m.dst, strategy);
      tr.moves.push_back(m);
    }
    plan.transitions.push_back(std::move(tr));
  }
  return plan;
}

SlotProgram compile_slot_program(const jacobi::EngineSchedule& schedule,
                                 const TaskPlacement& task,
                                 const DataflowPlan& plan,
                                 const versal::ArrayGeometry& geometry) {
  const std::size_t layers = schedule.size();
  HSVD_REQUIRE(layers >= 1 && task.orth.size() == layers,
               "placement layer count must match the schedule");
  HSVD_REQUIRE(plan.transitions.size() + 1 == layers,
               "dataflow transition count must match the schedule");
  SlotProgram program;
  program.engines = static_cast<int>(schedule.front().size());
  program.layers = static_cast<int>(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    HSVD_REQUIRE(schedule[l].size() == task.orth[l].size(),
                 "placement engine count must match the schedule");
    for (std::size_t e = 0; e < schedule[l].size(); ++e) {
      program.orth_tile.push_back(geometry.index_of(task.orth[l][e]));
      program.pairs.push_back(schedule[l][e]);
    }
  }
  for (const auto& transition : plan.transitions) {
    program.move_begin.push_back(program.moves.size());
    for (const auto& mv : transition.moves) {
      if (!mv.is_dma) geometry.require_neighbour_access(mv.src, mv.dst);
      program.moves.push_back({mv.column, geometry.index_of(mv.src),
                               geometry.index_of(mv.dst), mv.is_dma});
    }
  }
  program.move_begin.push_back(program.moves.size());
  const auto round0 = jacobi::slot_map(schedule, 0);
  const auto last = jacobi::slot_map(schedule, layers - 1);
  for (std::size_t c = 0; c < round0.size(); ++c) {
    program.tx_dest.push_back(static_cast<std::uint32_t>(round0[c].slot));
    program.rx_tile.push_back(geometry.index_of(
        task.orth[layers - 1][static_cast<std::size_t>(last[c].slot)]));
  }
  for (const auto& tile : task.norm) {
    program.norm_tile.push_back(geometry.index_of(tile));
  }
  return program;
}

int count_sweep_dma(jacobi::OrderingKind kind, int k, MemoryStrategy strategy) {
  HSVD_REQUIRE(k >= 1, "engine count must be positive");
  const int layers = 2 * k - 1;
  // Idealized single-band array, one row per layer starting at row 1 (the
  // paper's placement convention: row 0 is a boundary mem row).
  const int first_row = 1;
  const auto schedule = jacobi::make_schedule(kind, 2 * k, first_row % 2);
  const versal::ArrayGeometry geo(layers + 1, k);
  TaskPlacement task;
  task.orth.resize(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    auto& row = task.orth[static_cast<std::size_t>(l)];
    row.resize(static_cast<std::size_t>(k));
    for (int e = 0; e < k; ++e)
      row[static_cast<std::size_t>(e)] = {first_row + l, e};
  }
  task.band_first_layer = {0};
  return build_dataflow(schedule, task, geo, strategy).total_dma();
}

}  // namespace hsvd::accel
