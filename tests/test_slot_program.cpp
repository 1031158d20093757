// Tests for the compiled per-slot block-pair program (accel/dataflow.hpp)
// and the column tokens + per-tile byte ledgers it drives: the program
// mirrors the placement and dataflow it was compiled from, adjacency is
// checked at compile time, tile ledgers end a fault-free run exactly as
// the per-tile slot vectors they replaced did, and the detection order
// inside a layer is the engine order.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/dataflow.hpp"
#include "common/rng.hpp"
#include "heterosvd.hpp"
#include "jacobi/movement.hpp"
#include "linalg/generators.hpp"

namespace hsvd::accel {
namespace {

// Two bands of orth-layers (7 layers on the 8-row array): the slot's
// program has neighbour moves and inter-band DMA moves.
HeteroSvdConfig two_band_config() {
  HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 2;
  cfg.fault_retries = 0;
  cfg.host_threads = 1;
  return cfg;
}

struct SlotInputs {
  jacobi::EngineSchedule schedule;
  TaskPlacement task;
  DataflowPlan plan;
};

SlotInputs slot_inputs(const HeteroSvdConfig& cfg,
                       const versal::ArrayGeometry& geo) {
  SlotInputs in;
  in.task = place(cfg).tasks.front();
  in.schedule = jacobi::make_schedule(cfg.ordering, cfg.pair_width(),
                                      in.task.orth.front().front().row % 2);
  in.plan =
      build_dataflow(in.schedule, in.task, geo, MemoryStrategy::kRelocated);
  return in;
}

TEST(SlotProgram, MirrorsPlacementScheduleAndDataflow) {
  const HeteroSvdConfig cfg = two_band_config();
  const versal::ArrayGeometry geo(cfg.device.aie_rows, cfg.device.aie_cols);
  const SlotInputs in = slot_inputs(cfg, geo);
  const SlotProgram program =
      compile_slot_program(in.schedule, in.task, in.plan, geo);
  const int k = cfg.p_eng;
  ASSERT_EQ(program.engines, k);
  ASSERT_EQ(program.layers, cfg.orth_layers());
  for (int l = 0; l < program.layers; ++l) {
    for (int e = 0; e < k; ++e) {
      const auto i = static_cast<std::size_t>(l * k + e);
      EXPECT_EQ(program.orth_tile[i],
                geo.index_of(in.task.orth[static_cast<std::size_t>(l)]
                                         [static_cast<std::size_t>(e)]));
      EXPECT_EQ(program.pairs[i], in.schedule[static_cast<std::size_t>(l)]
                                             [static_cast<std::size_t>(e)]);
    }
  }
  ASSERT_EQ(program.move_begin.size(), in.plan.transitions.size() + 1);
  int dma = 0;
  for (std::size_t t = 0; t < in.plan.transitions.size(); ++t) {
    const auto& moves = in.plan.transitions[t].moves;
    ASSERT_EQ(program.move_begin[t + 1] - program.move_begin[t], moves.size());
    for (std::size_t j = 0; j < moves.size(); ++j) {
      const SlotProgram::Move& mv = program.moves[program.move_begin[t] + j];
      EXPECT_EQ(mv.column, moves[j].column);
      EXPECT_EQ(mv.src, geo.index_of(moves[j].src));
      EXPECT_EQ(mv.dst, geo.index_of(moves[j].dst));
      EXPECT_EQ(mv.is_dma, moves[j].is_dma);
      dma += mv.is_dma ? 1 : 0;
    }
  }
  EXPECT_GT(dma, 0);  // the band crossing is a DMA
  EXPECT_LT(dma, static_cast<int>(program.moves.size()));
  const auto round0 = jacobi::slot_map(in.schedule, 0);
  const auto last = jacobi::slot_map(in.schedule, in.schedule.size() - 1);
  ASSERT_EQ(program.tx_dest.size(), static_cast<std::size_t>(2 * k));
  for (std::size_t c = 0; c < program.tx_dest.size(); ++c) {
    EXPECT_EQ(program.tx_dest[c], static_cast<std::uint32_t>(round0[c].slot));
    EXPECT_EQ(program.rx_tile[c],
              geo.index_of(in.task.orth.back()[static_cast<std::size_t>(
                  last[c].slot)]));
  }
  ASSERT_EQ(program.norm_tile.size(), in.task.norm.size());
  for (std::size_t e = 0; e < in.task.norm.size(); ++e) {
    EXPECT_EQ(program.norm_tile[e], geo.index_of(in.task.norm[e]));
  }
}

TEST(SlotProgram, NonAdjacentNeighbourMoveIsRejectedAtCompileTime) {
  const HeteroSvdConfig cfg = two_band_config();
  const versal::ArrayGeometry geo(cfg.device.aie_rows, cfg.device.aie_cols);
  SlotInputs in = slot_inputs(cfg, geo);
  // Reroute one neighbour move to a tile its source shares no memory
  // module with.
  ClassifiedMove& mv = in.plan.transitions.front().moves.front();
  ASSERT_FALSE(mv.is_dma);
  mv.dst = {mv.src.row, mv.src.col + 5};
  try {
    compile_slot_program(in.schedule, in.task, in.plan, geo);
    FAIL() << "non-adjacent neighbour move compiled";
  } catch (const std::invalid_argument& e) {
    const std::string expect = "tiles " + versal::to_string(mv.src) + " -> " +
                               versal::to_string(mv.dst) +
                               " are not neighbour-accessible";
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << e.what();
  }
  // The same move as a DMA is legal: DMA reaches any tile.
  mv.is_dma = true;
  EXPECT_NO_THROW(compile_slot_program(in.schedule, in.task, in.plan, geo));
}

// FNV-1a over every tile's (index, peak_bytes, used_bytes), in index order.
struct LedgerDigest {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  int touched = 0;
  std::uint64_t total_peak = 0;
  std::uint64_t used = 0;
  std::map<std::uint64_t, int> peaks;  // peak bytes -> tile count
};

LedgerDigest ledger_digest(const HeteroSvdAccelerator& acc) {
  const versal::AieArraySim& array = acc.array();
  LedgerDigest out;
  const auto fold = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.digest ^= (v >> (8 * i)) & 0xffu;
      out.digest *= 0x100000001b3ull;
    }
  };
  for (int i = 0; i < array.geometry().tile_count(); ++i) {
    const versal::TileMemory& mem = array.memory(i);
    fold(static_cast<std::uint64_t>(i));
    fold(mem.peak_bytes());
    fold(mem.used_bytes());
    out.used += mem.used_bytes();
    if (mem.peak_bytes() > 0) {
      ++out.touched;
      out.total_peak += mem.peak_bytes();
      ++out.peaks[mem.peak_bytes()];
    }
  }
  return out;
}

TEST(ColumnTable, FaultFreeLedgersMatchPinnedPerTileValues) {
  // Values pinned from the per-tile slot-vector memories the column table
  // replaced: every orth tile peaks at two 64-float columns and ends the
  // run empty, with shadow copies (naive strategy) included.
  Rng rng(64);
  const auto a = linalg::random_gaussian(64, 64, rng).cast<float>();
  SvdOptions opts;
  opts.threads = 1;
  {
    HeteroSvdAccelerator acc(planned_config(64, 64, 1, opts));
    ASSERT_EQ(acc.run({a}).failed_tasks, 0);
    const LedgerDigest d = ledger_digest(acc);
    EXPECT_EQ(d.touched, 28);
    EXPECT_EQ(d.total_peak, 14336u);
    EXPECT_EQ(d.used, 0u);
    EXPECT_EQ(d.peaks, (std::map<std::uint64_t, int>{{512, 28}}));
    EXPECT_EQ(d.digest, 0x4b1cc2248decc955ull);
  }
  {
    std::vector<linalg::MatrixF> batch;
    for (int i = 0; i < 16; ++i) {
      batch.push_back(linalg::random_gaussian(64, 64, rng).cast<float>());
    }
    HeteroSvdAccelerator acc(planned_config(64, 64, 16, opts));
    ASSERT_EQ(acc.run(batch).failed_tasks, 0);
    const LedgerDigest d = ledger_digest(acc);
    EXPECT_EQ(d.touched, 240);
    EXPECT_EQ(d.total_peak, 122880u);
    EXPECT_EQ(d.used, 0u);
    EXPECT_EQ(d.peaks, (std::map<std::uint64_t, int>{{512, 240}}));
    EXPECT_EQ(d.digest, 0x4ac1f7f0a96148b5ull);
  }
  {
    HeteroSvdConfig cfg = planned_config(64, 64, 1, opts);
    cfg.relocated_outputs = false;
    HeteroSvdAccelerator acc(cfg);
    ASSERT_EQ(acc.run({a}).failed_tasks, 0);
    EXPECT_EQ(ledger_digest(acc).digest, 0x4b1cc2248decc955ull);
  }
}

TEST(ColumnTable, EarlierEngineOfALayerIsDetectedFirst) {
  // Two faults in layer 0: engine 1's fault is reported, never engine
  // 2's, whichever kind each is -- the layer's math runs as one step, but
  // its detection points fire engine by engine.
  const HeteroSvdConfig cfg = two_band_config();
  Rng rng(5);
  const auto a = linalg::random_gaussian(24, 16, rng).cast<float>();
  for (const bool hang_first : {true, false}) {
    HeteroSvdAccelerator acc(cfg);
    const auto& layer0 = acc.placement().tasks[0].orth.front();
    ASSERT_EQ(versal::to_string(layer0[1]), "(1,1)");
    versal::FaultPlan plan;
    const auto first = hang_first ? versal::FaultKind::kTileHang
                                  : versal::FaultKind::kStreamDrop;
    const auto second = hang_first ? versal::FaultKind::kStreamDrop
                                   : versal::FaultKind::kTileHang;
    plan.faults.push_back({first, layer0[1], 0, 0, 0.0, 1.0});
    plan.faults.push_back({second, layer0[2], 0, 0, 0.0, 1.0});
    versal::FaultInjector injector(plan);
    acc.attach_faults(&injector);
    const RunResult run = acc.run({a});
    ASSERT_EQ(run.tasks.size(), 1u);
    const TaskResult& task = run.tasks[0];
    EXPECT_EQ(task.status, hsvd::SvdStatus::kFailed);
    EXPECT_EQ(task.message,
              hang_first
                  ? "core (1,1) hung during orthogonalization"
                  : "tile (1,1) is missing an input column (payload lost in "
                    "transit)");
    ASSERT_TRUE(task.fault_tile.has_value());
    EXPECT_EQ(*task.fault_tile, layer0[1]);
    // The purge left no token behind.
    for (int i = 0; i < acc.array().geometry().tile_count(); ++i) {
      EXPECT_EQ(acc.array().memory(i).used_bytes(), 0u);
    }
  }
}

}  // namespace
}  // namespace hsvd::accel
