// AIE-centric dataflow construction and classification (paper section
// III-B, Figs. 3 and 4).
//
// Between consecutive orth-layers every column of the block pair travels
// from the tile that processed it to the tile that processes it next.
// Whether that transfer is a cheap neighbour access or an expensive DMA
// depends on three things this module combines:
//   1. the ordering (which slot the column moves to),
//   2. the memory strategy (naive: outputs stay in the producer's memory;
//      relocated: outputs are written into the next row's memory),
//   3. the physical placement (row parity mirroring; band crossings).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/placement.hpp"
#include "jacobi/movement.hpp"
#include "jacobi/ordering.hpp"
#include "versal/geometry.hpp"

namespace hsvd::accel {

enum class MemoryStrategy {
  kNaive,      // Fig. 4(a): output in own memory; consumer must reach it
  kRelocated   // Fig. 4(b): output deposited into a memory the consumer
               // can read (the co-designed default)
};

struct ClassifiedMove {
  int column = 0;                 // logical column within the block pair
  versal::TileCoord src;
  versal::TileCoord dst;
  jacobi::Side dst_side = jacobi::Side::kLeft;
  bool is_dma = false;
};

// Moves for the transition from layer `layer` to layer `layer + 1`.
// All 2k columns move (a column that keeps its slot still descends one
// row to the next layer's tile).
struct LayerTransition {
  int layer = 0;
  std::vector<ClassifiedMove> moves;
  int dma_count() const;
};

struct DataflowPlan {
  std::vector<LayerTransition> transitions;  // size = layers - 1
  int total_dma() const;
  int total_neighbour() const;
  // Extra tile-memory bytes needed for DMA shadow copies, given the
  // column length in floats (the "twice the memory" cost of Fig. 4(a)).
  std::uint64_t dma_shadow_bytes(std::size_t column_rows) const;
};

// Builds the classified dataflow for one task placement.
DataflowPlan build_dataflow(const jacobi::EngineSchedule& schedule,
                            const TaskPlacement& task,
                            const versal::ArrayGeometry& geometry,
                            MemoryStrategy strategy);

// A task slot's block-pair program: everything about a block pair's run
// that the placement, the schedule and the classified dataflow fix, as
// flat arrays of array tile indices (ArrayGeometry::index_of), so the
// accelerator executes a pair without re-deriving any of it. Local
// column c (0..2k-1) is block u's column c for c < k, else block v's
// column c - k.
struct SlotProgram {
  struct Move {
    int column = 0;  // local column
    int src = 0;     // tile indices
    int dst = 0;
    bool is_dma = false;
  };
  int engines = 0;  // k = P_eng
  int layers = 0;   // 2k - 1
  // Per layer, engine-major: [layer * engines + engine].
  std::vector<int> orth_tile;
  std::vector<jacobi::ColumnPair> pairs;  // local columns
  // Moves of the transition out of layer l (l < layers - 1) are
  // moves[move_begin[l] .. move_begin[l + 1]).
  std::vector<Move> moves;
  std::vector<std::size_t> move_begin;
  // Per local column: the Tx forwarding key (its round-0 engine slot)
  // and the last-layer tile Rx drains it from.
  std::vector<std::uint32_t> tx_dest;
  std::vector<int> rx_tile;
  // Per engine: the norm-AIE of the normalization stage.
  std::vector<int> norm_tile;
};

// Compiles the program of one task slot. Every neighbour move of `plan`
// is checked for adjacency here, once (ArrayGeometry::
// require_neighbour_access: throws std::invalid_argument "... are not
// neighbour-accessible").
SlotProgram compile_slot_program(const jacobi::EngineSchedule& schedule,
                                 const TaskPlacement& task,
                                 const DataflowPlan& plan,
                                 const versal::ArrayGeometry& geometry);

// Analysis helper for Fig. 3: places the full (2k-1) x k ordering on an
// idealized array tall enough to avoid banding, and returns the DMA count
// of one sweep. `k` is the engine count (matrix has 2k columns).
int count_sweep_dma(jacobi::OrderingKind kind, int k,
                    MemoryStrategy strategy = MemoryStrategy::kRelocated);

}  // namespace hsvd::accel
