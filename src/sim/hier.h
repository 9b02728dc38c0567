// Hierarchical bordered-block-diagonal MNA solver (opt-in via
// NewtonOptions::hierarchical; see docs/performance.md "Layer 6").
//
// The paper's circuits are dozens-to-hundreds of copies of a handful of
// CML cells. cml::CellBuilder annotates each cell's devices as a
// netlist::CellInstance; this solver partitions the MNA unknowns from
// the *live* topology (so defect node-splits reclassify correctly): an
// unknown is internal to cell k iff every device touching it belongs to
// cell k, everything else — interconnect, rails, sources, detectors,
// fault devices — is border. Each Newton iteration then runs:
//
//   P1 (parallel)  per-cell assembly straight into the four blocks
//                  A_II, A_IB, A_BI, A_BB (each cell replays its devices'
//                  compiled stamp targets), plus a 64-bit block hash
//   S1 (serial)    factor-share grouping: hash lookup confirmed by an
//                  exact compare of the blocks
//   P2 (parallel)  LU + Schur complement of each unique block
//                  (linalg/bbd.h), shared across matching cells
//   P3 (parallel)  per-cell rhs reduction
//   S2 (serial)    border assembly in cell order (through slot pointers
//                  compiled once) + global devices (through their
//                  compiled stamp targets)
//   --             border solve (dense, or sparse above the same
//                  crossover as the flat kAuto solver)
//   P4 (parallel)  per-cell back-substitution
//
// All storage — cell blocks, factors, share tables, border system — is
// sized once and reused, so a steady-state solve allocates nothing.
//
// Every parallel phase writes to disjoint per-cell storage and every
// reduction runs serially in cell order, so results are bit-identical
// for any thread count. The elimination order differs from the flat
// solve, so solutions are tolerance-equivalent (not bitwise) to flat —
// gated in tests exactly like dense == sparse.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/bbd.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "netlist/netlist.h"
#include "netlist/stamp_context.h"
#include "sim/options.h"
#include "util/status.h"

namespace cmldft::sim {

class MnaSystem;

class HierSolver {
 public:
  /// Builds the partition from `mna`'s netlist. The solver keeps a
  /// pointer; the MnaSystem must outlive it (MnaSystem owns its solver).
  explicit HierSolver(MnaSystem* mna);

  /// True when at least one annotated cell resolved to live devices and
  /// contributes internal unknowns worth eliminating. When false the
  /// caller must use the flat path.
  bool usable() const { return usable_; }

  int num_cells() const { return static_cast<int>(cells_.size()); }
  int border_size() const { return static_cast<int>(border_unknowns_.size()); }

  /// One hierarchical Newton linear solve: assemble all device stamps at
  /// `iterate`, eliminate cell internals, solve the border, and
  /// back-substitute. On success `*x_new` is the next Newton iterate
  /// (same convention as flat Assemble + solve). SingularMatrix when a
  /// cell block or the border has no stable pivot — the Newton loop
  /// reports it exactly like a flat factorization failure so the DC
  /// homotopy ladder reacts normally.
  util::Status AssembleAndSolve(const linalg::Vector& iterate,
                                linalg::Vector* x_new,
                                const NewtonOptions& opts);

 private:
  class CellOwner;
  class BorderOwner;

  struct Cell {
    std::string name;
    int type = 0;  ///< interned cell type; factors are shared within a type
    std::vector<int> device_ordinals;
    std::vector<int> internal;  ///< global unknown ids, ascending
    std::vector<int> border;    ///< touched border unknowns, ascending
    /// Border-matrix targets of this cell's A_BB - S block, nb x nb
    /// row-major (see CompileBorderSlots).
    std::vector<double*> border_slots;
    /// The cell's devices' compiled stamp targets, into the blocks below.
    netlist::StampContext ctx;

    // Per-solve scratch (each cell's is touched by exactly one worker in
    // the parallel phases, so the writes are disjoint by construction).
    linalg::Matrix a_ii, a_ib, a_bi, a_bb;
    linalg::Vector rhs_i, rhs_b;
    uint64_t key_hash = 0;    ///< hash of type, shape, A_II, A_IB, A_BI
    size_t stamps = 0;        ///< Stamp() calls of this solve's assembly
    int factors = -1;         ///< pool_ entry this solve's factors live in
    linalg::Vector y, c;      ///< rhs reduction outputs
    linalg::Vector x_b, x_i;  ///< back-substitution scratch
  };

  /// One factored block, shared by every cell whose key matches.
  struct SharedFactors {
    linalg::BbdBlockFactors factors;
    /// The A_II | A_IB | A_BI entries the factors were computed from.
    std::vector<double> key;
    uint64_t hash = 0;
    int type = 0;
    size_t ni = 0, nb = 0;
    uint64_t last_used = 0;  ///< solves_ of the last solve that used it
  };

  void BuildPartition();
  /// P1 for one cell: replay its devices' compiled targets, or record
  /// them (zeroing the blocks first). Returns the Stamp() calls made.
  size_t AssembleCell(Cell& cell, const netlist::StampFrame& frame);
  /// S2: the cells' A_BB - S and rhs_b - c contributions in cell order,
  /// then the global devices through their compiled border targets.
  /// Returns the Stamp() calls made.
  size_t AssembleBorder(const netlist::StampFrame& frame);
  /// Resolve every cell's border_slots: pointers into the dense border
  /// matrix, or into the sparse builder's slots (creating them first, so
  /// no later insertion in the same pass can move an earlier target).
  void CompileBorderSlots();
  /// Factor-share key hash: cell type + dims + the block entries (raw
  /// bits when quantum == 0, quantized otherwise).
  static uint64_t KeyHash(const Cell& cell, double quantum);
  /// True when `cell`'s blocks key equal, at `quantum`, to the ones
  /// `entry` was built from (the exact confirmation behind a hash match).
  static bool SameKey(const SharedFactors& entry, const Cell& cell,
                      double quantum);
  /// Pool entry in `table` whose key matches `cell` at quantum_, or -1.
  int FindShared(const std::vector<int>& table, const Cell& cell) const;
  void InsertShared(std::vector<int>* table, int entry) const;
  /// Forget every factorization (after a failed factor, nothing may be
  /// shared from this solve or the previous one).
  void ResetShares();

  MnaSystem* mna_;
  std::vector<Cell> cells_;
  bool usable_ = false;

  std::vector<int> border_unknowns_;  ///< ascending global unknown ids
  std::vector<int> border_index_of_;  ///< global unknown -> border id or -1
  /// Global unknown -> its index in the owning cell's A_II, or -1 for a
  /// border unknown (found in the stamping cell's `border` list instead).
  std::vector<int> local_of_;
  std::vector<int> global_devices_;   ///< ordinals outside every cell

  // Border system storage. Dense below the same ~256-unknown crossover
  // the flat kAuto solver uses; sparse above it, where the builder keeps
  // its pattern across solves (values are zeroed, not cleared) so the
  // numeric Refactor replays the recorded elimination.
  linalg::Matrix border_mat_;
  linalg::LuFactorization border_dense_lu_;
  linalg::Vector border_rhs_;
  linalg::Vector border_x_;
  linalg::SparseBuilder border_builder_{0};
  linalg::SparseLu border_lu_;
  bool border_sparse_ = false;
  uint64_t border_slots_version_ = 0;  ///< builder pattern they point into
  /// The global devices' compiled border targets, and the builder pattern
  /// they point into (sparse border).
  netlist::StampContext border_ctx_;
  uint64_t border_plan_version_ = 0;

  // Factor-share pool. Each solve's shares are double-buffered tables of
  // pool indices (open addressing on the key hash, -1 = empty): lookups
  // hit this solve's table first, then the previous solve's (deep in a
  // settled chain the same blocks recur timepoint after timepoint). A
  // new factorization only takes an entry that neither table references,
  // so no cell can read factors that another cell is rewriting.
  std::vector<SharedFactors> pool_;
  std::vector<int> cur_table_, prev_table_;
  std::vector<int> cur_used_, prev_used_;  ///< entries each table holds
  std::vector<int> free_;                  ///< entries no table holds
  uint64_t solves_ = 0;
  double quantum_ = 0.0;  ///< share quantum of the solve in progress
  std::vector<size_t> to_factor_;      ///< cells whose block is factored
  std::vector<util::Status> status_;   ///< per-worker-item phase status
};

}  // namespace cmldft::sim
