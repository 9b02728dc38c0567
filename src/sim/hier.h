// Hierarchical bordered-block-diagonal MNA solver (opt-in via
// NewtonOptions::hierarchical; see docs/performance.md "Layer 6").
//
// The paper's circuits are dozens-to-hundreds of copies of a handful of
// CML cells. cml::CellBuilder annotates each cell's devices as a
// netlist::CellInstance; this solver partitions the MNA unknowns from
// the *live* topology (so defect node-splits reclassify correctly): an
// unknown is internal to cell k iff every device touching it belongs to
// cell k, everything else — interconnect, rails, sources, detectors,
// fault devices — is border. Each Newton iteration then runs four
// phases, serially and in cell order, each timed by its
// sim.hier.<phase>_wall timer:
//
//   assemble  per-cell assembly straight into the four blocks A_II,
//             A_IB, A_BI, A_BB (each cell replays its devices' compiled
//             stamp targets)
//   factor    per cell: LU + Schur complement of its block and the rhs
//             reduction (linalg/bbd.h)
//   border    border assembly (through slot pointers compiled once) +
//             global devices (through their compiled stamp targets), then
//             the border solve (dense, or sparse above 256 border
//             unknowns)
//   backsub   per-cell back-substitution
//
// All storage — cell blocks, factors, border system — is sized once and
// reused, so a steady-state solve allocates nothing.
//
// The elimination order differs from the flat solve, so solutions are
// tolerance-equivalent (not bitwise) to flat — gated in
// tests/equivalence_test.cc.
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
  /// homotopy ladder reacts normally. `opts` is unused; the end-to-end
  /// benchmark (e2ebench/) still passes it.
  util::Status AssembleAndSolve(const linalg::Vector& iterate,
                                linalg::Vector* x_new,
                                const NewtonOptions& opts);

 private:
  class CellOwner;
  class BorderOwner;

  struct Cell {
    std::string name;
    std::vector<int> device_ordinals;
    std::vector<int> internal;  ///< global unknown ids, ascending
    std::vector<int> border;    ///< touched border unknowns, ascending
    /// Border-matrix targets of this cell's A_BB - S block, nb x nb
    /// row-major (see CompileBorderSlots).
    std::vector<double*> border_slots;
    /// The cell's devices' compiled stamp targets, into the blocks below.
    netlist::StampContext ctx;

    // Per-solve scratch.
    linalg::Matrix a_ii, a_ib, a_bi, a_bb;
    linalg::Vector rhs_i, rhs_b;
    linalg::BbdBlockFactors factors;
    linalg::Vector y, c;      ///< rhs reduction outputs
    linalg::Vector x_b, x_i;  ///< back-substitution scratch
  };

  void BuildPartition();
  /// Assembly of one cell: replay its devices' compiled targets, or record
  /// them (zeroing the blocks first). Returns the Stamp() calls made.
  size_t AssembleCell(Cell& cell, const netlist::StampFrame& frame);
  /// The cells' A_BB - S and rhs_b - c contributions in cell order,
  /// then the global devices through their compiled border targets.
  /// Returns the Stamp() calls made.
  size_t AssembleBorder(const netlist::StampFrame& frame);
  /// Resolve every cell's border_slots: pointers into the dense border
  /// matrix, or into the sparse builder's slots (creating them first, so
  /// no later insertion in the same pass can move an earlier target).
  void CompileBorderSlots();

  MnaSystem* mna_;
  std::vector<Cell> cells_;
  bool usable_ = false;

  std::vector<int> border_unknowns_;  ///< ascending global unknown ids
  std::vector<int> border_index_of_;  ///< global unknown -> border id or -1
  /// Global unknown -> its index in the owning cell's A_II, or -1 for a
  /// border unknown (found in the stamping cell's `border` list instead).
  std::vector<int> local_of_;
  std::vector<int> global_devices_;   ///< ordinals outside every cell

  // Border system storage. Dense up to kMaxDenseBorderUnknowns (hier.cc);
  // sparse above it, where the builder keeps its pattern across solves
  // (values are zeroed, not cleared) so the numeric Refactor replays the
  // recorded elimination.
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
};

}  // namespace cmldft::sim
