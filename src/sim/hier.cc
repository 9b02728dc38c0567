#include "sim/hier.h"

#include <algorithm>
#include <cassert>

#include "netlist/device.h"
#include "sim/mna.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {

/// The largest border solved with the dense LU; larger borders use the
/// sparse LU.
constexpr size_t kMaxDenseBorderUnknowns = 256;

struct HierMetrics {
  util::telemetry::Counter cells =
      util::telemetry::GetCounter("sim.hier.cells");
  util::telemetry::Counter border_unknowns =
      util::telemetry::GetCounter("sim.hier.border_unknowns");
  util::telemetry::Counter cell_refactors =
      util::telemetry::GetCounter("sim.hier.cell_refactors");
  util::telemetry::Counter device_evals =
      util::telemetry::GetCounter("sim.device.evals");
  // Phase walls of AssembleAndSolve (see sim/hier.h).
  util::telemetry::Timer assemble_wall =
      util::telemetry::GetTimer("sim.hier.assemble_wall");
  util::telemetry::Timer factor_wall =
      util::telemetry::GetTimer("sim.hier.factor_wall");
  util::telemetry::Timer border_wall =
      util::telemetry::GetTimer("sim.hier.border_wall");
  util::telemetry::Timer backsub_wall =
      util::telemetry::GetTimer("sim.hier.backsub_wall");
};

const HierMetrics& Metrics() {
  static const HierMetrics m;
  return m;
}
// Registered at load time for a code-path-independent snapshot schema.
[[maybe_unused]] const HierMetrics& kEagerRegistration = Metrics();

/// Replays `ordinals` through `ctx`'s compiled targets, counting the
/// Stamp() calls in `*stamps`. False at the first device whose writes no
/// longer match them; the caller then records afresh.
bool ReplayDevices(netlist::StampContext& ctx, const netlist::Netlist& nl,
                   const std::vector<int>& ordinals, size_t* stamps) {
  ctx.BeginReplay();
  for (int ordinal : ordinals) {
    ++*stamps;
    if (!ctx.Replay(nl.device(ordinal))) return false;
  }
  return true;
}

/// Records `ordinals` through `owner` and compiles their targets.
void RecordDevices(netlist::StampContext& ctx, const netlist::Netlist& nl,
                   const std::vector<int>& ordinals,
                   netlist::StampContext::Owner& owner,
                   netlist::StampContext::FirstTouch first_touch) {
  ctx.BeginRecord(owner);
  for (int ordinal : ordinals) ctx.Record(nl.device(ordinal));
  const bool compiled = ctx.EndRecord(first_touch);
  assert(compiled && "hierarchical stamp target did not resolve");
  (void)compiled;
}

}  // namespace

/// Routes one cell's recorded stamps straight into its four blocks: local
/// ids are internals first ([0, ni)), touched border after ([ni, ni + nb)).
/// Any unknown a cell device stamps is internal to that cell or on its
/// touched border, by construction of the partition.
class HierSolver::CellOwner final : public netlist::StampContext::Owner {
 public:
  CellOwner(const HierSolver* solver, Cell* cell)
      : solver_(solver), cell_(cell) {}

  double* MatrixTarget(int row, int col) override {
    const size_t ni = cell_->internal.size();
    const size_t lr = LocalOf(row), lc = LocalOf(col);
    if (lr < ni) {
      return lc < ni ? &cell_->a_ii(lr, lc) : &cell_->a_ib(lr, lc - ni);
    }
    return lc < ni ? &cell_->a_bi(lr - ni, lc)
                   : &cell_->a_bb(lr - ni, lc - ni);
  }
  double* RhsTarget(int row) override {
    const size_t ni = cell_->internal.size();
    const size_t lr = LocalOf(row);
    return lr < ni ? &cell_->rhs_i[lr] : &cell_->rhs_b[lr - ni];
  }

 private:
  size_t LocalOf(int unknown) const {
    const int l = solver_->local_of_[static_cast<size_t>(unknown)];
    if (l >= 0) {
      assert(static_cast<size_t>(l) < cell_->internal.size() &&
             cell_->internal[static_cast<size_t>(l)] == unknown &&
             "cell device stamped another cell's internal unknown");
      return static_cast<size_t>(l);
    }
    const auto it = std::lower_bound(cell_->border.begin(),
                                     cell_->border.end(), unknown);
    assert(it != cell_->border.end() && *it == unknown &&
           "cell device stamped an unknown outside its partition");
    return cell_->internal.size() +
           static_cast<size_t>(it - cell_->border.begin());
  }

  const HierSolver* solver_;
  Cell* cell_;
};

/// Routes the global (outside-every-cell) devices' recorded stamps into
/// the border system. Every unknown a global device touches is border by
/// construction.
class HierSolver::BorderOwner final : public netlist::StampContext::Owner {
 public:
  explicit BorderOwner(HierSolver* solver) : solver_(solver) {}

  void RecordMatrix(int row, int col, double value) override {
    if (solver_->border_sparse_) {
      // May insert the slot; targets are resolved after the pass.
      solver_->border_builder_.Add(BorderOf(row), BorderOf(col), value);
    } else {
      *MatrixTarget(row, col) += value;
    }
  }
  double* MatrixTarget(int row, int col) override {
    return solver_->border_sparse_
               ? solver_->border_builder_.SlotPointer(BorderOf(row),
                                                      BorderOf(col))
               : &solver_->border_mat_(BorderOf(row), BorderOf(col));
  }
  double* RhsTarget(int row) override {
    return &solver_->border_rhs_[BorderOf(row)];
  }

 private:
  size_t BorderOf(int unknown) const {
    const int b = solver_->border_index_of_[static_cast<size_t>(unknown)];
    assert(b >= 0 && "global device stamped a cell-internal unknown");
    return static_cast<size_t>(b);
  }

  HierSolver* solver_;
};

HierSolver::HierSolver(MnaSystem* mna) : mna_(mna) { BuildPartition(); }

size_t HierSolver::AssembleCell(Cell& cell, const netlist::StampFrame& frame) {
  const netlist::Netlist& nl = mna_->netlist();
  netlist::StampContext& ctx = cell.ctx;
  ctx.Bind(frame);
  std::fill(cell.rhs_i.begin(), cell.rhs_i.end(), 0.0);
  std::fill(cell.rhs_b.begin(), cell.rhs_b.end(), 0.0);
  size_t stamps = 0;
  if (ctx.compiled()) {
    // Replay: first touches store, so the blocks need no zero fill.
    if (ReplayDevices(ctx, nl, cell.device_ordinals, &stamps)) return stamps;
    ctx.Invalidate();
    std::fill(cell.rhs_i.begin(), cell.rhs_i.end(), 0.0);
    std::fill(cell.rhs_b.begin(), cell.rhs_b.end(), 0.0);
  }
  cell.a_ii.Fill(0.0);
  cell.a_ib.Fill(0.0);
  cell.a_bi.Fill(0.0);
  cell.a_bb.Fill(0.0);
  CellOwner owner(this, &cell);
  RecordDevices(ctx, nl, cell.device_ordinals, owner,
                netlist::StampContext::FirstTouch::kStoreZeroed);
  return stamps + cell.device_ordinals.size();
}

size_t HierSolver::AssembleBorder(const netlist::StampFrame& frame) {
  // Cell order then netlist device order: a fixed summation order.
  std::fill(border_rhs_.begin(), border_rhs_.end(), 0.0);
  if (border_sparse_) {
    // A global device that stamped a new slot last time moved the
    // builder's rows: re-resolve the cells' targets.
    if (border_slots_version_ != border_builder_.pattern_version()) {
      CompileBorderSlots();
    }
    border_builder_.ZeroValues();
  } else {
    border_mat_.Fill(0.0);
  }
  for (const Cell& cell : cells_) {
    const size_t nb = cell.border.size();
    const linalg::Matrix& schur = cell.factors.schur();
    double* const* slot = cell.border_slots.data();
    for (size_t i = 0; i < nb; ++i) {
      const int gr = border_index_of_[static_cast<size_t>(cell.border[i])];
      border_rhs_[static_cast<size_t>(gr)] += cell.rhs_b[i] - cell.c[i];
      for (size_t j = 0; j < nb; ++j) {
        **slot++ += cell.a_bb(i, j) - schur(i, j);
      }
    }
  }

  // Global devices accumulate on top of the cells' contributions.
  const netlist::Netlist& nl = mna_->netlist();
  border_ctx_.Bind(frame);
  if (border_ctx_.compiled() &&
      (!border_sparse_ ||
       border_plan_version_ == border_builder_.pattern_version())) {
    size_t stamps = 0;
    if (ReplayDevices(border_ctx_, nl, global_devices_, &stamps)) return stamps;
    // The mismatched device's partial writes are summed in: start over.
    border_ctx_.Invalidate();
    return stamps + AssembleBorder(frame);
  }
  BorderOwner owner(this);
  RecordDevices(border_ctx_, nl, global_devices_, owner,
                netlist::StampContext::FirstTouch::kAccumulate);
  border_plan_version_ = border_builder_.pattern_version();
  return global_devices_.size();
}

void HierSolver::BuildPartition() {
  const netlist::Netlist& nl = mna_->netlist();
  const int num_devices = nl.num_devices();
  const int num_unknowns = mna_->num_unknowns();

  // Resolve the (name-based) cell annotations against the live devices.
  // Defect injection may have removed members (shorted resistors) — skip
  // missing names; a device claimed twice stays with its first cell.
  std::vector<int> cell_of_device(static_cast<size_t>(num_devices), -1);
  for (const netlist::CellInstance& inst : nl.cell_instances()) {
    Cell cell;
    cell.name = inst.name;
    for (const std::string& dev_name : inst.devices) {
      const netlist::Device* dev = nl.FindDevice(dev_name);
      if (dev == nullptr) continue;
      if (cell_of_device[static_cast<size_t>(dev->ordinal())] != -1) continue;
      cell_of_device[static_cast<size_t>(dev->ordinal())] =
          static_cast<int>(cells_.size());
      cell.device_ordinals.push_back(dev->ordinal());
    }
    if (cell.device_ordinals.empty()) continue;
    cells_.push_back(std::move(cell));
  }

  // Ownership from the live topology: an unknown is internal to cell k
  // iff every device touching it belongs to cell k. -2 = unseen,
  // -1 = border (contested, global-device, or untouched).
  std::vector<int> owner(static_cast<size_t>(num_unknowns), -2);
  auto merge = [&](int unknown, int cell) {
    if (unknown < 0) return;
    int& o = owner[static_cast<size_t>(unknown)];
    if (o == -2) {
      o = cell;
    } else if (o != cell) {
      o = -1;
    }
  };
  // Owner computation, re-runnable after the empty-cell demotion below.
  auto compute_owner = [&] {
    std::fill(owner.begin(), owner.end(), -2);
    for (int i = 0; i < num_devices; ++i) {
      const netlist::Device& dev = nl.device(i);
      const int cell = cell_of_device[static_cast<size_t>(i)];
      for (netlist::NodeId n : dev.nodes()) merge(mna_->UnknownOfNode(n), cell);
      for (int s = 0; s < dev.num_branches(); ++s) {
        merge(mna_->UnknownOfBranch(dev, s), cell);
      }
    }
    for (int& o : owner) {
      if (o == -2) o = -1;
    }
    // Branch unknowns are eliminable only when they pivot against one of
    // their own device's node unknowns inside the block: a branch row
    // (e.g. a voltage source's v_p - v_n = E) has a structurally zero
    // diagonal, so a claimed source whose nodes are all border would hand
    // A_II a zero pivot. Such branches ride the border instead, where the
    // global solve pivots across cells exactly like the flat path.
    for (int i = 0; i < num_devices; ++i) {
      const netlist::Device& dev = nl.device(i);
      if (dev.num_branches() == 0) continue;
      const int cell = cell_of_device[static_cast<size_t>(i)];
      if (cell < 0) continue;
      bool node_internal = false;
      for (netlist::NodeId n : dev.nodes()) {
        const int u = mna_->UnknownOfNode(n);
        if (u >= 0 && owner[static_cast<size_t>(u)] == cell) {
          node_internal = true;
          break;
        }
      }
      if (node_internal) continue;
      for (int s = 0; s < dev.num_branches(); ++s) {
        const int u = mna_->UnknownOfBranch(dev, s);
        if (u >= 0) owner[static_cast<size_t>(u)] = -1;
      }
    }
  };
  compute_owner();

  for (int u = 0; u < num_unknowns; ++u) {
    const int o = owner[static_cast<size_t>(u)];
    if (o >= 0) cells_[static_cast<size_t>(o)].internal.push_back(u);
  }

  // Cells with nothing to eliminate (e.g. level shifters, whose every
  // node couples to a neighbouring gate) would add bookkeeping for no
  // Schur win: demote their devices to the global border pass. Demotion
  // can only widen the border, and never empties a kept cell's internal
  // set (a kept internal unknown is touched by that cell's devices only),
  // so one recompute pass suffices.
  {
    std::vector<Cell> kept;
    for (Cell& cell : cells_) {
      if (!cell.internal.empty()) kept.push_back(std::move(cell));
    }
    cells_ = std::move(kept);
    for (int& c : cell_of_device) c = -1;
    for (size_t k = 0; k < cells_.size(); ++k) {
      for (int ordinal : cells_[k].device_ordinals) {
        cell_of_device[static_cast<size_t>(ordinal)] = static_cast<int>(k);
      }
    }
    compute_owner();
    for (Cell& cell : cells_) cell.internal.clear();
    for (int u = 0; u < num_unknowns; ++u) {
      const int o = owner[static_cast<size_t>(u)];
      if (o >= 0) cells_[static_cast<size_t>(o)].internal.push_back(u);
    }
  }

  // Border numbering (ascending global unknown order).
  border_index_of_.assign(static_cast<size_t>(num_unknowns), -1);
  for (int u = 0; u < num_unknowns; ++u) {
    if (owner[static_cast<size_t>(u)] == -1) {
      border_index_of_[static_cast<size_t>(u)] =
          static_cast<int>(border_unknowns_.size());
      border_unknowns_.push_back(u);
    }
  }

  for (int i = 0; i < num_devices; ++i) {
    if (cell_of_device[static_cast<size_t>(i)] == -1) {
      global_devices_.push_back(i);
    }
  }

  // Per-cell index and scratch. Touched border = every border unknown
  // any member device stamps.
  local_of_.assign(static_cast<size_t>(num_unknowns), -1);
  for (Cell& cell : cells_) {
    for (int ordinal : cell.device_ordinals) {
      const netlist::Device& dev = nl.device(ordinal);
      auto touch = [&](int u) {
        if (u < 0) return;
        if (owner[static_cast<size_t>(u)] == -1) cell.border.push_back(u);
      };
      for (netlist::NodeId n : dev.nodes()) touch(mna_->UnknownOfNode(n));
      for (int s = 0; s < dev.num_branches(); ++s) {
        touch(mna_->UnknownOfBranch(dev, s));
      }
    }
    std::sort(cell.border.begin(), cell.border.end());
    cell.border.erase(std::unique(cell.border.begin(), cell.border.end()),
                      cell.border.end());

    const size_t ni = cell.internal.size();
    const size_t nb = cell.border.size();
    for (size_t i = 0; i < ni; ++i) {
      local_of_[static_cast<size_t>(cell.internal[i])] = static_cast<int>(i);
    }
    cell.a_ii = linalg::Matrix(ni, ni);
    cell.a_ib = linalg::Matrix(ni, nb);
    cell.a_bi = linalg::Matrix(nb, ni);
    cell.a_bb = linalg::Matrix(nb, nb);
    cell.rhs_i.assign(ni, 0.0);
    cell.rhs_b.assign(nb, 0.0);
  }

  usable_ = !cells_.empty();
  if (!usable_) return;

  // Border solver storage: dense LU up to kMaxDenseBorderUnknowns.
  border_sparse_ = border_unknowns_.size() > kMaxDenseBorderUnknowns;
  if (border_sparse_) {
    border_builder_ = linalg::SparseBuilder(border_unknowns_.size());
  } else {
    border_mat_ =
        linalg::Matrix(border_unknowns_.size(), border_unknowns_.size());
  }
  border_rhs_.assign(border_unknowns_.size(), 0.0);
  CompileBorderSlots();
}

void HierSolver::CompileBorderSlots() {
  auto border_id = [&](int unknown) {
    return static_cast<size_t>(
        border_index_of_[static_cast<size_t>(unknown)]);
  };
  if (border_sparse_) {
    for (const Cell& cell : cells_) {
      for (int r : cell.border) {
        for (int c : cell.border) {
          border_builder_.Add(border_id(r), border_id(c), 0.0);
        }
      }
    }
  }
  for (Cell& cell : cells_) {
    const size_t nb = cell.border.size();
    cell.border_slots.resize(nb * nb);
    for (size_t i = 0; i < nb; ++i) {
      for (size_t j = 0; j < nb; ++j) {
        const size_t r = border_id(cell.border[i]);
        const size_t c = border_id(cell.border[j]);
        cell.border_slots[i * nb + j] = border_sparse_
                                            ? border_builder_.SlotPointer(r, c)
                                            : &border_mat_(r, c);
      }
    }
  }
  border_slots_version_ = border_builder_.pattern_version();
}

util::Status HierSolver::AssembleAndSolve(const linalg::Vector& iterate,
                                          linalg::Vector* x_new,
                                          const NewtonOptions& /*opts*/) {
  assert(usable_);
  const size_t nu = static_cast<size_t>(mna_->num_unknowns());
  assert(iterate.size() == nu);
  const HierMetrics& metrics = Metrics();
  const netlist::StampFrame frame = mna_->Frame(iterate);

  {
    util::telemetry::ScopedTimer span(metrics.assemble_wall);
    size_t stamps = 0;
    for (Cell& cell : cells_) stamps += AssembleCell(cell, frame);
    metrics.device_evals.Add(stamps);
    metrics.cells.Add(cells_.size());
    metrics.border_unknowns.Add(border_unknowns_.size());
    metrics.cell_refactors.Add(cells_.size());
  }

  {
    util::telemetry::ScopedTimer span(metrics.factor_wall);
    for (Cell& cell : cells_) {
      util::Status st = cell.factors.Factor(cell.a_ii, cell.a_ib, cell.a_bi);
      if (!st.ok()) {
        return util::Status(st.code(), "hierarchical cell block '" +
                                           cell.name + "': " + st.message());
      }
      CMLDFT_RETURN_IF_ERROR(
          cell.factors.ReduceRhs(cell.a_bi, cell.rhs_i, &cell.y, &cell.c));
    }
  }

  {
    util::telemetry::ScopedTimer span(metrics.border_wall);
    metrics.device_evals.Add(AssembleBorder(frame));

    // Border solve. Refactor runs a full Factor the first time and
    // whenever the recorded pattern or pivots no longer fit.
    if (border_sparse_) {
      CMLDFT_RETURN_IF_ERROR(border_lu_.Refactor(border_builder_));
      CMLDFT_RETURN_IF_ERROR(border_lu_.SolveInto(border_rhs_, &border_x_));
    } else {
      CMLDFT_RETURN_IF_ERROR(border_dense_lu_.Factor(border_mat_));
      CMLDFT_RETURN_IF_ERROR(
          border_dense_lu_.SolveInto(border_rhs_, &border_x_));
    }
  }

  util::telemetry::ScopedTimer span(metrics.backsub_wall);
  // Back-substitution, border values first.
  x_new->assign(nu, 0.0);
  for (size_t b = 0; b < border_unknowns_.size(); ++b) {
    (*x_new)[static_cast<size_t>(border_unknowns_[b])] = border_x_[b];
  }
  for (Cell& cell : cells_) {
    const size_t nb = cell.border.size();
    cell.x_b.resize(nb);
    for (size_t j = 0; j < nb; ++j) {
      cell.x_b[j] = border_x_[static_cast<size_t>(
          border_index_of_[static_cast<size_t>(cell.border[j])])];
    }
    cell.factors.BackSubstitute(cell.y, cell.x_b, &cell.x_i);
    for (size_t i = 0; i < cell.internal.size(); ++i) {
      (*x_new)[static_cast<size_t>(cell.internal[i])] = cell.x_i[i];
    }
  }
  return util::Status::Ok();
}

}  // namespace cmldft::sim
