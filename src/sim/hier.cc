#include "sim/hier.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "netlist/device.h"
#include "sim/mna.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace cmldft::sim {

namespace {

struct HierMetrics {
  util::telemetry::Counter cells =
      util::telemetry::GetCounter("sim.hier.cells");
  util::telemetry::Counter border_unknowns =
      util::telemetry::GetCounter("sim.hier.border_unknowns");
  util::telemetry::Counter schur_factor_shares =
      util::telemetry::GetCounter("sim.hier.schur_factor_shares");
  util::telemetry::Counter cell_refactors =
      util::telemetry::GetCounter("sim.hier.cell_refactors");
  util::telemetry::Counter device_evals =
      util::telemetry::GetCounter("sim.device.evals");
  // Phase walls of AssembleAndSolve: P1 + S1, P2 + P3, S2 + border solve,
  // P4 (see sim/hier.h).
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

/// One block entry's share-key word. quantum == 0 keys on the raw bits.
/// Otherwise the entry keys on round(v / quantum) — unless that quotient
/// is non-finite or outside the int64 range, where rounding is undefined;
/// such entries key on their raw bits, tagged so that they never equal a
/// rounded word.
struct KeyWord {
  uint64_t bits;
  bool raw;
  bool operator==(const KeyWord&) const = default;
};

KeyWord KeyOf(double v, double quantum) {
  if (quantum > 0.0) {
    const double q = v / quantum;
    if (q >= -0x1p63 && q < 0x1p63) {  // false for NaN
      return {static_cast<uint64_t>(std::llround(q)), false};
    }
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return {bits, true};
}

/// Word-at-a-time 64-bit hash (the xxHash64 round and avalanche); every
/// cell hashes its blocks on every solve, so util::ContentHasher's
/// byte-at-a-time FNV would cost several times more.
class KeyHasher {
 public:
  void Add(uint64_t word) {
    h_ = std::rotl(h_ + word * kPrime2, 31) * kPrime1;
  }
  uint64_t Digest() const {
    uint64_t h = h_ ^ (h_ >> 33);
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    return h ^ (h >> 32);
  }

 private:
  static constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
  uint64_t h_ = kPrime3;
};

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
  // Serial in cell order then netlist device order — a fixed summation
  // order keeps results thread-count independent.
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
    const linalg::Matrix& schur =
        pool_[static_cast<size_t>(cell.factors)].factors.schur();
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
  std::vector<std::string> types;
  for (const netlist::CellInstance& inst : nl.cell_instances()) {
    Cell cell;
    cell.name = inst.name;
    cell.type = static_cast<int>(
        std::find(types.begin(), types.end(), inst.type) - types.begin());
    if (cell.type == static_cast<int>(types.size())) types.push_back(inst.type);
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

  // Border solver storage: same dense/sparse crossover as the flat kAuto
  // solver (~256 unknowns).
  border_sparse_ = border_unknowns_.size() > 256;
  if (border_sparse_) {
    border_builder_ = linalg::SparseBuilder(border_unknowns_.size());
  } else {
    border_mat_ =
        linalg::Matrix(border_unknowns_.size(), border_unknowns_.size());
  }
  border_rhs_.assign(border_unknowns_.size(), 0.0);
  CompileBorderSlots();

  // Share tables at load factor <= 1/4: a solve inserts at most one entry
  // per cell. The pool holds at most two solves' worth of entries.
  size_t capacity = 1;
  while (capacity < 4 * cells_.size()) capacity <<= 1;
  cur_table_.assign(capacity, -1);
  prev_table_.assign(capacity, -1);
  pool_.reserve(2 * cells_.size());
  free_.reserve(2 * cells_.size());
  cur_used_.reserve(cells_.size());
  prev_used_.reserve(cells_.size());
  to_factor_.reserve(cells_.size());
  status_.resize(cells_.size());
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

uint64_t HierSolver::KeyHash(const Cell& cell, double quantum) {
  KeyHasher h;
  h.Add(static_cast<uint64_t>(cell.type));
  h.Add(cell.internal.size());
  h.Add(cell.border.size());
  for (const linalg::Matrix* m : {&cell.a_ii, &cell.a_ib, &cell.a_bi}) {
    const double* data = m->data();
    for (size_t i = 0; i < m->rows() * m->cols(); ++i) {
      const KeyWord w = KeyOf(data[i], quantum);
      h.Add(w.raw ? ~w.bits : w.bits);
    }
  }
  return h.Digest();
}

bool HierSolver::SameKey(const SharedFactors& entry, const Cell& cell,
                         double quantum) {
  if (entry.hash != cell.key_hash || entry.type != cell.type ||
      entry.ni != cell.internal.size() || entry.nb != cell.border.size()) {
    return false;
  }
  const double* key = entry.key.data();
  for (const linalg::Matrix* m : {&cell.a_ii, &cell.a_ib, &cell.a_bi}) {
    const size_t len = m->rows() * m->cols();
    if (quantum == 0.0) {
      // An empty block has no storage: memcmp must not see its nullptr.
      if (len > 0 && std::memcmp(key, m->data(), len * sizeof(double)) != 0) {
        return false;
      }
    } else {
      for (size_t i = 0; i < len; ++i) {
        if (KeyOf(key[i], quantum) != KeyOf(m->data()[i], quantum)) {
          return false;
        }
      }
    }
    key += len;
  }
  return true;
}

int HierSolver::FindShared(const std::vector<int>& table,
                           const Cell& cell) const {
  const size_t mask = table.size() - 1;
  for (size_t i = cell.key_hash & mask;; i = (i + 1) & mask) {
    const int entry = table[i];
    if (entry < 0) return -1;
    if (SameKey(pool_[static_cast<size_t>(entry)], cell, quantum_)) {
      return entry;
    }
  }
}

void HierSolver::InsertShared(std::vector<int>* table, int entry) const {
  const size_t mask = table->size() - 1;
  size_t i = pool_[static_cast<size_t>(entry)].hash & mask;
  while ((*table)[i] >= 0) i = (i + 1) & mask;
  (*table)[i] = entry;
}

void HierSolver::ResetShares() {
  std::fill(cur_table_.begin(), cur_table_.end(), -1);
  std::fill(prev_table_.begin(), prev_table_.end(), -1);
  cur_used_.clear();
  prev_used_.clear();
  free_.clear();
  for (size_t e = 0; e < pool_.size(); ++e) {
    free_.push_back(static_cast<int>(e));
  }
}

util::Status HierSolver::AssembleAndSolve(const linalg::Vector& iterate,
                                          linalg::Vector* x_new,
                                          const NewtonOptions& opts) {
  assert(usable_);
  const size_t nu = static_cast<size_t>(mna_->num_unknowns());
  assert(iterate.size() == nu);
  const int threads = opts.hier_threads;
  // A quantum that is not a positive finite step means exact sharing.
  quantum_ =
      std::isfinite(opts.hier_share_quantum) && opts.hier_share_quantum > 0.0
          ? opts.hier_share_quantum
          : 0.0;
  const HierMetrics& metrics = Metrics();
  const netlist::StampFrame frame = mna_->Frame(iterate);

  {
    util::telemetry::ScopedTimer span(metrics.assemble_wall);
    // P1: per-cell assembly — disjoint per-cell storage, and each device's
    // state slots and model constants are written by exactly one worker.
    util::ParallelFor(
        cells_.size(),
        [this, &frame](size_t k) {
          Cell& cell = cells_[k];
          cell.stamps = AssembleCell(cell, frame);
          cell.key_hash = KeyHash(cell, quantum_);
        },
        threads);

    // S1: factor-share grouping, serial in cell order so the chosen
    // representatives (and thus all shared factors) are deterministic.
    size_t stamps = 0;
    for (const Cell& cell : cells_) stamps += cell.stamps;
    metrics.device_evals.Add(stamps);
    metrics.cells.Add(cells_.size());
    metrics.border_unknowns.Add(border_unknowns_.size());
    ++solves_;
    std::fill(cur_table_.begin(), cur_table_.end(), -1);
    cur_used_.clear();
    to_factor_.clear();
    for (size_t k = 0; k < cells_.size(); ++k) {
      Cell& cell = cells_[k];
      cell.factors = FindShared(cur_table_, cell);
      if (cell.factors >= 0) continue;
      // Cross-timepoint hit: the previous solve factored a bit-identical
      // (or quantized-identical) block — deep in a settled chain this is
      // the common case.
      cell.factors = FindShared(prev_table_, cell);
      if (cell.factors < 0) {
        if (free_.empty()) {
          cell.factors = static_cast<int>(pool_.size());
          pool_.emplace_back();
        } else {
          cell.factors = free_.back();
          free_.pop_back();
        }
        SharedFactors& entry = pool_[static_cast<size_t>(cell.factors)];
        entry.key.clear();
        for (const linalg::Matrix* m : {&cell.a_ii, &cell.a_ib, &cell.a_bi}) {
          entry.key.insert(entry.key.end(), m->data(),
                           m->data() + m->rows() * m->cols());
        }
        entry.hash = cell.key_hash;
        entry.type = cell.type;
        entry.ni = cell.internal.size();
        entry.nb = cell.border.size();
        to_factor_.push_back(k);
      }
      pool_[static_cast<size_t>(cell.factors)].last_used = solves_;
      InsertShared(&cur_table_, cell.factors);
      cur_used_.push_back(cell.factors);
    }
    metrics.cell_refactors.Add(to_factor_.size());
    metrics.schur_factor_shares.Add(cells_.size() - to_factor_.size());
  }

  {
    util::telemetry::ScopedTimer span(metrics.factor_wall);
    // P2: factor the unique representatives, each into a pool entry no
    // other cell reads until this phase is over.
    util::ParallelFor(
        to_factor_.size(),
        [this](size_t i) {
          const Cell& cell = cells_[to_factor_[i]];
          status_[i] = pool_[static_cast<size_t>(cell.factors)].factors.Factor(
              cell.a_ii, cell.a_ib, cell.a_bi);
        },
        threads);
    for (size_t i = 0; i < to_factor_.size(); ++i) {
      if (!status_[i].ok()) {
        ResetShares();  // never share a half-factored block
        return util::Status(status_[i].code(),
                            "hierarchical cell block '" +
                                cells_[to_factor_[i]].name +
                                "': " + std::string(status_[i].message()));
      }
    }
    // Age the share tables: the next solve's lookups see this solve's
    // factors, and entries this solve no longer uses become free.
    for (int e : prev_used_) {
      if (pool_[static_cast<size_t>(e)].last_used != solves_) {
        free_.push_back(e);
      }
    }
    std::swap(prev_used_, cur_used_);
    std::swap(prev_table_, cur_table_);

    // P3: per-cell rhs reduction against the (possibly shared) factors.
    util::ParallelFor(
        cells_.size(),
        [this](size_t k) {
          Cell& cell = cells_[k];
          status_[k] = pool_[static_cast<size_t>(cell.factors)]
                           .factors.ReduceRhs(cell.rhs_i, &cell.y, &cell.c);
        },
        threads);
    for (size_t k = 0; k < cells_.size(); ++k) {
      if (!status_[k].ok()) return status_[k];
    }
  }

  {
    util::telemetry::ScopedTimer span(metrics.border_wall);
    // S2: border assembly.
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
  // P4: back-substitution. Border values land first (serial), internal
  // writes are disjoint across cells.
  x_new->assign(nu, 0.0);
  for (size_t b = 0; b < border_unknowns_.size(); ++b) {
    (*x_new)[static_cast<size_t>(border_unknowns_[b])] = border_x_[b];
  }
  util::ParallelFor(
      cells_.size(),
      [this, x_new](size_t k) {
        Cell& cell = cells_[k];
        const size_t nb = cell.border.size();
        cell.x_b.resize(nb);
        for (size_t j = 0; j < nb; ++j) {
          cell.x_b[j] = border_x_[static_cast<size_t>(
              border_index_of_[static_cast<size_t>(cell.border[j])])];
        }
        pool_[static_cast<size_t>(cell.factors)].factors.BackSubstitute(
            cell.y, cell.x_b, &cell.x_i);
        for (size_t i = 0; i < cell.internal.size(); ++i) {
          (*x_new)[static_cast<size_t>(cell.internal[i])] = cell.x_i[i];
        }
      },
      threads);
  return util::Status::Ok();
}

}  // namespace cmldft::sim
