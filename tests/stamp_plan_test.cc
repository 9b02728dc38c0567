// Compiled stamp replay must be invisible: for any netlist, any mode
// sequence, and any iterate, an MnaSystem (which records once and then
// replays its compiled targets) produces a Jacobian and RHS bit-identical
// to a reference that records afresh at every step, writing straight into
// a zeroed dense matrix or a cleared sparse builder — in dense and sparse
// routing, across mode/context switches that force devices down different
// conditional stamp paths (replay mismatch + re-record), across state
// rotations, and across temperature and parameter changes that must
// refresh the devices' model constants.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "linalg/sparse.h"
#include "sim/mna.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cmldft {
namespace {

using devices::Waveform;
using netlist::NodeId;

// Random mixed-device netlist: every device kind the simulator knows,
// wired to random nodes (ground included, so dropped stamps are covered).
netlist::Netlist RandomNetlist(uint64_t seed, int num_nodes, int num_devices) {
  util::Rng rng(seed);
  netlist::Netlist nl;
  std::vector<NodeId> nodes = {netlist::kGroundNode};
  for (int i = 0; i < num_nodes; ++i) {
    nodes.push_back(nl.AddNode(util::StrPrintf("n%d", i)));
  }
  auto pick = [&] { return nodes[rng.NextBelow(nodes.size())]; };
  for (int i = 0; i < num_devices; ++i) {
    const std::string name = util::StrPrintf("d%d", i);
    switch (rng.NextBelow(8)) {
      case 0:
        nl.AddDevice(std::make_unique<devices::Resistor>(
            name, pick(), pick(), rng.NextDouble(100.0, 10e3)));
        break;
      case 1:
        nl.AddDevice(std::make_unique<devices::Capacitor>(
            name, pick(), pick(), rng.NextDouble(1e-15, 1e-12)));
        break;
      case 2: {
        devices::DiodeParams p;
        p.cj0 = rng.NextDouble(0.0, 50e-15);
        p.tt = rng.NextDouble(0.0, 5e-12);
        nl.AddDevice(std::make_unique<devices::Diode>(name, pick(), pick(), p));
        break;
      }
      case 3:
        nl.AddDevice(
            std::make_unique<devices::Bjt>(name, pick(), pick(), pick()));
        break;
      case 4:
        nl.AddDevice(std::make_unique<devices::VSource>(
            name, pick(), pick(), Waveform::Dc(rng.NextDouble(-2.0, 2.0))));
        break;
      case 5:
        nl.AddDevice(std::make_unique<devices::ISource>(
            name, pick(), pick(), Waveform::Dc(rng.NextDouble(-1e-3, 1e-3))));
        break;
      case 6:
        nl.AddDevice(std::make_unique<devices::MultiEmitterBjt>(
            name, pick(), pick(), std::vector<NodeId>{pick(), pick()}));
        break;
      default:
        nl.AddDevice(std::make_unique<devices::Vcvs>(
            name, pick(), pick(), pick(), pick(), rng.NextDouble(-4.0, 4.0)));
        break;
    }
  }
  return nl;
}

linalg::Vector RandomIterate(util::Rng& rng, int n) {
  linalg::Vector x(static_cast<size_t>(n));
  for (double& v : x) v = rng.NextDouble(-1.2, 1.2);
  return x;
}

// The reference assembler: the same unknown numbering as MnaSystem (node
// n at n - 1, then each device's branches in device order), but a fresh
// StampContext for every assembly, so every stamp goes through the direct
// recording writes and nothing is ever replayed.
class RecordingReference final : public netlist::StampContext::Owner {
 public:
  explicit RecordingReference(const netlist::Netlist& nl)
      : nl_(nl), builder_(0) {
    int branch = nl.num_nodes() - 1, state = 0, constant = 0;
    for (int i = 0; i < nl.num_devices(); ++i) {
      const netlist::Device& dev = nl.device(i);
      netlist::DeviceSlots s;
      if (dev.num_branches() > 0) s.branch_offset = branch;
      if (dev.num_states() > 0) s.state_offset = state;
      if (dev.num_constants() > 0) s.constant_offset = constant;
      branch += dev.num_branches();
      state += dev.num_states();
      constant += dev.num_constants();
      slots_.push_back(s);
    }
    n_ = static_cast<size_t>(branch);
    dense_ = linalg::Matrix(n_, n_);
    builder_ = linalg::SparseBuilder(n_);
    rhs_.assign(n_, 0.0);
    prev_.assign(static_cast<size_t>(state), 0.0);
    curr_.assign(static_cast<size_t>(state), 0.0);
    constants_.assign(static_cast<size_t>(constant), 0.0);
  }

  netlist::AnalysisState analysis;

  void Assemble(const linalg::Vector& x, bool sparse) {
    sparse_ = sparse;
    dense_.Fill(0.0);
    builder_.Clear();
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    // Stale constants: every assembly recomputes them too.
    std::vector<uint64_t> revision(slots_.size(), 0);
    netlist::StampFrame frame;
    frame.analysis = &analysis;
    frame.slots = slots_.data();
    frame.iterate = x.data();
    frame.prev_states = prev_.data();
    frame.curr_states = curr_.data();
    frame.constants = constants_.data();
    frame.constants_revision = revision.data();
    netlist::StampContext ctx;
    ctx.Bind(frame);
    ctx.BeginRecord(*this);
    for (int i = 0; i < nl_.num_devices(); ++i) ctx.Record(nl_.device(i));
  }
  void RotateStates() { prev_ = curr_; }
  void ResetCurrentStates() { curr_ = prev_; }

  const linalg::Matrix& dense() const { return dense_; }
  const linalg::SparseBuilder& builder() const { return builder_; }
  const linalg::Vector& rhs() const { return rhs_; }

  void RecordMatrix(int row, int col, double value) override {
    if (sparse_) {
      builder_.Add(static_cast<size_t>(row), static_cast<size_t>(col), value);
    } else {
      dense_(static_cast<size_t>(row), static_cast<size_t>(col)) += value;
    }
  }
  double* MatrixTarget(int, int) override { return nullptr; }  // unused
  double* RhsTarget(int row) override {
    return &rhs_[static_cast<size_t>(row)];
  }

 private:
  const netlist::Netlist& nl_;
  std::vector<netlist::DeviceSlots> slots_;
  size_t n_ = 0;
  bool sparse_ = false;
  linalg::Matrix dense_;
  linalg::SparseBuilder builder_;
  linalg::Vector rhs_;
  std::vector<double> prev_, curr_, constants_;
};

// Bitwise double equality (distinguishes -0.0 from +0.0 and is NaN-safe).
::testing::AssertionResult BitEqual(double a, double b, const char* what,
                                    size_t index) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << what << "[" << index << "]: " << a << " vs " << b
         << " (bits differ)";
}

struct SparseEntry {
  size_t row, col;
  double value;
};

std::vector<SparseEntry> Entries(const linalg::SparseBuilder& b) {
  std::vector<SparseEntry> out;
  b.ForEach([&](size_t r, size_t c, double v) { out.push_back({r, c, v}); });
  return out;
}

void ExpectSparseIdentical(const linalg::SparseBuilder& a,
                           const linalg::SparseBuilder& b) {
  const auto ae = Entries(a);
  const auto be = Entries(b);
  ASSERT_EQ(ae.size(), be.size());
  for (size_t k = 0; k < ae.size(); ++k) {
    EXPECT_EQ(ae[k].row, be[k].row) << "entry " << k;
    EXPECT_EQ(ae[k].col, be[k].col) << "entry " << k;
    EXPECT_TRUE(BitEqual(ae[k].value, be[k].value, "sparse", k));
  }
}

void ExpectDenseIdentical(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows() * a.cols(); ++i) {
    ASSERT_TRUE(BitEqual(a.data()[i], b.data()[i], "jacobian", i));
  }
}

void ExpectRhsIdentical(const linalg::Vector& a, const linalg::Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(BitEqual(a[i], b[i], "rhs", i));
  }
}

void ExpectIdentical(const sim::MnaSystem& sys, const RecordingReference& ref,
                     bool sparse) {
  if (sparse) {
    ExpectSparseIdentical(sys.sparse_jacobian(), ref.builder());
  } else {
    ExpectDenseIdentical(sys.jacobian(), ref.dense());
  }
  ExpectRhsIdentical(sys.rhs(), ref.rhs());
}

// Drives an MnaSystem and the recording reference through the same
// context/iterate sequence and demands bitwise-equal results after every
// single Assemble.
void RunLockstep(uint64_t seed, bool sparse) {
  const netlist::Netlist nl = RandomNetlist(seed, /*num_nodes=*/9,
                                            /*num_devices=*/24);
  sim::MnaSystem sys(nl);
  RecordingReference ref(nl);
  ASSERT_EQ(sys.num_unknowns(), static_cast<int>(ref.rhs().size()));
  util::Rng rng(seed ^ 0xD1CEull);

  sys.set_sparse(sparse);
  sys.set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  sys.set_initializing_state(true);
  ref.analysis = sys.analysis();
  auto assemble = [&](const linalg::Vector& x, bool first) {
    sys.set_first_iteration(first);
    ref.analysis = sys.analysis();
    sys.Assemble(x);
    ref.Assemble(x, sparse);
    ExpectIdentical(sys, ref, sparse);
  };

  // DC phase: several iterates (the first one records the plan).
  for (int iter = 0; iter < 4; ++iter) {
    assemble(RandomIterate(rng, sys.num_unknowns()), iter == 0);
  }

  // Switch to transient: charge companions activate, devices take
  // different conditional stamp paths — the plan must re-record, not
  // replay garbage.
  sys.RotateStates();
  ref.RotateStates();
  sys.set_mode(netlist::AnalysisMode::kTransient);
  sys.set_initializing_state(false);
  sys.set_dt(1e-12);
  sys.set_time(1e-12);
  for (int step = 0; step < 3; ++step) {
    for (int iter = 0; iter < 3; ++iter) {
      assemble(RandomIterate(rng, sys.num_unknowns()), iter == 0);
    }
    sys.RotateStates();
    ref.RotateStates();
    sys.set_time(1e-12 * (step + 2));
  }

  // A rejected step: reset states and retry with a smaller dt.
  sys.ResetCurrentStates();
  ref.ResetCurrentStates();
  sys.set_dt(2.5e-13);
  assemble(RandomIterate(rng, sys.num_unknowns()), true);
}

TEST(StampPlanTest, RandomNetlistsDenseBitIdentical) {
  for (uint64_t seed = 1; seed <= 8; ++seed) RunLockstep(seed, /*sparse=*/false);
}

TEST(StampPlanTest, RandomNetlistsSparseBitIdentical) {
  for (uint64_t seed = 1; seed <= 8; ++seed) RunLockstep(seed, /*sparse=*/true);
}

// Switching a system between sparse and dense routing mid-life must not
// replay a plan compiled for the other backend.
TEST(StampPlanTest, SurvivesSparseDenseSwitch) {
  const netlist::Netlist nl = RandomNetlist(3, 8, 20);
  sim::MnaSystem sys(nl);
  RecordingReference ref(nl);
  util::Rng rng(99);
  for (const bool sparse : {false, true, false, true}) {
    sys.set_sparse(sparse);
    ref.analysis = sys.analysis();
    const linalg::Vector x = RandomIterate(rng, sys.num_unknowns());
    sys.Assemble(x);
    ref.Assemble(x, sparse);
    ExpectIdentical(sys, ref, sparse);
  }
}

// One BJT, one two-emitter BJT and one diode with depletion charge, all
// forward-biased past fc * vj, so both IS(T) and the depletion split
// constants reach the transient Jacobian and RHS.
struct ConstantsCircuit {
  netlist::Netlist nl;
  devices::Bjt* bjt = nullptr;
  devices::Diode* diode = nullptr;
  linalg::Vector x;

  ConstantsCircuit() {
    const NodeId c = nl.AddNode("c"), b = nl.AddNode("b"),
                 e = nl.AddNode("e"), e2 = nl.AddNode("e2"),
                 a = nl.AddNode("a");
    bjt = static_cast<devices::Bjt*>(
        nl.AddDevice(std::make_unique<devices::Bjt>("q1", c, b, e)));
    nl.AddDevice(std::make_unique<devices::MultiEmitterBjt>(
        "q2", c, b, std::vector<NodeId>{e, e2}));
    devices::DiodeParams dp;
    dp.cj0 = 40e-15;
    dp.tt = 3e-12;
    diode = static_cast<devices::Diode*>(nl.AddDevice(
        std::make_unique<devices::Diode>("d1", a, netlist::kGroundNode, dp)));
    // vbe = 0.8 V > fc * vje, vbc = 0.5 V > fc * vjc, vd = 0.7 V > fc * vj.
    x = {2.0 - 1.7, 2.0 - 1.2, 2.0 - 2.0, 2.0 - 2.0, 0.7};
  }

  // A transient assembly (charge companions active) at `temp_k`.
  static void Configure(sim::MnaSystem& sys, double temp_k) {
    sys.set_mode(netlist::AnalysisMode::kTransient);
    sys.set_initializing_state(false);
    sys.set_dt(1e-12);
    sys.set_temperature(temp_k);
  }
};

void ExpectMatchesFresh(const ConstantsCircuit& circuit,
                        const sim::MnaSystem& live, double temp_k) {
  sim::MnaSystem fresh(circuit.nl);
  ConstantsCircuit::Configure(fresh, temp_k);
  fresh.Assemble(circuit.x);
  ExpectDenseIdentical(live.jacobian(), fresh.jacobian());
  ExpectRhsIdentical(live.rhs(), fresh.rhs());
}

// A live system that changes temperature must recompute its devices'
// constants, not replay the ones from the old temperature.
TEST(StampPlanTest, TemperatureChangeRefreshesModelConstants) {
  ConstantsCircuit circuit;
  ASSERT_EQ(circuit.nl.device(0).num_constants(), devices::kBjtConstants);
  sim::MnaSystem live(circuit.nl);
  for (const double temp_k : {300.15, 233.15, 398.15, 300.15}) {
    ConstantsCircuit::Configure(live, temp_k);
    live.Assemble(circuit.x);
    ExpectMatchesFresh(circuit, live, temp_k);
  }
}

// Same for parameter changes on a live netlist.
TEST(StampPlanTest, SetParamsRefreshesModelConstants) {
  ConstantsCircuit circuit;
  sim::MnaSystem live(circuit.nl);
  ConstantsCircuit::Configure(live, 330.0);
  live.Assemble(circuit.x);
  ExpectMatchesFresh(circuit, live, 330.0);

  devices::BjtParams bp = circuit.bjt->params();
  bp.is *= 3.0;
  bp.cje *= 2.0;
  bp.mje = 0.4;
  bp.cjc *= 1.5;
  bp.vjc = 0.7;
  circuit.bjt->set_params(bp);
  devices::DiodeParams dp = circuit.diode->params();
  dp.is *= 5.0;
  dp.cj0 *= 2.0;
  dp.m = 0.45;
  circuit.diode->set_params(dp);
  live.Assemble(circuit.x);
  ExpectMatchesFresh(circuit, live, 330.0);
}

}  // namespace
}  // namespace cmldft
