// Per-layer probes of the traced run: timed calls into one layer's public
// functions on fixed inputs (seed 0), so that every time-valued per-layer
// metric is measured in every traced run, whichever workload it belongs to.
#include <mutex>

#include "bench.h"
#include "campaign/characterize_campaign.h"
#include "campaign/runner.h"
#include "campaign/work.h"
#include "cml/builder.h"
#include "core/characterize.h"
#include "core/detector.h"
#include "core/screening.h"
#include "linalg/lu.h"
#include "netlist/netlist.h"
#include "sim/dc.h"
#include "sim/hier.h"
#include "sim/mna.h"
#include "sim/newton.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace e2e {

namespace {

using namespace cmldft;

/// Median wall time [s] of `reps` calls of fn.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    samples.push_back(Now() - t0);
  }
  return Median(std::move(samples));
}

std::string QuantileBase(const std::vector<double>& samples, double q) {
  size_t beyond = 0;
  const double cut = Quantile(samples, q);
  for (double s : samples) beyond += s > cut ? 1 : 0;
  return util::StrPrintf("%zu samples, %zu beyond p%.0f", samples.size(), beyond,
                         100 * q);
}

// --- circuits --------------------------------------------------------------

/// The screen workload's circuit: coverage_comparison's instrumented
/// 3-buffer chain with variant-2 detectors, in test mode.
StatusOr<netlist::Netlist> ScreenCircuit() {
  auto opt = campaign::ScreeningPreset("coverage_comparison");
  if (!opt.ok()) return opt.status();
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("va", opt->frequency);
  const auto outs = cells.AddBufferChain("x", in, opt->chain_length);
  core::DetectorBuilder det(cells, opt->detector);
  for (int i = 0; i < opt->chain_length; ++i) {
    det.AttachVariant2(util::StrPrintf("det%d", i), outs[static_cast<size_t>(i)]);
  }
  CMLDFT_RETURN_IF_ERROR(core::SetTestMode(
      nl, true, opt->detector.vtest_test_mode, tech.vgnd));
  return nl;
}

/// The hier_chain workload's circuit: 256 buffers behind a 500 MHz clock.
netlist::Netlist HierCircuit() {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  cells.AddBufferChain("x", cells.AddDifferentialClock("in", 500e6), 256);
  return nl;
}

/// The characterize workload's largest circuit: the load-sharing testbench
/// (3 static buffers tapped onto one shared load and comparator).
netlist::Netlist CharacterizeCircuit() {
  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const auto outs =
      cells.AddBufferChain("x", cells.AddDifferentialDc("va", true), 3);
  core::DetectorBuilder det(cells);
  core::SharedLoad load = det.AddSharedLoad("det");
  for (int i = 0; i < 3; ++i) {
    det.AttachTap(load, util::StrPrintf("tap%d", i), outs[static_cast<size_t>(i)]);
  }
  return nl;
}

/// An MnaSystem of `nl` and its converged DC operating point (as the full
/// unknown vector, branch currents included).
struct OperatingPoint {
  std::unique_ptr<sim::MnaSystem> mna;
  linalg::Vector x;
};

StatusOr<OperatingPoint> SolveOperatingPoint(const netlist::Netlist& nl) {
  auto dc = sim::SolveDc(nl);
  if (!dc.ok()) return dc.status();
  OperatingPoint op;
  op.mna = std::make_unique<sim::MnaSystem>(nl);
  op.mna->set_mode(netlist::AnalysisMode::kDcOperatingPoint);
  linalg::Vector guess(static_cast<size_t>(op.mna->num_unknowns()), 0.0);
  for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
    guess[static_cast<size_t>(op.mna->UnknownOfNode(n))] = dc->V(n);
  }
  auto newton = sim::SolveNewton(*op.mna, guess, sim::NewtonOptions{});
  if (!newton.ok()) return newton.status();
  op.x = std::move(newton->solution);
  return op;
}

/// Times every Emit of a serial screening pass: the gap since the previous
/// emit (or the reference) is that defect's wall time.
class TimingSink : public campaign::Sink {
 public:
  Status EmitReference(const core::ScreeningReport&) override {
    std::lock_guard<std::mutex> lock(mu_);
    last_ = Now();
    return Status::Ok();
  }
  Status Emit(uint64_t, const core::DefectOutcome&) override {
    std::lock_guard<std::mutex> lock(mu_);
    const double t = Now();
    defect_s_.push_back(t - last_);
    last_ = t;
    return Status::Ok();
  }
  std::vector<double> defect_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return defect_s_;
  }

 private:
  mutable std::mutex mu_;
  double last_ = 0.0;
  std::vector<double> defect_s_;
};

}  // namespace

StatusOr<ProbeResults> RunProbes(const std::string& workload, int threads) {
  ProbeResults out;
  std::vector<Metric>& m = out.metrics;

  // util: one ParallelFor dispatch over 256 trivial indices.
  {
    std::vector<double> cells(256, 0.0);
    const double s = MedianSeconds(201, [&] {
      util::ParallelFor(
          cells.size(), [&](size_t i) { cells[i] += 1.0; }, threads);
    });
    m.push_back({"util.parallel.dispatch_us", 1e6 * s, "us",
                 util::StrPrintf("median of 201 calls at %d threads", threads)});
  }

  // sim: one MnaSystem::Assemble at the workload circuit's operating point.
  {
    StatusOr<netlist::Netlist> nl = workload == "screen"       ? ScreenCircuit()
                                    : workload == "hier_chain" ? HierCircuit()
                                                               : CharacterizeCircuit();
    if (!nl.ok()) return nl.status();
    auto op = SolveOperatingPoint(*nl);
    if (!op.ok()) return op.status();
    const int reps = op->mna->num_unknowns() > 256 ? 101 : 1001;
    const double s = MedianSeconds(reps, [&] { op->mna->Assemble(op->x); });
    m.push_back({"sim.mna.assemble_us", 1e6 * s, "us",
                 util::StrPrintf("median of %d calls, %d unknowns, %s", reps,
                                 op->mna->num_unknowns(),
                                 op->mna->sparse() ? "sparse" : "dense")});
  }

  // linalg: dense LU factor + solve of the screen circuit's Jacobian.
  {
    auto nl = ScreenCircuit();
    if (!nl.ok()) return nl.status();
    auto op = SolveOperatingPoint(*nl);
    if (!op.ok()) return op.status();
    op->mna->Assemble(op->x);
    Status st = Status::Ok();
    const double s = MedianSeconds(1001, [&] {
      linalg::LuFactorization lu;
      st = lu.Factor(op->mna->jacobian());
      if (st.ok()) st = lu.Solve(op->mna->rhs()).status();
    });
    CMLDFT_RETURN_IF_ERROR(st);
    m.push_back({"linalg.dense_lu.factor_us", 1e6 * s, "us",
                 util::StrPrintf("median of 1001 Factor+Solve, n = %d",
                                 op->mna->num_unknowns())});
  }

  // sim.hier: one HierSolver::AssembleAndSolve on the 256-cell chain.
  {
    const netlist::Netlist nl = HierCircuit();
    auto op = SolveOperatingPoint(nl);
    if (!op.ok()) return op.status();
    sim::HierSolver* hier = op->mna->GetHierSolver();
    if (hier == nullptr || !hier->usable()) {
      return Status::Internal("256-cell chain has no usable hierarchy");
    }
    linalg::Vector x_new;
    Status st = Status::Ok();
    for (int t : {1, threads}) {
      sim::NewtonOptions o;
      o.hierarchical = true;
      o.hier_threads = t;
      const double s = MedianSeconds(31, [&] {
        if (st.ok()) st = hier->AssembleAndSolve(op->x, &x_new, o);
      });
      CMLDFT_RETURN_IF_ERROR(st);
      m.push_back({t == 1 ? "sim.hier.solve_ms.t1" : "sim.hier.solve_ms.tN",
                   1e3 * s, "ms",
                   util::StrPrintf("median of 31 calls at %d thread(s), %d cells",
                                   t, hier->num_cells())});
    }
  }

  // core + defects: a serial coverage_comparison screen with a timing sink.
  {
    auto opt = campaign::ScreeningPreset("coverage_comparison");
    if (!opt.ok()) return opt.status();
    opt->threads = 1;
    const double e = MedianSeconds(9, [&] { core::ScreeningUniverse(*opt); });
    m.push_back({"defects.enumerate_ms", 1e3 * e, "ms",
                 "median of 9 ScreeningUniverse calls"});
    TimingSink sink;
    const telemetry::Snapshot before = telemetry::Capture();
    auto rep = core::ScreenBufferChain(*opt, nullptr, &sink);
    const telemetry::Snapshot after = telemetry::Capture();
    if (!rep.ok()) return rep.status();
    const std::vector<double> defect_s = sink.defect_s();
    std::vector<double> ms;
    for (double s : defect_s) ms.push_back(1e3 * s);
    m.push_back({"core.screening.reference_s",
                 SecondsDelta(before, after, "core.screening.reference_wall"),
                 "s", "fault-free reference of one serial screen"});
    m.push_back({"core.screening.defect_ms.p50", Quantile(ms, 0.5), "ms",
                 QuantileBase(ms, 0.5)});
    m.push_back({"core.screening.defect_ms.p90", Quantile(ms, 0.9), "ms",
                 QuantileBase(ms, 0.9)});
    out.screening_tran_wall_s = SecondsDelta(before, after, "sim.tran.wall");
  }

  // core: characterization units, pooled over sweeps until at least ten
  // samples lie beyond p90.
  {
    auto config = campaign::CharacterizationPreset("characterization");
    if (!config.ok()) return config.status();
    std::vector<double> ms;
    while (ms.size() < 100) {
      for (uint64_t id = 0; id < config->unit_count(); ++id) {
        const double t0 = Now();
        auto unit = core::EvaluateCharacterizationUnit(*config, id);
        if (!unit.ok()) return unit.status();
        ms.push_back(1e3 * (Now() - t0));
      }
    }
    m.push_back({"core.characterize.unit_ms.p50", Quantile(ms, 0.5), "ms",
                 QuantileBase(ms, 0.5)});
    m.push_back({"core.characterize.unit_ms.p90", Quantile(ms, 0.9), "ms",
                 QuantileBase(ms, 0.9)});
  }
  return out;
}

}  // namespace e2e
