#include "cml/builder.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "devices/passive.h"
#include "devices/sources.h"
#include "util/strings.h"

namespace cmldft::cml {

using devices::Bjt;
using devices::Capacitor;
using devices::Resistor;
using devices::VSource;
using devices::Waveform;
using netlist::NodeId;

CellBuilder::CellBuilder(netlist::Netlist& netlist, const CmlTechnology& tech)
    : netlist_(&netlist), tech_(tech) {
  vgnd_ = Node("vgnd");
  vbias_ = Node("vbias");
  if (netlist_->FindDevice("Vvgnd") == nullptr) {
    netlist_->AddDevice(std::make_unique<VSource>(
        "Vvgnd", vgnd_, netlist::kGroundNode, Waveform::Dc(tech_.vgnd)));
  }
  if (netlist_->FindDevice("Vbias") == nullptr) {
    netlist_->AddDevice(std::make_unique<VSource>(
        "Vbias", vbias_, netlist::kGroundNode,
        Waveform::Dc(tech_.bias_voltage())));
  }
}

NodeId CellBuilder::Node(const std::string& name) {
  return netlist_->AddNode(name);
}

DiffPort CellBuilder::PortOf(const std::string& p_name,
                             const std::string& n_name) {
  return DiffPort{Node(p_name), Node(n_name), p_name, n_name};
}

DiffPort CellBuilder::AddDifferentialClock(const std::string& name,
                                           double frequency, double delay,
                                           double edge_time) {
  assert(frequency > 0.0);
  const double period = 1.0 / frequency;
  const double edge =
      edge_time > 0.0 ? edge_time : std::min(30e-12, 0.05 * period);
  const double width = period / 2.0 - edge;
  const double lo = tech_.v_low();
  const double hi = tech_.v_high();
  DiffPort port = PortOf(name + "_p", name + "_n");
  netlist_->AddDevice(std::make_unique<VSource>(
      "V" + name + "_p", port.p, netlist::kGroundNode,
      Waveform::Pulse(lo, hi, delay, edge, edge, width, period)));
  netlist_->AddDevice(std::make_unique<VSource>(
      "V" + name + "_n", port.n, netlist::kGroundNode,
      Waveform::Pulse(hi, lo, delay, edge, edge, width, period)));
  return port;
}

DiffPort CellBuilder::AddDifferentialDc(const std::string& name, bool value) {
  DiffPort port = PortOf(name + "_p", name + "_n");
  const double vp = value ? tech_.v_high() : tech_.v_low();
  const double vn = value ? tech_.v_low() : tech_.v_high();
  netlist_->AddDevice(std::make_unique<VSource>(
      "V" + name + "_p", port.p, netlist::kGroundNode, Waveform::Dc(vp)));
  netlist_->AddDevice(std::make_unique<VSource>(
      "V" + name + "_n", port.n, netlist::kGroundNode, Waveform::Dc(vn)));
  return port;
}

void CellBuilder::AddTailSource(const std::string& cell, NodeId tail) {
  const NodeId ve = Node(cell + ".ve");
  netlist_->AddDevice(
      std::make_unique<Bjt>(cell + ".q3", tail, vbias_, ve, tech_.npn));
  netlist_->AddDevice(std::make_unique<Resistor>(cell + ".re", ve,
                                                 netlist::kGroundNode, tech_.re));
}

void CellBuilder::AddOutputLoad(const std::string& cell,
                                const std::string& res_name, NodeId out) {
  netlist_->AddDevice(std::make_unique<Resistor>(cell + "." + res_name, vgnd_,
                                                 out, tech_.load_resistance()));
  if (tech_.wire_cap > 0.0) {
    netlist_->AddDevice(std::make_unique<Capacitor>(
        cell + ".cw_" + res_name, out, netlist::kGroundNode, tech_.wire_cap));
  }
}

void CellBuilder::RegisterCell(const std::string& name, int first_device) {
  netlist::CellInstance cell;
  cell.name = name;
  for (int i = first_device; i < netlist_->num_devices(); ++i) {
    cell.devices.push_back(netlist_->device(i).name());
  }
  netlist_->AddCellInstance(std::move(cell));
}

DiffPort CellBuilder::AddBuffer(const std::string& name, const DiffPort& in) {
  const int mark = netlist_->num_devices();
  DiffPort out = PortOf(name + ".op", name + ".opb");
  const NodeId e = Node(name + ".e");
  // Q1 on the true input pulls the complement output low when in = 1.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q1", out.n, in.p, e, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q2", out.p, in.n, e, tech_.npn));
  AddOutputLoad(name, "rc1", out.n);
  AddOutputLoad(name, "rc2", out.p);
  AddTailSource(name, e);
  RegisterCell(name, mark);
  return out;
}

DiffPort CellBuilder::AddLevelShifter(const std::string& name,
                                      const DiffPort& in) {
  const int mark = netlist_->num_devices();
  DiffPort out = PortOf(name + ".op", name + ".opb");
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q1", vgnd_, in.p, out.p, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q2", vgnd_, in.n, out.n, tech_.npn));
  netlist_->AddDevice(std::make_unique<Resistor>(
      name + ".r1", out.p, netlist::kGroundNode, tech_.level_shift_pulldown));
  netlist_->AddDevice(std::make_unique<Resistor>(
      name + ".r2", out.n, netlist::kGroundNode, tech_.level_shift_pulldown));
  RegisterCell(name, mark);
  return out;
}

DiffPort CellBuilder::AddAnd2(const std::string& name, const DiffPort& a,
                              const DiffPort& b) {
  // Series gating: top pair steered by a, bottom pair by level-shifted b.
  const DiffPort bls = AddLevelShifter(name + ".ls", b);
  const int mark = netlist_->num_devices();  // the shifter is its own cell
  DiffPort out = PortOf(name + ".op", name + ".opb");
  const NodeId e1 = Node(name + ".e1");
  const NodeId e0 = Node(name + ".e0");
  // Current in op's load when !(a & b); in opb's load when a & b.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q1", out.n, a.p, e1, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q2", out.p, a.n, e1, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q5", e1, bls.p, e0, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q6", out.p, bls.n, e0, tech_.npn));
  AddOutputLoad(name, "rc1", out.n);
  AddOutputLoad(name, "rc2", out.p);
  AddTailSource(name, e0);
  RegisterCell(name, mark);
  return out;
}

DiffPort CellBuilder::AddOr2(const std::string& name, const DiffPort& a,
                             const DiffPort& b) {
  // a | b = !(!a & !b): AND gate with both inputs swapped and outputs
  // swapped (differential logic makes inversion free).
  const DiffPort a_inv{a.n, a.p, a.n_name, a.p_name};
  const DiffPort b_inv{b.n, b.p, b.n_name, b.p_name};
  DiffPort y = AddAnd2(name, a_inv, b_inv);
  return DiffPort{y.n, y.p, y.n_name, y.p_name};
}

DiffPort CellBuilder::AddXor2(const std::string& name, const DiffPort& a,
                              const DiffPort& b) {
  const DiffPort bls = AddLevelShifter(name + ".ls", b);
  const int mark = netlist_->num_devices();
  DiffPort out = PortOf(name + ".op", name + ".opb");
  const NodeId e1 = Node(name + ".e1");  // selected when b = 1
  const NodeId e2 = Node(name + ".e2");  // selected when b = 0
  const NodeId e0 = Node(name + ".e0");
  // b=1: out = !a path -> current in op load when a=1.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q1", out.p, a.p, e1, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q2", out.n, a.n, e1, tech_.npn));
  // b=0: out = a path -> current in opb load when a=1.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q7", out.n, a.p, e2, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q8", out.p, a.n, e2, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q5", e1, bls.p, e0, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q6", e2, bls.n, e0, tech_.npn));
  AddOutputLoad(name, "rc1", out.n);
  AddOutputLoad(name, "rc2", out.p);
  AddTailSource(name, e0);
  RegisterCell(name, mark);
  return out;
}

DiffPort CellBuilder::AddMux2(const std::string& name, const DiffPort& a,
                              const DiffPort& b, const DiffPort& sel) {
  const DiffPort sls = AddLevelShifter(name + ".ls", sel);
  const int mark = netlist_->num_devices();
  DiffPort out = PortOf(name + ".op", name + ".opb");
  const NodeId e1 = Node(name + ".e1");  // sel = 1: pass a
  const NodeId e2 = Node(name + ".e2");  // sel = 0: pass b
  const NodeId e0 = Node(name + ".e0");
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q1", out.n, a.p, e1, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q2", out.p, a.n, e1, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q7", out.n, b.p, e2, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q8", out.p, b.n, e2, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q5", e1, sls.p, e0, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q6", e2, sls.n, e0, tech_.npn));
  AddOutputLoad(name, "rc1", out.n);
  AddOutputLoad(name, "rc2", out.p);
  AddTailSource(name, e0);
  RegisterCell(name, mark);
  return out;
}

DiffPort CellBuilder::AddLatch(const std::string& name, const DiffPort& d,
                               const DiffPort& clk) {
  const DiffPort cls = AddLevelShifter(name + ".ls", clk);
  const int mark = netlist_->num_devices();
  DiffPort out = PortOf(name + ".op", name + ".opb");
  const NodeId e1 = Node(name + ".e1");  // clk = 1: track d
  const NodeId e2 = Node(name + ".e2");  // clk = 0: regenerate
  const NodeId e0 = Node(name + ".e0");
  // Track pair.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q1", out.n, d.p, e1, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q2", out.p, d.n, e1, tech_.npn));
  // Cross-coupled hold pair: bases on the outputs.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q7", out.n, out.p, e2, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q8", out.p, out.n, e2, tech_.npn));
  // Clock steering.
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q5", e1, cls.p, e0, tech_.npn));
  netlist_->AddDevice(std::make_unique<Bjt>(name + ".q6", e2, cls.n, e0, tech_.npn));
  AddOutputLoad(name, "rc1", out.n);
  AddOutputLoad(name, "rc2", out.p);
  AddTailSource(name, e0);
  RegisterCell(name, mark);
  return out;
}

DiffPort CellBuilder::AddDff(const std::string& name, const DiffPort& d,
                             const DiffPort& clk) {
  const DiffPort clk_inv{clk.n, clk.p, clk.n_name, clk.p_name};
  const DiffPort master = AddLatch(name + ".m", d, clk_inv);
  return AddLatch(name, master, clk);
}

std::vector<DiffPort> CellBuilder::AddBufferChain(
    const std::string& prefix, const DiffPort& in, int n,
    const std::vector<std::string>& names) {
  assert(n > 0);
  assert(names.empty() || static_cast<int>(names.size()) == n);
  std::vector<DiffPort> outs;
  outs.reserve(static_cast<size_t>(n));
  DiffPort cur = in;
  for (int i = 0; i < n; ++i) {
    const std::string cell =
        names.empty() ? util::StrPrintf("%s%d", prefix.c_str(), i) : names[static_cast<size_t>(i)];
    cur = AddBuffer(cell, cur);
    outs.push_back(cur);
  }
  return outs;
}

std::vector<DiffPort> CellBuilder::AddBufferTree(const std::string& prefix,
                                                 const DiffPort& in, int n) {
  assert(n > 0);
  std::vector<DiffPort> outs;
  outs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const DiffPort& drive = i == 0 ? in : outs[static_cast<size_t>((i - 1) / 2)];
    outs.push_back(AddBuffer(util::StrPrintf("%s%d", prefix.c_str(), i), drive));
  }
  return outs;
}

}  // namespace cmldft::cml
