#include "devices/bjt.h"

#include <cassert>

#include <cmath>

#include "devices/junction.h"
#include "devices/passive.h"
#include "util/units.h"

namespace cmldft::devices {

double SaturationCurrentAt(const BjtParams& params, double temp_k) {
  // kT/q in eV equals the thermal voltage in volts.
  const double vt_nom = util::ThermalVoltage(params.tnom);
  const double vt = util::ThermalVoltage(temp_k);
  return params.is * std::pow(temp_k / params.tnom, params.xti) *
         std::exp(params.eg / vt_nom - params.eg / vt);
}

void ComputeBjtConstants(const BjtParams& params, double bc_scale,
                         double temp_k, double* out) {
  const DepletionSplit be =
      DepletionSplitAt(params.cje, params.vje, params.mje, params.fc);
  const DepletionSplit bc = DepletionSplitAt(params.cjc * bc_scale, params.vjc,
                                             params.mjc, params.fc);
  out[0] = SaturationCurrentAt(params, temp_k);
  out[1] = be.q0;
  out[2] = be.c0;
  out[3] = be.dcdv;
  out[4] = bc.q0;
  out[5] = bc.c0;
  out[6] = bc.dcdv;
}

namespace {

/// Shared Ebers-Moll evaluation + stamping for one (C, B, E) triple.
/// `k` holds the device's constants (ComputeBjtConstants); `bc_scale`
/// scales the B-C junction contribution (used by the multi-emitter device,
/// whose emitters share a single B-C junction); `state_base` is the
/// device state-slot offset for this triple's four charge states
/// {qbe, ibe, qbc, ibc}.
void StampBjtCore(netlist::StampContext& ctx, const netlist::Device& dev,
                  netlist::NodeId c, netlist::NodeId b, netlist::NodeId e,
                  const BjtParams& p, const double* k, double bc_scale,
                  int state_base) {
  const double vt = util::ThermalVoltage(ctx.temperature());
  const double gmin = ctx.gmin();
  const double vbe = ctx.V(b) - ctx.V(e);
  const double vbc = ctx.V(b) - ctx.V(c);

  // Transport currents (Ebers-Moll, transport form).
  double dee = 0.0, dec = 0.0;
  const double ee = LimitedExp(vbe, p.nf * vt, &dee);
  const double ec = LimitedExp(vbc, p.nr * vt, &dec);
  const double is_t = k[0];
  const double is_r = is_t * bc_scale;
  const double icc = is_t * (ee - 1.0);
  const double gf = is_t * dee;
  const double iec = is_r * (ec - 1.0);
  const double gr = is_r * dec;

  const double ibe = icc / p.bf + gmin * vbe;
  const double gpi = gf / p.bf + gmin;
  const double ibc = iec / p.br + gmin * vbc;
  const double gmu = gr / p.br + gmin;

  // Terminal currents (leaving the node into the device).
  const double ic = icc - iec - ibc;
  const double ib = ibe + ibc;
  const double ie = -(ic + ib);

  // Partials w.r.t. junction voltages.
  const double dic_dvbe = gf;
  const double dic_dvbc = -gr - gmu;
  const double dib_dvbe = gpi;
  const double dib_dvbc = gmu;

  // Jacobian w.r.t. node voltages: vbe = VB - VE, vbc = VB - VC.
  const double jc_vb = dic_dvbe + dic_dvbc;
  const double jc_ve = -dic_dvbe;
  const double jc_vc = -dic_dvbc;
  const double jb_vb = dib_dvbe + dib_dvbc;
  const double jb_ve = -dib_dvbe;
  const double jb_vc = -dib_dvbc;
  const double je_vb = -(jc_vb + jb_vb);
  const double je_ve = -(jc_ve + jb_ve);
  const double je_vc = -(jc_vc + jb_vc);

  ctx.AddNodeMatrix(c, c, jc_vc);
  ctx.AddNodeMatrix(c, b, jc_vb);
  ctx.AddNodeMatrix(c, e, jc_ve);
  ctx.AddNodeMatrix(b, c, jb_vc);
  ctx.AddNodeMatrix(b, b, jb_vb);
  ctx.AddNodeMatrix(b, e, jb_ve);
  ctx.AddNodeMatrix(e, c, je_vc);
  ctx.AddNodeMatrix(e, b, je_vb);
  ctx.AddNodeMatrix(e, e, je_ve);

  // Newton equivalent sources: rhs -= f(v*) - J v*.
  const double vc = ctx.V(c), vb = ctx.V(b), ve = ctx.V(e);
  ctx.AddNodeRhs(c, -(ic - (jc_vc * vc + jc_vb * vb + jc_ve * ve)));
  ctx.AddNodeRhs(b, -(ib - (jb_vc * vc + jb_vb * vb + jb_ve * ve)));
  ctx.AddNodeRhs(e, -(ie - (je_vc * vc + je_vb * vb + je_ve * ve)));

  // Charge storage: B-E (depletion + forward diffusion), B-C (scaled).
  double cdep_be = 0.0;
  const double qdep_be =
      DepletionCharge(vbe, p.cje, p.vje, p.mje, p.fc,
                      DepletionSplit{k[1], k[2], k[3]}, &cdep_be);
  const double qbe = qdep_be + p.tf * icc;
  const double cbe = cdep_be + p.tf * gf;
  const ChargeCompanion ccbe =
      IntegrateCharge(ctx, dev, state_base + 0, state_base + 1, qbe, cbe);
  if (ccbe.conductance != 0.0 || ccbe.current != 0.0) {
    ctx.StampCurrent(b, e, ccbe.current, ccbe.conductance);
  }

  double cdep_bc = 0.0;
  const double qdep_bc =
      DepletionCharge(vbc, p.cjc * bc_scale, p.vjc, p.mjc, p.fc,
                      DepletionSplit{k[4], k[5], k[6]}, &cdep_bc);
  const double qbc = qdep_bc + p.tr * iec;
  const double cbc = cdep_bc + p.tr * gr;
  const ChargeCompanion ccbc =
      IntegrateCharge(ctx, dev, state_base + 2, state_base + 3, qbc, cbc);
  if (ccbc.conductance != 0.0 || ccbc.current != 0.0) {
    ctx.StampCurrent(b, c, ccbc.current, ccbc.conductance);
  }
}

}  // namespace

void Bjt::Stamp(netlist::StampContext& ctx) const {
  StampBjtCore(ctx, *this, collector(), base(), emitter(), params_,
               ctx.Constants(*this), /*bc_scale=*/1.0, /*state_base=*/0);
}

MultiEmitterBjt::MultiEmitterBjt(std::string name, netlist::NodeId collector,
                                 netlist::NodeId base,
                                 std::vector<netlist::NodeId> emitters,
                                 BjtParams params)
    : Device(std::move(name),
             [&] {
               std::vector<netlist::NodeId> nodes = {collector, base};
               nodes.insert(nodes.end(), emitters.begin(), emitters.end());
               return nodes;
             }()),
      params_(params) {
  assert(!emitters.empty());
}

void MultiEmitterBjt::Stamp(netlist::StampContext& ctx) const {
  const int n = num_emitters();
  const double bc_scale = 1.0 / n;  // emitters share one B-C junction
  const double* constants = ctx.Constants(*this);
  for (int k = 0; k < n; ++k) {
    StampBjtCore(ctx, *this, node(0), node(1), node(2 + k), params_,
                 constants, bc_scale, 4 * k);
  }
}

}  // namespace cmldft::devices
