#include "devices/bjt.h"

#include <cassert>

#include <cmath>

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
  const double vt = util::ThermalVoltage(temp_k);
  out[kBjtIs] = SaturationCurrentAt(params, temp_k);
  out[kBjtIsReverse] = out[kBjtIs] * bc_scale;
  out[kBjtInvNfVt] = 1.0 / (params.nf * vt);
  out[kBjtInvNrVt] = 1.0 / (params.nr * vt);
  out[kBjtInvBf] = 1.0 / params.bf;
  out[kBjtInvBr] = 1.0 / params.br;
  StoreDepletion(
      DepletionConstantsOf(params.cje, params.vje, params.mje, params.fc),
      out + kBjtBeDepletion);
  StoreDepletion(DepletionConstantsOf(params.cjc * bc_scale, params.vjc,
                                      params.mjc, params.fc),
                 out + kBjtBcDepletion);
}

namespace {

/// Shared Ebers-Moll evaluation + stamping for one (C, B, E) triple.
/// `k` holds the device's constants (ComputeBjtConstants), whose B-C
/// junction and reverse transport current are already scaled for a
/// multi-emitter device's shared B-C junction; `state_base` is the device
/// state-slot offset for this triple's four charge states
/// {qbe, ibe, qbc, ibc}.
///
/// The charge companions fold into the block, as in SPICE3's BJT load:
/// each companion's conductance and equivalent current join the entries
/// its junction (B-E or B-C) touches, so the device writes its 3x3 block
/// and three rhs entries once, with the same sequence in a seeding DC
/// (where the companions are {0, 0} and change no value) and transient. A
/// plain DC evaluates no charge and adds the same {0, 0}. They join the
/// finished entries, not gpi and gmu: the e row is minus the sum of the c
/// and b rows, and a companion inside gmu would cancel there and swamp the
/// e row's -gr.
void StampBjtCore(netlist::StampContext& ctx, const netlist::Device& dev,
                  netlist::NodeId c, netlist::NodeId b, netlist::NodeId e,
                  const BjtParams& p, const double* k, int state_base) {
  const double vc = ctx.V(c), vb = ctx.V(b), ve = ctx.V(e);
  const double vbe = vb - ve;
  const double vbc = vb - vc;

  // Transport currents (Ebers-Moll, transport form).
  double dee = 0.0, dec = 0.0;
  const double ee = LimitedExp(vbe, k[kBjtInvNfVt], &dee);
  const double ec = LimitedExp(vbc, k[kBjtInvNrVt], &dec);
  const double is_t = k[kBjtIs];
  const double is_r = k[kBjtIsReverse];
  const double icc = is_t * (ee - 1.0);
  const double gf = is_t * dee;
  const double iec = is_r * (ec - 1.0);
  const double gr = is_r * dec;

  // Charge storage: B-E (depletion + forward diffusion), B-C (scaled),
  // evaluated only where an analysis reads it (IntegrateCharge). Each
  // companion is a conductance g plus the equivalent current i - g * v of
  // its junction (as StampCurrent would stamp it).
  const ChargeCompanion ccbe =
      IntegrateCharge(ctx, dev, state_base + 0, state_base + 1, [&] {
        double cdep = 0.0;
        const double qdep =
            DepletionCharge(vbe, LoadDepletion(k + kBjtBeDepletion), &cdep);
        return Charge{qdep + p.tf * icc, cdep + p.tf * gf};
      });
  const double gbe = ccbe.conductance;
  const double ieq_be = ccbe.current - gbe * vbe;

  const ChargeCompanion ccbc =
      IntegrateCharge(ctx, dev, state_base + 2, state_base + 3, [&] {
        double cdep = 0.0;
        const double qdep =
            DepletionCharge(vbc, LoadDepletion(k + kBjtBcDepletion), &cdep);
        return Charge{qdep + p.tr * iec, cdep + p.tr * gr};
      });
  const double gbc = ccbc.conductance;
  const double ieq_bc = ccbc.current - gbc * vbc;

  const double gmin = ctx.gmin();
  const double ibe = icc * k[kBjtInvBf] + gmin * vbe;
  const double gpi = gf * k[kBjtInvBf] + gmin;
  const double ibc = iec * k[kBjtInvBr] + gmin * vbc;
  const double gmu = gr * k[kBjtInvBr] + gmin;

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

  ctx.AddNodeMatrix(c, c, jc_vc + gbc);
  ctx.AddNodeMatrix(c, b, jc_vb - gbc);
  ctx.AddNodeMatrix(c, e, jc_ve);
  ctx.AddNodeMatrix(b, c, jb_vc - gbc);
  ctx.AddNodeMatrix(b, b, jb_vb + gbe + gbc);
  ctx.AddNodeMatrix(b, e, jb_ve - gbe);
  ctx.AddNodeMatrix(e, c, je_vc);
  ctx.AddNodeMatrix(e, b, je_vb - gbe);
  ctx.AddNodeMatrix(e, e, je_ve + gbe);

  // Newton equivalent sources: rhs -= f(v*) - J v*, plus the companions'.
  ctx.AddNodeRhs(c, -(ic - (jc_vc * vc + jc_vb * vb + jc_ve * ve)) + ieq_bc);
  ctx.AddNodeRhs(
      b, -(ib - (jb_vc * vc + jb_vb * vb + jb_ve * ve)) - ieq_be - ieq_bc);
  ctx.AddNodeRhs(e, -(ie - (je_vc * vc + je_vb * vb + je_ve * ve)) + ieq_be);
}

}  // namespace

void Bjt::Stamp(netlist::StampContext& ctx) const {
  StampBjtCore(ctx, *this, collector(), base(), emitter(), params_,
               ctx.Constants(*this), /*state_base=*/0);
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
  const double* constants = ctx.Constants(*this);
  for (int k = 0; k < n; ++k) {
    StampBjtCore(ctx, *this, node(0), node(1), node(2 + k), params_,
                 constants, 4 * k);
  }
}

}  // namespace cmldft::devices
