// Reproduces Figure 7: the variant-1 detector's output waveform when a
// 1 kOhm C-E pipe is present, diode-capacitor (10 pF) load, 100 MHz input:
// a transient (discharge) period followed by a relatively stable rippling
// period. Reports tstability and Vmax as defined in §6.1.
#include <cstdio>

#include "bench/paper_bench.h"
#include "core/detector.h"
#include "report/report.h"
#include "waveform/measure.h"
#include "waveform/plot.h"

using namespace cmldft;

int main(int argc, char** argv) {
  report::BenchIo io(argc, argv);
  report::Report& rep =
      io.Begin("fig07_detector_wave",
               "Figure 7 (variant-1 detector response waveform)",
               "1 kOhm pipe, diode + 10 pF load, 100 MHz");

  netlist::Netlist nl;
  cml::CmlTechnology tech;
  cml::CellBuilder cells(nl, tech);
  const cml::DiffPort in = cells.AddDifferentialClock("va", 100e6);
  const cml::DiffPort o0 = cells.AddBuffer("x0", in);
  const cml::DiffPort dut = cells.AddBuffer("dut", o0);
  cells.AddBuffer("x1", dut);
  core::DetectorOptions dopt;  // diode load, 10 pF
  core::DetectorBuilder det(cells, dopt);
  const std::string vout_name = det.AttachVariant1("det", dut);

  auto faulty = defects::WithDefect(nl, bench::DutPipe(1e3));
  if (!faulty.ok()) return 1;

  sim::TransientOptions opts;
  opts.tstop = 1.6e-6;  // long enough to reach the stable rippling period
  auto r = bench::MustRunTransient(*faulty, opts);

  auto vout = r.Voltage(vout_name);
  vout.name = "vout";
  std::printf("%s\n", waveform::AsciiPlot({vout}).c_str());

  const auto resp = waveform::MeasureDetectorResponse(vout);
  std::printf("transient period then stable rippling period, as in Fig. 7.\n");
  std::printf("tstability = %.0f ns   Vmax (ripple top after stability) = %.3f V\n",
              resp.t_stability * 1e9, resp.vmax);
  std::printf("Vmin = %.3f V   ripple = %.1f mV\n", resp.vmin,
              waveform::RippleAfter(vout, resp.t_stability) * 1e3);

  using report::Tol;
  rep.AddScalar("tstability_ns", resp.t_stability * 1e9, "ns",
                Tol::Rel(0.15, 1.0));
  rep.AddScalar("vmax", resp.vmax, "V", Tol::Abs(0.05));
  rep.AddScalar("vmin", resp.vmin, "V", Tol::Abs(0.05));
  rep.AddScalar("ripple_mv",
                waveform::RippleAfter(vout, resp.t_stability) * 1e3, "mV",
                Tol::Abs(5.0));

  std::printf(
      "\nfault-free comparison (same detector, no pipe): vout stays at vgnd:\n");
  auto good = bench::MustRunTransient(nl, opts);
  auto gv = good.Voltage(vout_name);
  std::printf("fault-free vout min over %.1f us: %.3f V (vgnd = %.1f V)\n",
              opts.tstop * 1e6, gv.Min(), tech.vgnd);
  rep.AddScalar("fault_free_vout_min", gv.Min(), "V", Tol::Abs(0.05));
  return io.Finish();
}
