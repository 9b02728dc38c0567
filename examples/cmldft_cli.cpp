// Command-line simulator driver: run analyses on a SPICE netlist file.
//
//   cmldft_cli op  <netlist.cir>
//   cmldft_cli tran <netlist.cir> <tstop_seconds> [node ...]
//   cmldft_cli ac  <netlist.cir> <source> <f_start> <f_stop> [node ...]
//   cmldft_cli detect <netlist.cir> <tstop> <vout_node>   (swing-detector verdict)
//
// Durable defect-screening campaigns run through tools/campaign_run
// (docs/campaign.md). Prints tables/CSV to stdout; ASCII plots for
// tran/ac when nodes are given. Exit code 0 on success (and "pass" for
// detect), 1 otherwise.
// The global flag --stats appends a solver-telemetry digest (Newton
// iterations, homotopy stages, step rejections, LU counts) after any
// command — see docs/observability.md.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "devices/spice_parser.h"
#include "report/report.h"
#include "sim/ac.h"
#include "sim/dc.h"
#include "sim/transient.h"
#include "util/strings.h"
#include "util/telemetry.h"
#include "waveform/measure.h"
#include "waveform/plot.h"

using namespace cmldft;

namespace {

// Console tables only: no column is ever compared against a golden.
const report::Tol kInfo = report::Tol::Info();

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cmldft_cli op     <netlist.cir>\n"
               "  cmldft_cli tran   <netlist.cir> <tstop> [node ...]\n"
               "  cmldft_cli ac     <netlist.cir> <source> <fstart> <fstop> [node ...]\n"
               "  cmldft_cli detect <netlist.cir> <tstop> <vout_node>\n"
               "any command also accepts --stats (print solver telemetry)\n");
  return 1;
}

util::StatusOr<netlist::Netlist> Load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return util::Status::NotFound(std::string("cannot open ") + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return devices::ParseSpice(buf.str());
}

int RunOp(const netlist::Netlist& nl) {
  auto r = sim::SolveDc(nl);
  if (!r.ok()) {
    std::fprintf(stderr, "op failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  report::Table t("op", {{"node", kInfo}, {"V", kInfo}});
  for (netlist::NodeId n = 1; n < nl.num_nodes(); ++n) {
    t.NewRow().Str(nl.NodeName(n)).Num("%.6g", r->V(n));
  }
  std::printf("%s", t.ToText().c_str());
  report::Table ti("op_currents", {{"source", kInfo}, {"I", kInfo}});
  nl.ForEachDevice([&](const netlist::Device& dev) {
    if (dev.num_branches() > 0) {
      ti.NewRow().Str(dev.name()).Num(
          "%.6g", r->BranchCurrent(nl, dev.name()).value());
    }
  });
  std::printf("\n%s", ti.ToText().c_str());
  return 0;
}

int RunTran(const netlist::Netlist& nl, double tstop,
            const std::vector<std::string>& nodes) {
  sim::TransientOptions opts;
  opts.tstop = tstop;
  auto r = sim::RunTransient(nl, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "tran failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("# %zu timepoints, %d accepted steps, %d newton iterations\n",
              r->num_points(), r->stats().accepted_steps,
              r->stats().total_newton_iterations);
  std::vector<waveform::Trace> traces;
  for (const auto& node : nodes) {
    if (!r->HasNode(node)) {
      std::fprintf(stderr, "no node '%s'\n", node.c_str());
      return 1;
    }
    traces.push_back(r->Voltage(node));
  }
  if (!traces.empty()) {
    std::printf("%s\n", waveform::AsciiPlot(traces).c_str());
    std::printf("%s", waveform::TracesToCsv(traces).c_str());
  }
  return 0;
}

int RunAcCli(const netlist::Netlist& nl, const std::string& source,
             double fstart, double fstop, const std::vector<std::string>& nodes) {
  auto r = sim::RunAc(nl, source, sim::LogFrequencies(fstart, fstop, 10));
  if (!r.ok()) {
    std::fprintf(stderr, "ac failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  const auto freqs = r->Frequencies();
  report::Table t("ac", [&] {
    std::vector<report::Column> h = {{"freq", kInfo}};
    for (const auto& n : nodes) {
      h.emplace_back("|V(" + n + ")|", kInfo);
      h.emplace_back("deg(" + n + ")", kInfo);
    }
    return h;
  }());
  std::vector<std::vector<double>> mags, phases;
  for (const auto& n : nodes) {
    mags.push_back(r->Magnitude(n));
    phases.push_back(r->Phase(n));
  }
  for (size_t i = 0; i < freqs.size(); ++i) {
    t.NewRow().Str(util::FormatEngineering(freqs[i], "Hz"));
    for (size_t k = 0; k < nodes.size(); ++k) {
      t.Num("%.4g", mags[k][i]).Num("%.1f", phases[k][i] * 180.0 / 3.14159265);
    }
  }
  std::printf("%s", t.ToText().c_str());
  for (const auto& n : nodes) {
    std::printf("f3dB(%s) = %s\n", n.c_str(),
                util::FormatEngineering(r->Corner3dB(n), "Hz").c_str());
  }
  return 0;
}

int RunDetect(const netlist::Netlist& nl, double tstop, const std::string& node) {
  sim::TransientOptions opts;
  opts.tstop = tstop;
  auto r = sim::RunTransient(nl, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "tran failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  if (!r->HasNode(node)) {
    std::fprintf(stderr, "no node '%s'\n", node.c_str());
    return 1;
  }
  auto vout = r->Voltage(node);
  const auto resp = waveform::MeasureDetectorResponse(vout);
  const bool fired = vout.Min() < vout.value.front() - 0.15;
  std::printf("vout start %.3f V, min %.3f V, tstability %.3g s, Vmax %.3f V\n",
              vout.value.front(), vout.Min(), resp.t_stability, resp.vmax);
  std::printf("verdict: %s\n", fired ? "FAULT DETECTED" : "pass");
  return fired ? 2 : 0;
}

int Dispatch(const std::vector<std::string>& args) {
  const int argc = static_cast<int>(args.size());
  if (argc < 3) return Usage();
  auto nl = Load(args[2].c_str());
  if (!nl.ok()) {
    std::fprintf(stderr, "%s\n", nl.status().ToString().c_str());
    return 1;
  }
  const std::string& cmd = args[1];
  if (cmd == "op") {
    return RunOp(*nl);
  }
  if (cmd == "tran" && argc >= 4) {
    auto tstop = util::ParseSpiceNumber(args[3]);
    if (!tstop.ok()) return Usage();
    std::vector<std::string> nodes(args.begin() + 4, args.end());
    return RunTran(*nl, *tstop, nodes);
  }
  if (cmd == "ac" && argc >= 6) {
    auto f0 = util::ParseSpiceNumber(args[4]);
    auto f1 = util::ParseSpiceNumber(args[5]);
    if (!f0.ok() || !f1.ok()) return Usage();
    std::vector<std::string> nodes(args.begin() + 6, args.end());
    return RunAcCli(*nl, args[3], *f0, *f1, nodes);
  }
  if (cmd == "detect" && argc == 5) {
    auto tstop = util::ParseSpiceNumber(args[3]);
    if (!tstop.ok()) return Usage();
    return RunDetect(*nl, *tstop, args[4]);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  const auto stats_it = std::find(args.begin(), args.end(), "--stats");
  const bool stats = stats_it != args.end();
  if (stats) args.erase(stats_it);
  const int rc = Dispatch(args);
  if (stats) {
    std::printf("\n%s", cmldft::util::telemetry::DigestToText(
                            cmldft::util::telemetry::Capture())
                            .c_str());
  }
  return rc;
}
