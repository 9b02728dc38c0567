// Randomized property test for the hierarchical solver's partition logic
// (sim/hier.h): cell annotations are *hints*, not guarantees. Whatever
// arbitrary grouping of devices a netlist carries — cells cut through
// tightly coupled regions, cells with no private unknowns at all, devices
// left global, duplicate claims — the bordered-block-diagonal elimination
// must reproduce the flat solver's solution, because internals are
// derived from the live topology (an unknown is internal only when every
// touching device is in one cell) and everything else rides the border.
//
// The circuit generator builds random nonlinear networks (resistor mesh +
// diodes + DC sources) with no builder-provided structure, then sprays
// seeded random CellInstance annotations over the device list.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cml/builder.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "netlist/netlist.h"
#include "sim/dc.h"
#include "util/rng.h"
#include "util/strings.h"

namespace cmldft {
namespace {

using devices::Diode;
using devices::ISource;
using devices::Resistor;
using devices::VSource;
using devices::Waveform;

/// Random connected nonlinear network: `n` nodes strung on a resistive
/// backbone (guarantees connectivity and a DC path to ground), plus
/// random cross resistors, diodes, and a few sources.
netlist::Netlist MakeRandomNetwork(util::Rng& rng, int n) {
  netlist::Netlist nl;
  std::vector<netlist::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(nl.AddNode(util::StrPrintf("n%d", i)));
  }
  int dev = 0;
  auto rname = [&](const char* k) { return util::StrPrintf("%s%d", k, dev++); };

  // Supply at node 0, backbone resistors n0-n1-...; every node reachable.
  nl.AddDevice(std::make_unique<VSource>(rname("v"), nodes[0],
                                         netlist::kGroundNode,
                                         Waveform::Dc(3.0)));
  for (int i = 1; i < n; ++i) {
    nl.AddDevice(std::make_unique<Resistor>(
        rname("r"), nodes[static_cast<size_t>(i - 1)],
        nodes[static_cast<size_t>(i)], rng.NextDouble(100.0, 5e3)));
  }
  // Random cross links and diodes; ~1.5 extra devices per node.
  const int extras = n + n / 2;
  for (int e = 0; e < extras; ++e) {
    const netlist::NodeId a = nodes[rng.NextBelow(static_cast<uint64_t>(n))];
    const netlist::NodeId b = rng.NextBool(0.2)
                                  ? netlist::kGroundNode
                                  : nodes[rng.NextBelow(static_cast<uint64_t>(n))];
    if (a == b) continue;
    switch (rng.NextBelow(3)) {
      case 0:
        nl.AddDevice(std::make_unique<Resistor>(rname("r"), a, b,
                                                rng.NextDouble(200.0, 2e4)));
        break;
      case 1:
        // Cathode at the (positive) network node: the diode mostly sits
        // in reverse leakage and at worst clamps a node a small current
        // source pulled negative — nonlinear, but never the astronomically
        // conductive forward regime whose cancellation would dominate the
        // test with conditioning noise instead of partition behaviour.
        nl.AddDevice(std::make_unique<Diode>(rname("d"), netlist::kGroundNode,
                                             a));
        break;
      default:
        nl.AddDevice(std::make_unique<ISource>(rname("i"), a, b,
                                               Waveform::Dc(rng.NextDouble(
                                                   1e-5, 2e-4))));
        break;
    }
  }
  return nl;
}

/// Spray random cell annotations: each device joins one of `k` cells or
/// stays global; some devices are claimed twice (the first claim wins).
void AnnotateRandomCells(netlist::Netlist& nl, util::Rng& rng, int k) {
  std::vector<netlist::CellInstance> cells(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    cells[static_cast<size_t>(c)].name = util::StrPrintf("cell%d", c);
  }
  for (int d = 0; d < nl.num_devices(); ++d) {
    if (rng.NextBool(0.15)) continue;  // stays global
    const uint64_t c = rng.NextBelow(static_cast<uint64_t>(k));
    cells[static_cast<size_t>(c)].devices.push_back(nl.device(d).name());
    if (rng.NextBool(0.1)) {
      // Duplicate claim from another cell — must be ignored, not crash.
      cells[rng.NextBelow(static_cast<uint64_t>(k))].devices.push_back(
          nl.device(d).name());
    }
  }
  for (auto& c : cells) nl.AddCellInstance(std::move(c));
}

void ExpectHierMatchesFlat(const netlist::Netlist& nl, uint64_t seed) {
  sim::DcOptions flat_opt;
  sim::DcOptions hier_opt;
  hier_opt.newton.hierarchical = true;
  auto flat = sim::SolveDc(nl, flat_opt);
  auto hier = sim::SolveDc(nl, hier_opt);
  ASSERT_TRUE(flat.ok()) << "seed " << seed << ": "
                         << flat.status().ToString();
  ASSERT_TRUE(hier.ok()) << "seed " << seed << ": "
                         << hier.status().ToString();
  ASSERT_EQ(flat->node_voltages.size(), hier->node_voltages.size());
  for (size_t i = 0; i < flat->node_voltages.size(); ++i) {
    EXPECT_NEAR(flat->node_voltages[i], hier->node_voltages[i], 5e-6)
        << "seed " << seed << " node " << i;
  }
}

TEST(HierPartitionProperty, ArbitraryCutsReproduceFlatSolution) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const int n = 6 + static_cast<int>(rng.NextBelow(20));
    const int k = 1 + static_cast<int>(rng.NextBelow(5));
    netlist::Netlist nl = MakeRandomNetwork(rng, n);
    AnnotateRandomCells(nl, rng, k);
    ExpectHierMatchesFlat(nl, seed);
  }
}

TEST(HierPartitionProperty, AllDevicesInOneCellStaysCorrect) {
  // Degenerate cut: one cell owns everything, so every non-source unknown
  // is internal and the border is just the source branches' coupling.
  util::Rng rng(42);
  netlist::Netlist nl = MakeRandomNetwork(rng, 12);
  netlist::CellInstance all;
  all.name = "everything";
  for (int d = 0; d < nl.num_devices(); ++d) {
    all.devices.push_back(nl.device(d).name());
  }
  nl.AddCellInstance(std::move(all));
  ExpectHierMatchesFlat(nl, 42);
}

TEST(HierPartitionProperty, SingletonCellsPerDeviceStaysCorrect) {
  // Opposite degenerate cut: every device is its own cell, so almost no
  // unknown is internal (shared nodes demote to border) and most cells
  // collapse to empty-internal global devices.
  util::Rng rng(7);
  netlist::Netlist nl = MakeRandomNetwork(rng, 10);
  for (int d = 0; d < nl.num_devices(); ++d) {
    netlist::CellInstance one;
    one.name = util::StrPrintf("solo%d", d);
    one.devices.push_back(nl.device(d).name());
    nl.AddCellInstance(std::move(one));
  }
  ExpectHierMatchesFlat(nl, 7);
}

TEST(HierPartitionProperty, AnnotationsNamingMissingDevicesAreSkipped) {
  // Stale names (e.g. after defect injection removed a device) must not
  // wedge the partition.
  util::Rng rng(11);
  netlist::Netlist nl = MakeRandomNetwork(rng, 8);
  netlist::CellInstance ghost;
  ghost.name = "ghost";
  ghost.devices = {"no_such_device", "also_missing"};
  nl.AddCellInstance(std::move(ghost));
  netlist::CellInstance real;
  real.name = "real";
  for (int d = 1; d < nl.num_devices() && d < 6; ++d) {
    real.devices.push_back(nl.device(d).name());
  }
  real.devices.push_back("one_more_ghost");
  nl.AddCellInstance(std::move(real));
  ExpectHierMatchesFlat(nl, 11);
}

}  // namespace
}  // namespace cmldft
