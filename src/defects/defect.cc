#include "defects/defect.h"

#include <cmath>
#include <memory>

#include "devices/passive.h"
#include "util/strings.h"

namespace cmldft::defects {

using netlist::Device;
using netlist::Netlist;
using netlist::NodeId;
using util::Status;
using util::StatusOr;
using util::StrPrintf;

std::string_view DefectTypeName(DefectType type) {
  switch (type) {
    case DefectType::kTransistorPipe: return "pipe";
    case DefectType::kTransistorShort: return "tshort";
    case DefectType::kTransistorOpen: return "topen";
    case DefectType::kResistorShort: return "rshort";
    case DefectType::kResistorOpen: return "ropen";
    case DefectType::kBridge: return "bridge";
    case DefectType::kWireOpen: return "wopen";
  }
  return "unknown";
}

std::string Defect::Id() const {
  switch (type) {
    case DefectType::kTransistorPipe:
      return StrPrintf("pipe(%s,%s)", device.c_str(),
                       util::FormatEngineering(resistance).c_str());
    case DefectType::kTransistorShort:
      return StrPrintf("tshort(%s,t%d-t%d)", device.c_str(), terminal_a,
                       terminal_b);
    case DefectType::kTransistorOpen:
    case DefectType::kWireOpen:
      return StrPrintf("%s(%s,t%d)", std::string(DefectTypeName(type)).c_str(),
                       device.c_str(), terminal_a);
    case DefectType::kResistorShort:
      return StrPrintf("rshort(%s)", device.c_str());
    case DefectType::kResistorOpen:
      return StrPrintf("ropen(%s)", device.c_str());
    case DefectType::kBridge:
      return StrPrintf("bridge(%s,%s)", node_a.c_str(), node_b.c_str());
  }
  return "defect(?)";
}

namespace {
// Adds the open model: split `terminal` of `dev` onto a fresh node and
// reconnect through 100 MOhm || 1 fF.
Status InjectOpenAt(Netlist& nl, Device& dev, int terminal,
                    const std::string& tag) {
  if (terminal < 0 || terminal >= dev.num_terminals()) {
    return Status::InvalidArgument(
        StrPrintf("open: terminal %d out of range for %s", terminal,
                  dev.name().c_str()));
  }
  const NodeId old_node = dev.node(terminal);
  const NodeId new_node = nl.AddUniqueNode(dev.name() + ".open");
  dev.set_node(terminal, new_node);
  nl.AddDevice(std::make_unique<devices::Resistor>(
      "fault.ro_" + tag, old_node, new_node, kOpenResistance));
  nl.AddDevice(std::make_unique<devices::Capacitor>(
      "fault.co_" + tag, old_node, new_node, kOpenCapacitance));
  return Status::Ok();
}
}  // namespace

Status InjectDefect(Netlist& nl, const Defect& d) {
  const bool resistive = d.type == DefectType::kTransistorPipe ||
                         d.type == DefectType::kTransistorShort ||
                         d.type == DefectType::kBridge;
  if (resistive && !(std::isfinite(d.resistance) && d.resistance > 0)) {
    return Status::InvalidArgument(
        StrPrintf("%s: defect resistance must be finite and > 0, got %g",
                  d.Id().c_str(), d.resistance));
  }
  switch (d.type) {
    case DefectType::kTransistorPipe:
    case DefectType::kTransistorShort: {
      Device* dev = nl.FindDevice(d.device);
      if (dev == nullptr) return Status::NotFound("no device " + d.device);
      if (d.terminal_a < 0 || d.terminal_a >= dev->num_terminals() ||
          d.terminal_b < 0 || d.terminal_b >= dev->num_terminals() ||
          d.terminal_a == d.terminal_b) {
        return Status::InvalidArgument("bad terminal pair for " + d.Id());
      }
      nl.AddDevice(std::make_unique<devices::Resistor>(
          "fault." + d.Id(), dev->node(d.terminal_a), dev->node(d.terminal_b),
          d.resistance));
      return Status::Ok();
    }
    case DefectType::kTransistorOpen:
    case DefectType::kWireOpen: {
      Device* dev = nl.FindDevice(d.device);
      if (dev == nullptr) return Status::NotFound("no device " + d.device);
      return InjectOpenAt(nl, *dev, d.terminal_a, d.Id());
    }
    case DefectType::kResistorShort: {
      Device* dev = nl.FindDevice(d.device);
      if (dev == nullptr) return Status::NotFound("no device " + d.device);
      if (dev->kind() != "resistor") {
        return Status::InvalidArgument(d.device + " is not a resistor");
      }
      nl.AddDevice(std::make_unique<devices::Resistor>(
          "fault." + d.Id(), dev->node(0), dev->node(1), kShortResistance));
      return Status::Ok();
    }
    case DefectType::kResistorOpen: {
      Device* dev = nl.FindDevice(d.device);
      if (dev == nullptr) return Status::NotFound("no device " + d.device);
      if (dev->kind() != "resistor") {
        return Status::InvalidArgument(d.device + " is not a resistor");
      }
      return InjectOpenAt(nl, *dev, /*terminal=*/0, d.Id());
    }
    case DefectType::kBridge: {
      const NodeId a = nl.FindNode(d.node_a);
      const NodeId b = nl.FindNode(d.node_b);
      if (a == netlist::kInvalidNode || b == netlist::kInvalidNode) {
        return Status::NotFound("bridge nodes not found: " + d.Id());
      }
      nl.AddDevice(std::make_unique<devices::Resistor>("fault." + d.Id(), a,
                                                       b, d.resistance));
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown defect type");
}

StatusOr<Netlist> WithDefect(const Netlist& netlist, const Defect& defect) {
  Netlist copy = netlist;
  CMLDFT_RETURN_IF_ERROR(InjectDefect(copy, defect));
  return copy;
}

std::vector<Defect> EnumerateDefects(const Netlist& nl,
                                     const EnumerationOptions& opt) {
  std::vector<Defect> out;
  auto excluded = [&](const std::string& name) {
    for (const auto& prefix : opt.exclude_prefixes) {
      if (util::StartsWith(name, prefix)) return true;
    }
    return false;
  };
  nl.ForEachDevice([&](const Device& dev) {
    if (excluded(dev.name())) return;
    if (dev.kind() == "bjt") {
      if (opt.transistor_pipes) {
        for (double r : opt.pipe_values) {
          Defect d;
          d.type = DefectType::kTransistorPipe;
          d.device = dev.name();
          d.terminal_a = 0;  // collector
          d.terminal_b = 2;  // emitter
          d.resistance = r;
          out.push_back(d);
        }
      }
      if (opt.transistor_shorts) {
        const int pairs[3][2] = {{0, 1}, {1, 2}, {0, 2}};
        for (const auto& p : pairs) {
          Defect d;
          d.type = DefectType::kTransistorShort;
          d.device = dev.name();
          d.terminal_a = p[0];
          d.terminal_b = p[1];
          d.resistance = kShortResistance;
          out.push_back(d);
        }
      }
      if (opt.transistor_opens) {
        for (int t = 0; t < dev.num_terminals(); ++t) {
          Defect d;
          d.type = DefectType::kTransistorOpen;
          d.device = dev.name();
          d.terminal_a = t;
          out.push_back(d);
        }
      }
    } else if (dev.kind() == "resistor") {
      if (opt.resistor_shorts) {
        Defect d;
        d.type = DefectType::kResistorShort;
        d.device = dev.name();
        out.push_back(d);
      }
      if (opt.resistor_opens) {
        Defect d;
        d.type = DefectType::kResistorOpen;
        d.device = dev.name();
        out.push_back(d);
      }
    }
  });
  if (opt.output_bridges) {
    // Bridge each differential pair "<cell>.op" / "<cell>.opb".
    for (NodeId n = 1; n < nl.num_nodes(); ++n) {
      const std::string& name = nl.NodeName(n);
      if (name.size() > 3 && name.substr(name.size() - 3) == ".op") {
        const std::string comp = name + "b";
        if (nl.FindNode(comp) != netlist::kInvalidNode) {
          Defect d;
          d.type = DefectType::kBridge;
          d.node_a = name;
          d.node_b = comp;
          d.resistance = kShortResistance;
          out.push_back(d);
        }
      }
    }
  }
  return out;
}

}  // namespace cmldft::defects
