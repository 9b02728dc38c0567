#include "digital/gate_netlist.h"

#include <cassert>

#include "digital/generators.h"
#include "util/strings.h"

namespace cmldft::digital {

int GateFaninCount(GateType type) {
  switch (type) {
    case GateType::kInput: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    case GateType::kAnd2:
    case GateType::kOr2:
    case GateType::kXor2: return 2;
    case GateType::kMux2: return 3;
  }
  return 0;
}

SignalId GateNetlist::AddInput(std::string name) {
  const SignalId id = num_signals();
  gates_.push_back({GateType::kInput, std::move(name), {}});
  inputs_.push_back(id);
  return id;
}

SignalId GateNetlist::AddGate(GateType type, std::string name,
                              std::vector<SignalId> fanin) {
  assert(type != GateType::kInput && "use AddInput");
  assert(static_cast<int>(fanin.size()) == GateFaninCount(type));
  for ([[maybe_unused]] SignalId f : fanin) {
    assert(f >= 0 && f < num_signals());
  }
  const SignalId id = num_signals();
  gates_.push_back({type, std::move(name), std::move(fanin)});
  if (type == GateType::kDff) dffs_.push_back(id);
  return id;
}

void GateNetlist::MarkOutput(SignalId signal) {
  assert(signal >= 0 && signal < num_signals());
  outputs_.push_back(signal);
}

void GateNetlist::PatchDffInput(SignalId dff, SignalId new_d) {
  Gate& g = gates_.at(static_cast<size_t>(dff));
  assert(g.type == GateType::kDff && "PatchDffInput is for DFFs only");
  assert(new_d >= 0 && new_d < num_signals());
  g.fanin[0] = new_d;
}

SignalId GateNetlist::Find(const std::string& name) const {
  for (SignalId i = 0; i < num_signals(); ++i) {
    if (gates_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

util::StatusOr<std::vector<SignalId>> GateNetlist::TopologicalOrder() const {
  const int n = num_signals();
  std::vector<int> state(static_cast<size_t>(n), 0);  // 0=unseen 1=visiting 2=done
  std::vector<SignalId> order;
  order.reserve(static_cast<size_t>(n));
  // Iterative DFS over combinational fanin edges (DFF outputs are sources).
  for (SignalId root = 0; root < n; ++root) {
    if (state[static_cast<size_t>(root)] != 0) continue;
    std::vector<std::pair<SignalId, size_t>> stack{{root, 0}};
    state[static_cast<size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [id, child] = stack.back();
      const Gate& g = gates_[static_cast<size_t>(id)];
      const bool is_source =
          g.type == GateType::kInput || g.type == GateType::kDff;
      if (is_source || child >= g.fanin.size()) {
        state[static_cast<size_t>(id)] = 2;
        order.push_back(id);
        stack.pop_back();
        continue;
      }
      const SignalId next = g.fanin[child++];
      if (state[static_cast<size_t>(next)] == 1) {
        return util::Status::InvalidArgument(
            "combinational loop through gate '" +
            gates_[static_cast<size_t>(next)].name + "'");
      }
      if (state[static_cast<size_t>(next)] == 0) {
        state[static_cast<size_t>(next)] = 1;
        stack.emplace_back(next, 0);
      }
    }
  }
  return order;
}

std::string GateNetlist::Summary() const {
  return util::StrPrintf("gate netlist: %d signals, %zu inputs, %zu outputs, %zu dffs",
                         num_signals(), inputs_.size(), outputs_.size(),
                         dffs_.size());
}

GateNetlist MakeScrambler(int stages) {
  assert(stages >= 3);
  GateNetlist nl;
  const SignalId din = nl.AddInput("din");
  // Synchronous clear: a pure XOR feedback network is *linear*, so initial-
  // state differences would persist forever; the AND with rst_n provides
  // the dominance path through which states converge (ref [13]).
  const SignalId rst_n = nl.AddInput("rst_n");
  // Shift register; feedback = xor of the last two stages xored with data.
  std::vector<SignalId> ff(static_cast<size_t>(stages));
  // DFF chain first (ff0's d is patched to the feedback xor afterwards).
  ff[0] = nl.AddGate(GateType::kDff, "ff0", {din});
  for (int i = 1; i < stages; ++i) {
    const SignalId gated = nl.AddGate(GateType::kAnd2, util::StrPrintf("g%d", i),
                                      {ff[static_cast<size_t>(i - 1)], rst_n});
    ff[static_cast<size_t>(i)] =
        nl.AddGate(GateType::kDff, util::StrPrintf("ff%d", i), {gated});
  }
  const SignalId fb1 = nl.AddGate(GateType::kXor2, "fb1",
                                  {ff[static_cast<size_t>(stages - 2)],
                                   ff[static_cast<size_t>(stages - 1)]});
  const SignalId scr = nl.AddGate(GateType::kXor2, "scramble", {din, fb1});
  const SignalId scr_gated =
      nl.AddGate(GateType::kAnd2, "g0", {scr, rst_n});
  // Close the register loop: ff0's d input is the gated scramble signal.
  nl.PatchDffInput(ff[0], scr_gated);
  const SignalId dout = nl.AddGate(GateType::kBuf, "dout", {scr});
  nl.MarkOutput(dout);
  nl.MarkOutput(ff[static_cast<size_t>(stages - 1)]);
  return nl;
}

GateNetlist MakeCounter4() { return MakeCounterN(4); }

GateNetlist MakeParityMux(int width) {
  assert(width >= 2);
  GateNetlist nl;
  std::vector<SignalId> in(static_cast<size_t>(width));
  for (int i = 0; i < width; ++i) {
    in[static_cast<size_t>(i)] = nl.AddInput(util::StrPrintf("in%d", i));
  }
  const SignalId sel = nl.AddInput("sel");
  // Parity tree.
  std::vector<SignalId> layer = in;
  int level = 0;
  while (layer.size() > 1) {
    std::vector<SignalId> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(nl.AddGate(
          GateType::kXor2, util::StrPrintf("x%d_%zu", level, i / 2),
          {layer[i], layer[i + 1]}));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
    ++level;
  }
  const SignalId parity = layer[0];
  const SignalId all_and = [&] {
    SignalId acc = in[0];
    for (int i = 1; i < width; ++i) {
      acc = nl.AddGate(GateType::kAnd2, util::StrPrintf("a%d", i),
                       {acc, in[static_cast<size_t>(i)]});
    }
    return acc;
  }();
  const SignalId out =
      nl.AddGate(GateType::kMux2, "out", {sel, parity, all_and});
  nl.MarkOutput(out);
  return nl;
}

GateNetlist MakeC17() {
  GateNetlist nl;
  const SignalId in1 = nl.AddInput("in1");
  const SignalId in2 = nl.AddInput("in2");
  const SignalId in3 = nl.AddInput("in3");
  const SignalId in6 = nl.AddInput("in6");
  const SignalId in7 = nl.AddInput("in7");
  auto nand = [&](const char* name, SignalId a, SignalId b) {
    const SignalId g = nl.AddGate(GateType::kAnd2, std::string(name) + "_and", {a, b});
    return nl.AddGate(GateType::kNot, name, {g});
  };
  const SignalId g10 = nand("g10", in1, in3);
  const SignalId g11 = nand("g11", in3, in6);
  const SignalId g16 = nand("g16", in2, g11);
  const SignalId g19 = nand("g19", g11, in7);
  const SignalId g22 = nand("g22", g10, g16);
  const SignalId g23 = nand("g23", g16, g19);
  nl.MarkOutput(g22);
  nl.MarkOutput(g23);
  return nl;
}

}  // namespace cmldft::digital
