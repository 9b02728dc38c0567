// Gate-level netlist for the digital test layer. Mirrors the CML cell
// library's gate set (BUF/NOT/AND/OR/XOR/MUX + DFF) so a gate-level model
// of a CML design can drive toggle-coverage and stuck-at analysis.
#pragma once

#include <string>
#include <vector>

#include "util/status.h"

namespace cmldft::digital {

enum class GateType {
  kInput,
  kBuf,
  kNot,
  kAnd2,
  kOr2,
  kXor2,
  kMux2,  ///< fanin order: {sel, a, b} -> sel ? a : b
  kDff,   ///< fanin: {d}; clocked by the global clock edge
};

int GateFaninCount(GateType type);

/// Signal index into the netlist (one output per gate).
using SignalId = int;

struct Gate {
  GateType type = GateType::kBuf;
  std::string name;
  std::vector<SignalId> fanin;
};

/// A flat gate-level netlist. Combinational gates must form a DAG; DFFs
/// break cycles. Evaluation order is computed once (topological).
class GateNetlist {
 public:
  SignalId AddInput(std::string name);
  SignalId AddGate(GateType type, std::string name,
                   std::vector<SignalId> fanin);
  void MarkOutput(SignalId signal);

  /// Rewire a DFF's data input after creation — the only legal way to close
  /// a register feedback loop (signal ids must exist before use elsewhere).
  void PatchDffInput(SignalId dff, SignalId new_d);

  int num_signals() const { return static_cast<int>(gates_.size()); }
  const Gate& gate(SignalId id) const { return gates_.at(static_cast<size_t>(id)); }
  const std::vector<SignalId>& inputs() const { return inputs_; }
  const std::vector<SignalId>& outputs() const { return outputs_; }
  const std::vector<SignalId>& dffs() const { return dffs_; }

  SignalId Find(const std::string& name) const;

  /// Topological order of combinational gates (inputs and DFF outputs are
  /// sources). Fails on combinational loops.
  util::StatusOr<std::vector<SignalId>> TopologicalOrder() const;

  std::string Summary() const;

 private:
  std::vector<Gate> gates_;
  std::vector<SignalId> inputs_;
  std::vector<SignalId> outputs_;
  std::vector<SignalId> dffs_;
};

/// Reference circuits used by tests, examples and benches.
/// A small serial scrambler: shift register with XOR feedback plus output
/// logic — representative of the Gbit/s transceiver datapaths the paper's
/// introduction motivates.
GateNetlist MakeScrambler(int stages = 7);
/// A 4-bit synchronous counter with carry chain (AND/XOR per bit).
GateNetlist MakeCounter4();
/// Combinational parity-and-select tree over `width` inputs.
GateNetlist MakeParityMux(int width = 8);
/// ISCAS-85 c17: the classic 6-NAND testability benchmark (5 inputs,
/// 2 outputs). NAND2 is realized as AND2 + NOT.
GateNetlist MakeC17();

}  // namespace cmldft::digital
