#include "digital/bench_parser.h"

#include <map>
#include <set>
#include <vector>

#include "util/strings.h"

namespace cmldft::digital {

namespace {

using util::Status;
using util::StatusOr;
using util::StrPrintf;

struct Line {
  std::string output;           // empty for INPUT/OUTPUT declarations
  std::string function;         // "input", "output", or the gate function
  std::vector<std::string> args;
};

StatusOr<std::vector<Line>> Tokenize(std::string_view text) {
  std::vector<Line> lines;
  for (std::string_view raw : util::SplitChar(text, '\n')) {
    std::string_view s = util::StripWhitespace(raw);
    if (s.empty() || s[0] == '#') continue;
    Line line;
    const size_t eq = s.find('=');
    std::string_view rhs = s;
    if (eq != std::string_view::npos) {
      line.output = std::string(util::StripWhitespace(s.substr(0, eq)));
      rhs = util::StripWhitespace(s.substr(eq + 1));
    }
    const size_t open = rhs.find('(');
    const size_t close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      return Status::ParseError("malformed .bench line: '" + std::string(s) + "'");
    }
    line.function = util::ToLower(std::string(util::StripWhitespace(rhs.substr(0, open))));
    for (std::string_view arg :
         util::SplitChar(rhs.substr(open + 1, close - open - 1), ',')) {
      std::string_view a = util::StripWhitespace(arg);
      if (!a.empty()) line.args.emplace_back(a);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// Adds the gates of one combinational definition whose fanin signals
// `args` already exist; the last gate added carries the definition's name.
StatusOr<SignalId> AddDefinition(GateNetlist& nl, const std::string& name,
                                 const Line& line,
                                 const std::vector<SignalId>& args) {
  const std::string& fn = line.function;
  if (fn == "buf" || fn == "buff") {
    if (args.size() != 1) return Status::ParseError("BUF arity");
    return nl.AddGate(GateType::kBuf, name, {args[0]});
  }
  if (fn == "not") {
    if (args.size() != 1) return Status::ParseError("NOT arity");
    return nl.AddGate(GateType::kNot, name, {args[0]});
  }
  GateType type;
  if (fn == "and" || fn == "nand") {
    type = GateType::kAnd2;
  } else if (fn == "or" || fn == "nor") {
    type = GateType::kOr2;
  } else if (fn == "xor" || fn == "xnor") {
    type = GateType::kXor2;
  } else {
    return Status::ParseError("unsupported .bench function '" + fn + "'");
  }
  if (args.size() < 2) return Status::ParseError(fn + " arity");
  const bool inverted = fn == "nand" || fn == "nor" || fn == "xnor";
  // A two-input tree; the inverted functions build it under inner names
  // and let the final inversion take the gate name.
  SignalId acc = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string gname = !inverted && i + 1 == args.size()
                                  ? name
                                  : StrPrintf("%s_t%zu", name.c_str(), i);
    acc = nl.AddGate(type, gname, {acc, args[i]});
  }
  return inverted ? nl.AddGate(GateType::kNot, name, {acc}) : acc;
}

}  // namespace

StatusOr<GateNetlist> ParseBench(std::string_view text) {
  CMLDFT_ASSIGN_OR_RETURN(std::vector<Line> lines, Tokenize(text));

  GateNetlist nl;
  std::map<std::string, SignalId> signals;       // resolved names
  std::vector<std::string> outputs;              // declared outputs
  // Gate lines may reference signals defined later (and DFFs close loops),
  // so resolve in two passes: declare all INPUTs and all defined names
  // first (DFFs as placeholders), then build combinational gates in
  // dependency order.
  std::map<std::string, const Line*> defs;
  for (const Line& line : lines) {
    if (line.function == "input") {
      if (line.args.size() != 1) return Status::ParseError("INPUT arity");
      signals[line.args[0]] = nl.AddInput(line.args[0]);
    } else if (line.function == "output") {
      if (line.args.size() != 1) return Status::ParseError("OUTPUT arity");
      outputs.push_back(line.args[0]);
    } else {
      if (line.output.empty()) {
        return Status::ParseError("gate line without output name");
      }
      defs[line.output] = &line;
    }
  }
  // DFF placeholders first (their d input is patched at the end).
  std::vector<std::pair<SignalId, std::string>> dff_patches;
  for (const auto& [name, line] : defs) {
    if (line->function == "dff") {
      if (line->args.size() != 1) return Status::ParseError("DFF arity");
      // Temporary fanin: any existing signal (first input or itself-safe 0).
      const SignalId placeholder =
          nl.inputs().empty() ? nl.AddInput("__bench_tie") : nl.inputs()[0];
      signals[name] = nl.AddGate(GateType::kDff, name, {placeholder});
      dff_patches.emplace_back(signals[name], line->args[0]);
    }
  }

  // Elaborates `root` and every definition it depends on, deepest first,
  // on an explicit stack, so no deck depth reaches the C++ stack. The marks
  // are GateNetlist::TopologicalOrder's: a name in `signals` is done, one
  // in `visiting` is on the stack, and meeting a visiting definition again
  // closes a combinational loop.
  std::set<const Line*> visiting;
  auto resolve = [&](const std::string& root) -> StatusOr<SignalId> {
    struct Frame {
      const std::string* name;
      const Line* line;
      size_t next_arg;
    };
    std::vector<Frame> stack;
    const std::string* want = &root;
    while (true) {
      if (want != nullptr && signals.count(*want) == 0) {
        auto def = defs.find(*want);
        if (def == defs.end()) {
          return Status::NotFound("undefined signal '" + *want + "'");
        }
        if (!visiting.insert(def->second).second) {
          return Status::ParseError("combinational loop through '" + *want +
                                    "'");
        }
        stack.push_back({&def->first, def->second, 0});
      }
      if (stack.empty()) return signals.at(root);
      Frame& top = stack.back();
      if (top.next_arg < top.line->args.size()) {
        want = &top.line->args[top.next_arg++];
        continue;
      }
      std::vector<SignalId> args;
      for (const std::string& a : top.line->args) args.push_back(signals.at(a));
      CMLDFT_ASSIGN_OR_RETURN(SignalId out,
                              AddDefinition(nl, *top.name, *top.line, args));
      signals[*top.name] = out;
      visiting.erase(top.line);
      stack.pop_back();
      want = nullptr;
    }
  };

  for (const auto& [name, line] : defs) {
    if (line->function == "dff") continue;
    CMLDFT_RETURN_IF_ERROR(resolve(name).status());
  }
  for (auto& [dff, d_name] : dff_patches) {
    CMLDFT_ASSIGN_OR_RETURN(SignalId d, resolve(d_name));
    nl.PatchDffInput(dff, d);
  }
  for (const std::string& out_name : outputs) {
    auto it = signals.find(out_name);
    if (it == signals.end()) {
      return Status::NotFound("OUTPUT references undefined '" + out_name + "'");
    }
    nl.MarkOutput(it->second);
  }
  return nl;
}

StatusOr<std::string> WriteBench(const GateNetlist& nl) {
  std::string out;
  for (SignalId in : nl.inputs()) {
    out += StrPrintf("INPUT(%s)\n", nl.gate(in).name.c_str());
  }
  for (SignalId o : nl.outputs()) {
    out += StrPrintf("OUTPUT(%s)\n", nl.gate(o).name.c_str());
  }
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Gate& g = nl.gate(id);
    const char* fn = nullptr;
    switch (g.type) {
      case GateType::kInput:
        continue;
      case GateType::kBuf:  fn = "BUFF"; break;
      case GateType::kNot:  fn = "NOT";  break;
      case GateType::kAnd2: fn = "AND";  break;
      case GateType::kOr2:  fn = "OR";   break;
      case GateType::kXor2: fn = "XOR";  break;
      case GateType::kDff:  fn = "DFF";  break;
      case GateType::kMux2:
        return Status::InvalidArgument("gate '" + g.name +
                                       "': MUX2 has no .bench function");
    }
    std::string args;
    for (size_t i = 0; i < g.fanin.size(); ++i) {
      if (i > 0) args += ", ";
      args += nl.gate(g.fanin[i]).name;
    }
    out += StrPrintf("%s = %s(%s)\n", g.name.c_str(), fn, args.c_str());
  }
  return out;
}

}  // namespace cmldft::digital
