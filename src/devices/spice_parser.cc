#include "devices/spice_parser.h"

#include <cctype>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "util/strings.h"

namespace cmldft::devices {

namespace {

using netlist::Netlist;
using netlist::NodeId;
using util::EqualsIgnoreCase;
using util::ParseSpiceNumber;
using util::Status;
using util::StatusOr;
using util::StrPrintf;
using util::ToLower;

struct ModelCard {
  std::string type;  // "npn" or "d"
  std::map<std::string, double> params;
};

struct Subckt {
  std::vector<std::string> ports;
  std::vector<std::string> body;  // logical element lines
};

// Joins continuation lines, strips comments, lowercases nothing (node names
// keep case; lookups are case-insensitive anyway).
std::vector<std::string> LogicalLines(std::string_view text) {
  std::vector<std::string> lines;
  for (std::string_view raw : util::SplitChar(text, '\n')) {
    std::string_view line = util::StripWhitespace(raw);
    if (line.empty() || line[0] == '*') continue;
    // Inline ';' comment.
    if (size_t pos = line.find(';'); pos != std::string_view::npos) {
      line = util::StripWhitespace(line.substr(0, pos));
      if (line.empty()) continue;
    }
    if (line[0] == '+') {
      if (!lines.empty()) {
        lines.back() += ' ';
        lines.back() += std::string(line.substr(1));
      }
      continue;
    }
    lines.emplace_back(line);
  }
  return lines;
}

// Replace '(' ')' '=' ',' with spaces so "PULSE(0 1 ...)" and "is=1e-16"
// tokenize uniformly; '=' is preserved as its own token for .model params.
std::string NormalizePunct(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '(' || c == ')' || c == ',') {
      out += ' ';
    } else if (c == '=') {
      out += " = ";
    } else {
      out += c;
    }
  }
  return out;
}

// The device math is defined only inside these ranges: saturation
// currents, betas, emission coefficients, junction potentials and the
// nominal temperature divide or scale an exponent; grading coefficients
// and fc enter as 1 / (1 - m) and (1 - fc)^-m; capacitances and transit
// times scale stored charge.
Status CheckModelParam(std::string_view model, const std::string& type,
                       const std::string& key, double value) {
  static const char* const kPositive[] = {"is", "bf",  "br",  "nf", "nr",
                                          "n",  "vje", "vjc", "vj", "tnom"};
  static const char* const kUnitInterval[] = {"mje", "mjc", "m", "fc"};
  static const char* const kNonNegative[] = {"cje", "cjc", "cj0", "cjo",
                                             "tf",  "tr",  "tt"};
  auto is = [&](const auto& names) {
    for (const char* name : names) {
      if (key == name) return true;
    }
    return false;
  };
  const char* rule = nullptr;
  if (is(kPositive) && !(value > 0.0)) {
    rule = "must be > 0";
  } else if (is(kUnitInterval) && !(value >= 0.0 && value < 1.0)) {
    rule = "must lie in [0, 1)";
  } else if (is(kNonNegative) && !(value >= 0.0)) {
    rule = "must be >= 0";
  }
  if (rule == nullptr) return Status::Ok();
  return Status::ParseError(StrPrintf(".model %s (%s): %s = %g %s",
                                      std::string(model).c_str(), type.c_str(),
                                      key.c_str(), value, rule));
}

class Parser {
 public:
  StatusOr<Netlist> Run(std::string_view text) {
    std::vector<std::string> lines = LogicalLines(text);
    // Pass 1: collect .model and .subckt definitions.
    std::vector<std::string> top;
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string norm = NormalizePunct(lines[i]);
      auto tok = util::SplitTokens(norm);
      if (tok.empty()) continue;
      if (EqualsIgnoreCase(tok[0], ".model")) {
        CMLDFT_RETURN_IF_ERROR(ParseModel(tok));
      } else if (EqualsIgnoreCase(tok[0], ".subckt")) {
        if (tok.size() < 2) return Status::ParseError(".subckt needs a name");
        Subckt sub;
        const std::string name = ToLower(std::string(tok[1]));
        for (size_t p = 2; p < tok.size(); ++p) sub.ports.emplace_back(tok[p]);
        ++i;
        for (; i < lines.size(); ++i) {
          auto t2 = util::SplitTokens(lines[i]);
          if (!t2.empty() && EqualsIgnoreCase(t2[0], ".ends")) break;
          sub.body.push_back(lines[i]);
        }
        if (i == lines.size()) return Status::ParseError("unterminated .subckt " + name);
        subckts_[name] = std::move(sub);
      } else if (EqualsIgnoreCase(tok[0], ".end") ||
                 EqualsIgnoreCase(tok[0], ".ends")) {
        continue;
      } else {
        top.push_back(lines[i]);
      }
    }
    // Pass 2: elaborate top-level elements.
    for (const std::string& line : top) {
      CMLDFT_RETURN_IF_ERROR(ParseElement(line, /*prefix=*/"", /*port_map=*/{}, 0));
    }
    return std::move(netlist_);
  }

 private:
  Status ParseModel(const std::vector<std::string_view>& tok) {
    if (tok.size() < 3) return Status::ParseError(".model needs name and type");
    ModelCard card;
    card.type = ToLower(std::string(tok[2]));
    if (card.type != "npn" && card.type != "d") {
      return Status::ParseError("unsupported model type '" + card.type + "'");
    }
    for (size_t i = 3; i < tok.size();) {
      // Each parameter is the token triple: name "=" value.
      if (tok.size() - i < 3) {
        return Status::ParseError(StrPrintf(
            ".model %s: dangling token '%s'", std::string(tok[1]).c_str(),
            std::string(tok[i]).c_str()));
      }
      if (tok[i + 1] != "=") {
        return Status::ParseError(StrPrintf(
            ".model %s: expected param=value, got '%s'",
            std::string(tok[1]).c_str(), std::string(tok[i]).c_str()));
      }
      CMLDFT_ASSIGN_OR_RETURN(double value, ParseSpiceNumber(tok[i + 2]));
      const std::string key = ToLower(std::string(tok[i]));
      CMLDFT_RETURN_IF_ERROR(CheckModelParam(tok[1], card.type, key, value));
      card.params[key] = value;
      i += 3;
    }
    models_[ToLower(std::string(tok[1]))] = std::move(card);
    return Status::Ok();
  }

  StatusOr<BjtParams> LookupBjtModel(std::string_view name) const {
    auto it = models_.find(ToLower(std::string(name)));
    if (it == models_.end() || it->second.type != "npn") {
      return Status::NotFound("no NPN model '" + std::string(name) + "'");
    }
    BjtParams p;
    for (const auto& [key, v] : it->second.params) {
      if (key == "is") p.is = v;
      else if (key == "bf") p.bf = v;
      else if (key == "br") p.br = v;
      else if (key == "nf") p.nf = v;
      else if (key == "nr") p.nr = v;
      else if (key == "cje") p.cje = v;
      else if (key == "vje") p.vje = v;
      else if (key == "mje") p.mje = v;
      else if (key == "cjc") p.cjc = v;
      else if (key == "vjc") p.vjc = v;
      else if (key == "mjc") p.mjc = v;
      else if (key == "fc") p.fc = v;
      else if (key == "tf") p.tf = v;
      else if (key == "tr") p.tr = v;
      else return Status::ParseError("unknown NPN param '" + key + "'");
    }
    return p;
  }

  StatusOr<DiodeParams> LookupDiodeModel(std::string_view name) const {
    auto it = models_.find(ToLower(std::string(name)));
    if (it == models_.end() || it->second.type != "d") {
      return Status::NotFound("no D model '" + std::string(name) + "'");
    }
    DiodeParams p;
    for (const auto& [key, v] : it->second.params) {
      if (key == "is") p.is = v;
      else if (key == "n") p.n = v;
      else if (key == "cj0" || key == "cjo") p.cj0 = v;
      else if (key == "vj") p.vj = v;
      else if (key == "m") p.m = v;
      else if (key == "fc") p.fc = v;
      else if (key == "tt") p.tt = v;
      else if (key == "eg") p.eg = v;
      else if (key == "xti") p.xti = v;
      else if (key == "tnom") p.tnom = v;
      else return Status::ParseError("unknown D param '" + key + "'");
    }
    return p;
  }

  // Map a node name through the instance port map / hierarchical prefix.
  NodeId MapNode(const std::string& name, const std::string& prefix,
                 const std::map<std::string, std::string>& port_map) {
    const std::string key = ToLower(name);
    if (key == "0" || key == "gnd") return netlist::kGroundNode;
    auto it = port_map.find(key);
    if (it != port_map.end()) return netlist_.AddNode(it->second);
    return netlist_.AddNode(prefix.empty() ? name : prefix + "." + name);
  }

  // Parses the value of source `name` from token i on. Waveform
  // parameters outside Waveform's contract are refused here, naming the
  // source and the parameter.
  StatusOr<Waveform> ParseSourceValue(const std::string& name,
                                      const std::vector<std::string_view>& tok,
                                      size_t i) {
    if (i >= tok.size()) return Status::ParseError("source missing value");
    if (EqualsIgnoreCase(tok[i], "dc")) {
      if (i + 1 >= tok.size()) return Status::ParseError("dc needs a value");
      CMLDFT_ASSIGN_OR_RETURN(double v, ParseSpiceNumber(tok[i + 1]));
      return Waveform::Dc(v);
    }
    if (EqualsIgnoreCase(tok[i], "pulse")) {
      double p[7] = {0, 0, 0, 1e-12, 1e-12, 0, 1};
      const size_t n = tok.size() - (i + 1);
      if (n < 2) return Status::ParseError("pulse needs at least v1 v2");
      for (size_t k = 0; k < n && k < 7; ++k) {
        CMLDFT_ASSIGN_OR_RETURN(p[k], ParseSpiceNumber(tok[i + 1 + k]));
      }
      const double delay = p[2], rise = p[3], fall = p[4], width = p[5],
                   period = p[6];
      auto refuse = [&](const char* param, double v, const char* bound) {
        return Status::ParseError(StrPrintf("%s: pulse %s = %g must be %s",
                                            name.c_str(), param, v, bound));
      };
      if (!(delay >= 0.0)) return refuse("delay", delay, ">= 0");
      if (!(rise > 0.0)) return refuse("rise", rise, "> 0");
      if (!(fall > 0.0)) return refuse("fall", fall, "> 0");
      if (!(width >= 0.0)) return refuse("width", width, ">= 0");
      if (!(period > 0.0)) return refuse("period", period, "> 0");
      if (rise + width + fall > period) {
        return Status::ParseError(StrPrintf(
            "%s: pulse rise + width + fall = %g exceeds period = %g",
            name.c_str(), rise + width + fall, period));
      }
      return Waveform::Pulse(p[0], p[1], delay, rise, fall, width, period);
    }
    if (EqualsIgnoreCase(tok[i], "sin")) {
      double p[5] = {0, 0, 1e6, 0, 0};
      const size_t n = tok.size() - (i + 1);
      if (n < 3) return Status::ParseError("sin needs offset ampl freq");
      for (size_t k = 0; k < n && k < 5; ++k) {
        CMLDFT_ASSIGN_OR_RETURN(p[k], ParseSpiceNumber(tok[i + 1 + k]));
      }
      return Waveform::Sin(p[0], p[1], p[2], p[3], p[4]);
    }
    if (EqualsIgnoreCase(tok[i], "pwl")) {
      std::vector<std::pair<double, double>> pts;
      for (size_t k = i + 1; k + 1 < tok.size(); k += 2) {
        CMLDFT_ASSIGN_OR_RETURN(double t, ParseSpiceNumber(tok[k]));
        CMLDFT_ASSIGN_OR_RETURN(double v, ParseSpiceNumber(tok[k + 1]));
        if (!pts.empty() && t < pts.back().first) {
          return Status::ParseError(
              StrPrintf("%s: pwl time %g precedes the previous time %g",
                        name.c_str(), t, pts.back().first));
        }
        pts.emplace_back(t, v);
      }
      if (pts.empty()) return Status::ParseError("pwl needs (t,v) pairs");
      return Waveform::Pwl(std::move(pts));
    }
    CMLDFT_ASSIGN_OR_RETURN(double v, ParseSpiceNumber(tok[i]));
    return Waveform::Dc(v);
  }

  Status ParseElement(const std::string& line, const std::string& prefix,
                      const std::map<std::string, std::string>& port_map,
                      int depth) {
    if (depth > 16) return Status::ParseError("subcircuit nesting too deep");
    const std::string norm = NormalizePunct(line);
    auto tok = util::SplitTokens(norm);
    if (tok.empty()) return Status::Ok();
    const std::string raw_name(tok[0]);
    const std::string name = prefix.empty() ? raw_name : prefix + "." + raw_name;
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(raw_name[0])));
    auto node = [&](size_t i) {
      return MapNode(std::string(tok[i]), prefix, port_map);
    };
    switch (kind) {
      case 'r': {
        if (tok.size() < 4) return Status::ParseError("R needs: name a b value");
        CMLDFT_ASSIGN_OR_RETURN(double v, ParseSpiceNumber(tok[3]));
        if (!(v > 0.0)) {
          return Status::ParseError(StrPrintf(
              "%s: resistance = %g must be > 0", name.c_str(), v));
        }
        netlist_.AddDevice(std::make_unique<Resistor>(name, node(1), node(2), v));
        return Status::Ok();
      }
      case 'c': {
        if (tok.size() < 4) return Status::ParseError("C needs: name a b value");
        CMLDFT_ASSIGN_OR_RETURN(double v, ParseSpiceNumber(tok[3]));
        if (!(v >= 0.0)) {
          return Status::ParseError(StrPrintf(
              "%s: capacitance = %g must be >= 0", name.c_str(), v));
        }
        netlist_.AddDevice(std::make_unique<Capacitor>(name, node(1), node(2), v));
        return Status::Ok();
      }
      case 'v': {
        if (tok.size() < 4) return Status::ParseError("V needs: name p n value");
        CMLDFT_ASSIGN_OR_RETURN(Waveform w, ParseSourceValue(name, tok, 3));
        netlist_.AddDevice(std::make_unique<VSource>(name, node(1), node(2), std::move(w)));
        return Status::Ok();
      }
      case 'i': {
        if (tok.size() < 4) return Status::ParseError("I needs: name p n value");
        CMLDFT_ASSIGN_OR_RETURN(Waveform w, ParseSourceValue(name, tok, 3));
        netlist_.AddDevice(std::make_unique<ISource>(name, node(1), node(2), std::move(w)));
        return Status::Ok();
      }
      case 'd': {
        if (tok.size() < 4) return Status::ParseError("D needs: name a c model");
        CMLDFT_ASSIGN_OR_RETURN(DiodeParams p, LookupDiodeModel(tok[3]));
        netlist_.AddDevice(std::make_unique<Diode>(name, node(1), node(2), p));
        return Status::Ok();
      }
      case 'q': {
        if (tok.size() < 5) return Status::ParseError("Q needs: name c b e model");
        CMLDFT_ASSIGN_OR_RETURN(BjtParams p, LookupBjtModel(tok.back()));
        if (tok.size() == 5) {
          netlist_.AddDevice(std::make_unique<Bjt>(name, node(1), node(2), node(3), p));
        } else {
          std::vector<NodeId> emitters;
          for (size_t i = 3; i + 1 < tok.size(); ++i) emitters.push_back(node(i));
          netlist_.AddDevice(std::make_unique<MultiEmitterBjt>(
              name, node(1), node(2), std::move(emitters), p));
        }
        return Status::Ok();
      }
      case 'e': {
        if (tok.size() < 6) return Status::ParseError("E needs: name p n cp cn gain");
        CMLDFT_ASSIGN_OR_RETURN(double g, ParseSpiceNumber(tok[5]));
        netlist_.AddDevice(std::make_unique<Vcvs>(name, node(1), node(2),
                                                  node(3), node(4), g));
        return Status::Ok();
      }
      case 'x': {
        if (tok.size() < 3) return Status::ParseError("X needs: name nodes... subname");
        const std::string subname = ToLower(std::string(tok.back()));
        auto it = subckts_.find(subname);
        if (it == subckts_.end()) {
          return Status::NotFound("no subcircuit '" + subname + "'");
        }
        const Subckt& sub = it->second;
        const size_t nports = tok.size() - 2;
        if (nports != sub.ports.size()) {
          return Status::ParseError(StrPrintf(
              "instance %s: %zu nodes but subckt %s has %zu ports",
              name.c_str(), nports, subname.c_str(), sub.ports.size()));
        }
        // Build the child port map: formal (lowercased) -> actual flat name.
        std::map<std::string, std::string> child_map;
        for (size_t i = 0; i < nports; ++i) {
          const std::string actual(tok[1 + i]);
          const NodeId mapped = MapNode(actual, prefix, port_map);
          child_map[ToLower(sub.ports[i])] = netlist_.NodeName(mapped);
        }
        for (const std::string& body_line : sub.body) {
          CMLDFT_RETURN_IF_ERROR(ParseElement(body_line, name, child_map, depth + 1));
        }
        return Status::Ok();
      }
      default:
        return Status::ParseError("unsupported element '" + raw_name + "'");
    }
  }

  Netlist netlist_;
  std::unordered_map<std::string, ModelCard> models_;
  std::unordered_map<std::string, Subckt> subckts_;
};

std::string FormatWaveform(const Waveform& w) {
  switch (w.kind()) {
    case Waveform::Kind::kDc:
      return StrPrintf("dc %.9g", w.DcValue());
    default:
      // Time-varying sources round-trip through a dense PWL sample. Good
      // enough for archival; analytical kinds are preserved in-memory.
      return StrPrintf("dc %.9g", w.DcValue());
  }
}

}  // namespace

StatusOr<Netlist> ParseSpice(std::string_view text) {
  Parser parser;
  return parser.Run(text);
}

std::string WriteSpice(const Netlist& nl) {
  std::string out = "* written by cmldft\n";
  std::map<std::string, std::string> model_lines;  // card text -> model name
  int model_counter = 0;
  auto node_name = [&](NodeId n) { return nl.NodeName(n); };

  std::string body;
  nl.ForEachDevice([&](const netlist::Device& d) {
    const std::string_view kind = d.kind();
    if (kind == "resistor") {
      const auto& r = static_cast<const Resistor&>(d);
      body += StrPrintf("%s %s %s %.9g\n", d.name().c_str(),
                        node_name(d.node(0)).c_str(),
                        node_name(d.node(1)).c_str(), r.resistance());
    } else if (kind == "capacitor") {
      const auto& c = static_cast<const Capacitor&>(d);
      body += StrPrintf("%s %s %s %.9g\n", d.name().c_str(),
                        node_name(d.node(0)).c_str(),
                        node_name(d.node(1)).c_str(), c.capacitance());
    } else if (kind == "vsource") {
      const auto& v = static_cast<const VSource&>(d);
      body += StrPrintf("%s %s %s %s\n", d.name().c_str(),
                        node_name(d.node(0)).c_str(),
                        node_name(d.node(1)).c_str(),
                        FormatWaveform(v.waveform()).c_str());
    } else if (kind == "isource") {
      const auto& v = static_cast<const ISource&>(d);
      body += StrPrintf("%s %s %s %s\n", d.name().c_str(),
                        node_name(d.node(0)).c_str(),
                        node_name(d.node(1)).c_str(),
                        FormatWaveform(v.waveform()).c_str());
    } else if (kind == "vcvs") {
      const auto& e = static_cast<const Vcvs&>(d);
      body += StrPrintf("%s %s %s %s %s %.9g\n", d.name().c_str(),
                        node_name(d.node(0)).c_str(),
                        node_name(d.node(1)).c_str(),
                        node_name(d.node(2)).c_str(),
                        node_name(d.node(3)).c_str(), e.gain());
    } else if (kind == "diode") {
      const auto& dd = static_cast<const Diode&>(d);
      const DiodeParams& p = dd.params();
      const std::string card = StrPrintf(
          "d is=%.6g n=%.6g cj0=%.6g vj=%.6g m=%.6g fc=%.6g tt=%.6g", p.is,
          p.n, p.cj0, p.vj, p.m, p.fc, p.tt);
      auto [it, inserted] =
          model_lines.try_emplace(card, StrPrintf("dmod%d", model_counter));
      if (inserted) ++model_counter;
      body += StrPrintf("%s %s %s %s\n", d.name().c_str(),
                        node_name(d.node(0)).c_str(),
                        node_name(d.node(1)).c_str(), it->second.c_str());
    } else if (kind == "bjt" || kind == "bjt_multi_emitter") {
      const BjtParams& p = kind == "bjt"
                               ? static_cast<const Bjt&>(d).params()
                               : static_cast<const MultiEmitterBjt&>(d).params();
      const std::string card = StrPrintf(
          "npn is=%.6g bf=%.6g br=%.6g nf=%.6g nr=%.6g cje=%.6g vje=%.6g "
          "mje=%.6g cjc=%.6g vjc=%.6g mjc=%.6g fc=%.6g tf=%.6g tr=%.6g",
          p.is, p.bf, p.br, p.nf, p.nr, p.cje, p.vje, p.mje, p.cjc, p.vjc,
          p.mjc, p.fc, p.tf, p.tr);
      auto [it, inserted] =
          model_lines.try_emplace(card, StrPrintf("qmod%d", model_counter));
      if (inserted) ++model_counter;
      std::string nodes;
      for (NodeId n : d.nodes()) nodes += node_name(n) + " ";
      body += StrPrintf("%s %s%s\n", d.name().c_str(), nodes.c_str(),
                        it->second.c_str());
    }
  });
  for (const auto& [card, mname] : model_lines) {
    out += StrPrintf(".model %s %s\n", mname.c_str(), card.c_str());
  }
  out += body;
  out += ".end\n";
  return out;
}

}  // namespace cmldft::devices
