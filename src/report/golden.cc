#include "report/golden.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "report/report.h"
#include "util/strings.h"

namespace cmldft::report {

namespace {

/// True when `a` matches `g` within tolerance `t`. Cells are either JSON
/// numbers (compared numerically) or strings (compared exactly); a kind
/// mismatch — e.g. a "fired" verdict flipping from a time to ">window" —
/// is always drift.
bool CellMatches(const Json& a, const Json& g, const Tol& t,
                 std::string* why) {
  if (t.kind == Tol::Kind::kInfo) return true;
  if (a.is_null() && g.is_null()) return true;  // non-finite on both sides
  if (a.kind() != g.kind()) {
    *why = util::StrPrintf("value kind changed (%s vs %s)",
                           a.is_number() ? "number" : "string",
                           g.is_number() ? "number" : "string");
    return false;
  }
  if (g.is_string()) {
    if (a.AsString() == g.AsString()) return true;
    *why = "\"" + a.AsString() + "\" != golden \"" + g.AsString() + "\"";
    return false;
  }
  if (!g.is_number()) {
    *why = "unsupported cell type in golden";
    return false;
  }
  const double av = a.AsNumber();
  const double gv = g.AsNumber();
  const double diff = std::fabs(av - gv);
  bool ok = false;
  switch (t.kind) {
    case Tol::Kind::kExact:
      ok = av == gv;
      break;
    case Tol::Kind::kAbs:
      ok = diff <= t.value;
      break;
    case Tol::Kind::kRel:
      ok = diff <= t.value * std::max({std::fabs(av), std::fabs(gv), t.floor});
      break;
    case Tol::Kind::kInfo:
      ok = true;
      break;
  }
  if (!ok) {
    *why = util::StrPrintf("%.9g != golden %.9g (|diff| %.3g, tolerance %s)",
                           av, gv, diff, t.Describe().c_str());
  }
  return ok;
}

const Json* FindByName(const Json& array, std::string_view name) {
  for (size_t i = 0; i < array.size(); ++i) {
    if (array.at(i).GetString("name") == name) return &array.at(i);
  }
  return nullptr;
}

void CompareScalars(const Json& actual, const Json& golden, GoldenDiff* out) {
  const Json* gs = golden.Find("scalars");
  const Json* as = actual.Find("scalars");
  static const Json kEmpty = Json::Array();
  if (gs == nullptr) gs = &kEmpty;
  if (as == nullptr) as = &kEmpty;
  for (size_t i = 0; i < gs->size(); ++i) {
    const Json& g = gs->at(i);
    const std::string name = g.GetString("name");
    const Json* a = FindByName(*as, name);
    if (a == nullptr) {
      out->mismatches.push_back("scalar '" + name + "' missing from run");
      continue;
    }
    const Json* gv = g.Find("value");
    const Json* av = a->Find("value");
    if (gv == nullptr || av == nullptr) {
      out->mismatches.push_back("scalar '" + name + "' has no value field");
      continue;
    }
    ++out->values_compared;
    const Json* gt = g.Find("tol");
    const Tol tol = gt != nullptr ? Tol::FromJson(*gt) : Tol::Exact();
    std::string why;
    if (!CellMatches(*av, *gv, tol, &why)) {
      out->mismatches.push_back("scalar '" + name + "': " + why);
    }
  }
  for (size_t i = 0; i < as->size(); ++i) {
    const std::string name = as->at(i).GetString("name");
    if (FindByName(*gs, name) == nullptr) {
      out->mismatches.push_back("scalar '" + name +
                                "' not in golden (regenerate snapshot?)");
    }
  }
}

void CompareTable(const Json& a, const Json& g, GoldenDiff* out) {
  const std::string tname = g.GetString("name");
  const Json* gcols = g.Find("columns");
  const Json* acols = a.Find("columns");
  const Json* grows = g.Find("rows");
  const Json* arows = a.Find("rows");
  if (gcols == nullptr || grows == nullptr || acols == nullptr ||
      arows == nullptr) {
    out->mismatches.push_back("table '" + tname + "': malformed (no columns/rows)");
    return;
  }
  if (acols->size() != gcols->size()) {
    out->mismatches.push_back(util::StrPrintf(
        "table '%s': %zu columns vs golden %zu", tname.c_str(), acols->size(),
        gcols->size()));
    return;
  }
  std::vector<Tol> tols;
  for (size_t c = 0; c < gcols->size(); ++c) {
    const std::string gname = gcols->at(c).GetString("name");
    const std::string aname = acols->at(c).GetString("name");
    if (gname != aname) {
      out->mismatches.push_back("table '" + tname + "' column " +
                                std::to_string(c) + ": name '" + aname +
                                "' vs golden '" + gname + "'");
    }
    const Json* t = gcols->at(c).Find("tol");
    tols.push_back(t != nullptr ? Tol::FromJson(*t) : Tol::Exact());
  }
  if (arows->size() != grows->size()) {
    out->mismatches.push_back(util::StrPrintf(
        "table '%s': %zu rows vs golden %zu", tname.c_str(), arows->size(),
        grows->size()));
    return;
  }
  for (size_t r = 0; r < grows->size(); ++r) {
    const Json& grow = grows->at(r);
    const Json& arow = arows->at(r);
    // Every serialized cell must line up with a declared column (and thus a
    // tolerance); extra or missing cells on either side are drift.
    if (arow.size() != tols.size() || grow.size() != tols.size()) {
      out->mismatches.push_back(util::StrPrintf(
          "table '%s' row %zu: %zu cells vs golden %zu (%zu columns declared)",
          tname.c_str(), r, arow.size(), grow.size(), tols.size()));
      continue;
    }
    for (size_t c = 0; c < tols.size(); ++c) {
      ++out->values_compared;
      std::string why;
      if (!CellMatches(arow.at(c), grow.at(c), tols[c], &why)) {
        out->mismatches.push_back(util::StrPrintf(
            "table '%s' row %zu col '%s': %s", tname.c_str(), r,
            gcols->at(c).GetString("name").c_str(), why.c_str()));
      }
    }
  }
}

}  // namespace

std::string GoldenDiff::Summary() const {
  std::string out;
  if (ok()) {
    out = util::StrPrintf("OK: %d values within tolerance", values_compared);
    for (const std::string& n : notes) {
      out += "\n  note: " + n;
    }
    return out;
  }
  out = util::StrPrintf(
      "DRIFT: %zu mismatches (%d values compared)\n", mismatches.size(),
      values_compared);
  for (const std::string& m : mismatches) {
    out += "  " + m + "\n";
  }
  for (const std::string& n : notes) {
    out += "  note: " + n + "\n";
  }
  return out;
}

GoldenDiff CompareReports(const Json& actual, const Json& golden) {
  GoldenDiff diff;
  const std::string gexp = golden.GetString("experiment");
  const std::string aexp = actual.GetString("experiment");
  if (gexp != aexp) {
    diff.mismatches.push_back("experiment '" + aexp + "' vs golden '" + gexp +
                              "' — comparing the wrong snapshot?");
    return diff;
  }
  CompareScalars(actual, golden, &diff);

  static const Json kEmpty = Json::Array();
  const Json* gtables = golden.Find("tables");
  const Json* atables = actual.Find("tables");
  if (gtables == nullptr) gtables = &kEmpty;
  if (atables == nullptr) atables = &kEmpty;
  for (size_t i = 0; i < gtables->size(); ++i) {
    const std::string name = gtables->at(i).GetString("name");
    const Json* a = FindByName(*atables, name);
    if (a == nullptr) {
      diff.mismatches.push_back("table '" + name + "' missing from run");
      continue;
    }
    CompareTable(*a, gtables->at(i), &diff);
  }
  for (size_t i = 0; i < atables->size(); ++i) {
    const std::string name = atables->at(i).GetString("name");
    if (FindByName(*gtables, name) == nullptr) {
      diff.mismatches.push_back("table '" + name +
                                "' not in golden (regenerate snapshot?)");
    }
  }
  return diff;
}

GoldenDiff CompareGbenchStructure(const Json& actual, const Json& golden) {
  GoldenDiff diff;
  auto names_of = [](const Json& doc) {
    std::multiset<std::string> names;
    const Json* benches = doc.Find("benchmarks");
    if (benches != nullptr) {
      for (size_t i = 0; i < benches->size(); ++i) {
        // Aggregate rows (mean/median/stddev) appear only with repetition
        // flags; compare base runs only.
        if (benches->at(i).GetString("run_type", "iteration") == "iteration") {
          names.insert(benches->at(i).GetString("name"));
        }
      }
    }
    return names;
  };
  const auto a = names_of(actual);
  const auto g = names_of(golden);
  diff.values_compared = static_cast<int>(g.size());
  std::set<std::string> unique(g.begin(), g.end());
  unique.insert(a.begin(), a.end());
  for (const std::string& name : unique) {
    const size_t na = a.count(name);
    const size_t ng = g.count(name);
    if (na == ng) continue;
    if (ng == 0) {
      diff.mismatches.push_back("benchmark '" + name +
                                "' not in golden (regenerate snapshot?)");
    } else {
      diff.mismatches.push_back(util::StrPrintf(
          "benchmark '%s': %zu runs vs golden %zu", name.c_str(), na, ng));
    }
  }
  return diff;
}

namespace {

/// Family = benchmark name up to the first '/', e.g.
/// "BM_TransientFastPath/2" -> "BM_TransientFastPath".
std::string FamilyOf(const std::string& name) {
  const size_t slash = name.find('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

/// Check one report's context for the release provenance tags that make
/// its timings baseline-comparable. Returns the library_build_type (or
/// "" when absent, which is itself recorded as drift).
std::string CheckPerfProvenance(const Json& doc, const char* which,
                                GoldenDiff* diff) {
  const Json* ctx = doc.Find("context");
  if (ctx == nullptr) {
    diff->mismatches.push_back(std::string(which) +
                               ": no \"context\" block — not google-benchmark "
                               "JSON output?");
    return "";
  }
  const std::string build = ctx->GetString("cmldft_build_type");
  if (build != "Release") {
    diff->mismatches.push_back(std::string(which) + ": cmldft_build_type \"" +
                               build + "\" (need \"Release\")");
  }
  const std::string asserts = ctx->GetString("cmldft_assertions");
  if (asserts != "disabled") {
    diff->mismatches.push_back(std::string(which) + ": cmldft_assertions \"" +
                               asserts + "\" (need \"disabled\")");
  }
  const std::string lib = ctx->GetString("library_build_type");
  if (lib.empty()) {
    diff->mismatches.push_back(
        std::string(which) +
        ": context carries no library_build_type — google-benchmark too old "
        "to tag its own build flavour; timings are not baseline-comparable");
  } else if (lib == "debug") {
    // Known distro flavour, not a gate: Debian/Ubuntu ship
    // libbenchmark-dev without NDEBUG, so the library self-reports
    // "debug" even under a -O2 distro build. That shifts only the
    // harness timing-loop overhead, not the cmldft code under test, so
    // it stays comparable — but only against a baseline captured with
    // the same flavour (the actual-vs-baseline match below still
    // applies). Label it so a report reader is not alarmed.
    diff->notes.push_back(
        std::string(which) +
        ": library_build_type \"debug\" — distro-packaged google-benchmark "
        "built without NDEBUG (harness overhead only; cmldft provenance "
        "checks above still gate the code under test)");
  }
  return lib;
}

}  // namespace

GoldenDiff CompareGbenchPerf(const Json& actual, const Json& baseline,
                             double tolerance,
                             const std::vector<std::string>& families) {
  GoldenDiff diff;
  const std::string actual_lib = CheckPerfProvenance(actual, "actual", &diff);
  const std::string base_lib = CheckPerfProvenance(baseline, "baseline", &diff);
  // The harness library's own build flavour shifts the timing-loop
  // overhead; comparing across flavours measures the harness, not us.
  if (!actual_lib.empty() && !base_lib.empty() && actual_lib != base_lib) {
    diff.mismatches.push_back("library_build_type mismatch: actual \"" +
                              actual_lib + "\" vs baseline \"" + base_lib +
                              "\"");
  }
  if (!diff.ok()) return diff;  // timings are meaningless across provenance

  const Json* base_runs = baseline.Find("benchmarks");
  const Json* actual_runs = actual.Find("benchmarks");
  static const Json kEmpty = Json::Array();
  if (base_runs == nullptr) base_runs = &kEmpty;
  if (actual_runs == nullptr) actual_runs = &kEmpty;
  for (size_t i = 0; i < base_runs->size(); ++i) {
    const Json& b = base_runs->at(i);
    if (b.GetString("run_type", "iteration") != "iteration") continue;
    const std::string name = b.GetString("name");
    if (std::find(families.begin(), families.end(), FamilyOf(name)) ==
        families.end()) {
      continue;
    }
    // The actual run may repeat a row (--benchmark_repetitions); its
    // median is what a baseline row, itself a median, compares against.
    std::vector<double> actual_cpus;
    for (size_t k = 0; k < actual_runs->size(); ++k) {
      const Json& a = actual_runs->at(k);
      if (a.GetString("name") == name &&
          a.GetString("run_type", "iteration") == "iteration") {
        actual_cpus.push_back(a.GetNumber("cpu_time"));
      }
    }
    if (actual_cpus.empty()) {
      diff.mismatches.push_back("benchmark '" + name +
                                "' missing from actual run");
      continue;
    }
    ++diff.values_compared;
    std::sort(actual_cpus.begin(), actual_cpus.end());
    const size_t mid = actual_cpus.size() / 2;
    const double actual_cpu =
        actual_cpus.size() % 2 == 1
            ? actual_cpus[mid]
            : (actual_cpus[mid - 1] + actual_cpus[mid]) / 2;
    const double base_cpu = b.GetNumber("cpu_time");
    if (base_cpu <= 0) {
      diff.mismatches.push_back("benchmark '" + name +
                                "': baseline cpu_time is not positive");
      continue;
    }
    const double ratio = actual_cpu / base_cpu;
    if (ratio > 1.0 + tolerance) {
      diff.mismatches.push_back(util::StrPrintf(
          "benchmark '%s': cpu_time %.6g vs baseline %.6g (%.0f%% slower, "
          "tolerance %.0f%%)",
          name.c_str(), actual_cpu, base_cpu, (ratio - 1.0) * 100.0,
          tolerance * 100.0));
    }
  }
  return diff;
}

GoldenDiff CompareTelemetrySchema(const Json& actual, const Json& golden) {
  GoldenDiff diff;
  const std::string gschema = golden.GetString("schema");
  const std::string aschema = actual.GetString("schema");
  if (gschema != aschema) {
    diff.mismatches.push_back("schema '" + aschema + "' vs golden '" + gschema +
                              "' — comparing the wrong snapshot?");
    return diff;
  }
  static const Json kEmpty = Json::Array();
  const Json* gm = golden.Find("metrics");
  const Json* am = actual.Find("metrics");
  if (gm == nullptr) gm = &kEmpty;
  if (am == nullptr) am = &kEmpty;
  for (size_t i = 0; i < gm->size(); ++i) {
    const Json& g = gm->at(i);
    const std::string name = g.GetString("name");
    const Json* a = FindByName(*am, name);
    if (a == nullptr) {
      diff.mismatches.push_back("metric '" + name + "' missing from run");
      continue;
    }
    ++diff.values_compared;
    const std::string gkind = g.GetString("kind");
    const std::string akind = a->GetString("kind");
    if (akind != gkind) {
      diff.mismatches.push_back("metric '" + name + "': kind '" + akind +
                                "' vs golden '" + gkind + "'");
      continue;
    }
    if (gkind != "histogram") continue;
    const Json* gb = g.Find("bounds");
    const Json* ab = a->Find("bounds");
    const size_t gn = gb != nullptr ? gb->size() : 0;
    const size_t an = ab != nullptr ? ab->size() : 0;
    if (gn != an) {
      diff.mismatches.push_back(util::StrPrintf(
          "histogram '%s': %zu bounds vs golden %zu", name.c_str(), an, gn));
      continue;
    }
    for (size_t b = 0; b < gn; ++b) {
      if (ab->at(b).AsNumber() != gb->at(b).AsNumber()) {
        diff.mismatches.push_back(util::StrPrintf(
            "histogram '%s' bound %zu: %.9g vs golden %.9g", name.c_str(), b,
            ab->at(b).AsNumber(), gb->at(b).AsNumber()));
      }
    }
  }
  for (size_t i = 0; i < am->size(); ++i) {
    const std::string name = am->at(i).GetString("name");
    if (FindByName(*gm, name) == nullptr) {
      diff.mismatches.push_back("metric '" + name +
                                "' not in golden (regenerate snapshot?)");
    }
  }
  return diff;
}

}  // namespace cmldft::report
