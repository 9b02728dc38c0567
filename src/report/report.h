// Structured emission of paper-reproduction results.
//
// Every bench binary builds a Report: named tables (columns carry a unit
// and a tolerance class) plus named scalars for its headline measured
// values. The same objects render the human-readable stdout tables the
// benches always printed AND serialize to JSON for the golden-regression
// pipeline (tools/golden_check diffs a fresh run against the committed
// golden/<bench>.json snapshot within the declared tolerances).
//
// Tolerance classes, chosen per column/scalar at emission time:
//   Exact — integer counts (transistors, defects, coverage tallies) and
//           verdict strings ("DETECTED"): any difference is drift.
//   Abs   — absolute window, for levels with a natural scale (volts).
//   Rel   — relative window, for quantities spanning decades (delays,
//           time constants); |a-b| <= tol * max(|a|,|b|,floor).
//   Info  — recorded for humans, never diffed (wall-clock, hostnames).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "report/json.h"
#include "util/status.h"

namespace cmldft::report {

/// Tolerance class for comparing a regenerated value against golden.
struct Tol {
  enum class Kind { kExact, kAbs, kRel, kInfo };
  Kind kind = Kind::kExact;
  double value = 0.0;   ///< window size (kAbs) or fraction (kRel)
  double floor = 1e-9;  ///< denominator floor for kRel

  static Tol Exact() { return {Kind::kExact, 0.0, 0.0}; }
  static Tol Abs(double window) { return {Kind::kAbs, window, 0.0}; }
  static Tol Rel(double fraction, double floor = 1e-9) {
    return {Kind::kRel, fraction, floor};
  }
  static Tol Info() { return {Kind::kInfo, 0.0, 0.0}; }

  Json ToJson() const;
  /// Parses the serialized form; unknown kinds come back as kExact.
  static Tol FromJson(const Json& j);
  std::string Describe() const;
};

/// One column of a report table.
struct Column {
  std::string name;
  std::string unit;  ///< "" for dimensionless
  Tol tol;
  Column(std::string n, std::string u, Tol t)
      : name(std::move(n)), unit(std::move(u)), tol(t) {}
  Column(std::string n, Tol t) : name(std::move(n)), tol(t) {}
};

/// A table cell: the text humans see plus (for numeric cells) the raw
/// value golden_check compares — comparisons never depend on the printf
/// format used for display.
struct Cell {
  std::string text;
  std::optional<double> number;
};

/// A named table with typed columns, filled row by row through a fluent
/// API. A console-only table gives every column Tol::Info().
class Table {
 public:
  Table(std::string name, std::vector<Column> columns);

  Table& NewRow();
  /// String cell (compared exactly unless the column is Info).
  Table& Str(std::string text);
  /// Numeric cell: printf-formatted for display, raw value for diffing.
  Table& Num(const char* fmt, double value);
  /// Integer cell (displayed as-is, compared per the column class).
  Table& Int(long long value);

  const std::string& name() const { return name_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_cols() const { return columns_.size(); }

  /// Column-aligned text with a header separator (same shape the benches
  /// have always printed).
  std::string ToText() const;
  Json ToJson() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// A whole bench run: metadata, tables, and headline scalars.
class Report {
 public:
  Report(std::string experiment, std::string paper_ref, std::string summary);

  const std::string& experiment() const { return experiment_; }

  /// Add (and keep building) a table. The reference stays valid for the
  /// lifetime of the Report.
  Table& AddTable(std::string name, std::vector<Column> columns);

  /// Headline numeric result ("dut_swing_ratio", "safe_max_gates", ...).
  void AddScalar(std::string name, double value, std::string unit, Tol tol);
  /// Exact-compared integer result (counts, tallies).
  void AddInt(std::string name, long long value, std::string unit = "");
  /// Exact-compared verdict string ("DETECTED", "pass", ...).
  void AddText(std::string name, std::string value);

  Json ToJson() const;

 private:
  struct Scalar {
    std::string name;
    std::string unit;
    Tol tol;
    Cell cell;
  };
  std::string experiment_;
  std::string paper_ref_;
  std::string summary_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<Scalar> scalars_;
};

/// Command-line front end shared by every bench binary. Recognizes
///   --json <path>       write the structured report there on Finish()
///   --telemetry <path>  write a "cmldft-telemetry-v1" snapshot of the
///                       process-wide solver/campaign counters on Finish()
/// and prints the uniform header banner on Begin(). Unknown arguments
/// are a usage error (exit 2) so typos can't silently skip the snapshot.
class BenchIo {
 public:
  BenchIo(int argc, char** argv);

  /// Print the banner and create the report. Call exactly once.
  Report& Begin(const char* experiment, const char* paper_ref,
                const char* summary);

  /// Write the JSON snapshot if --json was given. Returns `exit_code`,
  /// or 1 if the snapshot could not be written.
  int Finish(int exit_code = 0);

  Report& report() { return *report_; }

 private:
  std::string json_path_;
  std::string telemetry_path_;
  std::unique_ptr<Report> report_;
};

}  // namespace cmldft::report
