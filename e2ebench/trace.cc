#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"
#include "util/strings.h"

namespace e2e {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double PeakRssMb() {
  // VmHWM belongs to this process image alone. getrusage's ru_maxrss is
  // kept across execve, so it would report the launching process's peak
  // whenever that one was larger; it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

uint64_t CountDelta(const telemetry::Snapshot& a, const telemetry::Snapshot& b,
                    const char* name) {
  return b.Value(name) - a.Value(name);
}

double SecondsDelta(const telemetry::Snapshot& a, const telemetry::Snapshot& b,
                    const char* name) {
  const telemetry::MetricValue* before = a.Find(name);
  const telemetry::MetricValue* after = b.Find(name);
  if (after == nullptr) return 0.0;
  return after->total_seconds - (before == nullptr ? 0.0 : before->total_seconds);
}

int Tracer::Begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.pass = pass_;
  span.start = Now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
  // Spans close in LIFO order (ScopedSpan); tolerate a stray id anyway.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

Status Tracer::WriteJson(const std::string& path) const {
  std::string out = "[\n";
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += cmldft::util::StrPrintf(
        "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
        "\"parent\": %d, \"pass\": %d}%s\n",
        i, s.name.c_str(), s.start - t0, s.end - t0, s.parent, s.pass,
        i + 1 < spans_.size() ? "," : "");
  }
  out += "]\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file) return Status::Internal("cannot write span file " + path);
  return Status::Ok();
}

std::string Tracer::SelfTimeTable(double* unattributed_frac) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self_by_layer;
  double total = 0.0, unattributed = 0.0;
  int passes = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.pass < 0) continue;
    const double self = (s.end - s.start) - child_time[i];
    if (s.parent < 0 && s.name == "bench.pass") {
      total += s.end - s.start;
      unattributed += self;
      ++passes;
      continue;
    }
    self_by_layer[s.name.substr(0, s.name.find('.'))] += self;
  }
  *unattributed_frac = total > 0.0 ? unattributed / total : 0.0;
  std::string table = cmldft::util::StrPrintf(
      "per-layer self time over %d traced pass(es), %.6f s in total:\n"
      "  %-14s %14s %9s\n",
      passes, total, "layer", "self s/pass", "share");
  const double per = passes > 0 ? 1.0 / passes : 0.0;
  for (const auto& [layer, self] : self_by_layer) {
    table += cmldft::util::StrPrintf("  %-14s %14.6f %8.2f%%\n", layer.c_str(),
                                     self * per,
                                     total > 0.0 ? 100.0 * self / total : 0.0);
  }
  table += cmldft::util::StrPrintf("  %-14s %14.6f %8.2f%%\n", "unattributed",
                                   unattributed * per,
                                   100.0 * *unattributed_frac);
  return table;
}

}  // namespace e2e
