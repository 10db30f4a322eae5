#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------

void Fingerprint::add_row_hash(uint64_t acc) {
  const uint64_t h = adv::mix64(acc);
  ++rows;
  sum1 += h;
  sum2 += adv::mix64(h ^ 0x5bd1e9955bd1e995ULL);
}

void Fingerprint::add(const adv::expr::Table& t) {
  const std::string names = column_names(t);
  if (rows == 0 && cols.empty()) cols = names;
  else if (cols != names) cols = "<mismatched partitions>";
  std::vector<uint64_t> acc(t.num_rows(), kRowHashSeed);
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const std::vector<double>& col = t.column(c);
    for (std::size_t r = 0; r < acc.size(); ++r)
      acc[r] = row_hash_step(acc[r], col[r]);
  }
  for (uint64_t a : acc) add_row_hash(a);
}

std::string column_names(const adv::expr::Table& t) {
  std::string s;
  for (const auto& c : t.columns()) {
    if (!s.empty()) s += ',';
    s += c.name;
  }
  return s;
}

ExactImage exact_image(const adv::expr::Table& t) {
  ExactImage im;
  im.cols = column_names(t);
  im.bits.resize(t.num_rows() * t.num_cols());
  for (std::size_t c = 0; c < t.num_cols(); ++c)
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const double v = t.at(r, c);
      std::memcpy(&im.bits[r * t.num_cols() + c], &v, sizeof v);
    }
  return im;
}

bool answer_ok(const Query& q, const std::vector<adv::expr::Table>& parts) {
  if (q.check == CheckKind::kRows) {
    Fingerprint f;
    for (const auto& p : parts) f.add(p);
    if (parts.empty()) f.cols = q.rows.cols;
    return f == q.rows;
  }
  adv::expr::Table merged = parts.empty() ? adv::expr::Table() : parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) merged.append_table(parts[i]);
  return exact_image(merged) == q.exact;
}

// ---------------------------------------------------------------------------
// Trace output

namespace {

struct ClassSummary {
  uint64_t queries = 0;
  std::map<std::string, double> total_s;  // summed duration per span name
  std::map<std::string, double> self_s;   // summed self time per span name
  std::map<std::string, uint64_t> count;  // spans per name
};

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

double trace_coverage(const std::vector<Span>& spans) {
  std::map<uint64_t, double> root, children;
  for (const Span& s : spans) {
    if (s.probe) continue;
    if (s.name == "query" && s.parent.empty()) root[s.query] += s.dur_s;
    else if (s.parent == "query") children[s.query] += s.dur_s;
  }
  double r = 0, c = 0;
  for (const auto& [q, d] : root) {
    auto it = children.find(q);
    if (it == children.end()) continue;
    r += d;
    c += it->second;
  }
  return r > 0 ? c / r : 0;
}

void write_trace(const std::string& path, const Args& args,
                 const std::vector<Span>& spans, const Metrics& per_layer) {
  // Self time: a span's duration minus its non-probe children's, where a
  // child names the parent span of the same query.
  std::map<std::pair<uint64_t, std::string>, double> child_sum;
  std::map<uint64_t, std::string> query_cls;
  for (const Span& s : spans) {
    query_cls.emplace(s.query, s.cls);
    if (!s.probe && !s.parent.empty())
      child_sum[{s.query, s.parent}] += s.dur_s;
  }
  std::map<std::string, ClassSummary> classes;
  for (const auto& [q, cls] : query_cls) ++classes[cls].queries;
  for (const Span& s : spans) {
    ClassSummary& cs = classes[s.cls];
    cs.total_s[s.name] += s.dur_s;
    cs.self_s[s.name] += s.dur_s - child_sum[{s.query, s.name}];
    ++cs.count[s.name];
  }

  std::ofstream out(path);
  if (!out) throw adv::IoError("cannot write trace file " + path);
  out << "{\n\"workload\": \"" << args.workload << "\",\n\"seed\": "
      << args.seed << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"query\": " << s.query << ", \"name\": \"" << s.name
        << "\", \"parent\": \"" << s.parent << "\", \"class\": \"" << s.cls
        << "\", \"start_ms\": " << num(s.start_s * 1e3)
        << ", \"dur_ms\": " << num(s.dur_s * 1e3)
        << ", \"probe\": " << (s.probe ? "true" : "false") << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "],\n\"classes\": {\n";
  std::size_t ci = 0;
  for (const auto& [cls, cs] : classes) {
    out << "\"" << cls << "\": {\"queries\": " << cs.queries
        << ", \"spans\": {";
    std::size_t si = 0;
    for (const auto& [name, total] : cs.total_s) {
      const double n = static_cast<double>(cs.count.at(name));
      out << (si++ ? ", " : "") << "\"" << name
          << "\": {\"mean_ms\": " << num(total / n * 1e3)
          << ", \"self_mean_ms\": " << num(cs.self_s.at(name) / n * 1e3)
          << ", \"count\": " << cs.count.at(name) << "}";
    }
    out << "}}" << (++ci < classes.size() ? ",\n" : "\n");
  }
  out << "},\n\"per_layer\": {\n";
  for (std::size_t i = 0; i < per_layer.size(); ++i)
    out << "\"" << per_layer[i].name << "\": {\"value\": "
        << num(per_layer[i].value) << ", \"unit\": \"" << per_layer[i].unit
        << "\"}" << (i + 1 < per_layer.size() ? ",\n" : "\n");
  out << "}\n}\n";
}

}  // namespace perfbench
