// Shared pieces of the end-to-end benchmark: clocks, statistics, result
// fingerprints, the in-memory span trace, and the query/workload types.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "expr/table.h"
#include "storm/services.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   // scratch root for the generated dataset
  std::string trace_dir;  // where the traced run writes its span file
};

// ---------------------------------------------------------------------------
// Clocks and process counters

double now_s();  // steady clock, seconds since the first call
double process_cpu_s();
double thread_cpu_s();
// Restarts the kernel's peak-RSS counter so peak_rss_mb() covers only what
// follows.  Where the kernel refuses, the peak covers set-up too.
void reset_peak_rss();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Statistics

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double sum(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------------------
// Result checking

// Order-insensitive multiset fingerprint of result rows: two additive sums
// of independent per-row hashes over the values' bit patterns, plus the row
// count and the column names.  Tables can be added in any order, so a
// partitioned result fingerprints the same as its merged form.
struct Fingerprint {
  std::string cols;
  uint64_t rows = 0;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;

  void add_row_hash(uint64_t acc);
  void add(const adv::expr::Table& t);
  bool operator==(const Fingerprint&) const = default;
};

// Per-row hash step, shared by Fingerprint::add and the reference evaluator
// so both hash a row identically.
inline uint64_t row_hash_step(uint64_t acc, double v) {
  uint64_t b;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  acc = (acc ^ b) * 0x9fb21c651e98df25ULL;
  return acc ^ (acc >> 29);
}
inline constexpr uint64_t kRowHashSeed = 0x243f6a8885a308d3ULL;

std::string column_names(const adv::expr::Table& t);

// Bit-exact, order-sensitive image of a result (aggregate outputs have a
// deterministic order, docs/AGGREGATION.md §2).
struct ExactImage {
  std::string cols;
  std::vector<uint64_t> bits;  // row-major
  bool operator==(const ExactImage&) const = default;
};
ExactImage exact_image(const adv::expr::Table& t);

// ---------------------------------------------------------------------------
// Queries

enum class CheckKind : uint8_t { kRows, kExact };

// One generated query with its reference answer.  The engine only ever sees
// `sql` (and `partition`); the reference was computed untimed at set-up.
struct Query {
  std::string sql;
  std::string cls;  // query class, for the per-class trace summary
  adv::storm::PartitionSpec partition;
  CheckKind check = CheckKind::kRows;
  bool checked = true;  // false only for layer probes without a reference
  Fingerprint rows;   // kRows
  ExactImage exact;   // kExact
};
using QueryPtr = std::shared_ptr<const Query>;

// Compares a result (any number of partitions) with q's reference.
bool answer_ok(const Query& q, const std::vector<adv::expr::Table>& parts);

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own code around calls into
// each module, kept in memory and written out once at exit.

struct Span {
  uint64_t query = 0;
  std::string name;
  std::string parent;  // "" for a root
  std::string cls;
  double start_s = 0;
  double dur_s = 0;
  // Measured beside the query rather than inside its decomposition: kept
  // out of self-time and coverage sums.
  bool probe = false;
};

// Filled from one thread: the served loop's client threads hand their
// samples back and the spans are recorded after they join.
class Trace {
 public:
  void add(Span s) { spans_.push_back(std::move(s)); }
  uint64_t next_query() { return ++last_query_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint64_t last_query_ = 0;
};

template <class F>
double timed(F&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// Runs fn() and records it as one span; returns its duration in seconds.
template <class F>
double record(Trace& tr, uint64_t query, const char* name, const char* parent,
              const std::string& cls, F&& fn, bool probe = false) {
  const double t0 = now_s();
  fn();
  const double dur = now_s() - t0;
  tr.add(Span{query, name, parent, cls, t0, dur, probe});
  return dur;
}

// Writes the span file: every span, then per-class mean durations and self
// times (a span's duration minus its non-probe children's), then the
// per-layer metrics of the run.
void write_trace(const std::string& path, const Args& args,
                 const std::vector<Span>& spans, const Metrics& per_layer);

// Sum of non-probe children of "query" roots over the roots' sum, counted
// only over queries that have at least one such child.
double trace_coverage(const std::vector<Span>& spans);

}  // namespace perfbench
