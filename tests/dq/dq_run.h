// Differential query-fuzz runner.
//
// run_seed() drives one generated dataset (see dq_gen.h) through the whole
// stack twice per query — the naive single-threaded reference executor
// (DataServicePlan::execute, plus the Figure 5 reference planner and the
// generator's own cell oracle) and the full fast path (VirtualTable:
// parallel cluster + zone map + plan cache, optionally the v2 wire
// protocol) — and demands exactly the same rows.  For aggregate queries
// the SUM/AVG columns compare within a small relative tolerance against
// the *independent* implementations (naive reference, cell oracle) — their
// plain/long-double folds legitimately differ from the engine's exact
// superaccumulator — while keys, COUNT, MIN/MAX, and the LIMIT cut stay
// bit-exact, and the engine's own backends (cluster, server, dist, plan
// cache) must agree bit for bit with each other.  Under an armed fault
// campaign the contract weakens to: correct rows, or a clean typed
// adv::Error, within the deadline.  Never wrong rows, never a hang.
//
// A final clean phase generates a second dataset ("DqB") and runs random
// cross-dataset implicit-attribute joins (api/join_query.h) against a
// nested-loop join of the two sides' cell oracles — with the A-side scan
// routed through the DistCoordinator when --dist is on.
//
// Shared by tests/dq/dq_diff_test.cpp, tests/dq/dq_fault_test.cpp, and
// tools/adv_fuzz.cpp (the replay CLI) so a CI failure reproduces exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/kernel_mode.h"
#include "dq/dq_gen.h"
#include "expr/table.h"

namespace adv::dq {

// Exact (bit-pattern, no tolerance) row-multiset comparison helpers.
bool rows_equal_exact(const expr::Table& a, const expr::Table& b);
// a ⊆ b as multisets: every row of `a` is a row of `b`, at most as often.
bool rows_subset(const expr::Table& a, const expr::Table& b);

struct DqOptions {
  int queries_per_seed = 5;
  // Also round-trip each query through QueryServer/QueryClient (protocol
  // v2 on loopback).
  bool with_server = false;
  // Also scatter/gather each query through per-node NodeDaemons and a
  // DistCoordinator (the distribution frames on loopback; daemons run
  // in-process, one per virtual node).
  bool with_dist = false;
  // Fault campaign: non-empty spec arms faultz::FaultPlan with
  // {fault_seed, fault_spec} for the query phase (never for dataset
  // generation or reference computation) and disarms afterwards.
  std::string fault_spec;
  uint64_t fault_seed = 0;
  // Per-query deadline handed to the CancelToken; a query exceeding twice
  // this wall-clock budget counts as a hang (= failure).
  double deadline_seconds = 20.0;
  // Run the fast path in partial-results mode: node casualties yield a
  // subset of the reference rows instead of an error.
  bool partial_results = false;
  // I/O mode for the fast path's cluster (kAuto = env/mmap).
  IoMode io_mode = IoMode::kAuto;
  // Kernel loop for the fast path.  The reference executor is pinned to
  // the interpreter regardless, so vector runs are genuine cross-loop
  // differentials.
  KernelMode kernel_mode = KernelMode::kVector;
  // Run the phase-4 cross-dataset join round (the shrinker turns this off
  // when the failure reproduces without it).
  bool with_joins = true;
};

struct DqReport {
  int cases = 0;         // query executions attempted
  int passed = 0;        // byte-identical fast-vs-reference
  int clean_errors = 0;  // typed adv::Error under faults (allowed)
  int partials = 0;      // partial results accepted (subset of reference)
  uint64_t io_retries = 0;     // transparent retry recoveries observed
  uint64_t afcs_pruned = 0;    // zone-map pruning observed on the fast path
  uint64_t fault_fires = 0;    // injections that actually fired
  // Human-readable failures; each line embeds the one-line replay command.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  void merge(const DqReport& o);
  std::string summary() const;
};

// The spec for a named campaign: "io", "net", "node", "agg", "zm",
// "sched", "serve".  Throws ValidationError for an unknown name.
std::string campaign_spec(const std::string& name);

// The query corpus run_seed derives for dataset `d` (n = queries_per_seed).
std::vector<std::string> seed_queries(const DqDataset& d, int n);

// Runs the corpus for one seed.  Deterministic given {seed, opts}.
DqReport run_seed(uint64_t seed, const DqOptions& opts);

// Runs an explicit case: a dataset shape plus a fixed query list.
// run_seed derives both from the seed and delegates here; the shrinker
// (dq_shrink.h) mutates them directly.
//
// Test hook: when the ADV_DQ_INJECT_MISMATCH env var is a non-empty
// string S, the fast-path result of every query whose SQL contains S is
// corrupted (one duplicated/forged row) before comparison — a guaranteed,
// deterministic mismatch for exercising the failure and shrink paths.
DqReport run_case(const DqDataset& d,
                  const std::vector<std::string>& queries,
                  const DqOptions& opts);

// The one-line replay command for a {seed, opts} combination.
std::string replay_command(uint64_t seed, const DqOptions& opts);

}  // namespace adv::dq
