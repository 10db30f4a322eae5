// Seeded query generation and the reference answers each query is checked
// against.  Every query parameter comes from the workload seed; the engine
// only ever sees the generated SQL.
//
// No generator emits an aggregate that references no stored attribute
// (e.g. `SELECT COUNT(*) FROM IparsData`): that shape crashes the planner
// (ROADMAP item 4, src/afc/planner.cpp) and would kill the run.  Every
// aggregate below names SOIL, SGAS or another stored variable.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "codegen/plan.h"
#include "common/rng.h"
#include "dataset/ipars.h"
#include "storm/cluster.h"

namespace perfbench {

// Conjunctive row query over the IPARS schema.
struct RowSpec {
  std::vector<int> cols;  // schema attribute indices; empty = SELECT *
  int t_lo = 0;           // inclusive TIME window; t_lo == 0 means none
  int t_hi = 0;
  std::vector<int> rels;  // REL IN (...); empty means none
  int thr_attr = -1;      // `attr >= thr`; -1 means none
  std::string thr_text;   // the threshold literal as written in the SQL
};

std::string row_sql(const RowSpec& s, const adv::meta::Schema& schema);

// Reference answers for row queries.  One full-table run of the naive
// oracle (DataServicePlan::execute, interp tier) supplies every row; the
// benchmark applies each spec's conjunctive predicate and projection to
// those rows itself.  Rows are indexed by TIME so narrow windows cost
// microseconds, and whole-row fingerprints are prefix-summed per TIME step
// so a SELECT * window costs O(1).
class RowOracle {
 public:
  RowOracle(const adv::codegen::DataServicePlan& plan, int timesteps);
  int timesteps() const { return timesteps_; }

  Fingerprint expect(const RowSpec& s) const;
  const adv::meta::Schema& schema() const { return schema_; }

 private:
  adv::meta::Schema schema_;
  int timesteps_;
  adv::expr::Table table_;                    // SELECT *, schema order
  std::vector<std::vector<uint32_t>> by_time_;  // row indices per TIME
  std::vector<Fingerprint> prefix_;  // whole-row sums over TIME 1..t
};

// Threshold literals for `attr >= t` predicates, from a seeded sample of
// the generator's cell values (dataset::ipars_value), so a predicate can be
// aimed at a row fraction without reading the data.
class Thresholds {
 public:
  explicit Thresholds(const adv::dataset::IparsConfig& cfg) : cfg_(cfg) {}
  // Literal that about `frac` of all rows meet.
  std::string at(int attr, double frac);

 private:
  adv::dataset::IparsConfig cfg_;
  std::map<int, std::vector<double>> sorted_;  // sampled values per attr
};

// Reference answers for aggregates: a sequential (one node at a time, one
// thread per node), interp-tier, unfiltered engine run, compared bit-exactly
// (docs/AGGREGATION.md).
class AggOracle {
 public:
  explicit AggOracle(std::shared_ptr<adv::codegen::DataServicePlan> plan);
  ExactImage expect(const std::string& sql);

 private:
  adv::storm::StormCluster cluster_;
};

QueryPtr row_query(const RowSpec& s, const RowOracle& o, std::string cls,
                   const adv::storm::PartitionSpec& p = {});
QueryPtr agg_query(std::string sql, std::string cls, AggOracle& o);

// `export`: SELECT * over TIME windows covering 10-100% of rows, and 3-6
// column projections with SOIL/SGAS thresholds matching 25-75% of rows;
// results partitioned to 4 consumers (block-cyclic or hash).
std::vector<QueryPtr> export_queries(adv::SplitMix64& rng, const RowOracle& o,
                                     Thresholds& th, std::size_t n);

// `aggregate`: GROUP BY TIME / REL / (REL, TIME), global aggregates behind
// a stored-attribute predicate, grouped top-k, one GROUP BY SOIL.
std::vector<QueryPtr> aggregate_queries(adv::SplitMix64& rng, AggOracle& ao,
                                        Thresholds& th, int timesteps);

// `served`: 8 hot selective queries, unique selective queries per client,
// and small aggregates.
struct ServedMix {
  std::vector<QueryPtr> hot;
  std::vector<QueryPtr> small_aggs;
  std::vector<std::vector<QueryPtr>> unique;  // per client, never repeated
  std::vector<std::size_t> cursor;  // next unused entry of each unique list
};
ServedMix served_queries(adv::SplitMix64& rng, const RowOracle& ro,
                         AggOracle& ao, Thresholds& th, int timesteps,
                         int clients, std::size_t unique_per_client);

}  // namespace perfbench
