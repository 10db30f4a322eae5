// Aggregation pushdown tests: exact-sum properties, SQL surface, strategy
// selection, and the end-to-end determinism contract — GROUP BY /
// aggregate / top-k results must be byte-identical across thread counts,
// kernel loops, and fault-healed runs, while shipping only aggregate state
// (docs/AGGREGATION.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "afc/planner.h"
#include "afc/reference.h"
#include "agg/agg.h"
#include "agg/exact_sum.h"
#include "common/io.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "dataset/titan_st.h"
#include "faultz/faultz.h"
#include "sql/ast.h"
#include "storm/cluster.h"
#include "storm/dist.h"
#include "storm/node_daemon.h"

namespace adv {
namespace {

// --- ExactSum --------------------------------------------------------------

double finalize_of(const std::vector<double>& vals) {
  agg::ExactSum s;
  for (double v : vals) s.add(v);
  return s.finalize();
}

TEST(ExactSumTest, SmallIntegersAreExact) {
  EXPECT_EQ(finalize_of({1, 2, 3, 4}), 10.0);
  EXPECT_EQ(finalize_of({}), 0.0);
  EXPECT_EQ(finalize_of({-5, 5}), 0.0);
}

TEST(ExactSumTest, CancellationPlainDoublesGetWrong) {
  // 2^53 + 1 rounds to 2^53 in double arithmetic; the superaccumulator
  // keeps the 1.
  const double big = std::ldexp(1.0, 53);
  EXPECT_EQ(finalize_of({big, 1.0, -big}), 1.0);
  EXPECT_EQ(finalize_of({1e308, 1e308, -1e308, -1e308}), 0.0);
}

TEST(ExactSumTest, SubnormalsAndRounding) {
  const double tiny = std::ldexp(1.0, -1074);  // smallest subnormal
  EXPECT_EQ(finalize_of({tiny, tiny}), std::ldexp(1.0, -1073));
  EXPECT_EQ(finalize_of({tiny, -tiny}), 0.0);
  // 1 + 2^-53 + 2^-53 must round up to the next double (exact value is
  // representable): nextafter(1.0) = 1 + 2^-52.
  const double half_ulp = std::ldexp(1.0, -53);
  EXPECT_EQ(finalize_of({1.0, half_ulp, half_ulp}), 1.0 + std::ldexp(1.0, -52));
  // A single half-ulp is a tie: round-to-even keeps 1.0.
  EXPECT_EQ(finalize_of({1.0, half_ulp}), 1.0);
  // ...unless sticky bits below break the tie upward.
  EXPECT_EQ(finalize_of({1.0, half_ulp, std::ldexp(1.0, -80)}),
            1.0 + std::ldexp(1.0, -52));
}

TEST(ExactSumTest, NonFiniteFlags) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(finalize_of({1.0, inf}), inf);
  EXPECT_EQ(finalize_of({1.0, -inf}), -inf);
  EXPECT_TRUE(std::isnan(finalize_of({inf, -inf})));
  EXPECT_TRUE(std::isnan(finalize_of({std::nan(""), 1.0})));
  // Overflowing finite sums saturate to infinity.
  const double huge = std::numeric_limits<double>::max();
  EXPECT_EQ(finalize_of({huge, huge}), inf);
  // An all-(-0.0) sum is exact zero and finalizes to +0.0 (documented).
  const double z = finalize_of({-0.0, -0.0});
  EXPECT_EQ(z, 0.0);
  EXPECT_FALSE(std::signbit(z));
}

TEST(ExactSumTest, MergeOrderInvariant) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> mag(-1e120, 1e120);
  std::uniform_int_distribution<int> exp(-300, 300);
  std::vector<double> vals;
  for (int i = 0; i < 2000; ++i)
    vals.push_back(std::ldexp(mag(rng), exp(rng) % 60));
  const double want = finalize_of(vals);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(vals.begin(), vals.end(), rng);
    // Random partition into 7 partial sums merged in shuffled order.
    std::vector<agg::ExactSum> parts(7);
    for (std::size_t i = 0; i < vals.size(); ++i)
      parts[i % 7].add(vals[i]);
    std::shuffle(parts.begin() + 1, parts.end(), rng);
    agg::ExactSum total;
    for (const auto& p : parts) total.merge(p);
    const double got = total.finalize();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << got << " vs " << want;
  }
}

TEST(ExactSumTest, MatchesLongDoubleOnBenignData) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> d(-1000.0, 1000.0);
  std::vector<double> vals;
  long double ref = 0;
  for (int i = 0; i < 10000; ++i) {
    vals.push_back(d(rng));
    ref += vals.back();
  }
  EXPECT_NEAR(finalize_of(vals), static_cast<double>(ref), 1e-9);
}

// --- SQL surface -----------------------------------------------------------

TEST(AggSqlTest, ParsesAndRoundTrips) {
  const char* sql =
      "SELECT TIME, COUNT(*), SUM(SOIL), AVG(SGAS) FROM IparsData "
      "WHERE SOIL > 0.4 GROUP BY TIME ORDER BY TIME DESC LIMIT 5";
  sql::SelectQuery q = sql::parse_select(sql);
  EXPECT_TRUE(q.has_aggregates());
  EXPECT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.order_by.size(), 1u);
  EXPECT_TRUE(q.order_by[0].desc);
  EXPECT_EQ(q.limit, 5);
  // The canonical spelling is a fixed point of parse ∘ to_string (the plan
  // cache keys on it).
  EXPECT_EQ(sql::parse_select(q.to_string()).to_string(), q.to_string());
  EXPECT_NE(q.to_string().find("GROUP BY TIME"), std::string::npos);
  EXPECT_NE(q.to_string().find("ORDER BY TIME DESC LIMIT 5"),
            std::string::npos);
}

TEST(AggSqlTest, AggregateNamesAreNotReserved) {
  // "MIN" without '(' is an ordinary attribute name.
  sql::SelectQuery q = sql::parse_select("SELECT min FROM T WHERE max > 3");
  EXPECT_FALSE(q.has_aggregates());
  EXPECT_EQ(q.select_attrs, std::vector<std::string>{"min"});
}

TEST(AggSqlTest, RejectsMalformed) {
  EXPECT_THROW(sql::parse_select("SELECT SUM(*) FROM T"), ParseError);
  EXPECT_THROW(sql::parse_select("SELECT a FROM T LIMIT -1"), ParseError);
  EXPECT_THROW(sql::parse_select("SELECT a FROM T GROUP BY"), ParseError);
  EXPECT_THROW(sql::parse_select("SELECT a FROM T ORDER BY"), ParseError);
}

// --- end-to-end over the virtual cluster -----------------------------------

dataset::IparsConfig small_cfg() {
  dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 2;
  cfg.timesteps = 10;
  cfg.grid_per_node = 25;
  cfg.pad_vars = 0;
  return cfg;
}

struct Fixture {
  TempDir tmp{"aggtest"};
  dataset::GeneratedIpars gen;
  std::shared_ptr<codegen::DataServicePlan> plan;

  explicit Fixture(dataset::IparsConfig cfg = small_cfg())
      : gen(dataset::generate_ipars(cfg, dataset::IparsLayout::kL0,
                                    tmp.str())),
        plan(std::make_shared<codegen::DataServicePlan>(
            meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
            gen.root)) {}
};

bool tables_bit_identical(const expr::Table& a, const expr::Table& b) {
  if (a.num_rows() != b.num_rows() || a.columns().size() != b.columns().size())
    return false;
  for (std::size_t c = 0; c < a.columns().size(); ++c)
    if (std::memcmp(a.column(c).data(), b.column(c).data(),
                    a.num_rows() * sizeof(double)) != 0)
      return false;
  return true;
}

TEST(AggClusterTest, GroupByMatchesNaiveReference) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  storm::QueryResult r = cluster.execute(
      "SELECT TIME, COUNT(*), SUM(SOIL), MIN(SGAS), MAX(SGAS), AVG(SOIL) "
      "FROM IparsData WHERE SOIL > 0.4 GROUP BY TIME");
  ASSERT_EQ(r.first_error(), "");
  const expr::Table got = r.merged();
  ASSERT_EQ(got.columns().size(), 6u);

  // Naive reference: aggregate the oracle's raw rows client-side.
  expr::BoundQuery raw = f.plan->bind(
      "SELECT TIME, SOIL, SGAS FROM IparsData WHERE SOIL > 0.4");
  expr::Table rows = dataset::ipars_oracle(small_cfg(), raw);
  struct Ref {
    uint64_t count = 0;
    double sum = 0, mn = 0, mx = 0;
    bool seen = false;
  };
  std::map<double, Ref> ref;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    Ref& g = ref[rows.at(i, 0)];
    ++g.count;
    g.sum += rows.at(i, 1);
    const double sg = rows.at(i, 2);
    if (!g.seen || sg < g.mn) g.mn = sg;
    if (!g.seen || sg > g.mx) g.mx = sg;
    g.seen = true;
  }
  ASSERT_EQ(got.num_rows(), ref.size());
  // Deterministic output order: full-row lexicographic, i.e. TIME asc.
  std::size_t i = 0;
  for (const auto& [time, g] : ref) {
    EXPECT_EQ(got.at(i, 0), time);
    EXPECT_EQ(got.at(i, 1), static_cast<double>(g.count));
    EXPECT_NEAR(got.at(i, 2), g.sum, std::abs(g.sum) * 1e-9 + 1e-12);
    EXPECT_EQ(got.at(i, 3), g.mn);
    EXPECT_EQ(got.at(i, 4), g.mx);
    EXPECT_NEAR(got.at(i, 5), g.sum / g.count,
                std::abs(g.sum / g.count) * 1e-9 + 1e-12);
    ++i;
  }
  // Only aggregate state crossed the node boundary.
  EXPECT_GT(r.total_agg_bytes_shipped(), 0u);
  EXPECT_EQ(r.total_groups_emitted(), 4 * ref.size());  // 4 nodes, all keys
}

TEST(AggClusterTest, ByteIdenticalAcrossThreadCounts) {
  Fixture f;
  const char* sql =
      "SELECT TIME, AVG(SOIL), SUM(SGAS), COUNT(*) FROM IparsData "
      "WHERE SGAS < 0.8 GROUP BY TIME";
  storm::ClusterOptions one;
  one.threads_per_node = 1;
  storm::ClusterOptions many;
  many.threads_per_node = 4;
  many.min_rows_per_worker = 1;  // force real splits on this small dataset
  storm::StormCluster c1(f.plan, one);
  storm::StormCluster c4(f.plan, many);
  storm::QueryResult r1 = c1.execute(sql);
  storm::QueryResult r4 = c4.execute(sql);
  ASSERT_EQ(r1.first_error(), "");
  ASSERT_EQ(r4.first_error(), "");
  EXPECT_TRUE(tables_bit_identical(r1.merged(), r4.merged()));
  EXPECT_GT(r1.merged().num_rows(), 0u);
}

TEST(AggClusterTest, ByteIdenticalAcrossKernelTiers) {
  Fixture f;
  const char* sql =
      "SELECT REL, MIN(SOIL), MAX(OILVX), AVG(SGAS) FROM IparsData "
      "WHERE TIME BETWEEN 2 AND 9 GROUP BY REL";
  std::vector<expr::Table> results;
  for (KernelMode mode : {KernelMode::kInterp, KernelMode::kVector}) {
    storm::ClusterOptions opts;
    opts.kernel_mode = mode;
    storm::StormCluster cluster(f.plan, opts);
    storm::QueryResult r = cluster.execute(sql);
    ASSERT_EQ(r.first_error(), "");
    results.push_back(r.merged());
  }
  EXPECT_GT(results[0].num_rows(), 0u);
  EXPECT_TRUE(tables_bit_identical(results[0], results[1]));
}

TEST(AggClusterTest, ShipsOrdersOfMagnitudeFewerBytes) {
  // Aggregate state is O(groups); row shipping is O(rows).  Use enough rows
  // for the contrast the acceptance criterion demands (>= 100x).
  dataset::IparsConfig cfg = small_cfg();
  cfg.grid_per_node = 700;  // 4 * 2 * 10 * 700 = 56000 rows, still 10 groups
  Fixture f(cfg);
  storm::StormCluster cluster(f.plan);
  storm::QueryResult agg = cluster.execute(
      "SELECT TIME, AVG(SOIL) FROM IparsData GROUP BY TIME");
  storm::QueryResult raw =
      cluster.execute("SELECT TIME, SOIL FROM IparsData");
  ASSERT_EQ(agg.first_error(), "");
  ASSERT_EQ(raw.first_error(), "");
  uint64_t raw_sent = 0;
  for (const auto& ns : raw.node_stats) raw_sent += ns.bytes_sent;
  const uint64_t agg_sent = agg.total_agg_bytes_shipped();
  ASSERT_GT(agg_sent, 0u);
  // The acceptance criterion: >= 100x fewer bytes than row shipping.
  EXPECT_GE(raw_sent, 100 * agg_sent)
      << "raw=" << raw_sent << " agg=" << agg_sent;
  EXPECT_EQ(raw.node_stats[0].agg_bytes_shipped, 0u);
}

TEST(AggClusterTest, StrategySelection) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  // TIME is an integer loop attribute spanning 10 values: dense.
  storm::QueryResult dense = cluster.execute(
      "SELECT TIME, COUNT(*) FROM IparsData GROUP BY TIME");
  uint64_t d = 0, h = 0;
  for (const auto& ns : dense.node_stats) d += ns.agg_dense;
  EXPECT_GT(d, 0u);
  // SOIL is float-typed: never dense, hash by default.
  storm::QueryResult hash = cluster.execute(
      "SELECT SOIL, COUNT(*) FROM IparsData GROUP BY SOIL");
  for (const auto& ns : hash.node_stats) h += ns.agg_hash + ns.agg_radix;
  EXPECT_GT(h, 0u);
  EXPECT_EQ(hash.node_stats[0].agg_dense, 0u);
}

TEST(AggClusterTest, RadixUpgradeOnHighCardinality) {
  dataset::IparsConfig cfg = small_cfg();
  cfg.timesteps = 40;
  cfg.grid_per_node = 150;  // 2 * 40 * 150 = 12000 rows per node
  Fixture f(cfg);
  storm::StormCluster cluster(f.plan);
  storm::QueryResult r = cluster.execute(
      "SELECT SOIL, COUNT(*) FROM IparsData GROUP BY SOIL");
  ASSERT_EQ(r.first_error(), "");
  uint64_t radix = 0;
  for (const auto& ns : r.node_stats) radix += ns.agg_radix;
  EXPECT_GT(radix, 0u) << "expected the hash table to upgrade itself";
  EXPECT_GT(r.merged().num_rows(), agg::kRadixUpgradeGroups);
}

TEST(AggClusterTest, TopKMatchesSortedOracle) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  storm::QueryResult r = cluster.execute(
      "SELECT REL, TIME, SGAS FROM IparsData WHERE SOIL > 0.2 "
      "ORDER BY SGAS DESC LIMIT 7");
  ASSERT_EQ(r.first_error(), "");
  const expr::Table got = r.merged();
  ASSERT_EQ(got.num_rows(), 7u);
  // Reference: sort the oracle rows by SGAS desc (ties by row lex).
  expr::BoundQuery raw = f.plan->bind(
      "SELECT REL, TIME, SGAS FROM IparsData WHERE SOIL > 0.2");
  expr::Table rows = dataset::ipars_oracle(small_cfg(), raw);
  std::vector<std::vector<double>> all;
  for (std::size_t i = 0; i < rows.num_rows(); ++i)
    all.push_back({rows.at(i, 0), rows.at(i, 1), rows.at(i, 2)});
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a[2] != b[2]) return a[2] > b[2];
    return a < b;
  });
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(got.at(i, 0), all[i][0]);
    EXPECT_EQ(got.at(i, 1), all[i][1]);
    EXPECT_EQ(got.at(i, 2), all[i][2]);
  }
  // LIMIT without ORDER BY: the lexicographically smallest rows, total
  // count capped.
  storm::QueryResult lim =
      cluster.execute("SELECT REL, TIME FROM IparsData LIMIT 3");
  EXPECT_EQ(lim.merged().num_rows(), 3u);
}

TEST(AggClusterTest, GroupedTopK) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  storm::QueryResult all = cluster.execute(
      "SELECT TIME, SUM(SOIL) FROM IparsData GROUP BY TIME "
      "ORDER BY SUM(SOIL) DESC");
  storm::QueryResult top = cluster.execute(
      "SELECT TIME, SUM(SOIL) FROM IparsData GROUP BY TIME "
      "ORDER BY SUM(SOIL) DESC LIMIT 3");
  ASSERT_EQ(all.first_error(), "");
  ASSERT_EQ(top.first_error(), "");
  const expr::Table at = all.merged(), tt = top.merged();
  ASSERT_EQ(tt.num_rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tt.at(i, 0), at.at(i, 0));
    EXPECT_EQ(tt.at(i, 1), at.at(i, 1));
  }
}

TEST(AggClusterTest, IoFaultRetryDoesNotDoubleCount) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  const char* sql =
      "SELECT TIME, COUNT(*), SUM(SOIL) FROM IparsData GROUP BY TIME";
  storm::QueryResult clean = cluster.execute(sql);
  ASSERT_EQ(clean.first_error(), "");
  uint64_t retries = 0;
  expr::Table faulted;
  {
    // Refused mappings put every read on the pread fallback, where the
    // pread.* fault sites live; clearing the cache drops the mapped
    // handles the clean run left behind.
    FileCache::instance().clear();
    faultz::ScopedFaultPlan scope(11, "mmap.fail=1,pread.eio=0.3:6");
    storm::QueryResult r = cluster.execute(sql);
    ASSERT_EQ(r.first_error(), "") << "retry budget should absorb the faults";
    retries = r.total_io_retries();
    faulted = r.merged();
  }
  FileCache::instance().clear();
  EXPECT_GT(retries, 0u) << "campaign never fired; the test is vacuous";
  EXPECT_TRUE(tables_bit_identical(clean.merged(), faulted));
}

TEST(AggClusterTest, AggMergeFaultIsTypedNodeError) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  faultz::ScopedFaultPlan scope(3, "agg.merge=1:1");
  storm::QueryResult r = cluster.execute(
      "SELECT TIME, COUNT(*) FROM IparsData GROUP BY TIME");
  EXPECT_EQ(r.failed_nodes().size(), 1u);
  EXPECT_EQ(r.first_error_kind(), ErrorKind::kIo);
  // Partial results: aggregates over the surviving nodes only.
  storm::QueryResult clean = cluster.execute(
      "SELECT TIME, COUNT(*) FROM IparsData GROUP BY TIME");
  EXPECT_LT(r.merged().at(0, 1), clean.merged().at(0, 1));
}

TEST(AggClusterTest, CountOverflowIsQueryError) {
  for (sql::AggFn fn : {sql::AggFn::kCount, sql::AggFn::kAvg}) {
    agg::FinalizeSpec spec;
    spec.grouped = true;
    spec.shape.fns = {fn};
    spec.out = {{true, 0}};
    spec.ncols = 1;
    // A partial state of 2^52 + 1 rows: exact alone, past 2^53 merged twice.
    agg::AggTable part(spec.shape, agg::StrategyChoice{});
    uint32_t id = 0;
    part.map_groups(nullptr, 1, &id);
    part.item(0).count[id] = (uint64_t{1} << 52) + 1;
    std::string bytes;
    part.encode(bytes);
    agg::MergeAcc acc(spec);
    acc.merge_encoded(bytes);
    EXPECT_NO_THROW(acc.finalize_rows());
    acc.merge_encoded(bytes);
    EXPECT_THROW(acc.finalize_rows(), QueryError);
  }
}

TEST(AggClusterTest, EmptyGroupSemantics) {
  Fixture f;
  storm::StormCluster cluster(f.plan);
  // A predicate matching nothing: zero groups, zero rows out.
  storm::QueryResult none = cluster.execute(
      "SELECT TIME, COUNT(*) FROM IparsData WHERE SOIL > 99 GROUP BY TIME");
  ASSERT_EQ(none.first_error(), "");
  EXPECT_EQ(none.merged().num_rows(), 0u);
  // Global aggregate over zero rows: one row, COUNT 0, SUM +0.0, AVG/MIN/
  // MAX NaN (documented empty-input semantics).
  storm::QueryResult glob = cluster.execute(
      "SELECT COUNT(*), SUM(SOIL), AVG(SOIL), MIN(SOIL) FROM IparsData "
      "WHERE SOIL > 99");
  ASSERT_EQ(glob.first_error(), "");
  const expr::Table t = glob.merged();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0), 0.0);
  EXPECT_EQ(t.at(0, 1), 0.0);
  EXPECT_FALSE(std::signbit(t.at(0, 1)));
  EXPECT_TRUE(std::isnan(t.at(0, 2)));
  EXPECT_TRUE(std::isnan(t.at(0, 3)));
}

TEST(AggClusterTest, BindRejectsBadShapes) {
  Fixture f;
  EXPECT_THROW(f.plan->bind("SELECT SOIL, COUNT(*) FROM IparsData "
                            "GROUP BY TIME"),
               QueryError);  // SOIL not grouped or aggregated
  EXPECT_THROW(f.plan->bind("SELECT * FROM IparsData GROUP BY TIME"),
               QueryError);  // * with GROUP BY
  EXPECT_THROW(f.plan->bind("SELECT TIME, COUNT(*) FROM IparsData "
                            "GROUP BY TIME ORDER BY SOIL"),
               QueryError);  // ORDER BY key absent from the select list
  EXPECT_THROW(f.plan->bind("SELECT TIME FROM IparsData GROUP BY TIME, "
                            "TIME"),
               QueryError);  // duplicate group key
}

// --- SELECT COUNT(*): a query that references no attribute ----------------

// --- PushdownSink: the per-AFC protocol and the batch fold ------------------

// Values every fold must carry bit-exactly: signed zeros, NaN, infinities,
// subnormals and the largest finite doubles.
const double kEdgeValues[] = {0.25,
                              -0.0,
                              0.0,
                              std::nan(""),
                              HUGE_VAL,
                              -HUGE_VAL,
                              std::numeric_limits<double>::denorm_min(),
                              -2.5e-310,
                              1e308,
                              -1e308,
                              3.5};

// Scan rows (select_slots order) of a bound pushdown query, one AFC each.
class ScanRows {
 public:
  explicit ScanRows(const expr::BoundQuery& q)
      : q_(q), ncols_(q.select_slots().size()) {}

  std::size_t ncols() const { return ncols_; }
  std::size_t nrows(const std::vector<double>& afc) const {
    return afc.size() / ncols_;
  }

  // Appends a row: keys[k] for the k-th GROUP BY attribute, and every
  // other scan column drawn from kEdgeValues or a random double.
  void add(std::vector<double>& afc, const std::vector<double>& keys,
           std::mt19937_64& rng) const {
    const std::size_t at = afc.size();
    afc.resize(at + ncols_);
    const auto& key_cols = q_.group_key_cols();
    for (std::size_t c = 0; c < ncols_; ++c) {
      const std::size_t pick = rng() % 16;
      afc[at + c] = pick < std::size(kEdgeValues)
                        ? kEdgeValues[pick]
                        : std::ldexp(static_cast<double>(rng() % 1000), -7);
    }
    for (std::size_t k = 0; k < key_cols.size(); ++k)
      afc[at + static_cast<std::size_t>(key_cols[k])] = keys[k];
  }

 private:
  const expr::BoundQuery& q_;
  std::size_t ncols_;
};

// Folds each AFC into a fresh sink as the node loop does and returns the
// encoded state.  With `rollback`, every AFC first folds a prefix of its
// rows, rolls it back, then folds all of them again.
std::string fold_afcs(const expr::BoundQuery& q,
                      const agg::StrategyChoice& choice,
                      const std::vector<std::vector<double>>& afcs,
                      bool rollback) {
  agg::PushdownSink sink(q, choice);
  const std::size_t ncols = q.select_slots().size();
  for (const auto& afc : afcs) {
    sink.begin_afc();
    const std::size_t n = afc.size() / ncols;
    if (rollback) {
      sink.on_rows(afc.data(), ncols, n - n / 8, nullptr);
      EXPECT_TRUE(sink.rollback_afc());
    }
    sink.on_rows(afc.data(), ncols, n, nullptr);
  }
  sink.finish();
  std::string out;
  sink.encode(out);
  return out;
}

TEST(PushdownSinkTest, RollbackLeavesOnlyCommittedAfcs) {
  Fixture f;
  std::mt19937_64 rng(7);
  const double nan = std::nan("");

  // Dense TIME in [1, 10]; the middle AFC also spills keys outside the
  // domain, keys that are not integral, and a NaN key.
  const expr::BoundQuery grouped = f.plan->bind(
      "SELECT TIME, COUNT(*), SUM(SOIL), MIN(SGAS), MAX(SGAS), AVG(SOIL) "
      "FROM IparsData GROUP BY TIME");
  const ScanRows rows(grouped);
  agg::StrategyChoice dense;
  dense.strategy = agg::Strategy::kDense;
  dense.dense_lo = 1;
  dense.dense_hi = 10;
  const double spill_keys[] = {0, 11, -3, 1e9, 2.5, -0.0, nan, 10.5};
  std::vector<std::vector<double>> afcs(3);
  for (int i = 0; i < 200; ++i) rows.add(afcs[0], {1.0 + i % 10}, rng);
  for (int i = 0; i < 200; ++i)
    rows.add(afcs[1], {i % 3 ? spill_keys[i % 8] : 1.0 + i % 10}, rng);
  for (int i = 0; i < 200; ++i) rows.add(afcs[2], {1.0 + i / 20}, rng);
  const std::string committed = fold_afcs(grouped, dense, afcs, false);
  EXPECT_EQ(fold_afcs(grouped, dense, afcs, true), committed);

  // Every committed row is counted exactly once.
  agg::MergeAcc acc(agg::finalize_spec(grouped));
  acc.merge_encoded(committed);
  const std::vector<double> out = acc.finalize_rows();
  double counted = 0;
  for (std::size_t r = 0; r < out.size(); r += 6) counted += out[r + 1];
  EXPECT_EQ(counted, 600.0);
  EXPECT_EQ(acc.ngroups(), 10u + std::size(spill_keys) - 1);  // -0.0 is 0

  // A hash delta that passes kRadixUpgradeGroups inside an AFC that is
  // rolled back, after an AFC already committed.
  std::vector<std::vector<double>> wide(3);
  for (int i = 0; i < 50; ++i) rows.add(wide[0], {0.5 * i}, rng);
  for (uint64_t i = 0; i < agg::kRadixUpgradeGroups + 900; ++i)
    rows.add(wide[1], {1000.25 + static_cast<double>(i)}, rng);
  for (int i = 0; i < 50; ++i) rows.add(wide[2], {0.5 * i}, rng);
  EXPECT_EQ(fold_afcs(grouped, agg::StrategyChoice{}, wide, true),
            fold_afcs(grouped, agg::StrategyChoice{}, wide, false));

  // A global aggregate has one group, whatever the AFC.
  const expr::BoundQuery global = f.plan->bind(
      "SELECT COUNT(*), SUM(SGAS), AVG(SOIL), MIN(SOIL), MAX(SGAS) "
      "FROM IparsData");
  const ScanRows grows(global);
  std::vector<std::vector<double>> gafcs(3);
  for (auto& afc : gafcs)
    for (int i = 0; i < 64; ++i) grows.add(afc, {}, rng);
  EXPECT_EQ(fold_afcs(global, agg::StrategyChoice{}, gafcs, true),
            fold_afcs(global, agg::StrategyChoice{}, gafcs, false));
}

TEST(PushdownSinkTest, BatchFoldMatchesRowAtATime) {
  Fixture f;
  std::mt19937_64 rng(11);
  agg::StrategyChoice dense, hash, radix;
  dense.strategy = agg::Strategy::kDense;
  dense.dense_lo = 1;
  dense.dense_hi = 10;
  radix.strategy = agg::Strategy::kRadix;
  // Every AggFn, over plain columns, arithmetic and a UDF.
  const char* one_key =
      "SELECT TIME, COUNT(*), SUM(SOIL), MIN(SGAS), MAX(SOIL * 2 - SGAS), "
      "AVG(ABSV(SGAS)), SUM(SGAS / 3) FROM IparsData GROUP BY TIME";
  const char* two_keys =
      "SELECT REL, TIME, COUNT(*), MIN(SOIL), MAX(SGAS), AVG(SGAS * SOIL), "
      "SUM(ABSV(SOIL)) FROM IparsData GROUP BY REL, TIME";
  const char* global =
      "SELECT COUNT(*), SUM(SOIL + 1), MIN(ABSV(SGAS)), MAX(SOIL), "
      "AVG(SGAS) FROM IparsData";
  struct Case {
    const char* sql;
    agg::StrategyChoice choice;
    int distinct_keys;  // key tuples drawn from this many values
  };
  const Case cases[] = {
      {one_key, dense, 12},  // 10 in the domain, 2 spill
      {one_key, hash, 300},
      {one_key, hash, 6000},  // upgrades to radix mid-fold
      {one_key, radix, 6000},
      {two_keys, hash, 40},
      {two_keys, radix, 40},
      {global, hash, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    const expr::BoundQuery q = f.plan->bind(c.sql);
    const ScanRows rows(q);
    std::vector<double> batch;
    const std::size_t nkeys = q.group_key_cols().size();
    for (int i = 0; i < 9000; ++i) {
      // Runs of equal keys, as the layouts produce, then random keys.
      const int k = i < 3000 ? i / 37 % c.distinct_keys
                             : static_cast<int>(rng() % c.distinct_keys);
      std::vector<double> keys;
      if (nkeys >= 1) keys.push_back(k == 11 ? 2.5 : k);
      if (nkeys == 2) keys.push_back(k % 7);
      rows.add(batch, keys, rng);
    }
    const std::size_t n = rows.nrows(batch);
    agg::PushdownSink whole(q, c.choice), one(q, c.choice);
    whole.begin_afc();
    whole.on_rows(batch.data(), rows.ncols(), n, nullptr);
    whole.finish();
    one.begin_afc();
    for (std::size_t i = 0; i < n; ++i)
      one.on_row(batch.data() + i * rows.ncols(), i);
    one.finish();
    std::string a, b;
    whole.encode(a);
    one.encode(b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(whole.table()->strategy(), one.table()->strategy());
    EXPECT_EQ(whole.rows_folded(), n);
  }
}

// One small dataset per layout family: IPARS L0 and I-VI, Titan, and the
// spatio-temporal grid in row-major (TitanST) and COLMAJOR storage.
struct CountStarCase {
  std::string name;
  std::string dataset;
  std::string descriptor;
  std::string root;
};

CountStarCase count_star_case(const std::string& family, const TempDir& tmp) {
  for (dataset::IparsLayout l : dataset::all_ipars_layouts()) {
    if (family != std::string("Ipars") + dataset::to_string(l)) continue;
    dataset::IparsConfig cfg = small_cfg();
    cfg.pad_vars = 2;
    auto gen = dataset::generate_ipars(cfg, l, tmp.str());
    return {family, gen.dataset_name, gen.descriptor_text, gen.root};
  }
  if (family == "Titan") {
    dataset::TitanConfig cfg;
    cfg.nodes = 2;
    cfg.cells_x = 4;
    cfg.cells_y = 2;
    cfg.cells_z = 2;
    cfg.points_per_chunk = 16;
    auto gen = dataset::generate_titan(cfg, tmp.str());
    return {family, gen.dataset_name, gen.descriptor_text, gen.root};
  }
  dataset::TitanStConfig cfg;
  cfg.nodes = 2;
  cfg.lat_chunks = 2;
  cfg.lon_chunks = 2;
  cfg.timesteps = 3;
  cfg.cells_per_chunk = 8;
  cfg.colmajor = family == "COLMAJOR";
  auto gen = dataset::generate_titan_st(cfg, tmp.str());
  return {family, gen.dataset_name, gen.descriptor_text, gen.root};
}

std::vector<std::string> count_star_families() {
  std::vector<std::string> f;
  for (dataset::IparsLayout l : dataset::all_ipars_layouts())
    f.push_back(std::string("Ipars") + dataset::to_string(l));
  f.insert(f.end(), {"Titan", "TitanST", "COLMAJOR"});
  return f;
}

class CountStarTest : public ::testing::TestWithParam<std::string> {};

// COUNT(*) equals the row count of SELECT *, with and without LIMIT, on
// both kernel loops and through the node daemons; both planners agree on
// the plan.
TEST_P(CountStarTest, EqualsSelectStarRowCount) {
  TempDir tmp("countstar");
  const CountStarCase c = count_star_case(GetParam(), tmp);
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(c.descriptor), c.dataset, c.root);
  const std::string from = " FROM " + c.dataset;
  const double rows = static_cast<double>(
      plan->execute(plan->bind("SELECT *" + from)).num_rows());
  ASSERT_GT(rows, 0);

  const std::string count = "SELECT COUNT(*)" + from;
  expr::BoundQuery q = plan->bind(count);
  EXPECT_EQ(afc::reference::flatten(afc::plan_afcs(plan->model(), q)),
            afc::reference::plan_reference(plan->model(), q, nullptr));

  auto expect_count = [&](const expr::Table& t, const std::string& how) {
    ASSERT_EQ(t.num_rows(), 1u) << how;
    EXPECT_EQ(t.column(0)[0], rows) << how;
  };
  for (KernelMode mode : {KernelMode::kVector, KernelMode::kInterp}) {
    const std::string how = std::string("kernel ") + to_string(mode);
    storm::ClusterOptions opts;
    opts.kernel_mode = mode;
    storm::StormCluster cluster(plan, opts);
    for (const std::string& sql : {count, count + " LIMIT 1"}) {
      storm::QueryResult r = cluster.execute(sql);
      ASSERT_EQ(r.first_error(), "") << how << ": " << sql;
      expect_count(r.merged(), how + ": " + sql);
    }

    std::vector<std::unique_ptr<storm::NodeDaemon>> daemons;
    std::vector<storm::ShardConfig> shards;
    for (int n = 0; n < plan->model().num_nodes(); ++n) {
      storm::NodeDaemonOptions nopts;
      nopts.node_id = n;
      nopts.cluster.kernel_mode = mode;
      daemons.push_back(std::make_unique<storm::NodeDaemon>(plan, nopts));
      shards.push_back({n, {{"127.0.0.1", daemons.back()->port()}}});
    }
    storm::DistCoordinator dist(std::move(shards), storm::DistOptions{});
    expect_count(dist.run(count).merged(), how + " via dist");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CountStarTest, ::testing::ValuesIn(count_star_families()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace adv
