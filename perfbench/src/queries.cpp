#include "queries.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/error.h"
#include "common/string_util.h"

namespace perfbench {

namespace {

// Schema attribute indices of the IPARS generator (dataset/ipars.cpp).
constexpr int kRel = 0;
constexpr int kTime = 1;
constexpr int kSoil = 5;
constexpr int kSgas = 6;
constexpr int kFirstPayload = 2;  // X; payload runs to the last attribute

int below(adv::SplitMix64& rng, int n) {
  return static_cast<int>(rng.next_below(static_cast<uint64_t>(n)));
}

double uniform(adv::SplitMix64& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.next_unit();
}

// `k` distinct attribute indices from [lo, hi), in draw order.
std::vector<int> pick(adv::SplitMix64& rng, int lo, int hi, int k) {
  std::vector<int> all;
  for (int a = lo; a < hi; ++a) all.push_back(a);
  for (int i = 0; i < k; ++i)
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(i + below(rng, hi - lo - i))]);
  all.resize(static_cast<std::size_t>(k));
  return all;
}

std::vector<int> pick_rels(adv::SplitMix64& rng, int rels) {
  std::vector<int> out;
  while (out.empty())
    for (int r = 0; r < rels; ++r)
      if (rng.next_unit() < 0.5) out.push_back(r);
  return out;
}

// Inclusive TIME window of `w` steps at a seeded position.
std::pair<int, int> window(adv::SplitMix64& rng, int timesteps, int w) {
  w = std::clamp(w, 1, timesteps);
  const int lo = 1 + below(rng, timesteps - w + 1);
  return {lo, lo + w - 1};
}

const std::string& name(const adv::meta::Schema& s, int attr) {
  return s.attrs[static_cast<std::size_t>(attr)].name;
}

}  // namespace

std::string row_sql(const RowSpec& s, const adv::meta::Schema& schema) {
  std::string sql = "SELECT ";
  if (s.cols.empty()) sql += "*";
  for (std::size_t i = 0; i < s.cols.size(); ++i)
    sql += (i ? ", " : "") + name(schema, s.cols[i]);
  sql += " FROM IparsData";
  std::vector<std::string> conj;
  if (s.t_lo > 0) conj.push_back(adv::format("TIME BETWEEN %d AND %d", s.t_lo, s.t_hi));
  if (!s.rels.empty()) {
    std::string in = "REL IN (";
    for (std::size_t i = 0; i < s.rels.size(); ++i)
      in += (i ? ", " : "") + std::to_string(s.rels[i]);
    conj.push_back(in + ")");
  }
  if (s.thr_attr >= 0) conj.push_back(name(schema, s.thr_attr) + " >= " + s.thr_text);
  for (std::size_t i = 0; i < conj.size(); ++i)
    sql += (i ? " AND " : " WHERE ") + conj[i];
  return sql;
}

// ---------------------------------------------------------------------------

RowOracle::RowOracle(const adv::codegen::DataServicePlan& plan, int timesteps)
    : schema_(plan.schema()),
      timesteps_(timesteps),
      table_(plan.execute("SELECT * FROM IparsData")),
      by_time_(static_cast<std::size_t>(timesteps) + 1),
      prefix_(static_cast<std::size_t>(timesteps) + 1) {
  const std::vector<double>& time = table_.column(kTime);
  for (std::size_t r = 0; r < table_.num_rows(); ++r) {
    const int t = static_cast<int>(time[r]);
    if (t < 1 || t > timesteps)
      throw adv::InternalError("oracle row with TIME out of range");
    by_time_[static_cast<std::size_t>(t)].push_back(static_cast<uint32_t>(r));
  }
  for (int t = 1; t <= timesteps; ++t) {
    Fingerprint f = prefix_[static_cast<std::size_t>(t - 1)];
    for (uint32_t r : by_time_[static_cast<std::size_t>(t)]) {
      uint64_t acc = kRowHashSeed;
      for (std::size_t c = 0; c < table_.num_cols(); ++c)
        acc = row_hash_step(acc, table_.at(r, c));
      f.add_row_hash(acc);
    }
    prefix_[static_cast<std::size_t>(t)] = f;
  }
}

Fingerprint RowOracle::expect(const RowSpec& s) const {
  std::vector<int> cols = s.cols;
  if (cols.empty())
    for (int a = 0; a < static_cast<int>(table_.num_cols()); ++a)
      cols.push_back(a);
  Fingerprint f;
  for (int a : cols) f.cols += (f.cols.empty() ? "" : ",") + name(schema_, a);
  const int lo = s.t_lo > 0 ? s.t_lo : 1;
  const int hi = s.t_lo > 0 ? std::min(s.t_hi, timesteps_) : timesteps_;
  if (lo > hi) return f;
  if (s.cols.empty() && s.rels.empty() && s.thr_attr < 0) {
    const Fingerprint& a = prefix_[static_cast<std::size_t>(lo - 1)];
    const Fingerprint& b = prefix_[static_cast<std::size_t>(hi)];
    f.rows = b.rows - a.rows;
    f.sum1 = b.sum1 - a.sum1;
    f.sum2 = b.sum2 - a.sum2;
    return f;
  }
  const double thr =
      s.thr_attr >= 0 ? std::strtod(s.thr_text.c_str(), nullptr) : 0;
  for (int t = lo; t <= hi; ++t) {
    for (uint32_t r : by_time_[static_cast<std::size_t>(t)]) {
      if (!s.rels.empty() &&
          std::find(s.rels.begin(), s.rels.end(),
                    static_cast<int>(table_.at(r, kRel))) == s.rels.end())
        continue;
      if (s.thr_attr >= 0 &&
          !(table_.at(r, static_cast<std::size_t>(s.thr_attr)) >= thr))
        continue;
      uint64_t acc = kRowHashSeed;
      for (int a : cols)
        acc = row_hash_step(acc, table_.at(r, static_cast<std::size_t>(a)));
      f.add_row_hash(acc);
    }
  }
  return f;
}

std::string Thresholds::at(int attr, double frac) {
  std::vector<double>& v = sorted_[attr];
  if (v.empty()) {
    adv::SplitMix64 rng(0x7468726573686f6cULL ^ static_cast<uint64_t>(attr));
    for (int i = 0; i < 16384; ++i)
      v.push_back(adv::dataset::ipars_value(
          cfg_, attr, below(rng, cfg_.rels), 1 + below(rng, cfg_.timesteps),
          1 + below(rng, cfg_.nodes * cfg_.grid_per_node)));
    std::sort(v.begin(), v.end());
  }
  const double pos = std::clamp(1.0 - frac, 0.0, 1.0) *
                     static_cast<double>(v.size() - 1);
  return adv::format("%.4f", v[static_cast<std::size_t>(pos)]);
}

// ---------------------------------------------------------------------------

AggOracle::AggOracle(std::shared_ptr<adv::codegen::DataServicePlan> plan)
    : cluster_(std::move(plan), [] {
        adv::storm::ClusterOptions o;
        o.parallel_nodes = false;
        o.threads_per_node = 1;
        o.kernel_mode = adv::KernelMode::kInterp;
        return o;
      }()) {}

ExactImage AggOracle::expect(const std::string& sql) {
  adv::storm::QueryResult r = cluster_.execute(sql);
  if (!r.first_error().empty())
    throw adv::InternalError("reference run failed for '" + sql +
                             "': " + r.first_error());
  return exact_image(r.merged());
}

QueryPtr row_query(const RowSpec& s, const RowOracle& o, std::string cls,
                   const adv::storm::PartitionSpec& p) {
  auto q = std::make_shared<Query>();
  q->sql = row_sql(s, o.schema());
  q->cls = std::move(cls);
  q->partition = p;
  q->check = CheckKind::kRows;
  q->rows = o.expect(s);
  return q;
}

QueryPtr agg_query(std::string sql, std::string cls, AggOracle& o) {
  auto q = std::make_shared<Query>();
  q->sql = std::move(sql);
  q->cls = std::move(cls);
  q->check = CheckKind::kExact;
  q->exact = o.expect(q->sql);
  return q;
}

// ---------------------------------------------------------------------------

std::vector<QueryPtr> export_queries(adv::SplitMix64& rng, const RowOracle& o,
                                     Thresholds& th, std::size_t n) {
  const int nattrs = static_cast<int>(o.schema().attrs.size());
  // Classes, column counts, predicate attributes and partition policies
  // alternate, and window sizes and selectivity targets follow a fixed
  // golden-ratio sequence, so every seed issues the same sequence of query
  // shapes and result sizes (and so the same memory profile); window
  // positions, columns, thresholds and hash columns come from the seed.
  std::vector<QueryPtr> out;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i / 2;
    double g = 0.6180339887498949 * static_cast<double>(k);
    g -= static_cast<double>(static_cast<uint64_t>(g));
    RowSpec s;
    std::string cls;
    if (i % 2 == 0) {
      cls = "select_star";
      const int w = static_cast<int>((0.1 + 0.9 * g) * o.timesteps() + 0.5);
      std::tie(s.t_lo, s.t_hi) = window(rng, o.timesteps(), w);
    } else {
      cls = "projection";
      s.cols = pick(rng, kFirstPayload, nattrs, 3 + static_cast<int>(k % 4));
      s.thr_attr = (k / 2) % 2 ? kSoil : kSgas;
      s.thr_text = th.at(s.thr_attr, 0.25 + 0.5 * g);
    }
    adv::storm::PartitionSpec p;
    p.num_consumers = 4;
    if (k % 2 == 0) {
      p.policy = adv::storm::PartitionSpec::Policy::kBlockCyclic;
    } else {
      p.policy = adv::storm::PartitionSpec::Policy::kHashAttr;
      p.select_index = below(rng, s.cols.empty() ? nattrs
                                                 : static_cast<int>(s.cols.size()));
    }
    out.push_back(row_query(s, o, cls, p));
  }
  return out;
}

std::vector<QueryPtr> aggregate_queries(adv::SplitMix64& rng, AggOracle& ao,
                                        Thresholds& th, int timesteps) {
  // Aggregate inputs: SOIL, SGAS, the velocities and the pad variables.
  const char* vars[] = {"SOIL",  "SGAS", "OILVX", "OILVY", "OILVZ", "P01",
                        "P02",   "P03",  "P04",   "P05",   "P06",   "P07",
                        "P08",   "P09",  "P10",   "P11",   "P12"};
  auto v = [&] { return std::string(vars[below(rng, 17)]); };
  // Per class, fixed functions, predicate attributes, selectivity targets
  // and limits, so the pool costs the same under every seed; the seed
  // picks the aggregated attributes and the thresholds.
  std::vector<QueryPtr> out;
  for (int i = 0; i < 3; ++i) {
    const std::string a = v(), b = v(), c = v();
    out.push_back(agg_query(
        "SELECT TIME, COUNT(*), SUM(" + a + "), MIN(" + b + "), MAX(" + b +
            "), AVG(" + c + ") FROM IparsData GROUP BY TIME",
        "group_time", ao));
    out.push_back(agg_query("SELECT REL, COUNT(*), SUM(" + a + "), AVG(" + b +
                                "), MAX(" + c + ") FROM IparsData GROUP BY REL",
                            "group_rel", ao));
    out.push_back(agg_query("SELECT REL, TIME, SUM(" + a + "), MIN(" + b +
                                "), AVG(" + c +
                                ") FROM IparsData GROUP BY REL, TIME",
                            "group_rel_time", ao));
    const bool soil = i % 2 == 0;
    out.push_back(agg_query(
        "SELECT COUNT(*), SUM(" + a + "), AVG(" + b + "), MIN(" + c +
            "), MAX(" + c + ") FROM IparsData WHERE " +
            (soil ? "SOIL >= " : "SGAS >= ") +
            th.at(soil ? kSoil : kSgas, 0.3 + 0.2 * i),
        "global_pred", ao));
    out.push_back(agg_query(
        "SELECT REL, TIME, AVG(" + a + ") FROM IparsData GROUP BY REL, TIME "
            "ORDER BY AVG(" + a + ") DESC LIMIT " +
            std::to_string(10 + 20 * i),
        "topk", ao));
  }
  // High-cardinality grouping: every SOIL value in a TIME window is its own
  // group, past the hash table's radix-upgrade threshold.
  const auto [lo, hi] = window(rng, timesteps, timesteps * 3 / 20);
  out.push_back(agg_query(adv::format("SELECT SOIL, COUNT(*) FROM IparsData "
                                      "WHERE TIME BETWEEN %d AND %d GROUP BY SOIL",
                                      lo, hi),
                          "group_soil", ao));
  return out;
}

ServedMix served_queries(adv::SplitMix64& rng, const RowOracle& ro,
                         AggOracle& ao, Thresholds& th, int timesteps,
                         int clients, std::size_t unique_per_client) {
  const int nattrs = static_cast<int>(ro.schema().attrs.size());
  const int rels = 4;
  ServedMix mix;
  std::set<std::string> seen;
  // Hot set: selective enough that all 8 results fit the 64 MiB result
  // cache (and each its 8 MiB entry cap) and the 32-entry plan cache.
  // Hot sizes are fixed per slot so every seed serves the same row volume.
  while (mix.hot.size() < 8) {
    const int slot = static_cast<int>(mix.hot.size());
    RowSpec s;
    if (slot < 4) {
      s.cols = {kRel, kTime, 2, 3, 4, kSoil};
      s.thr_attr = kSoil;
      s.thr_text = th.at(kSoil, 0.004 + 0.002 * slot);
    } else {
      s.cols = {kRel, kTime, kSgas, kFirstPayload + 5 + below(rng, nattrs - 7)};
      std::tie(s.t_lo, s.t_hi) = window(rng, timesteps, 4 * slot - 8);
      s.rels = {below(rng, rels)};
      s.thr_attr = kSgas;
      s.thr_text = th.at(kSgas, 0.5);
    }
    if (seen.insert(row_sql(s, ro.schema())).second)
      mix.hot.push_back(row_query(s, ro, "hot"));
  }
  // Small aggregates over narrow windows; every one names a stored
  // attribute (see the note in queries.h).
  for (int i = 0; i < 8; ++i) {
    const auto [lo, hi] = window(rng, timesteps, 5 + below(rng, 16));
    std::string sql;
    switch (i % 3) {
      case 0:
        sql = adv::format("SELECT REL, COUNT(*), AVG(SOIL), MAX(SGAS) FROM "
                          "IparsData WHERE TIME BETWEEN %d AND %d GROUP BY REL",
                          lo, hi);
        break;
      case 1:
        sql = adv::format("SELECT COUNT(*), SUM(SGAS), MIN(SOIL) FROM IparsData "
                          "WHERE TIME BETWEEN %d AND %d AND SOIL >= %s",
                          lo, hi, th.at(kSoil, uniform(rng, 0.2, 0.8)).c_str());
        break;
      default:
        sql = adv::format("SELECT TIME, AVG(SOIL), MIN(SGAS) FROM IparsData "
                          "WHERE TIME BETWEEN %d AND %d AND REL IN (%d) "
                          "GROUP BY TIME",
                          lo, hi, below(rng, rels));
    }
    mix.small_aggs.push_back(agg_query(sql, "small_agg", ao));
  }
  // Unique selective queries: narrow TIME windows, optional REL IN, a
  // SOIL/SGAS threshold; deduplicated so none ever repeats.
  mix.unique.resize(static_cast<std::size_t>(clients));
  mix.cursor.assign(static_cast<std::size_t>(clients), 0);
  for (auto& list : mix.unique) {
    while (list.size() < unique_per_client) {
      RowSpec s;
      s.cols = pick(rng, kFirstPayload, nattrs, 3 + below(rng, 4));
      s.cols.insert(s.cols.begin(), kTime);
      std::tie(s.t_lo, s.t_hi) = window(rng, timesteps, 1 + below(rng, 5));
      if (rng.next_unit() < 0.5) s.rels = pick_rels(rng, rels);
      s.thr_attr = rng.next_unit() < 0.5 ? kSoil : kSgas;
      s.thr_text = th.at(s.thr_attr, uniform(rng, 0.2, 0.8));
      if (seen.insert(row_sql(s, ro.schema())).second)
        list.push_back(row_query(s, ro, "unique"));
    }
  }
  return mix;
}

}  // namespace perfbench
