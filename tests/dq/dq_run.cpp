#include "dq/dq_run.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "afc/reference.h"
#include "api/join_query.h"
#include "api/virtual_table.h"
#include "codegen/plan.h"
#include "common/cancel.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/tempdir.h"
#include "dq/dq_gen.h"
#include "faultz/faultz.h"
#include "storm/dist.h"
#include "storm/net.h"
#include "storm/node_daemon.h"

namespace adv::dq {

namespace {

// Exact multiset key of one row: the raw bit patterns, so "byte-identical"
// means exactly that (no tolerance).
std::string row_key(const expr::Table& t, std::size_t r) {
  std::string key(t.num_cols() * sizeof(double), '\0');
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    double v = t.at(r, c);
    std::memcpy(key.data() + c * sizeof(double), &v, sizeof v);
  }
  return key;
}

std::map<std::string, int> row_multiset(const expr::Table& t) {
  std::map<std::string, int> m;
  for (std::size_t r = 0; r < t.num_rows(); ++r) ++m[row_key(t, r)];
  return m;
}

// Which result columns of a bound query are bit-exact across independent
// implementations: everything except SUM and AVG, whose values depend on
// accumulator and fold order (docs/AGGREGATION.md — the engine itself is
// bit-identical across its own backends; the tolerance only covers the
// naive reference and the oracle).
std::vector<bool> exact_columns(const expr::BoundQuery& q) {
  if (!q.has_aggregates())
    return std::vector<bool>(q.result_columns().size(), true);
  std::vector<bool> exact;
  for (const auto& o : q.output_cols()) {
    bool e = true;
    if (o.is_agg) {
      const sql::AggFn fn =
          q.agg_items()[static_cast<std::size_t>(o.index)].fn;
      e = fn != sql::AggFn::kSum && fn != sql::AggFn::kAvg;
    }
    exact.push_back(e);
  }
  return exact;
}

// Relative tolerance for SUM/AVG: the corpus sums at most a few thousand
// float32-derived values in [0, 1), so plain-double vs exact-superaccumulator
// vs long-double folds agree to ~1e-13; 1e-9 leaves ample slack while still
// catching any real bug (a dropped or doubled row moves a sum by >= one
// representable payload, orders of magnitude past the tolerance).
constexpr double kAggRelTol = 1e-9;

uint64_t obits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return (b >> 63) ? ~b : b | (uint64_t{1} << 63);
}

// Pushdown comparison with per-column exactness: rows of both tables are
// aligned by sorting on the exact columns first (group keys are unique per
// row, so that order is total), then exact columns must match bit for bit
// and tolerant columns within kAggRelTol.
bool rows_match_tolerant(const expr::Table& a, const expr::Table& b,
                         const std::vector<bool>& exact) {
  if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols())
    return false;
  const std::size_t nc = a.num_cols();
  std::vector<std::size_t> colord;
  for (std::size_t c = 0; c < nc; ++c)
    if (exact[c]) colord.push_back(c);
  for (std::size_t c = 0; c < nc; ++c)
    if (!exact[c]) colord.push_back(c);
  auto sorted = [&](const expr::Table& t) {
    std::vector<std::size_t> p(t.num_rows());
    std::iota(p.begin(), p.end(), std::size_t{0});
    std::sort(p.begin(), p.end(), [&](std::size_t x, std::size_t y) {
      for (std::size_t c : colord) {
        const uint64_t u = obits(t.at(x, c)), v = obits(t.at(y, c));
        if (u != v) return u < v;
      }
      return false;
    });
    return p;
  };
  const std::vector<std::size_t> pa = sorted(a), pb = sorted(b);
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    for (std::size_t c = 0; c < nc; ++c) {
      const double u = a.at(pa[r], c), v = b.at(pb[r], c);
      if (obits(u) == obits(v)) continue;
      if (exact[c] || std::isnan(u) || std::isnan(v)) return false;
      if (std::abs(u - v) >
          kAggRelTol * std::max({std::abs(u), std::abs(v), 1.0}))
        return false;
    }
  }
  return true;
}

// Arms the process fault plan for the query phase and guarantees disarm on
// every exit path (a leaked armed plan would poison later tests).
class CampaignScope {
 public:
  CampaignScope(uint64_t seed, const std::string& spec) : armed_(!spec.empty()) {
    if (armed_) {
      faultz::FaultPlan::instance().arm(seed, spec);
      // The reference run may have populated the process file cache with
      // mapped handles; drop them so the campaign's I/O actually traverses
      // the (hooked) open/map/pread path instead of cached mappings.
      FileCache::instance().clear();
    }
  }
  ~CampaignScope() {
    if (armed_) faultz::FaultPlan::instance().disarm();
  }
  CampaignScope(const CampaignScope&) = delete;
  CampaignScope& operator=(const CampaignScope&) = delete;

 private:
  bool armed_;
};

}  // namespace

bool rows_equal_exact(const expr::Table& a, const expr::Table& b) {
  return a.num_rows() == b.num_rows() && a.num_cols() == b.num_cols() &&
         row_multiset(a) == row_multiset(b);
}

bool rows_subset(const expr::Table& a, const expr::Table& b) {
  if (a.num_cols() != b.num_cols()) return false;
  std::map<std::string, int> bm = row_multiset(b);
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    auto it = bm.find(row_key(a, r));
    if (it == bm.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

void DqReport::merge(const DqReport& o) {
  cases += o.cases;
  passed += o.passed;
  clean_errors += o.clean_errors;
  partials += o.partials;
  io_retries += o.io_retries;
  afcs_pruned += o.afcs_pruned;
  fault_fires += o.fault_fires;
  failures.insert(failures.end(), o.failures.begin(), o.failures.end());
}

std::string DqReport::summary() const {
  return format(
      "%d cases: %d identical, %d clean errors, %d partial, "
      "%llu retries healed, %llu afcs pruned, %llu faults fired, "
      "%zu FAILURES",
      cases, passed, clean_errors, partials,
      static_cast<unsigned long long>(io_retries),
      static_cast<unsigned long long>(afcs_pruned),
      static_cast<unsigned long long>(fault_fires), failures.size());
}

std::string campaign_spec(const std::string& name) {
  if (name == "io")
    return "pread.eintr=0.05,pread.eio=0.01,pread.short=0.01,"
           "mmap.fail=0.5,mmap.torn=0.005";
  if (name == "net")
    return "send.eintr=0.05,send.partial=0.10,send.reset=0.004,"
           "recv.eintr=0.05,recv.reset=0.004";
  if (name == "node") return "node.run=0.25";
  if (name == "agg") return "agg.merge=0.2";
  if (name == "zm") return "zonemap.load=1";
  if (name == "sched") return "serve.query=0.3";
  if (name == "serve") return "serve.cache=0.5";
  if (name == "none") return "";
  throw ValidationError("unknown fault campaign: " + name);
}

std::string replay_command(uint64_t seed, const DqOptions& opts) {
  std::ostringstream os;
  os << "adv_fuzz --seed " << seed;
  if (opts.queries_per_seed != 5) os << " --queries " << opts.queries_per_seed;
  if (!opts.fault_spec.empty())
    os << " --fault-spec '" << opts.fault_spec << "' --fault-seed "
       << opts.fault_seed;
  if (opts.with_server) os << " --server";
  if (opts.with_dist) os << " --dist";
  if (opts.partial_results) os << " --partial";
  if (opts.io_mode == IoMode::kPread) os << " --pread";
  if (opts.kernel_mode != KernelMode::kVector)
    os << " --kernel " << to_string(opts.kernel_mode);
  return os.str();
}

std::vector<std::string> seed_queries(const DqDataset& d, int n) {
  // The corpus is fixed by the seed alone — the same queries run under
  // every campaign, so "correct rows or clean error" is judged against the
  // exact corpus the fault-free run validated.
  SplitMix64 qrng(mix64(d.seed ^ 0x5eed5));
  std::vector<std::string> queries;
  for (int i = 0; i < n; ++i) queries.push_back(random_query(d, qrng));
  return queries;
}

DqReport run_seed(uint64_t seed, const DqOptions& opts) {
  DqDataset d = make_dataset(seed);
  return run_case(d, seed_queries(d, opts.queries_per_seed), opts);
}

DqReport run_case(const DqDataset& d,
                  const std::vector<std::string>& queries,
                  const DqOptions& opts) {
  const uint64_t seed = d.seed;
  DqReport rep;
  const std::string replay = replay_command(seed, opts);
  auto fail = [&](const std::string& query, const std::string& what) {
    rep.failures.push_back(format("seed %llu",
                                  static_cast<unsigned long long>(seed)) +
                           " query \"" + query + "\": " + what +
                           "  [replay: " + replay + "]");
  };
  // Injected-mismatch test hook (see dq_run.h): corrupt the fast-path
  // rows of any query containing this substring.
  const std::string inject = env_str("ADV_DQ_INJECT_MISMATCH", "");

  // ---- Phase 1: generate (never under faults). --------------------------
  std::string text = d.descriptor();
  TempDir tmp("dq");
  meta::Descriptor desc = meta::parse_descriptor(text);
  codegen::DataServicePlan refplan(desc, d.name, tmp.str());
  write_files(d, refplan.model());
  {
    auto problems = refplan.verify_files();
    if (!problems.empty()) {
      fail("<generate>", "generated files failed verify: " + problems[0]);
      return rep;
    }
  }

  const std::string zm_dir = tmp.str() + "/zm";
  VirtualTable::Options vopts;
  vopts.build_zonemap = true;
  vopts.zonemap_dir = zm_dir;
  vopts.plan_cache_capacity = 8;
  vopts.partial_results = opts.partial_results;
  vopts.cluster.io_mode = opts.io_mode;
  vopts.cluster.kernel_mode = opts.kernel_mode;
  VirtualTable vt = VirtualTable::open(text, d.name, tmp.str(), vopts);

  // ---- Phase 2: reference answers (never under faults). -----------------
  // Per-query comparison mode: SUM/AVG columns of aggregate queries carry
  // a tolerance between *independent* implementations (reference vs oracle
  // vs engine); all other columns — and all backends of the engine against
  // each other — stay bit-exact.
  std::vector<expr::Table> want;
  std::vector<bool> is_pushdown;
  std::vector<std::vector<bool>> exact;
  auto matches_ref = [&](const expr::Table& got, std::size_t i) {
    const std::vector<bool>& ex = exact[i];
    return std::find(ex.begin(), ex.end(), false) == ex.end()
               ? rows_equal_exact(got, want[i])
               : rows_match_tolerant(got, want[i], ex);
  };
  for (const std::string& sql : queries) {
    expr::BoundQuery q = refplan.bind(sql);
    is_pushdown.push_back(q.is_pushdown());
    exact.push_back(exact_columns(q));
    // Differential planner check: the optimized AFC planner must emit
    // exactly the chunk sets the Figure 5 literal reference emits.
    if (afc::reference::flatten(refplan.index_fn(q)) !=
        afc::reference::plan_reference(refplan.model(), q))
      fail(sql, "optimized planner diverged from Figure 5 reference");
    expr::Table ref = refplan.execute(q);
    // The naive executor itself is cross-checked against the generator's
    // cell oracle, so "reference" is not circular.
    expr::Table truth = oracle_rows(d, q);
    want.push_back(std::move(ref));
    if (!matches_ref(truth, want.size() - 1))
      fail(sql, format("reference executor returned %zu rows, oracle %zu",
                       want.back().num_rows(), truth.num_rows()));
  }
  if (!rep.failures.empty()) return rep;

  // Optional server endpoint (opened before arming: binding is not under
  // test, the query path is).
  std::unique_ptr<storm::QueryServer> server;
  std::unique_ptr<storm::QueryClient> client;
  if (opts.with_server) {
    auto splan =
        std::make_shared<codegen::DataServicePlan>(desc, d.name, tmp.str());
    storm::ClusterOptions copts;
    copts.io_mode = opts.io_mode;
    copts.kernel_mode = opts.kernel_mode;
    // Result cache on: the second served round below replays each query
    // from the cache, so the differential also proves cached rows are
    // bit-identical to a live execution — including under the serve.cache
    // poisoning campaign.
    serve::ServeOptions vsopts;
    vsopts.enable_result_cache = true;
    server = std::make_unique<storm::QueryServer>(
        splan, copts, 0, vt.chunk_filter(), sched::SchedulerOptions{}, vsopts);
    client = std::make_unique<storm::QueryClient>("127.0.0.1", server->port());
  }

  // Optional distribution backend: one in-process NodeDaemon per virtual
  // node behind a DistCoordinator, pruning with the same zone map as the
  // fast path.  Also opened before arming; under a campaign the armed
  // plan is process-wide, so daemon-side injections exercise the
  // coordinator's typed-failure and bounded-retry paths.
  std::vector<std::unique_ptr<storm::NodeDaemon>> daemons;
  std::unique_ptr<storm::DistCoordinator> dist;
  if (opts.with_dist) {
    auto dplan =
        std::make_shared<codegen::DataServicePlan>(desc, d.name, tmp.str());
    std::vector<storm::ShardConfig> shards;
    for (int n = 0; n < dplan->model().num_nodes(); ++n) {
      storm::NodeDaemonOptions nopts;
      nopts.node_id = n;
      nopts.cluster.io_mode = opts.io_mode;
      nopts.cluster.kernel_mode = opts.kernel_mode;
      nopts.filter = vt.chunk_filter();
      daemons.push_back(std::make_unique<storm::NodeDaemon>(dplan, nopts));
      shards.push_back(
          {n, {{"127.0.0.1", daemons.back()->port()}}});
    }
    storm::DistOptions dopts;
    dopts.deadline_seconds = opts.deadline_seconds;
    dopts.liveness_timeout_seconds = std::max(5.0, opts.deadline_seconds);
    dopts.allow_partial_results = opts.partial_results;
    dist = std::make_unique<storm::DistCoordinator>(std::move(shards), dopts);
  }

  // ---- Phase 3: the fast path, optionally under the campaign. -----------
  {
    CampaignScope campaign(opts.fault_seed, opts.fault_spec);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string& sql = queries[i];
      // On a clean run the engine's backends must agree bit for bit with
      // each other (the SUM/AVG tolerance is only for the independent
      // references): the first fast-path answer anchors the comparison.
      expr::Table engine_got;
      bool have_engine = false;
      // Twice per query: the second run replays through the plan cache.
      for (int round = 0; round < 2; ++round) {
        ++rep.cases;
        Stopwatch sw;
        try {
          CancelToken token;
          token.set_deadline_after(opts.deadline_seconds);
          storm::QueryResult r = vt.query_detailed(sql, {}, &token);
          rep.io_retries += r.total_io_retries();
          rep.afcs_pruned += r.total_afcs_pruned();
          expr::Table got = r.merged();
          if (!inject.empty() && sql.find(inject) != std::string::npos) {
            // Injected-mismatch hook: forge one extra row (a duplicate of
            // row 0, or zeros on an empty result) so the comparison below
            // deterministically fails for this query.
            std::vector<double> forged(got.num_cols(), 0.0);
            for (std::size_t c = 0; got.num_rows() && c < got.num_cols();
                 ++c)
              forged[c] = got.at(0, c);
            got.append_row(forged.data());
          }
          if (matches_ref(got, i)) {
            ++rep.passed;
            if (opts.fault_spec.empty() && !have_engine) {
              engine_got = got;
              have_engine = true;
            } else if (have_engine && !rows_equal_exact(got, engine_got)) {
              fail(sql, format("plan-cache replay diverged bit-for-bit "
                               "(round %d)", round));
            }
          } else if (opts.partial_results && !r.failed_nodes().empty() &&
                     (is_pushdown[i] || rows_subset(got, want[i]))) {
            // Partial pushdown results are aggregates over the surviving
            // nodes' data — not a row subset of the full answer, so only
            // the typed casualty is checked, not the content.
            ++rep.partials;
          } else {
            fail(sql, format("fast path returned %zu rows, reference %zu "
                             "(round %d)",
                             got.num_rows(), want[i].num_rows(), round));
          }
        } catch (const Error& e) {
          // Typed failure: acceptable only while a campaign is armed.
          if (opts.fault_spec.empty())
            fail(sql, std::string("unexpected error: ") + e.what());
          else
            ++rep.clean_errors;
        } catch (const std::exception& e) {
          fail(sql, std::string("untyped exception escaped: ") + e.what());
        }
        double elapsed = sw.elapsed_seconds();
        if (elapsed > 2 * opts.deadline_seconds + 5)
          fail(sql, format("hang: %.1fs wall against a %.1fs deadline",
                           elapsed, opts.deadline_seconds));
      }

      // Twice per query: the second round is served from the result cache
      // (or re-executed when the campaign poisoned the entry) and must be
      // bit-identical either way.
      if (client) {
        for (int round = 0; round < 2; ++round) {
          ++rep.cases;
          Stopwatch sw;
          try {
            storm::QueryOptions qopts;
            qopts.deadline_seconds = opts.deadline_seconds;
            storm::RemoteResult rr = client->execute(sql, {}, qopts);
            expr::Table got = rr.merged();
            if (matches_ref(got, i)) {
              ++rep.passed;
              if (have_engine && !rows_equal_exact(got, engine_got))
                fail(sql, format("served rows differ bit-for-bit from the "
                                 "in-process engine (round %d%s)",
                                 round,
                                 rr.sched.served_from_cache ? ", cached" : ""));
            } else {
              fail(sql,
                   format("served query returned %llu rows, reference %zu "
                          "(round %d)",
                          static_cast<unsigned long long>(rr.total_rows()),
                          want[i].num_rows(), round));
            }
          } catch (const Error& e) {
            if (opts.fault_spec.empty())
              fail(sql, std::string("unexpected server error: ") + e.what());
            else
              ++rep.clean_errors;
          } catch (const std::exception& e) {
            fail(sql, std::string("untyped exception escaped: ") + e.what());
          }
          double elapsed = sw.elapsed_seconds();
          if (elapsed > 2 * opts.deadline_seconds + 5)
            fail(sql,
                 format("served hang: %.1fs wall against a %.1fs deadline",
                        elapsed, opts.deadline_seconds));
        }
      }

      if (dist) {
        ++rep.cases;
        Stopwatch sw;
        try {
          storm::DistResult dr = dist->run(sql);
          expr::Table got = dr.merged();
          if (matches_ref(got, i)) {
            ++rep.passed;
            if (have_engine && dr.casualties.empty() &&
                !rows_equal_exact(got, engine_got))
              fail(sql, "dist backend rows differ bit-for-bit from the "
                        "in-process engine");
          } else if (opts.partial_results && dr.partial() &&
                   (is_pushdown[i] || rows_subset(got, want[i])))
            ++rep.partials;
          else
            fail(sql,
                 format("dist backend returned %llu rows, reference %zu",
                        static_cast<unsigned long long>(dr.total_rows()),
                        want[i].num_rows()));
        } catch (const Error& e) {
          if (opts.fault_spec.empty())
            fail(sql, std::string("unexpected dist error: ") + e.what());
          else
            ++rep.clean_errors;
        } catch (const std::exception& e) {
          fail(sql, std::string("untyped exception escaped: ") + e.what());
        }
        double elapsed = sw.elapsed_seconds();
        if (elapsed > 2 * opts.deadline_seconds + 5)
          fail(sql, format("dist hang: %.1fs wall against a %.1fs deadline",
                           elapsed, opts.deadline_seconds));
      }
    }
    if (!opts.fault_spec.empty())
      rep.fault_fires = faultz::FaultPlan::instance().total_fires();
  }

  // ---- Phase 4: cross-dataset joins (clean path, always disarmed). ------
  // A second generated dataset joins the first on their shared implicit
  // dimensions (api/join_query.h); the reference is a nested-loop join of
  // the two sides' cell oracles, so the planner-level key pruning and the
  // hash merge are both under differential test.  Runs after the campaign
  // scope: generation may never happen under faults, and the join contract
  // is exact rows regardless of which campaign phase 3 ran.
  if (opts.with_joins) {
    DqDataset db = make_dataset(mix64(seed ^ 0xb0b0ULL));
    db.name = "DqB";
    TempDir tmpb("dqb");
    meta::Descriptor bdesc = meta::parse_descriptor(db.descriptor());
    codegen::DataServicePlan brefplan(bdesc, "DqB", tmpb.str());
    write_files(db, brefplan.model());
    VirtualTable::Options bvopts;
    bvopts.cluster.io_mode = opts.io_mode;
    bvopts.cluster.kernel_mode = opts.kernel_mode;
    VirtualTable vtb = VirtualTable::open(db.descriptor(), "DqB", tmpb.str(),
                                          bvopts);
    SplitMix64 jrng(mix64(seed ^ 0x10abcafeULL));
    for (int j = 0; j < 2; ++j) {
      DqJoinCase jc = random_join_query(d, db, jrng);
      ++rep.cases;
      try {
        expr::Table want_j =
            oracle_join(oracle_rows(d, refplan.bind(jc.left_sql)),
                        oracle_rows(db, brefplan.bind(jc.right_sql)),
                        jc.keys);
        JoinStats jst;
        expr::Table got = join_query(vt, vtb, jc.sql, &jst);
        if (!rows_equal_exact(got, want_j)) {
          fail(jc.sql, format("join returned %zu rows, oracle %zu",
                              got.num_rows(), want_j.num_rows()));
          continue;
        }
        ++rep.passed;
        // The dist round re-runs the same join with the A-side scan routed
        // through the coordinator (JoinSideExec is the seam) and must stay
        // bit-identical.
        if (dist) {
          ++rep.cases;
          sql::SelectQuery jq = sql::parse_select(jc.sql);
          auto exec = [&](int side, const std::string& side_sql) {
            return iequals(jq.tables[static_cast<std::size_t>(side)].table,
                           d.name)
                       ? dist->run(side_sql).merged()
                       : vtb.query(side_sql);
          };
          expr::Table dgot =
              execute_join(jq, vt.plan(), vtb.plan(), exec, nullptr);
          if (rows_equal_exact(dgot, want_j))
            ++rep.passed;
          else
            fail(jc.sql, format("dist-routed join returned %zu rows, "
                                "oracle %zu",
                                dgot.num_rows(), want_j.num_rows()));
        }
      } catch (const std::exception& e) {
        fail(jc.sql, std::string("join phase error: ") + e.what());
      }
    }
  }

  // Teardown (server shutdown, VT destruction) runs disarmed.
  return rep;
}

}  // namespace adv::dq
