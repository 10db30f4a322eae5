// perfbench — one workload per process, end-to-end metrics by default,
// per-layer metrics with --trace 1.  See ../README.md.
//
//   perfbench --workload export|aggregate|served --seed N --seconds S
//             --trace 0|1 --data-dir DIR --trace-dir DIR
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "metadata/model.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Never used while writing a change; reserved for validating a claim.
constexpr uint64_t kHeldOutSeed = 8191;

// Set-ups per run: at least kMinSetups and kMinSetupSeconds of them;
// setup_s is their median.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 0.5;

// The ROADMAP probe set: 4 nodes x 4 RELs x 500 timesteps x 100 grid
// points, 17 variables, 800k rows, 64 MB.
adv::dataset::IparsConfig dataset_config(uint64_t seed) {
  adv::dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 4;
  cfg.timesteps = 500;
  cfg.grid_per_node = 100;
  cfg.pad_vars = 12;
  cfg.seed = seed;
  return cfg;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data-dir") a.data_dir = v;
    else if (k == "--trace-dir") a.trace_dir = v;
    else return false;
  }
  return (argc % 2 == 1) && !a.workload.empty() && !a.data_dir.empty() &&
         a.seconds > 0;
}

Metrics end_to_end(const LoopStats& st, double setup_s, double rss_mb,
                   bool concurrent) {
  const double n = static_cast<double>(st.latency_s.size());
  // One client: throughput over the time spent inside calls.  Several
  // clients: over the wall time of the loop.
  const double busy = concurrent ? st.wall_s : sum(st.latency_s);
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", quantile(st.latency_s, 0.5) * 1e3, "ms"},
      {"latency_p90_ms", quantile(st.latency_s, 0.9) * 1e3, "ms"},
      {"result_rows_per_s", static_cast<double>(st.result_rows) / busy, "rows/s"},
      {"scanned_rows_per_s", static_cast<double>(st.scanned_rows) / busy,
       "rows/s"},
      {"queries_per_s", n / busy, "1/s"},
      {"cpu_ms_per_query", st.cpu_s / n * 1e3, "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

void print_result(const Args& args, uint64_t attempted, uint64_t failed,
                  const Metrics& metrics) {
  for (const Metric& m : metrics)
    if (!std::isfinite(m.value))
      throw adv::InternalError("metric " + m.name + " is not finite");
  std::printf("perfbench: workload=%s seed=%llu held_out_seed=%llu "
              "attempted=%llu failed=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kHeldOutSeed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const Metric& m : metrics)
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// Checks the benchmark's row-query reference evaluator against a direct
// run of the naive oracle.
void self_check(const adv::codegen::DataServicePlan& plan,
                const std::vector<QueryPtr>& queries) {
  for (const QueryPtr& q : queries)
    if (!answer_ok(*q, {plan.execute(q->sql)}))
      throw adv::InternalError("reference evaluator disagrees with the "
                               "oracle on: " + q->sql);
}

template <class Setup>
double median_setup(Setup&& once) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < kMinSetups || now_s() - start < kMinSetupSeconds)
    t.push_back(once());
  return median(t);
}

// Writes the generated files to disk before anything is timed: left to
// background writeback, the flush lands inside the timed loop and slowed
// some runs by a third.
void flush_files(const std::string& dir) {
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

// Logs how long the phase that just ended took and restarts the clock.
void phase(const char* what, double& since) {
  std::fprintf(stderr, "perfbench: %-20s %.3f s\n", what, now_s() - since);
  since = now_s();
}

int run(const Args& args) {
  const bool aggregate = args.workload == "aggregate";
  const bool served = args.workload == "served";
  if (!aggregate && !served && args.workload != "export")
    throw adv::QueryError("unknown workload '" + args.workload + "'");
  const adv::dataset::IparsConfig cfg = dataset_config(args.seed);
  std::filesystem::create_directories(args.data_dir);
  double since = now_s();
  const adv::dataset::GeneratedIpars gen = adv::dataset::generate_ipars(
      cfg, aggregate ? adv::dataset::IparsLayout::kI
                     : adv::dataset::IparsLayout::kL0,
      args.data_dir + "/ds");
  flush_files(args.data_dir);
  phase("dataset generated", since);
  adv::SplitMix64 rng(adv::hash_combine(args.seed, 0x71756572ULL));
  Thresholds th(cfg);

  TraceContext ctx;
  ctx.args = &args;
  ctx.gen = &gen;
  ctx.probe_dir = args.data_dir + "/zm-probe";
  if (args.trace) std::filesystem::create_directories(args.trace_dir);

  if (served) {
    Served srv;
    const double setup_s = median_setup([&] {
      srv.server.reset();  // before the zone map it filters with
      srv = Served{};
      return timed([&] { srv = start_server(gen, args.data_dir + "/zm"); });
    });
    flush_files(args.data_dir);  // the zone-map sidecar each set-up saved
    phase("set-ups", since);
    // Every L0 AFC is one (node, REL, TIME) chunk of grid_per_node rows.
    const uint64_t rows_per_afc = static_cast<uint64_t>(cfg.grid_per_node);
    for (const auto& pr : adv::storm::StormCluster(srv.plan).plan_nodes(
             srv.plan->bind("SELECT * FROM IparsData")))
      for (const auto& a : pr.afcs)
        if (a.num_rows != rows_per_afc)
          throw adv::InternalError("unexpected AFC size on L0");
    ServedMix mix;
    {
      RowOracle ro(*srv.plan, cfg.timesteps);
      AggOracle ao(srv.plan);
      mix = served_queries(rng, ro, ao, th, cfg.timesteps, kServedClients,
                           static_cast<std::size_t>(600 * args.seconds));
      self_check(*srv.plan, {mix.hot[0], mix.hot[4], mix.unique[0][0]});
    }
    phase("references", since);
    adv::storm::QueryClient warm("127.0.0.1", srv.server->port());
    uint64_t warm_failed = 0;
    for (const auto& list : {mix.hot, mix.small_aggs})
      for (const QueryPtr& q : list)
        if (!answer_ok(*q, warm.execute(q->sql, q->partition).partitions))
          ++warm_failed;
    if (warm_failed) throw adv::InternalError("wrong answer during warm-up");
    phase("warm-up", since);
    if (args.trace) {
      const RunResult r = traced_served(ctx, srv, mix, rows_per_afc);
      print_result(args, r.attempted, r.failed, r.metrics);
      return 0;
    }
    reset_peak_rss();
    const LoopStats st = served_loop(srv.server->port(), mix, args.seed,
                                     args.seconds, rows_per_afc, nullptr);
    print_result(args, st.attempted, st.failed(),
                 end_to_end(st, setup_s, peak_rss_mb(), true));
    return 0;
  }

  adv::VirtualTable::Options opts;
  opts.cluster = cluster_options();
  opts.build_zonemap = !aggregate;  // export: zone map built at open
  std::optional<adv::VirtualTable> vt;
  const double setup_s = median_setup([&] {
    vt.reset();
    return timed([&] {
      vt.emplace(adv::VirtualTable::open(gen.descriptor_text, gen.dataset_name,
                                         gen.root, opts));
    });
  });
  phase("set-ups", since);

  std::vector<QueryPtr> pool;
  std::size_t cursor = 0;
  adv::SplitMix64 picks(adv::hash_combine(args.seed, 0x7069636bULL));
  if (aggregate) {
    AggOracle ao(std::make_shared<adv::codegen::DataServicePlan>(
        adv::meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
        gen.root));
    pool = aggregate_queries(rng, ao, th, cfg.timesteps);
    // Shuffled rounds: every query of the pool once per round.
    ctx.next = [&] {
      if (cursor % pool.size() == 0)
        for (std::size_t i = pool.size() - 1; i > 0; --i)
          std::swap(pool[i], pool[picks.next_below(i + 1)]);
      return pool[cursor++ % pool.size()];
    };
  } else {
    // Nearly every export query is distinct, so most miss the plan cache
    // and pay planning, chunk filter included.
    RowOracle ro(vt->plan(), cfg.timesteps);
    pool = export_queries(rng, ro, th,
                          static_cast<std::size_t>(40 * args.seconds) + 16);
    self_check(vt->plan(), {pool[0], pool[1]});  // one of each class
    ctx.next = [&] { return pool[cursor++ % pool.size()]; };
    for (const char* sql :
         {"SELECT TIME, COUNT(*), SUM(SOIL), AVG(SGAS) FROM IparsData "
          "GROUP BY TIME",
          "SELECT REL, COUNT(*), MAX(SOIL) FROM IparsData WHERE SGAS >= 0.5 "
          "GROUP BY REL"}) {
      auto q = std::make_shared<Query>();
      q->sql = sql;
      q->cls = "agg_probe";
      q->checked = false;
      ctx.agg_probe.push_back(q);
    }
  }
  phase("references", since);
  // Warm-up, untimed: the extraction pool's lazy start, the plan cache on
  // `aggregate` (its whole pool fits), and the page cache.
  const std::size_t warm = aggregate ? pool.size() : 2;
  for (std::size_t i = pool.size() - warm; i < pool.size(); ++i)
    vt->query_detailed(pool[i]->sql, pool[i]->partition);
  phase("warm-up", since);

  if (args.trace) {
    const RunResult r = traced_inprocess(ctx, *vt);
    print_result(args, r.attempted, r.failed, r.metrics);
    return 0;
  }
  reset_peak_rss();
  const LoopStats st = inprocess_loop(*vt, ctx.next, args.seconds);
  print_result(args, st.attempted, st.failed(),
               end_to_end(st, setup_s, peak_rss_mb(), false));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process.  With glibc's defaults every large
  // result buffer is a fresh mmap whose page faults cost 1.5-2x more in one
  // run than the next on a shared host, which swamped every other effect.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload export|aggregate|served "
                 "--seed N --seconds S --trace 0|1 --data-dir DIR "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  if (args.trace_dir.empty()) args.trace_dir = args.data_dir + "/trace";
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
