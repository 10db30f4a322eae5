// Micro-benchmarks (google-benchmark) supporting the paper's two-phase
// design claim: per-query runtime work — SQL parse, bind, index function —
// is microseconds, while the expensive metadata analysis happens once at
// compile time.
//
// After the microbenches, a multi-AFC scan-throughput section exercises
// the full intra-node extraction pipeline (index -> extract -> partition
// -> ship -> client tables) across io modes (mmap vs pread) and
// threads_per_node, and writes the measurements to BENCH_micro.json so
// the perf trajectory is trackable across PRs.  ADV_THREADS sets the
// parallel worker count (default 4).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "advirt.h"
#include "bench_util.h"
#include "common/tempdir.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "dataset/titan_st.h"
#include "storm/cluster.h"
#include "storm/net.h"

using namespace adv;

namespace {

dataset::IparsConfig micro_cfg() {
  dataset::IparsConfig cfg;
  cfg.nodes = 4;
  cfg.rels = 4;
  cfg.timesteps = 500;
  cfg.grid_per_node = 100;
  cfg.pad_vars = 12;
  return cfg;
}

const std::string& descriptor_text() {
  static std::string text =
      dataset::ipars_descriptor_text(micro_cfg(), dataset::IparsLayout::kL0);
  return text;
}

std::shared_ptr<codegen::DataServicePlan> shared_plan() {
  static auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(descriptor_text()), "IparsData", "/data");
  return plan;
}

const char* kQuery =
    "SELECT * FROM IparsData WHERE REL IN (0, 2) AND TIME >= 100 AND TIME "
    "<= 150 AND SOIL > 0.7";

void BM_DescriptorParse(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(meta::parse_descriptor(descriptor_text()));
}
BENCHMARK(BM_DescriptorParse);

void BM_MetadataCompile(benchmark::State& state) {
  meta::Descriptor d = meta::parse_descriptor(descriptor_text());
  for (auto _ : state) {
    afc::DatasetModel model(d, "IparsData", "/data");
    benchmark::DoNotOptimize(model.files().size());
  }
}
BENCHMARK(BM_MetadataCompile);

void BM_SqlParse(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(sql::parse_select(kQuery));
}
BENCHMARK(BM_SqlParse);

void BM_QueryBind(benchmark::State& state) {
  auto plan = shared_plan();
  for (auto _ : state) benchmark::DoNotOptimize(plan->bind(kQuery));
}
BENCHMARK(BM_QueryBind);

void BM_IndexFunction(benchmark::State& state) {
  auto plan = shared_plan();
  expr::BoundQuery q = plan->bind(kQuery);
  for (auto _ : state) {
    afc::PlanResult pr = plan->index_fn(q);
    benchmark::DoNotOptimize(pr.afcs.size());
  }
}
BENCHMARK(BM_IndexFunction);

void BM_EmitCpp(benchmark::State& state) {
  auto plan = shared_plan();
  for (auto _ : state)
    benchmark::DoNotOptimize(codegen::emit_cpp(plan->model()).size());
}
BENCHMARK(BM_EmitCpp);

void BM_PredicateEval(benchmark::State& state) {
  auto plan = shared_plan();
  expr::BoundQuery q = plan->bind(kQuery);
  std::vector<double> row(q.needed_attrs().size(), 0.5);
  row[0] = 2;    // REL slot
  row[1] = 120;  // TIME slot
  for (auto _ : state) benchmark::DoNotOptimize(q.matches(row.data()));
}
BENCHMARK(BM_PredicateEval);

void BM_RTreeQuery(benchmark::State& state) {
  std::vector<index::RTree::Entry> entries;
  for (uint64_t i = 0; i < 4096; ++i) {
    double x = static_cast<double>(i % 64) * 10;
    double y = static_cast<double>(i / 64) * 10;
    entries.push_back({index::Box({x, y}, {x + 9, y + 9}), i});
  }
  index::RTree tree = index::RTree::build(entries, 2);
  index::Box q({100, 100}, {160, 160});
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    tree.query(q, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_RTreeQuery);

// ---------------------------------------------------------------------------
// Multi-AFC scan throughput.

struct ScanConfig {
  const char* name;
  std::size_t threads_per_node;
  IoMode io_mode;
  KernelMode kernel_mode;
};

std::size_t bench_threads() {
  return static_cast<std::size_t>(env_int("ADV_THREADS", 4));
}

// The four legacy names stay pinned to the interpreter so their committed
// baselines keep meaning across the kernel-engine change; the vector tier
// gets its own entries.  Every par-* config has a seq-* twin —
// scripts/bench_check.sh gates on the pairing (parallel must not lose to
// sequential).
std::vector<ScanConfig> scan_configs() {
  return {
      // the pre-pipeline baseline path
      {"seq-pread", 1, IoMode::kPread, KernelMode::kInterp},
      {"seq-mmap", 1, IoMode::kMmap, KernelMode::kInterp},
      {"par-pread", bench_threads(), IoMode::kPread, KernelMode::kInterp},
      {"par-mmap", bench_threads(), IoMode::kMmap, KernelMode::kInterp},
      {"seq-pread-vector", 1, IoMode::kPread, KernelMode::kVector},
      {"seq-mmap-vector", 1, IoMode::kMmap, KernelMode::kVector},
      {"par-pread-vector", bench_threads(), IoMode::kPread,
       KernelMode::kVector},
      {"par-mmap-vector", bench_threads(), IoMode::kMmap, KernelMode::kVector},
  };
}

void run_scan_throughput(const dataset::GeneratedIpars& gen,
                         bench::JsonRecords& json) {
  std::printf("\n=== multi-AFC scan throughput (BENCH_micro.json) ===\n");
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);

  const std::vector<ScanConfig> configs = scan_configs();
  const char* queries[] = {
      "SELECT * FROM IparsData",
      "SELECT * FROM IparsData WHERE SOIL >= 0.25",
  };

  bench::ResultTable table({"query", "config", "threads", "wall (s)",
                            "rows/s", "MB/s", "identical"});
  for (const char* sql : queries) {
    expr::Table reference;
    for (const ScanConfig& c : configs) {
      storm::ClusterOptions opts;
      opts.threads_per_node = c.threads_per_node;
      opts.io_mode = c.io_mode;
      opts.kernel_mode = c.kernel_mode;
      storm::StormCluster cluster(plan, opts);
      cluster.execute(sql);  // warmup: populate handle cache + page cache
      double wall = 1e300;
      uint64_t rows = 0, bytes = 0;
      expr::Table merged;
      for (int i = 0; i < bench::repeats(); ++i) {
        Stopwatch sw;
        storm::QueryResult r = cluster.execute(sql);
        double t = sw.elapsed_seconds();
        if (t < wall) wall = t;
        rows = r.total_rows();
        bytes = r.total_bytes_read();
        merged = r.merged();
      }
      // Every configuration must produce the same row set as the
      // sequential-pread baseline (sorted comparison).
      bool identical = true;
      if (&c == &configs[0]) reference = merged;
      else identical = merged.same_rows(reference);

      double rows_per_sec = static_cast<double>(rows) / wall;
      double mb_per_sec = static_cast<double>(bytes) / wall / 1e6;
      json.add()
          .field("query", sql)
          .field("config", c.name)
          .field("threads_per_node", static_cast<uint64_t>(c.threads_per_node))
          .field("io_mode", c.io_mode == IoMode::kMmap ? "mmap" : "pread")
          .field("kernel_mode", to_string(c.kernel_mode))
          .field("rows", rows)
          .field("bytes_read", bytes)
          .field("wall_seconds", wall)
          .field("rows_per_sec", rows_per_sec)
          .field("mb_per_sec", mb_per_sec)
          .field("identical_to_baseline", identical);
      table.add_row({sql, c.name, std::to_string(c.threads_per_node),
                     bench::secs(wall), format("%.0f", rows_per_sec),
                     format("%.1f", mb_per_sec), identical ? "yes" : "no"});
    }
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Zone-map pruning: the selective query with and without the sidecar.

void run_zonemap_pruning(const dataset::GeneratedIpars& gen,
                         const std::string& zm_dir,
                         bench::JsonRecords& json) {
  std::printf("\n=== zone-map pruning, SOIL >= 0.9 (BENCH_micro.json) ===\n");
  const char* sql = "SELECT * FROM IparsData WHERE SOIL >= 0.9";

  bench::ResultTable table({"config", "threads", "wall (s)", "rows/s",
                            "bytes read", "bytes skipped", "afcs pruned",
                            "identical"});
  expr::Table reference;
  bool first = true;
  for (bool indexed : {false, true}) {
    for (const ScanConfig& c : scan_configs()) {
      VirtualTable::Options opt;
      opt.cluster.threads_per_node = c.threads_per_node;
      opt.cluster.io_mode = c.io_mode;
      opt.cluster.kernel_mode = c.kernel_mode;
      opt.plan_cache_capacity = 0;  // measure planning every run
      if (indexed) {
        opt.zonemap_dir = zm_dir;   // first open builds + saves, rest load
        opt.build_zonemap = true;
      }
      VirtualTable vt = VirtualTable::open(gen.descriptor_text,
                                           gen.dataset_name, gen.root, opt);
      vt.query_detailed(sql);  // warmup
      double wall = 1e300;
      storm::QueryResult last;
      for (int i = 0; i < bench::repeats(); ++i) {
        Stopwatch sw;
        storm::QueryResult r = vt.query_detailed(sql);
        double t = sw.elapsed_seconds();
        if (t < wall) wall = t;
        last = std::move(r);
      }
      expr::Table merged = last.merged();
      bool identical = true;
      if (first) reference = merged, first = false;
      else identical = merged.same_rows(reference);

      std::string name =
          std::string(indexed ? "zonemap-" : "unindexed-") + c.name;
      double rows_per_sec = static_cast<double>(last.total_rows()) / wall;
      json.add()
          .field("query", sql)
          .field("config", name)
          .field("threads_per_node", static_cast<uint64_t>(c.threads_per_node))
          .field("io_mode", c.io_mode == IoMode::kMmap ? "mmap" : "pread")
          .field("kernel_mode", to_string(c.kernel_mode))
          .field("zonemap", indexed)
          .field("rows", last.total_rows())
          .field("bytes_read", last.total_bytes_read())
          .field("bytes_skipped", last.total_bytes_skipped())
          .field("afcs_pruned", last.total_afcs_pruned())
          .field("rows_pruned", last.total_rows_pruned())
          .field("wall_seconds", wall)
          .field("rows_per_sec", rows_per_sec)
          .field("identical_to_baseline", identical);
      table.add_row({name, std::to_string(c.threads_per_node),
                     bench::secs(wall), format("%.0f", rows_per_sec),
                     human_bytes(last.total_bytes_read()),
                     human_bytes(last.total_bytes_skipped()),
                     std::to_string(last.total_afcs_pruned()),
                     identical ? "yes" : "no"});
    }
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Titan-style spatio-temporal chunk grid (docs/LAYOUTS.md): TIME/LAT/LON
// are implicit structure-loop dimensions, so a selective spatio-temporal
// query prunes whole chunks at plan time, and the zone-map sidecar prunes
// further on the autocorrelated sensors (bytes_skipped > 0 is the
// acceptance check).  Both record families — interleaved rows and the
// column-major array layout — run the same queries.

void run_titan_st(bench::JsonRecords& json) {
  std::printf("\n=== titan spatio-temporal grid (BENCH_micro.json) ===\n");
  dataset::TitanStConfig cfg;
  cfg.nodes = 2;
  cfg.lat_chunks = 4;
  cfg.lon_chunks = 8;
  cfg.timesteps = 24;
  cfg.cells_per_chunk = 256;

  struct TitanQuery {
    const char* label;
    const char* sql;
    bool zonemap;
  };
  const TitanQuery queries[] = {
      {"titanst-fullscan", "SELECT * FROM TitanST", false},
      {"titanst-st-pruned",
       "SELECT * FROM TitanST WHERE TIME BETWEEN 5 AND 8 AND LAT <= 3 "
       "AND LON >= 6",
       false},
      {"titanst-zonemap",
       "SELECT * FROM TitanST WHERE TIME >= 12 AND S1 >= 0.9", true},
  };

  bench::ResultTable table({"query", "layout", "wall (s)", "rows", "MB/s",
                            "bytes read", "bytes skipped", "identical"});
  for (bool colmajor : {false, true}) {
    cfg.colmajor = colmajor;
    TempDir tmp(colmajor ? "bench-titanst-cm" : "bench-titanst-rm");
    auto gen = dataset::generate_titan_st(cfg, tmp.str());
    const char* layout = colmajor ? "colmajor" : "rowmajor";

    for (const TitanQuery& tq : queries) {
      VirtualTable::Options opt;
      opt.cluster.threads_per_node = bench_threads();
      opt.plan_cache_capacity = 0;
      if (tq.zonemap) {
        opt.zonemap_dir = tmp.str() + "/.zm";
        opt.build_zonemap = true;
      }
      VirtualTable vt = VirtualTable::open(gen.descriptor_text,
                                           gen.dataset_name, gen.root, opt);
      vt.query_detailed(tq.sql);  // warmup
      double wall = 1e300;
      storm::QueryResult last;
      for (int i = 0; i < bench::repeats(); ++i) {
        Stopwatch sw;
        storm::QueryResult r = vt.query_detailed(tq.sql);
        double t = sw.elapsed_seconds();
        if (t < wall) wall = t;
        last = std::move(r);
      }
      // The layout families must agree with the brute-force oracle.
      expr::BoundQuery q = vt.plan().bind(tq.sql);
      bool identical =
          last.merged().same_rows(dataset::titan_st_oracle(cfg, q));

      double mb_per_sec =
          static_cast<double>(last.total_bytes_read()) / wall / 1e6;
      json.add()
          .field("query", tq.sql)
          .field("config", std::string(tq.label) + "-" + layout)
          .field("threads_per_node", static_cast<uint64_t>(bench_threads()))
          .field("layout", layout)
          .field("zonemap", tq.zonemap)
          .field("rows", last.total_rows())
          .field("bytes_read", last.total_bytes_read())
          .field("bytes_skipped", last.total_bytes_skipped())
          .field("afcs_pruned", last.total_afcs_pruned())
          .field("rows_pruned", last.total_rows_pruned())
          .field("wall_seconds", wall)
          .field("rows_per_sec", static_cast<double>(last.total_rows()) / wall)
          .field("mb_per_sec", mb_per_sec)
          .field("identical_to_baseline", identical);
      table.add_row({tq.label, layout, bench::secs(wall),
                     std::to_string(last.total_rows()),
                     format("%.1f", mb_per_sec),
                     human_bytes(last.total_bytes_read()),
                     human_bytes(last.total_bytes_skipped()),
                     identical ? "yes" : "no"});
    }
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Plan cache: repeated-query latency with and without cached per-node plans.

void run_plan_cache(const dataset::GeneratedIpars& gen,
                    const std::string& zm_dir, bench::JsonRecords& json) {
  std::printf("\n=== plan cache, repeated query (BENCH_micro.json) ===\n");
  const char* sql = "SELECT * FROM IparsData WHERE SOIL >= 0.9";

  bench::ResultTable table(
      {"config", "wall (s)", "rows/s", "cache hits", "identical"});
  expr::Table reference;
  for (bool cached : {false, true}) {
    VirtualTable::Options opt;
    opt.cluster.threads_per_node = bench_threads();
    opt.zonemap_dir = zm_dir;  // plan with the chunk filter: realistic cost
    opt.build_zonemap = true;
    opt.plan_cache_capacity = cached ? 16 : 0;
    VirtualTable vt = VirtualTable::open(gen.descriptor_text,
                                         gen.dataset_name, gen.root, opt);
    vt.query_detailed(sql);  // warmup; with the cache this is the cold miss
    double wall = 1e300;
    storm::QueryResult last;
    for (int i = 0; i < bench::repeats(); ++i) {
      Stopwatch sw;
      storm::QueryResult r = vt.query_detailed(sql);
      double t = sw.elapsed_seconds();
      if (t < wall) wall = t;
      last = std::move(r);
    }
    expr::Table merged = last.merged();
    bool identical = true;
    if (!cached) reference = merged;
    else identical = merged.same_rows(reference);

    const char* name = cached ? "plancache-hit" : "plancache-off";
    double rows_per_sec = static_cast<double>(last.total_rows()) / wall;
    json.add()
        .field("query", sql)
        .field("config", name)
        .field("threads_per_node",
               static_cast<uint64_t>(bench_threads()))
        .field("plan_cache_hits", vt.plan_cache_stats().hits)
        .field("rows", last.total_rows())
        .field("bytes_read", last.total_bytes_read())
        .field("wall_seconds", wall)
        .field("rows_per_sec", rows_per_sec)
        .field("identical_to_baseline", identical);
    table.add_row({name, bench::secs(wall), format("%.0f", rows_per_sec),
                   std::to_string(vt.plan_cache_stats().hits),
                   identical ? "yes" : "no"});
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Aggregation pushdown (docs/AGGREGATION.md): GROUP BY / top-k evaluated
// inside the extraction workers, with only aggregate state crossing the
// node boundary.  One query per adaptive strategy — dense (loop-attr key),
// radix (high-cardinality payload key), grouped top-k, and the plain
// bounded-heap top-k — each across sequential/parallel and both kernel loops.
// bytes_shipped is what actually crossed the node boundary; ship_reduction
// compares it against the row bytes a scan-then-aggregate-client would
// have shipped for the same matched rows.

void run_agg_pushdown(const dataset::GeneratedIpars& gen,
                      bench::JsonRecords& json) {
  std::printf("\n=== aggregation pushdown (BENCH_micro.json) ===\n");
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);

  struct AggBench {
    const char* label;
    const char* sql;
  };
  const AggBench benches[] = {
      {"dense-group",
       "SELECT TIME, COUNT(*), SUM(SOIL), AVG(SGAS) FROM IparsData "
       "GROUP BY TIME"},
      {"high-cardinality",
       "SELECT SOIL, COUNT(*), MAX(SGAS) FROM IparsData WHERE TIME <= 100 "
       "GROUP BY SOIL"},
      {"grouped-topk",
       "SELECT TIME, SUM(SOIL) FROM IparsData GROUP BY TIME "
       "ORDER BY SUM(SOIL) DESC LIMIT 10"},
      {"plain-topk",
       "SELECT * FROM IparsData ORDER BY SGAS DESC LIMIT 100"},
  };
  const std::vector<ScanConfig> configs = {
      {"seq-mmap", 1, IoMode::kMmap, KernelMode::kInterp},
      {"par-mmap", bench_threads(), IoMode::kMmap, KernelMode::kInterp},
      {"par-mmap-vector", bench_threads(), IoMode::kMmap,
       KernelMode::kVector},
  };

  bench::ResultTable table({"query", "config", "threads", "wall (s)",
                            "rows/s", "groups", "shipped", "reduction",
                            "strategy", "identical"});
  for (const AggBench& b : benches) {
    expr::Table reference;
    bool first = true;
    for (const ScanConfig& c : configs) {
      storm::ClusterOptions opts;
      opts.threads_per_node = c.threads_per_node;
      opts.io_mode = c.io_mode;
      opts.kernel_mode = c.kernel_mode;
      storm::StormCluster cluster(plan, opts);
      cluster.execute(b.sql);  // warmup
      double wall = 1e300;
      storm::QueryResult last;
      for (int i = 0; i < bench::repeats(); ++i) {
        Stopwatch sw;
        storm::QueryResult r = cluster.execute(b.sql);
        double t = sw.elapsed_seconds();
        if (t < wall) wall = t;
        last = std::move(r);
      }
      expr::Table merged = last.merged();
      // The engine's own backends are bit-identical for aggregates, so
      // every config must reproduce the first config's table exactly.
      bool identical = true;
      if (first) reference = merged, first = false;
      else identical = merged.same_rows(reference);

      uint64_t rows_scanned = 0, rows_matched = 0, shipped = 0;
      uint64_t dense = 0, hash = 0, radix = 0;
      for (const auto& ns : last.node_stats) {
        rows_scanned += ns.rows_scanned;
        rows_matched += ns.rows_matched;
        shipped += ns.bytes_sent;
        dense += ns.agg_dense;
        hash += ns.agg_hash;
        radix += ns.agg_radix;
      }
      const uint64_t groups = last.total_groups_emitted();
      // What a scan-then-aggregate-at-client design ships for the same
      // matched rows (the scan columns the workers folded from).
      const uint64_t scan_cols =
          plan->bind(b.sql).select_slots().size();
      const uint64_t row_bytes = rows_matched * scan_cols * sizeof(double);
      const double reduction =
          shipped ? static_cast<double>(row_bytes) /
                        static_cast<double>(shipped)
                  : 0.0;
      std::string strategy;
      if (dense) strategy += format("dense:%llu ",
                                    static_cast<unsigned long long>(dense));
      if (hash) strategy += format("hash:%llu ",
                                   static_cast<unsigned long long>(hash));
      if (radix) strategy += format("radix:%llu ",
                                    static_cast<unsigned long long>(radix));
      if (strategy.empty()) strategy = "topk ";
      strategy.pop_back();

      double rows_per_sec = static_cast<double>(rows_scanned) / wall;
      json.add()
          .field("query", b.sql)
          .field("config", std::string("agg-") + b.label + "-" + c.name)
          .field("threads_per_node",
                 static_cast<uint64_t>(c.threads_per_node))
          .field("kernel_mode", to_string(c.kernel_mode))
          .field("rows_scanned", rows_scanned)
          .field("rows_matched", rows_matched)
          .field("groups_emitted", groups)
          .field("bytes_shipped", shipped)
          .field("agg_bytes_shipped", last.total_agg_bytes_shipped())
          .field("row_bytes_equivalent", row_bytes)
          .field("ship_reduction", reduction)
          .field("agg_dense", dense)
          .field("agg_hash", hash)
          .field("agg_radix", radix)
          .field("wall_seconds", wall)
          .field("rows_per_sec", rows_per_sec)
          .field("identical_to_baseline", identical);
      table.add_row({b.label, c.name, std::to_string(c.threads_per_node),
                     bench::secs(wall), format("%.0f", rows_per_sec),
                     std::to_string(groups), human_bytes(shipped),
                     format("%.0fx", reduction), strategy,
                     identical ? "yes" : "no"});
    }
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Served queries per second: the full TCP + admission-scheduler path.
// Closed-loop clients hammer one QueryServer; every response is checked
// against a direct cluster execution of the same query.

void run_served_qps(const dataset::GeneratedIpars& gen,
                    bench::JsonRecords& json) {
  std::printf("\n=== served queries/s, admission path (BENCH_micro.json) ===\n");
  const char* sql = "SELECT * FROM IparsData WHERE SOIL >= 0.9";
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  storm::ClusterOptions copts;
  copts.threads_per_node = bench_threads();

  // Baseline: the identical query executed directly on a cluster.
  expr::Table reference;
  {
    storm::StormCluster cluster(plan, copts);
    reference = cluster.execute(sql).merged();
  }

  const std::size_t kClients = 8, kPerClient = 3;
  sched::SchedulerOptions sopts;
  sopts.max_concurrent_queries = 4;
  sopts.max_queue_depth = 2 * kClients;  // closed loop never overflows it
  storm::QueryServer server(plan, copts, 0, nullptr, sopts);

  storm::QueryClient warm("127.0.0.1", server.port());
  warm.execute(sql);  // warmup: page cache + handle cache

  std::atomic<bool> all_identical{true};
  Stopwatch sw;
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      storm::QueryClient client("127.0.0.1", server.port());
      for (std::size_t q = 0; q < kPerClient; ++q) {
        storm::RemoteResult r = client.execute(sql);
        if (!r.merged().same_rows(reference)) all_identical.store(false);
      }
    });
  }
  for (auto& t : clients) t.join();
  double wall = sw.elapsed_seconds();

  const uint64_t total = kClients * kPerClient;
  double qps = static_cast<double>(total) / wall;
  sched::SchedulerMetrics m = server.scheduler_metrics();
  json.add()
      .field("query", sql)
      .field("config", "served-8clients-4slots")
      .field("clients", static_cast<uint64_t>(kClients))
      .field("max_concurrent_queries",
             static_cast<uint64_t>(sopts.max_concurrent_queries))
      .field("queries", total)
      .field("wall_seconds", wall)
      .field("queries_per_sec", qps)
      .field("peak_running", static_cast<uint64_t>(m.peak_running))
      .field("peak_queue_depth", static_cast<uint64_t>(m.peak_queue_depth))
      .field("identical_to_baseline", all_identical.load());

  bench::ResultTable table({"config", "clients", "slots", "queries",
                            "wall (s)", "queries/s", "peak run", "identical"});
  table.add_row({"served-8clients-4slots", std::to_string(kClients), "4",
                 std::to_string(total), bench::secs(wall),
                 format("%.1f", qps), std::to_string(m.peak_running),
                 all_identical.load() ? "yes" : "no"});
  table.print();
}

// Serving layer: the same admission path with the result cache on
// (docs/SERVING.md §6).  "serving-cold-unique" sends a distinct query
// every time — every one misses, measuring the full parse + version +
// execute + insert path.  "serving-hot-cached" hammers one query — after
// the first miss every request replays the stored frames.  The hot path
// is the product claim (a dashboard refresh must not rescan), so its
// entry carries the speedup and a correctness bit; bench_check.sh gates
// both configs' queries_per_sec like any other section.
void run_serving_cache(const dataset::GeneratedIpars& gen,
                       bench::JsonRecords& json) {
  std::printf("\n=== serving: result cache cold vs hot (BENCH_micro.json) ===\n");
  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  storm::ClusterOptions copts;
  copts.threads_per_node = bench_threads();
  sched::SchedulerOptions sopts;
  sopts.max_concurrent_queries = 4;
  sopts.max_queue_depth = 64;
  serve::ServeOptions vsopts;
  vsopts.enable_result_cache = true;
  storm::QueryServer server(plan, copts, 0, nullptr, sopts, vsopts);

  // The dashboard query: a full unindexed scan (no zone map on this
  // server) returning ~2.5% of the rows.  Cold requests vary the TIME
  // floor so every one is a distinct key (a genuine re-scan); the hot
  // mode repeats the exact query, so after one miss every request
  // replays stored frames — extraction cost goes to zero and only the
  // connection + shipping path remains.
  const char* hot_sql =
      "SELECT * FROM IparsData WHERE SOIL >= 0.9 AND TIME >= 250";
  expr::Table reference;
  {
    storm::QueryClient warm("127.0.0.1", server.port());
    reference = warm.execute(hot_sql).merged();  // also seeds the cache
  }

  const std::size_t kClients = 4;
  struct Mode {
    const char* config;
    bool unique;      // distinct SQL per request (always a cache miss)
    std::size_t per_client;
  };
  const Mode modes[] = {
      {"serving-cold-unique", true, 6},
      {"serving-hot-cached", false, 100},
  };

  double cold_qps = 0;
  bench::ResultTable table({"config", "queries", "queries/s", "p50 (ms)",
                            "p99 (ms)", "p999 (ms)", "hit rate",
                            "identical"});
  for (const Mode& mode : modes) {
    serve::ResultCache::Stats before = server.result_cache_stats();
    std::vector<std::vector<double>> lat(kClients);
    std::atomic<bool> all_identical{true};
    Stopwatch sw;
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        storm::QueryClient client("127.0.0.1", server.port());
        for (std::size_t q = 0; q < mode.per_client; ++q) {
          std::string sql =
              mode.unique
                  ? format("SELECT * FROM IparsData WHERE SOIL >= 0.9 "
                           "AND TIME >= %zu",
                           100 + i * mode.per_client + q)
                  : std::string(hot_sql);
          Stopwatch one;
          storm::RemoteResult r = client.execute(sql);
          lat[i].push_back(one.elapsed_seconds());
          if (!mode.unique && !r.merged().same_rows(reference))
            all_identical.store(false);
        }
      });
    }
    for (auto& t : clients) t.join();
    double wall = sw.elapsed_seconds();

    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    auto pct = [&](double q) {
      std::size_t idx = static_cast<std::size_t>(q * (all.size() - 1));
      return all[idx] * 1e3;  // ms
    };
    const uint64_t total = kClients * mode.per_client;
    double qps = static_cast<double>(total) / wall;
    if (mode.unique) cold_qps = qps;

    serve::ResultCache::Stats st = server.result_cache_stats();
    uint64_t lookups = st.lookups - before.lookups;
    uint64_t hits = st.hits - before.hits;
    double hit_rate =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;

    auto& rec = json.add()
                    .field("query", mode.unique ? "unique-per-request" : hot_sql)
                    .field("config", mode.config)
                    .field("clients", static_cast<uint64_t>(kClients))
                    .field("queries", total)
                    .field("wall_seconds", wall)
                    .field("queries_per_sec", qps)
                    .field("p50_ms", pct(0.50))
                    .field("p99_ms", pct(0.99))
                    .field("p999_ms", pct(0.999))
                    .field("cache_hit_rate", hit_rate)
                    .field("identical_to_baseline", all_identical.load());
    if (!mode.unique && cold_qps > 0)
      rec.field("speedup_vs_cold", qps / cold_qps);

    table.add_row({mode.config, std::to_string(total), format("%.1f", qps),
                   format("%.2f", pct(0.50)), format("%.2f", pct(0.99)),
                   format("%.2f", pct(0.999)), format("%.2f", hit_rate),
                   all_identical.load() ? "yes" : "no"});
  }
  table.print();
  if (cold_qps > 0)
    std::printf("hot/cold speedup: the serving acceptance target is >= 10x\n");
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  TempDir tmp("bench-micro-scan");
  auto gen = dataset::generate_ipars(micro_cfg(), dataset::IparsLayout::kL0,
                                     tmp.str());
  std::string zm_dir = tmp.str() + "/.zm";
  bench::JsonRecords json;
  run_scan_throughput(gen, json);
  run_zonemap_pruning(gen, zm_dir, json);
  run_titan_st(json);
  run_plan_cache(gen, zm_dir, json);
  run_agg_pushdown(gen, json);
  run_served_qps(gen, json);
  run_serving_cache(gen, json);
  json.write("micro");
  return 0;
}
