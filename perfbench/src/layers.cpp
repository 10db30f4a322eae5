// The traced run: the workload's own queries, each followed by sibling
// calls into every layer it passed through, plus probes of layers the
// workload's path does not touch.  All timing is done here, around public
// calls into each module; nothing inside src/ is instrumented.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>

#include "agg/agg.h"
#include "codegen/extractor.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "kernels/batch.h"
#include "metadata/model.h"
#include "serve/data_version.h"
#include "sql/ast.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Per-layer metric names and units, in output order.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"metadata.parse_ms", "ms"},
    {"afc.model_ms", "ms"},
    {"afc.plan_ms", "ms"},
    {"afc.afcs_per_query", "count"},
    {"zonemap.build_ms", "ms"},
    {"zonemap.save_ms", "ms"},
    {"zonemap.load_ms", "ms"},
    {"zonemap.filter_ms", "ms"},
    {"zonemap.afcs_pruned_frac", "fraction"},
    {"zonemap.afcs_base_per_query", "count"},
    {"zonemap.bytes_skipped_frac", "fraction"},
    {"zonemap.bytes_base_per_query", "bytes"},
    {"sql.parse_us", "us"},
    {"codegen.bind_us", "us"},
    {"codegen.extract_rows_per_s", "rows/s"},
    {"codegen.extract_bytes_per_s", "B/s"},
    {"kernels.decode_gb_per_s", "GB/s"},
    {"kernels.mask_gb_per_s", "GB/s"},
    {"kernels.memcpy_gb_per_s", "GB/s"},
    {"storm.stream_ms", "ms"},
    {"storm.execute_ms", "ms"},
    {"storm.assemble_ms", "ms"},
    {"storm.assemble_share", "fraction"},
    {"storm.bytes_sent_per_query", "bytes"},
    {"storm.node_busy_skew", "ratio"},
    {"agg.fold_rows_per_s", "rows/s"},
    {"agg.merge_ms", "ms"},
    {"agg.state_bytes_per_query", "bytes"},
    {"agg.groups_per_query", "count"},
    {"agg.dense", "count"},
    {"agg.hash", "count"},
    {"agg.radix", "count"},
    {"net.client_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"sched.queue_wait_p50_ms", "ms"},
    {"sched.queue_wait_p90_ms", "ms"},
    {"sched.run_ms", "ms"},
    {"sched.rejected", "count"},
    {"serve.result_hit_rate", "fraction"},
    {"serve.result_lookups", "count"},
    {"serve.plan_hit_rate", "fraction"},
    {"serve.plan_lookups", "count"},
    {"serve.coalesced", "count"},
    {"serve.version_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "fraction"},
};

using Values = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Accumulated over the decomposed queries.
struct Layers {
  std::vector<double> parse_s, bind_s, plan_s, filter_s, stream_s, execute_s,
      assemble_s, merge_s;
  uint64_t queries = 0;
  uint64_t afcs = 0;
  uint64_t afcs_unfiltered = 0, afcs_filtered = 0;
  uint64_t bytes_unfiltered = 0, bytes_filtered = 0;
  double extract_s = 0;
  uint64_t extract_rows = 0, extract_bytes = 0;
  double bytes_sent = 0, busy_skew = 0;
  uint64_t agg_queries = 0;
  double fold_s = 0;
  uint64_t fold_rows = 0;
  uint64_t state_bytes = 0, groups = 0, dense = 0, hash = 0, radix = 0;

  void finish(Values& m) const {
    const double n = static_cast<double>(std::max<uint64_t>(queries, 1));
    const double na = static_cast<double>(std::max<uint64_t>(agg_queries, 1));
    m["afc.plan_ms"] = median(plan_s) * 1e3;
    m["afc.afcs_per_query"] = static_cast<double>(afcs) / n;
    m["zonemap.filter_ms"] = median(filter_s) * 1e3;
    m["zonemap.afcs_pruned_frac"] =
        ratio(static_cast<double>(afcs_unfiltered - afcs_filtered),
              static_cast<double>(afcs_unfiltered));
    m["zonemap.afcs_base_per_query"] = static_cast<double>(afcs_unfiltered) / n;
    m["zonemap.bytes_skipped_frac"] =
        ratio(static_cast<double>(bytes_unfiltered - bytes_filtered),
              static_cast<double>(bytes_unfiltered));
    m["zonemap.bytes_base_per_query"] =
        static_cast<double>(bytes_unfiltered) / n;
    m["sql.parse_us"] = median(parse_s) * 1e6;
    m["codegen.bind_us"] = median(bind_s) * 1e6;
    m["codegen.extract_rows_per_s"] =
        ratio(static_cast<double>(extract_rows), extract_s);
    m["codegen.extract_bytes_per_s"] =
        ratio(static_cast<double>(extract_bytes), extract_s);
    m["storm.stream_ms"] = median(stream_s) * 1e3;
    m["storm.execute_ms"] = median(execute_s) * 1e3;
    m["storm.assemble_ms"] = median(assemble_s) * 1e3;
    m["storm.assemble_share"] = ratio(sum(assemble_s), sum(execute_s));
    m["storm.bytes_sent_per_query"] = bytes_sent / n;
    m["storm.node_busy_skew"] = busy_skew / n;
    m["agg.fold_rows_per_s"] = ratio(static_cast<double>(fold_rows), fold_s);
    m["agg.merge_ms"] = median(merge_s) * 1e3;
    m["agg.state_bytes_per_query"] = static_cast<double>(state_bytes) / na;
    m["agg.groups_per_query"] = static_cast<double>(groups) / na;
    m["agg.dense"] = static_cast<double>(dense) / na;
    m["agg.hash"] = static_cast<double>(hash) / na;
    m["agg.radix"] = static_cast<double>(radix) / na;
  }
};

class CountingSink final : public adv::codegen::RowSink {
 public:
  void on_row(const double*, uint64_t) override { ++rows; }
  void on_rows(const double*, std::size_t, std::size_t n,
               const uint64_t*) override {
    rows += n;
  }
  uint64_t rows = 0;
};

class BufferSink final : public adv::codegen::RowSink {
 public:
  explicit BufferSink(std::size_t ncols) : ncols(ncols) {}
  void on_row(const double* v, uint64_t) override {
    rows.insert(rows.end(), v, v + ncols);
  }
  std::size_t ncols;
  std::vector<double> rows;  // row-major
};

// One Extractor, one thread, over every AFC of `plans`.
adv::codegen::ExtractStats extract_plans(
    const std::vector<adv::afc::PlanResult>& plans,
    const adv::expr::BoundQuery& q, const adv::meta::Schema& schema,
    adv::codegen::RowSink& sink) {
  adv::codegen::Extractor ex;
  adv::codegen::ExtractStats st;
  for (const auto& pr : plans) {
    std::vector<adv::codegen::GroupBinding> bindings;
    for (const auto& g : pr.groups)
      bindings.push_back(adv::codegen::bind_group(g, q, schema));
    for (const auto& a : pr.afcs) {
      const auto g = static_cast<std::size_t>(a.group);
      st += ex.extract(pr.groups[g], a, bindings[g], q, sink);
    }
  }
  return st;
}

// agg.fold: PushdownSink::on_rows over each node's buffered extracted rows,
// in kernel-sized batches; agg.merge: MergeAcc over the node states.
void agg_layers(const adv::expr::BoundQuery& q,
                const std::vector<adv::afc::PlanResult>& plans,
                const adv::meta::Schema& schema, uint64_t qid,
                const std::string& cls, Trace& tr, Layers& L) {
  const std::size_t ncols = q.select_slots().size();
  std::vector<std::string> states;
  double fold_s = 0;
  const double fold_start = now_s();
  for (const auto& pr : plans) {
    BufferSink buf(ncols);
    extract_plans({pr}, q, schema, buf);
    const std::size_t n = ncols ? buf.rows.size() / ncols : 0;
    std::vector<uint64_t> seq(n);
    std::iota(seq.begin(), seq.end(), 0);
    adv::agg::PushdownSink ps(q, adv::agg::choose_strategy(q, pr, nullptr));
    fold_s += timed([&] {
      ps.begin_afc();
      for (std::size_t i = 0; i < n; i += 4096)
        ps.on_rows(buf.rows.data() + i * ncols, ncols,
                   std::min<std::size_t>(4096, n - i), seq.data() + i);
      ps.finish();
    });
    L.fold_rows += n;
    states.emplace_back();
    ps.encode(states.back());
    L.state_bytes += states.back().size();
  }
  tr.add(Span{qid, "agg.fold", "query", cls, fold_start, fold_s, true});
  L.fold_s += fold_s;
  adv::agg::MergeAcc acc(adv::agg::finalize_spec(q));
  L.merge_s.push_back(record(
      tr, qid, "agg.merge", "query", cls,
      [&] {
        for (const auto& s : states) acc.merge_encoded(s);
        acc.finalize_rows();
      },
      true));
  L.groups += acc.ngroups();
  ++L.agg_queries;
}

void throw_on_node_error(const adv::storm::QueryResult& r) {
  if (!r.first_error().empty())
    throw adv::QueryError("node error: " + r.first_error());
}

// Re-runs one query as sibling calls into each layer.  `path_filter` is the
// chunk filter the measured path plans with (null: unfiltered); `zonemap`
// is the one filtered planning is measured with.  On a plan-cache hit the
// root never bound or planned, so those spans are probes.
void decompose(const Query& q, const adv::codegen::DataServicePlan& plan,
               adv::storm::StormCluster& cluster,
               const adv::afc::ChunkFilter* path_filter,
               const adv::afc::ChunkFilter* zonemap, bool miss, uint64_t qid,
               Trace& tr, Layers& L) {
  const std::string& cls = q.cls;
  L.parse_s.push_back(record(tr, qid, "sql.parse", "query", cls,
                             [&] { adv::sql::parse_select(q.sql); }));
  std::optional<adv::expr::BoundQuery> bq;
  L.bind_s.push_back(record(
      tr, qid, "codegen.bind", "query", cls,
      [&] { bq.emplace(plan.bind(q.sql)); }, !miss));

  std::vector<adv::afc::PlanResult> unfiltered, filtered;
  double t_unf = 0, t_f = 0;
  if (path_filter) {
    t_f = record(
        tr, qid, "afc.plan_nodes", "query", cls,
        [&] { filtered = cluster.plan_nodes(*bq, path_filter); }, !miss);
    t_unf = record(
        tr, qid, "afc.plan_nodes.unfiltered", "afc.plan_nodes", cls,
        [&] { unfiltered = cluster.plan_nodes(*bq, nullptr); }, !miss);
  } else {
    t_unf = record(
        tr, qid, "afc.plan_nodes", "query", cls,
        [&] { unfiltered = cluster.plan_nodes(*bq, nullptr); }, !miss);
    t_f = record(
        tr, qid, "zonemap.plan_nodes", "query", cls,
        [&] { filtered = cluster.plan_nodes(*bq, zonemap); }, true);
  }
  L.plan_s.push_back(t_unf);
  L.filter_s.push_back(t_f - t_unf);
  for (const auto& pr : unfiltered) {
    L.afcs_unfiltered += pr.afcs.size();
    L.bytes_unfiltered += pr.bytes_to_read();
  }
  for (const auto& pr : filtered) {
    L.afcs_filtered += pr.afcs.size();
    L.bytes_filtered += pr.bytes_to_read();
  }
  const auto& path = path_filter ? filtered : unfiltered;
  for (const auto& pr : path) L.afcs += pr.afcs.size();

  // storm: the same node plans streamed into a no-op sink and executed
  // with client assembly; the difference is assembly.  The two run in
  // alternating order so neither always finds the caches warmed by the
  // other.
  adv::storm::QueryResult streamed, r;
  double ts = 0, te = 0;
  auto stream = [&] {
    ts = record(tr, qid, "storm.stream", "storm.execute", cls, [&] {
      streamed = cluster.execute_streaming(
          *bq, [](const adv::storm::RowBatch&) {}, q.partition, nullptr, &path);
    });
  };
  auto execute = [&] {
    te = record(tr, qid, "storm.execute", "query", cls, [&] {
      r = cluster.execute_planned(*bq, path, q.partition);
    });
  };
  if (qid % 2) {
    stream();
    execute();
  } else {
    execute();
    stream();
  }
  throw_on_node_error(streamed);
  throw_on_node_error(r);
  if (q.checked && !answer_ok(q, r.partitions))
    throw adv::QueryError("wrong answer from execute_planned");
  L.stream_s.push_back(ts);
  L.execute_s.push_back(te);
  L.assemble_s.push_back(te - ts);
  double busy_max = 0, busy_sum = 0;
  for (const auto& ns : r.node_stats) {
    L.bytes_sent += static_cast<double>(ns.bytes_sent);
    busy_max = std::max(busy_max, ns.busy_seconds);
    busy_sum += ns.busy_seconds;
    L.dense += ns.agg_dense;
    L.hash += ns.agg_hash;
    L.radix += ns.agg_radix;
  }
  L.busy_skew += ratio(busy_max, busy_sum / static_cast<double>(
                                     std::max<std::size_t>(1, r.node_stats.size())));
  r = {};

  CountingSink counter;
  adv::codegen::ExtractStats es;
  L.extract_s += record(
      tr, qid, "codegen.extract", "query", cls,
      [&] { es = extract_plans(path, *bq, plan.schema(), counter); }, true);
  L.extract_rows += es.rows_scanned;
  L.extract_bytes += es.bytes_read;

  if (bq->has_aggregates())
    agg_layers(*bq, path, plan.schema(), qid, cls, tr, L);
  ++L.queries;
}

// metadata, afc model and zone-map persistence, timed over repeated
// set-ups.  Returns the zone map built last (a probe filter on workloads
// that do not plan with one).
std::unique_ptr<adv::zonemap::ZoneMap> setup_layers(const TraceContext& ctx,
                                                    Values& m) {
  const auto& gen = *ctx.gen;
  std::vector<double> parse, model, build, save, load;
  std::shared_ptr<adv::codegen::DataServicePlan> plan;
  for (int i = 0; i < 5; ++i) {
    std::optional<adv::meta::Descriptor> d;
    parse.push_back(timed(
        [&] { d.emplace(adv::meta::parse_descriptor(gen.descriptor_text)); }));
    model.push_back(timed([&] {
      plan = std::make_shared<adv::codegen::DataServicePlan>(
          std::move(*d), gen.dataset_name, gen.root);
    }));
  }
  std::unique_ptr<adv::zonemap::ZoneMap> zm;
  adv::ThreadPool pool(kThreadsPerNode);
  for (int i = 0; i < 3; ++i) {
    build.push_back(timed([&] {
      zm = std::make_unique<adv::zonemap::ZoneMap>(
          adv::zonemap::ZoneMap::build(*plan, &pool));
    }));
    save.push_back(timed([&] { zm->save(ctx.probe_dir, *plan); }));
    load.push_back(timed([&] {
      if (!adv::zonemap::ZoneMap::load(ctx.probe_dir, *plan))
        throw adv::InternalError("zone-map sidecar did not load back");
    }));
  }
  m["metadata.parse_ms"] = median(parse) * 1e3;
  m["afc.model_ms"] = median(model) * 1e3;
  m["zonemap.build_ms"] = median(build) * 1e3;
  m["zonemap.save_ms"] = median(save) * 1e3;
  m["zonemap.load_ms"] = median(load) * 1e3;
  return zm;
}

// kernels: decode_column and eval_mask over the SOIL field of one of the
// workload's data files, in AFC-sized batches as the extractor issues them,
// beside a memcpy of the same file bytes.
void kernel_probe(const adv::codegen::DataServicePlan& plan, Values& m) {
  const adv::expr::BoundQuery q =
      plan.bind("SELECT SOIL FROM IparsData WHERE SOIL >= 0.5");
  adv::afc::PlannerOptions po;
  po.only_node = 0;
  const adv::afc::PlanResult pr = plan.index_fn(q, po);
  const int soil = q.select_attrs().at(0);
  std::string file;
  uint32_t bpr = 0, intra = 0;
  adv::DataType type = adv::DataType::kFloat32;
  for (const auto& g : pr.groups)
    for (const auto& c : g.chunks)
      for (const auto& f : c.fields)
        if (f.attr == soil && file.empty()) {
          file = g.files[static_cast<std::size_t>(c.file)];
          bpr = c.bytes_per_row;
          intra = f.intra_offset;
          type = f.type;
        }
  if (file.empty() || pr.afcs.empty())
    throw adv::InternalError("kernel probe: no SOIL chunk in the plan");
  std::ifstream in(file, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  const std::size_t n = bytes.size() / bpr;
  const std::size_t batch = std::max<uint64_t>(1, pr.afcs[0].num_rows);
  const std::size_t width = adv::size_of(type);
  std::vector<double> col(n);
  std::vector<uint8_t> mask(n);
  std::vector<unsigned char> copy(bytes.size());
  std::vector<const double*> cols(q.needed_attrs().size(), nullptr);
  const auto slot = static_cast<std::size_t>(q.slot_of_attr(soil));
  adv::kernels::BatchArena arena;

  // GB/s over `bytes_per_pass`, repeating `pass` for at least 50 ms.
  auto rate = [](double bytes_per_pass, const auto& pass) {
    int passes = 0;
    const double t0 = now_s();
    do {
      pass();
      ++passes;
    } while (now_s() - t0 < 0.05);
    return bytes_per_pass * passes / (now_s() - t0) / 1e9;
  };
  m["kernels.decode_gb_per_s"] = rate(static_cast<double>(n * width), [&] {
    for (std::size_t i = 0; i < n; i += batch)
      adv::kernels::decode_column(type, bytes.data() + i * bpr + intra, bpr,
                                  std::min(batch, n - i), col.data() + i);
  });
  m["kernels.mask_gb_per_s"] =
      rate(static_cast<double>(n * sizeof(double)), [&] {
        for (std::size_t i = 0; i < n; i += batch) {
          cols[slot] = col.data() + i;
          arena.reset_scratch();
          adv::kernels::eval_mask(q.predicate(), cols.data(),
                                  std::min(batch, n - i), mask.data() + i,
                                  arena);
        }
      });
  m["kernels.memcpy_gb_per_s"] = rate(static_cast<double>(bytes.size()), [&] {
    std::memcpy(copy.data(), bytes.data(), bytes.size());
    asm volatile("" : : "r"(copy.data()) : "memory");  // keep the copy
  });
}

// Served-layer figures from client samples, scheduler counters and cache
// counters taken over the sampled interval.
void served_values(const std::vector<ServedSample>& samples,
                   const adv::storm::QueryServer& server,
                   const adv::serve::ResultCache::Stats& rc0,
                   const adv::PlanCache::Stats& pc0, Values& m) {
  std::vector<double> client, overhead, wait, run;
  for (const auto& s : samples) {
    if (!s.ok) continue;
    client.push_back(s.latency_s);
    overhead.push_back(s.latency_s - s.queue_wait_s - s.run_s);
    wait.push_back(s.queue_wait_s);
    run.push_back(s.run_s);
  }
  const auto rc = server.result_cache_stats();
  const auto pc = server.plan_cache_stats();
  const double lookups = static_cast<double>(rc.lookups - rc0.lookups);
  const double plan_lookups = static_cast<double>(
      (pc.hits - pc0.hits) + (pc.misses - pc0.misses));
  m["net.client_ms"] = median(client) * 1e3;
  m["net.overhead_ms"] = median(overhead) * 1e3;
  m["sched.queue_wait_p50_ms"] = quantile(wait, 0.5) * 1e3;
  m["sched.queue_wait_p90_ms"] = quantile(wait, 0.9) * 1e3;
  m["sched.run_ms"] = median(run) * 1e3;
  m["sched.rejected"] =
      static_cast<double>(server.scheduler_metrics().rejected);
  m["serve.result_hit_rate"] =
      ratio(static_cast<double>(rc.hits - rc0.hits), lookups);
  m["serve.result_lookups"] = lookups;
  m["serve.plan_hit_rate"] =
      ratio(static_cast<double>(pc.hits - pc0.hits), plan_lookups);
  m["serve.plan_lookups"] = plan_lookups;
  m["serve.coalesced"] = static_cast<double>(rc.coalesced - rc0.coalesced);
}

void version_probe(const adv::codegen::DataServicePlan& plan,
                   const std::string& sidecar_dir, Values& m) {
  std::vector<double> t;
  for (int i = 0; i < 200; ++i)
    t.push_back(timed([&] {
      if (adv::serve::DataVersion::compute(plan, sidecar_dir).files_seen == 0)
        throw adv::InternalError("DataVersion saw no files");
    }));
  m["serve.version_us"] = median(t) * 1e6;
}

// Traced root latency over what the untraced loop took for the same mix of
// query classes, minus 1.
double overhead_frac(const LoopStats& untraced, const LoopStats& traced) {
  std::map<std::string, std::pair<double, double>> base;  // class: sum, n
  for (std::size_t i = 0; i < untraced.latency_s.size(); ++i) {
    auto& b = base[untraced.cls[i]];
    b.first += untraced.latency_s[i];
    b.second += 1;
  }
  double num = 0, den = 0;
  for (std::size_t i = 0; i < traced.latency_s.size(); ++i) {
    auto it = base.find(traced.cls[i]);
    if (it == base.end()) continue;
    num += traced.latency_s[i];
    den += it->second.first / it->second.second;
  }
  return ratio(num, den) - 1;
}

RunResult finish_run(const TraceContext& ctx, const Trace& tr, Values& m,
                 uint64_t attempted, uint64_t failed) {
  RunResult out;
  out.attempted = attempted;
  out.failed = failed;
  for (const auto& [name, unit] : kPerLayer) {
    auto it = m.find(name);
    if (it == m.end())
      throw adv::InternalError(std::string("per-layer metric not measured: ") +
                               name);
    out.metrics.push_back({name, it->second, unit});
  }
  const std::string path = ctx.args->trace_dir + "/" + ctx.args->workload +
                           "-seed" + std::to_string(ctx.args->seed) + ".json";
  write_trace(path, *ctx.args, tr.spans(), out.metrics);
  std::printf("perfbench: trace written to %s\n", path.c_str());
  return out;
}

}  // namespace

RunResult traced_inprocess(const TraceContext& ctx,
                           const adv::VirtualTable& vt) {
  const double seconds = ctx.args->seconds;
  Trace tr;
  Values m;
  uint64_t attempted = 0, failed = 0;
  auto zm = setup_layers(ctx, m);
  const adv::afc::ChunkFilter* path_filter = vt.chunk_filter();
  const adv::afc::ChunkFilter* zfilter = path_filter ? path_filter : zm.get();

  // Untraced latency first, so the traced loop's root spans can be
  // compared with it (trace.overhead_frac).
  const LoopStats base = inprocess_loop(vt, ctx.next, 0.3 * seconds);
  attempted += base.attempted;
  failed += base.failed();

  Layers L;
  LoopStats roots;
  const double start = now_s();
  while (now_s() - start < 0.55 * seconds) {
    QueryPtr q = ctx.next();
    const uint64_t qid = tr.next_query();
    const uint64_t misses = vt.plan_cache_stats().misses;
    adv::storm::QueryResult r;
    bool ok = true;
    roots.cls.push_back(q->cls);
    roots.latency_s.push_back(record(tr, qid, "query", "", q->cls, [&] {
      try {
        r = vt.query_detailed(q->sql, q->partition);
      } catch (const std::exception&) {
        ok = false;
      }
    }));
    const bool miss = vt.plan_cache_stats().misses > misses;
    ++attempted;
    if (!ok || !answer_ok(*q, r.partitions)) ++failed;
    r = {};
    try {
      decompose(*q, vt.plan(), vt.cluster(), path_filter, zfilter, miss, qid,
                tr, L);
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perfbench: decomposition failed: %s\n", e.what());
    }
  }
  for (const QueryPtr& q : ctx.agg_probe)
    decompose(*q, vt.plan(), vt.cluster(), path_filter, zfilter, false,
              tr.next_query(), tr, L);
  L.finish(m);
  kernel_probe(vt.plan(), m);

  // The workload's own queries through a QueryServer over the same files,
  // for the serving layers this workload's path does not cross.
  {
    auto plan = std::make_shared<adv::codegen::DataServicePlan>(
        adv::meta::parse_descriptor(ctx.gen->descriptor_text),
        ctx.gen->dataset_name, ctx.gen->root);
    adv::serve::ServeOptions so;
    so.enable_result_cache = true;
    if (path_filter) so.version_sidecar_dir = ctx.probe_dir;
    adv::storm::QueryServer server(plan, cluster_options(), 0, path_filter,
                                   adv::sched::SchedulerOptions{}, so);
    adv::storm::QueryClient client("127.0.0.1", server.port());
    std::vector<ServedSample> samples;
    const auto rc0 = server.result_cache_stats();
    const auto pc0 = server.plan_cache_stats();
    const double t0 = now_s();
    while (samples.size() < 3 || now_s() - t0 < 0.15 * seconds) {
      ServedSample s;
      s.query = ctx.next();
      ++attempted;
      s.start_s = now_s();
      try {
        adv::storm::RemoteResult rr =
            client.execute(s.query->sql, s.query->partition);
        s.latency_s = now_s() - s.start_s;
        s.queue_wait_s = rr.sched.queue_wait_seconds;
        s.run_s = rr.sched.run_seconds;
        s.ok = answer_ok(*s.query, rr.partitions);
      } catch (const std::exception&) {
      }
      if (!s.ok) ++failed;
      samples.push_back(std::move(s));
    }
    served_values(samples, server, rc0, pc0, m);
    version_probe(*plan, so.version_sidecar_dir, m);
  }

  m["trace.coverage"] = trace_coverage(tr.spans());
  m["trace.overhead_frac"] = overhead_frac(base, roots);
  return finish_run(ctx, tr, m, attempted, failed);
}

RunResult traced_served(const TraceContext& ctx, Served& served,
                        ServedMix& mix, uint64_t rows_per_afc) {
  const double seconds = ctx.args->seconds;
  const int port = served.server->port();
  Trace tr;
  Values m;
  uint64_t attempted = 0, failed = 0;
  setup_layers(ctx, m);

  const LoopStats base = served_loop(port, mix, ctx.args->seed, 0.3 * seconds,
                                     rows_per_afc, nullptr);
  attempted += base.attempted;
  failed += base.failed();

  std::vector<ServedSample> samples;
  const auto rc0 = served.server->result_cache_stats();
  const auto pc0 = served.server->plan_cache_stats();
  const LoopStats traced =
      served_loop(port, mix, adv::hash_combine(ctx.args->seed, 1),
                  0.4 * seconds, rows_per_afc, &samples);
  attempted += traced.attempted;
  failed += traced.failed();
  served_values(samples, *served.server, rc0, pc0, m);
  // Root: the client's call.  Children: the server's queue wait and run
  // time from the kStats tail; the rest is wire and client overhead.
  for (const auto& s : samples) {
    if (!s.ok) continue;
    const uint64_t qid = tr.next_query();
    const std::string& cls = s.from_cache ? std::string("hot_hit") : s.query->cls;
    tr.add(Span{qid, "query", "", cls, s.start_s, s.latency_s, false});
    tr.add(Span{qid, "sched.queue_wait", "query", cls, s.start_s,
                s.queue_wait_s, false});
    tr.add(Span{qid, "sched.run", "query", cls, s.start_s + s.queue_wait_s,
                s.run_s, false});
    tr.add(Span{qid, "net.overhead", "query", cls, s.start_s,
                s.latency_s - s.queue_wait_s - s.run_s, true});
  }

  // In-process decomposition of the same mix on one thread, against a
  // cluster configured like the server's.
  adv::storm::StormCluster cluster(served.plan, cluster_options());
  Layers L;
  adv::SplitMix64 rng(adv::hash_combine(ctx.args->seed, 2));
  const double start = now_s();
  while (now_s() - start < 0.2 * seconds) {
    const double u = rng.next_unit();
    QueryPtr q = u < 0.5   ? mix.hot[rng.next_below(mix.hot.size())]
                 : u < 0.9 ? mix.unique[0][rng.next_below(mix.unique[0].size())]
                           : mix.small_aggs[rng.next_below(mix.small_aggs.size())];
    ++attempted;
    try {
      decompose(*q, *served.plan, cluster, served.zonemap.get(),
                served.zonemap.get(), true, tr.next_query(), tr, L);
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perfbench: decomposition failed: %s\n", e.what());
    }
  }
  L.finish(m);
  kernel_probe(*served.plan, m);
  version_probe(*served.plan, served.sidecar_dir, m);

  m["trace.coverage"] = trace_coverage(tr.spans());
  m["trace.overhead_frac"] = overhead_frac(base, traced);
  return finish_run(ctx, tr, m, attempted, failed);
}

}  // namespace perfbench
