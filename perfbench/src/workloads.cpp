#include "workloads.h"

#include <cstdio>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "metadata/model.h"

namespace perfbench {

adv::storm::ClusterOptions cluster_options() {
  adv::storm::ClusterOptions o;
  o.threads_per_node = kThreadsPerNode;
  return o;
}

Served start_server(const adv::dataset::GeneratedIpars& gen,
                    const std::string& sidecar_dir) {
  Served s;
  s.sidecar_dir = sidecar_dir;
  s.plan = std::make_shared<adv::codegen::DataServicePlan>(
      adv::meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  {
    adv::ThreadPool pool(kThreadsPerNode);
    s.zonemap = std::make_unique<adv::zonemap::ZoneMap>(
        adv::zonemap::ZoneMap::build(*s.plan, &pool));
  }
  s.zonemap->save(sidecar_dir, *s.plan);
  adv::serve::ServeOptions so;
  so.enable_result_cache = true;
  so.version_sidecar_dir = sidecar_dir;
  s.server = std::make_unique<adv::storm::QueryServer>(
      s.plan, cluster_options(), 0, s.zonemap.get(),
      adv::sched::SchedulerOptions{}, so);
  return s;
}

namespace {

void report_error(uint64_t& errors, const Query& q, const char* what) {
  if (errors++ < 5)
    std::fprintf(stderr, "perfbench: query failed: %s\n  %s\n", what,
                 q.sql.c_str());
}

void report_wrong(uint64_t& wrong, const Query& q) {
  if (wrong++ < 5)
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", q.sql.c_str());
}

}  // namespace

LoopStats inprocess_loop(const adv::VirtualTable& vt, const NextQuery& next,
                         double seconds) {
  LoopStats st;
  const double start = now_s();
  while (now_s() - start < seconds) {
    QueryPtr q = next();
    ++st.attempted;
    adv::storm::QueryResult r;
    bool ok = true;
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      r = vt.query_detailed(q->sql, q->partition);
    } catch (const std::exception& e) {
      ok = false;
      report_error(st.errors, *q, e.what());
    }
    const double t1 = now_s();
    st.cpu_s += process_cpu_s() - c0;
    st.latency_s.push_back(t1 - t0);
    st.cls.push_back(q->cls);
    if (!ok) continue;
    st.result_rows += r.total_rows();
    for (const auto& ns : r.node_stats) st.scanned_rows += ns.rows_scanned;
    if (!answer_ok(*q, r.partitions)) report_wrong(st.wrong, *q);
  }
  st.wall_s = now_s() - start;
  return st;
}

LoopStats served_loop(int port, ServedMix& mix, uint64_t seed,
                      double seconds, uint64_t rows_per_afc,
                      std::vector<ServedSample>* samples) {
  struct ClientOut {
    LoopStats st;
    double check_cpu_s = 0;  // answer checks, taken out of the CPU figure
    uint64_t unique_exhausted = 0;
    std::vector<ServedSample> samples;
  };
  const int clients = static_cast<int>(mix.unique.size());
  std::vector<ClientOut> outs(static_cast<std::size_t>(clients));
  const double start = now_s();
  const double cpu0 = process_cpu_s();
  auto body = [&](int c) {
    ClientOut& out = outs[static_cast<std::size_t>(c)];
    adv::SplitMix64 rng(adv::hash_combine(seed, static_cast<uint64_t>(c)));
    const auto& unique = mix.unique[static_cast<std::size_t>(c)];
    std::size_t& next_unique = mix.cursor[static_cast<std::size_t>(c)];
    adv::storm::QueryClient client("127.0.0.1", port);
    while (now_s() - start < seconds) {
      const double u = rng.next_unit();
      QueryPtr q;
      if (u < 0.5) {
        q = mix.hot[rng.next_below(mix.hot.size())];
      } else if (u < 0.9) {
        if (next_unique < unique.size()) {
          q = unique[next_unique++];
        } else {  // sized so this does not happen; counted if it does
          ++out.unique_exhausted;
          q = mix.hot[rng.next_below(mix.hot.size())];
        }
      } else {
        q = mix.small_aggs[rng.next_below(mix.small_aggs.size())];
      }
      ++out.st.attempted;
      ServedSample s;
      s.query = q;
      adv::storm::RemoteResult rr;
      s.start_s = now_s();
      try {
        rr = client.execute(q->sql, q->partition);
        s.ok = true;
      } catch (const std::exception& e) {
        report_error(out.st.errors, *q, e.what());
      }
      s.latency_s = now_s() - s.start_s;
      out.st.latency_s.push_back(s.latency_s);
      out.st.cls.push_back(q->cls);
      if (s.ok) {
        const double cc = thread_cpu_s();
        s.queue_wait_s = rr.sched.queue_wait_seconds;
        s.run_s = rr.sched.run_seconds;
        s.from_cache = rr.sched.served_from_cache;
        out.st.result_rows += rr.total_rows();
        // kStats carries AFC counts, not scanned rows; every L0 AFC holds
        // rows_per_afc rows.  A cache hit scanned nothing.
        if (!s.from_cache)
          for (const auto& ns : rr.node_stats)
            out.st.scanned_rows += ns.afcs * rows_per_afc;
        if (!answer_ok(*q, rr.partitions)) report_wrong(out.st.wrong, *q);
        out.check_cpu_s += thread_cpu_s() - cc;
      }
      if (samples) out.samples.push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (auto& t : threads) t.join();

  LoopStats st;
  st.wall_s = now_s() - start;
  st.cpu_s = process_cpu_s() - cpu0;
  for (auto& out : outs) {
    st.latency_s.insert(st.latency_s.end(), out.st.latency_s.begin(),
                        out.st.latency_s.end());
    st.cls.insert(st.cls.end(), out.st.cls.begin(), out.st.cls.end());
    st.attempted += out.st.attempted;
    st.errors += out.st.errors;
    st.wrong += out.st.wrong;
    st.result_rows += out.st.result_rows;
    st.scanned_rows += out.st.scanned_rows;
    st.cpu_s -= out.check_cpu_s;
    if (out.unique_exhausted)
      std::fprintf(stderr, "perfbench: a client ran out of unique queries "
                           "(%llu reissued as hot)\n",
                   static_cast<unsigned long long>(out.unique_exhausted));
    if (samples)
      samples->insert(samples->end(), out.samples.begin(), out.samples.end());
  }
  return st;
}

}  // namespace perfbench
