// Workload set-up and closed loops (workloads.cpp) and the traced run that
// breaks each query down by layer (layers.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/virtual_table.h"
#include "bench.h"
#include "dataset/ipars.h"
#include "queries.h"
#include "storm/net.h"
#include "zonemap/zonemap.h"

namespace perfbench {

// The only option pinned away from the library default, so results do not
// depend on the host's core count.
inline constexpr std::size_t kThreadsPerNode = 4;
inline constexpr int kServedClients = 4;

adv::storm::ClusterOptions cluster_options();

// A QueryServer over an L0 dataset with its zone map built and saved as the
// version sidecar, the result cache on, and every other option at its
// default.  Members are declared so the server goes down before the zone
// map it filters with.
struct Served {
  std::string sidecar_dir;
  std::shared_ptr<adv::codegen::DataServicePlan> plan;
  std::unique_ptr<adv::zonemap::ZoneMap> zonemap;
  std::unique_ptr<adv::storm::QueryServer> server;
};
Served start_server(const adv::dataset::GeneratedIpars& gen,
                    const std::string& sidecar_dir);

struct LoopStats {
  std::vector<double> latency_s;
  std::vector<std::string> cls;  // query class of each latency sample
  uint64_t attempted = 0;
  uint64_t errors = 0;  // typed errors thrown by the call
  uint64_t wrong = 0;   // answers that did not match the reference
  uint64_t result_rows = 0;
  uint64_t scanned_rows = 0;
  double cpu_s = 0;   // process CPU over the timed calls
  double wall_s = 0;  // wall time of the whole loop

  uint64_t failed() const { return errors + wrong; }
};

using NextQuery = std::function<QueryPtr()>;

// One closed-loop client calling VirtualTable::query_detailed.
LoopStats inprocess_loop(const adv::VirtualTable& vt, const NextQuery& next,
                         double seconds);

// One served query as a client saw it.
struct ServedSample {
  QueryPtr query;
  double start_s = 0;
  double latency_s = 0;
  double queue_wait_s = 0;  // from the server's kStats tail
  double run_s = 0;
  bool from_cache = false;
  bool ok = false;
};

// One closed-loop connection per ServedMix::unique list, sending the seeded
// served mix; every sample is returned when `samples` is non-null.  Unique
// queries are consumed from mix.cursor, so consecutive loops never repeat
// one.
LoopStats served_loop(int port, ServedMix& mix, uint64_t seed,
                      double seconds, uint64_t rows_per_afc,
                      std::vector<ServedSample>* samples);

// Everything a traced run needs about its workload.
struct TraceContext {
  const Args* args = nullptr;
  const adv::dataset::GeneratedIpars* gen = nullptr;
  std::string probe_dir;  // scratch directory for the zone-map save/load probe
  NextQuery next;         // the workload's query sequence
  std::vector<QueryPtr> agg_probe;  // aggregates decomposed on `export`
};

struct RunResult {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Traced runs: every per-layer metric, plus the span file written to
// args.trace_dir.  `vt` serves export/aggregate; `served` the served mix.
RunResult traced_inprocess(const TraceContext& ctx,
                           const adv::VirtualTable& vt);
RunResult traced_served(const TraceContext& ctx, Served& served,
                        ServedMix& mix, uint64_t rows_per_afc);

}  // namespace perfbench
