// adv_fuzz — replay CLI for the differential query-fuzz harness.
//
// Every failing dq test prints a one-line replay command pointing here:
//
//   adv_fuzz --seed 17
//   adv_fuzz --seed 17 --fault-spec 'pread.eio=0.01,mmap.fail=0.5' \
//            --fault-seed 17 --server
//
// The binary shares tests/dq/dq_run.cpp with the gtest suites, so a replay
// is the exact run — same generated dataset, same query corpus, same fault
// schedule.  Exit status 0 = every case identical (or a clean typed error
// under an armed campaign), 1 = at least one failure, 2 = bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.h"
#include "dq/dq_run.h"
#include "dq/dq_shrink.h"
#include "faultz/faultz.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --seed N [options]\n"
      "  --seed N          corpus seed (dataset layout + queries)\n"
      "  --seeds K         run K consecutive seeds starting at N (default 1)\n"
      "  --shrink N        greedily minimize the failing case for seed N\n"
      "                    (queries, WHERE conjuncts, dataset shape) and\n"
      "                    print the minimized descriptor + corpus\n"
      "  --queries M       queries per seed (default 5)\n"
      "  --campaign NAME   named fault campaign: io, net, node, agg, zm,\n"
      "                    sched, serve\n"
      "  --fault-spec S    explicit fault spec, e.g. 'pread.eio=0.01:3'\n"
      "  --fault-seed N    fault-plan seed (default: the corpus seed)\n"
      "  --server          also round-trip queries through the v2 protocol\n"
      "  --dist            also scatter/gather through per-node daemons\n"
      "                    behind a DistCoordinator (in-process)\n"
      "  --partial         run the fast path in partial-results mode\n"
      "  --pread           force pread I/O (no mmap) on the fast path\n"
      "  --kernel MODE     kernel loop for the fast path: vector (default)\n"
      "                    or interp\n"
      "  --deadline SECS   per-query deadline (default 20)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 0;
  bool have_seed = false;
  bool shrink = false;
  int nseeds = 1;
  bool have_fault_seed = false;
  adv::dq::DqOptions opts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--shrink") {
      seed = std::strtoull(next(), nullptr, 10);
      have_seed = true;
      shrink = true;
    } else if (arg == "--seeds") {
      nseeds = std::atoi(next());
    } else if (arg == "--queries") {
      opts.queries_per_seed = std::atoi(next());
    } else if (arg == "--campaign") {
      opts.fault_spec = adv::dq::campaign_spec(next());
    } else if (arg == "--fault-spec") {
      opts.fault_spec = next();
    } else if (arg == "--fault-seed") {
      opts.fault_seed = std::strtoull(next(), nullptr, 10);
      have_fault_seed = true;
    } else if (arg == "--server") {
      opts.with_server = true;
    } else if (arg == "--dist") {
      opts.with_dist = true;
    } else if (arg == "--partial") {
      opts.partial_results = true;
    } else if (arg == "--pread") {
      opts.io_mode = adv::IoMode::kPread;
    } else if (arg == "--kernel") {
      std::string name = next();
      if (!adv::kernel_mode_from_name(name, opts.kernel_mode)) {
        std::fprintf(stderr, "%s: unknown kernel mode %s\n", argv[0],
                     name.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--deadline") {
      opts.deadline_seconds = std::atof(next());
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!have_seed || nseeds < 1 || opts.queries_per_seed < 1)
    return usage(argv[0]);

  if (shrink) {
    if (!have_fault_seed) opts.fault_seed = seed;
    try {
      adv::dq::DqShrinkResult res = adv::dq::shrink_seed(
          seed, opts, [](const std::string& line) {
            std::fprintf(stderr, "shrink: %s\n", line.c_str());
          });
      if (!res.failed_initially) {
        std::printf("seed %llu passes; nothing to shrink\n",
                    static_cast<unsigned long long>(seed));
        return 0;
      }
      std::printf("minimized seed %llu after %d candidates (%d kept):\n"
                  "  shape: %s%s\n",
                  static_cast<unsigned long long>(seed), res.attempts,
                  res.accepted, adv::dq::shape_string(res.dataset).c_str(),
                  res.opts.with_joins ? "" : "  (join round not needed)");
      for (const std::string& q : res.queries)
        std::printf("  query: %s\n", q.c_str());
      std::printf("  failure: %s\n",
                  res.report.failures.empty() ? "(none?)"
                                              : res.report.failures[0].c_str());
      std::printf("-- minimized descriptor --\n%s",
                  res.dataset.descriptor().c_str());
      return 1;  // the minimized case still fails, by construction
    } catch (const adv::Error& e) {
      std::fprintf(stderr, "adv_fuzz: %s\n", e.what());
      return 1;
    }
  }

  adv::dq::DqReport total;
  try {
    for (int k = 0; k < nseeds; ++k) {
      uint64_t s = seed + static_cast<uint64_t>(k);
      adv::dq::DqOptions o = opts;
      if (!have_fault_seed) o.fault_seed = s;
      adv::dq::DqReport rep = adv::dq::run_seed(s, o);
      std::printf("seed %llu: %s\n", static_cast<unsigned long long>(s),
                  rep.summary().c_str());
      total.merge(rep);
    }
  } catch (const adv::Error& e) {
    std::fprintf(stderr, "adv_fuzz: %s\n", e.what());
    return 1;
  }

  if (!opts.fault_spec.empty())
    std::printf("fault sites:\n%s",
                adv::faultz::FaultPlan::instance().stats_string().c_str());
  if (nseeds > 1) std::printf("total: %s\n", total.summary().c_str());
  for (const std::string& f : total.failures)
    std::printf("FAILURE: %s\n", f.c_str());
  return total.ok() ? 0 : 1;
}
