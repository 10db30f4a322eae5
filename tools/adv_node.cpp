// adv_node — one storage node's shard served as a standalone daemon.
//
// The process half of the distribution layer (see docs/DISTRIBUTION.md):
// a DistCoordinator scatters per-node queries at a set of these over the
// wire protocol's kNodeQuery frames, and `kill -9` of one adv_node takes
// down exactly one shard — which the multi-process chaos harness
// (tests/dist_chaos_test.cpp) exercises on purpose.
//
// Usage:
//   adv_node <descriptor> <dataset> --root DIR --node N [--port P]
//            [--index DIR] [--heartbeat-ms M] [--checkpoint-afcs K]
//            [--stall-after N --stall-seconds S]
//
// On success prints exactly one line to stdout:
//   READY <port> node <node_id> pid <pid>
// then serves until killed.  Spawners parse that line for the ephemeral
// port; everything else goes to stderr.
//
// Fault campaigns arm per-process from ADV_FAULT_SEED / ADV_FAULT_SPEC in
// the daemon's own environment, so a spawner can aim a campaign at one
// replica and leave its peers clean.
//
// On Linux the daemon requests SIGKILL on parent death (PR_SET_PDEATHSIG)
// so a crashed or aborted test run cannot leave orphans behind.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#include <csignal>
#endif

#include "common/io.h"
#include "common/string_util.h"
#include "metadata/model.h"
#include "metadata/xml.h"
#include "storm/node_daemon.h"
#include "zonemap/zonemap.h"

using namespace adv;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "adv_node — serve one storage node's shard as a daemon\n\n"
               "usage: adv_node <descriptor> <dataset> --root DIR --node N\n"
               "                [--port P] [--index DIR] [--heartbeat-ms M]\n"
               "                [--checkpoint-afcs K]\n"
               "                [--stall-after N --stall-seconds S]\n");
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string flag(const std::string& key, const std::string& def = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  int flag_int(const std::string& key, int def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::stoi(it->second);
  }
  double flag_double(const std::string& key, double def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::stod(it->second);
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
};

}  // namespace

int main(int argc, char** argv) {
#ifdef __linux__
  // Orphan prevention: if whatever spawned us dies (a chaos test SIGKILLed
  // mid-run, a ctest timeout), the kernel reaps this daemon too.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (starts_with(s, "--")) {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      a.flags[s.substr(2)] = argv[++i];
    } else {
      a.positional.push_back(std::move(s));
    }
  }
  if (a.positional.size() < 2) usage("expected <descriptor> <dataset>");
  if (!a.has("node")) usage("--node is required");

  try {
    std::string text = read_text_file(a.positional[0]);
    std::size_t i = text.find_first_not_of(" \t\r\n");
    meta::Descriptor desc = (i != std::string::npos && text[i] == '<')
                                ? meta::parse_descriptor_xml(text)
                                : meta::parse_descriptor(text);
    auto plan = std::make_shared<codegen::DataServicePlan>(
        std::move(desc), a.positional[1], a.flag("root", "."));

    // The zone-map sidecar under --index DIR; one that does not load only
    // costs pruning.
    std::optional<zonemap::ZoneMap> idx;
    if (a.has("index")) idx = zonemap::ZoneMap::load(a.flag("index"), *plan);

    storm::NodeDaemonOptions opts;
    opts.node_id = a.flag_int("node", 0);
    opts.port = a.flag_int("port", 0);
    opts.filter = idx ? &*idx : nullptr;
    opts.heartbeat_interval_seconds =
        a.flag_double("heartbeat-ms", 50.0) / 1e3;
    opts.checkpoint_afcs =
        static_cast<uint32_t>(a.flag_int("checkpoint-afcs", 1));
    opts.stall_after_afcs =
        static_cast<uint64_t>(a.flag_int("stall-after", 0));
    opts.stall_seconds = a.flag_double("stall-seconds", 0);

    storm::NodeDaemon daemon(plan, opts);
    std::printf("READY %d node %d pid %d\n", daemon.port(), daemon.node_id(),
                static_cast<int>(::getpid()));
    std::fflush(stdout);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adv_node: %s\n", e.what());
    return 1;
  }
}
