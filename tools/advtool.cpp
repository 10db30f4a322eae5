// advtool — command-line front end for the advirt data-virtualization
// toolkit.  This is the repository administrator's interface the paper
// describes: write a meta-data descriptor for an existing flat-file
// dataset, validate it against the files, build and audit the zone-map
// chunk index, serve SQL queries, and emit the standalone generated C++
// services.
//
// Usage:
//   advtool parse    <descriptor>
//   advtool info     <descriptor> <dataset> [--root DIR]
//   advtool verify   <descriptor> <dataset> --root DIR
//   advtool generate ipars|titan --out DIR [options]
//   advtool index    build|inspect|check <descriptor> <dataset> --root DIR
//            [--dir DIR] [--threads N] [--limit N]
//   advtool query    <descriptor> <dataset> --root DIR [--index DIR]
//            [--partition N] [--csv N] "SELECT ..."
//   advtool emit     <descriptor> <dataset> [--index DIR] [--out FILE]
#include <cstdio>
#include <chrono>
#include <cstring>
#include <thread>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "advirt.h"
#include "common/io.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dataset/ipars.h"
#include "dataset/titan.h"
#include "metadata/xml.h"

using namespace adv;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr, R"(advtool — automatic data virtualization toolkit

commands:
  parse <descriptor>
      Parse and validate a meta-data descriptor; print its canonical form.
  info <descriptor> <dataset> [--root DIR]
      Show the compiled model: schema, nodes, leaves, concrete files.
  verify <descriptor> <dataset> --root DIR
      Check that every file exists with the byte size the layout implies.
  generate ipars --out DIR [--layout L0|I|II|III|IV|V|VI] [--nodes N]
           [--rels R] [--timesteps T] [--grid G] [--pad P]
  generate titan --out DIR [--nodes N] [--cells-x N] [--cells-y N]
           [--cells-z N] [--points P]
      Write a synthetic dataset and its descriptor (descriptor.adv).
  index build <descriptor> <dataset> --root DIR [--dir DIR] [--threads N]
      Scan every chunk once and write the zone-map sidecar
      (<dataset>.zm) under --dir (default: --root).
  index inspect <descriptor> <dataset> --root DIR [--dir DIR] [--limit N]
      Load the sidecar; report coverage, staleness, and sample bounds.
  index check <descriptor> <dataset> --root DIR [--dir DIR]
      Exit 0 when the sidecar loads and is fully fresh, 1 otherwise.
  query <descriptor> <dataset> --root DIR [--index DIR] [--partition N]
        [--csv N] "SELECT ..."
      Execute a query on the virtual cluster; print stats and sample rows.
      --index DIR prunes chunks with the zone-map sidecar under DIR.
  emit <descriptor> <dataset> [--index DIR] [--out FILE]
      Emit the standalone generated C++ index/extraction functions.
  serve <descriptor> <dataset> --root DIR [--port P] [--index DIR]
      Run the STORM query service on TCP; clients use `query --host`.
  query ... [--host H --port P]
      With --host, submit the query to a running server instead of
      executing locally (positional: just the SQL text).
)");
  std::exit(2);
}

// Minimal flag parser: positional args plus --key value pairs.
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
  bool has(const std::string& key) const { return flags.count(key) > 0; }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string s = argv[i];
    if (starts_with(s, "--")) {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      a.flags[s.substr(2)] = argv[++i];
    } else {
      a.positional.push_back(std::move(s));
    }
  }
  return a;
}

// Descriptors load from the native text syntax or the XML embedding; the
// format is detected from the first non-whitespace character.
meta::Descriptor load_descriptor(const std::string& path) {
  std::string text = read_text_file(path);
  std::size_t i = text.find_first_not_of(" \t\r\n");
  if (i != std::string::npos && text[i] == '<')
    return meta::parse_descriptor_xml(text);
  return meta::parse_descriptor(text);
}

codegen::DataServicePlan make_plan(const Args& a) {
  if (a.positional.size() < 2)
    usage("expected <descriptor-file> <dataset-name>");
  return codegen::DataServicePlan(load_descriptor(a.positional[0]),
                                  a.positional[1], a.flag("root", "."));
}

// The zone-map sidecar named by --index DIR, if any.  A sidecar that does
// not load only costs pruning: the query then scans in full.
std::optional<zonemap::ZoneMap> load_index(
    const Args& a, const codegen::DataServicePlan& plan) {
  if (!a.has("index")) return std::nullopt;
  auto zm = zonemap::ZoneMap::load(a.flag("index"), plan);
  if (!zm)
    std::fprintf(stderr, "note: no loadable zone-map sidecar under %s; "
                 "scanning in full\n", a.flag("index").c_str());
  return zm;
}

int cmd_parse(const Args& a) {
  if (a.positional.empty()) usage("expected <descriptor-file>");
  meta::Descriptor d = load_descriptor(a.positional[0]);
  if (a.has("xml") || a.flag("format") == "xml") {
    std::printf("%s", meta::to_xml(d).c_str());
  } else {
    std::printf("%s", meta::to_text(d).c_str());
  }
  std::fprintf(stderr, "OK: %zu schema(s), %zu storage section(s), %zu "
               "dataset(s)\n",
               d.schemas.size(), d.storages.size(), d.datasets.size());
  return 0;
}

int cmd_info(const Args& a) {
  codegen::DataServicePlan plan = make_plan(a);
  const afc::DatasetModel& m = plan.model();
  std::printf("dataset:  %s (schema %s)\n", m.dataset_name().c_str(),
              m.schema().name.c_str());
  std::printf("root:     %s\n", m.root_path().c_str());
  std::printf("schema:   %zu attributes, %zu bytes/row\n", m.schema().size(),
              m.schema().row_bytes());
  for (const auto& attr : m.schema().attrs)
    std::printf("          %-12s %s\n", attr.name.c_str(),
                to_string(attr.type).c_str());
  std::printf("nodes:    %d (", m.num_nodes());
  for (std::size_t i = 0; i < m.node_names().size(); ++i)
    std::printf("%s%s", i ? ", " : "", m.node_names()[i].c_str());
  std::printf(")\n");
  std::printf("leaves:   %zu\n", m.leaves().size());
  for (std::size_t l = 0; l < m.leaves().size(); ++l) {
    const auto& leaf = m.leaves()[l];
    std::printf("          %-12s %zu file(s), %zu region(s)\n",
                leaf.name.c_str(), m.files_of_leaf(static_cast<int>(l)).size(),
                leaf.skeleton.size());
  }
  uint64_t total = 0;
  for (const auto& f : m.files()) total += m.expected_file_bytes(f);
  std::printf("files:    %zu concrete files, %s expected on disk\n",
              m.files().size(), human_bytes(total).c_str());
  return 0;
}

int cmd_verify(const Args& a) {
  codegen::DataServicePlan plan = make_plan(a);
  auto problems = plan.verify_files();
  if (problems.empty()) {
    std::printf("OK: %zu files verified\n", plan.model().files().size());
    return 0;
  }
  for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
  return 1;
}

int cmd_generate(const Args& a) {
  if (a.positional.empty()) usage("expected dataset kind: ipars or titan");
  std::string out = a.flag("out");
  if (out.empty()) usage("--out DIR is required");
  if (iequals(a.positional[0], "ipars")) {
    dataset::IparsConfig cfg;
    cfg.nodes = a.flag_int("nodes", 4);
    cfg.rels = a.flag_int("rels", 4);
    cfg.timesteps = a.flag_int("timesteps", 100);
    cfg.grid_per_node = a.flag_int("grid", 100);
    cfg.pad_vars = a.flag_int("pad", 12);
    dataset::IparsLayout layout = dataset::IparsLayout::kL0;
    std::string lname = a.flag("layout", "L0");
    bool found = false;
    for (auto l : dataset::all_ipars_layouts())
      if (iequals(lname, dataset::to_string(l))) {
        layout = l;
        found = true;
      }
    if (!found) usage("unknown layout (use L0, I..VI)");
    auto gen = dataset::generate_ipars(cfg, layout, out);
    write_text_file(out + "/descriptor.adv", gen.descriptor_text);
    std::printf("generated %s in %llu files (layout %s) under %s\n",
                human_bytes(gen.bytes_written).c_str(),
                static_cast<unsigned long long>(gen.files_written),
                dataset::to_string(layout), out.c_str());
    std::printf("descriptor: %s/descriptor.adv (dataset IparsData)\n",
                out.c_str());
    return 0;
  }
  if (iequals(a.positional[0], "titan")) {
    dataset::TitanConfig cfg;
    cfg.nodes = a.flag_int("nodes", 1);
    cfg.cells_x = a.flag_int("cells-x", 16);
    cfg.cells_y = a.flag_int("cells-y", 16);
    cfg.cells_z = a.flag_int("cells-z", 4);
    cfg.points_per_chunk = a.flag_int("points", 512);
    auto gen = dataset::generate_titan(cfg, out);
    write_text_file(out + "/descriptor.adv", gen.descriptor_text);
    std::printf("generated %s in %llu files (%d chunks) under %s\n",
                human_bytes(gen.bytes_written).c_str(),
                static_cast<unsigned long long>(gen.files_written),
                cfg.num_chunks(), out.c_str());
    std::printf("descriptor: %s/descriptor.adv (dataset TitanData)\n",
                out.c_str());
    return 0;
  }
  usage("unknown dataset kind");
}

// `index build|inspect|check`: the zone-map sidecar under --dir (default
// --root).  `check` is a monitoring probe: exit 1 when the sidecar is
// missing, corrupt, or any of its data files changed since the build.
int cmd_index(Args a) {
  if (a.positional.empty()) usage("expected index build|inspect|check");
  const std::string sub = a.positional.front();
  if (sub != "build" && sub != "inspect" && sub != "check")
    usage(("unknown index command '" + sub + "'").c_str());
  a.positional.erase(a.positional.begin());
  codegen::DataServicePlan plan = make_plan(a);
  const std::string dir = a.flag("dir", a.flag("root", "."));

  if (sub == "build") {
    int threads = a.flag_int("threads", 0);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1)
      pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
    zonemap::ZoneMap zm = zonemap::ZoneMap::build(plan, pool.get());
    zm.save(dir, plan);
    std::string path =
        zonemap::ZoneMap::sidecar_path(dir, plan.model().dataset_name());
    std::printf("indexed %zu chunks x %zu attribute(s) over %llu file(s) in "
                "%.2f s -> %s (%s)\n",
                zm.num_chunks(), zm.attrs().size(),
                static_cast<unsigned long long>(zm.num_files()),
                zm.build_seconds(), path.c_str(),
                human_bytes(file_size(path)).c_str());
    return 0;
  }

  auto zm = zonemap::ZoneMap::load(dir, plan);
  if (!zm) {
    std::printf("STALE: no loadable zone-map sidecar for dataset %s under "
                "%s\n",
                plan.model().dataset_name().c_str(), dir.c_str());
    return 1;
  }
  if (sub == "check") {
    if (zm->num_stale_files() > 0) {
      std::printf("STALE: %llu of %llu files changed since the build\n",
                  static_cast<unsigned long long>(zm->num_stale_files()),
                  static_cast<unsigned long long>(zm->num_files()));
      return 1;
    }
    std::printf("OK: %zu chunks over %llu files, all fresh\n",
                zm->num_chunks(),
                static_cast<unsigned long long>(zm->num_files()));
    return 0;
  }

  const meta::Schema& schema = plan.schema();
  std::printf("dataset:    %s\n", plan.model().dataset_name().c_str());
  std::printf("attributes:");
  for (int attr : zm->attrs())
    std::printf(" %s", schema.at(static_cast<std::size_t>(attr)).name.c_str());
  std::printf("\n");
  std::printf("files:      %llu indexed, %llu stale (dropped)\n",
              static_cast<unsigned long long>(zm->num_files()),
              static_cast<unsigned long long>(zm->num_stale_files()));
  std::printf("chunks:     %zu live entries, %zu bounds rows\n",
              zm->num_chunks(), zm->num_rows());
  const std::size_t limit = static_cast<std::size_t>(a.flag_int("limit", 5));
  std::size_t shown = 0;
  zm->for_each_chunk([&](const std::string& file, uint64_t offset,
                         const double* b) {
    if (shown++ >= limit) return;
    std::printf("  %s @%llu:", file.c_str(),
                static_cast<unsigned long long>(offset));
    for (std::size_t i = 0; i < zm->attrs().size(); ++i)
      std::printf(" %s=[%g, %g]",
                  schema.at(static_cast<std::size_t>(zm->attrs()[i]))
                      .name.c_str(),
                  b[2 * i], b[2 * i + 1]);
    std::printf("\n");
  });
  if (zm->num_chunks() > limit)
    std::printf("  ... (%zu more)\n", zm->num_chunks() - limit);
  return 0;
}

int cmd_serve(const Args& a) {
  auto plan = std::make_shared<codegen::DataServicePlan>(
      load_descriptor(a.positional.at(0)), a.positional.at(1),
      a.flag("root", "."));
  static std::optional<zonemap::ZoneMap> idx;
  idx = load_index(a, *plan);
  storm::QueryServer server(plan, {}, a.flag_int("port", 0),
                            idx ? &*idx : nullptr);
  std::printf("serving dataset %s on 127.0.0.1:%d  (Ctrl-C to stop)\n",
              a.positional[1].c_str(), server.port());
  std::fflush(stdout);
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

// Remote-mode query: submit to a running server.
int cmd_query_remote(const Args& a) {
  if (a.positional.empty()) usage("expected \"SELECT ...\"");
  storm::QueryClient client(a.flag("host"), a.flag_int("port", 0));
  storm::PartitionSpec part;
  part.num_consumers = a.flag_int("partition", 1);
  if (part.num_consumers > 1)
    part.policy = storm::PartitionSpec::Policy::kRoundRobin;
  Stopwatch sw;
  storm::RemoteResult r = client.execute(a.positional.back(), part);
  std::printf("rows: %llu across %zu partition(s) in %.1f ms\n",
              static_cast<unsigned long long>(r.total_rows()),
              r.partitions.size(), sw.elapsed_ms());
  for (const auto& ns : r.node_stats)
    std::printf("  node %d: %llu AFCs, %s read, %llu matched\n", ns.node_id,
                static_cast<unsigned long long>(ns.afcs),
                human_bytes(ns.bytes_read).c_str(),
                static_cast<unsigned long long>(ns.rows_matched));
  int sample = a.flag_int("csv", 10);
  if (sample > 0 && r.total_rows() > 0)
    std::printf(
        "\n%s",
        std::move(r).merged().to_csv(static_cast<std::size_t>(sample)).c_str());
  return 0;
}

int cmd_query(const Args& a) {
  if (a.has("host")) return cmd_query_remote(a);
  if (a.positional.size() < 3)
    usage("expected <descriptor> <dataset> \"SELECT ...\"");
  auto plan = std::make_shared<codegen::DataServicePlan>(
      load_descriptor(a.positional[0]),
      a.positional[1], a.flag("root", "."));

  std::optional<zonemap::ZoneMap> idx = load_index(a, *plan);

  storm::StormCluster cluster(plan);
  storm::PartitionSpec part;
  part.num_consumers = a.flag_int("partition", 1);
  if (part.num_consumers > 1)
    part.policy = storm::PartitionSpec::Policy::kRoundRobin;

  Stopwatch sw;
  storm::QueryResult r = cluster.execute(a.positional[2], part,
                                         idx ? &*idx : nullptr);
  double total = sw.elapsed_seconds();
  if (!r.first_error().empty()) {
    std::fprintf(stderr, "node error: %s\n", r.first_error().c_str());
    return 1;
  }
  std::printf("rows: %llu across %zu partition(s)\n",
              static_cast<unsigned long long>(r.total_rows()),
              r.partitions.size());
  std::printf("time: %.1f ms wall, %.1f ms makespan over %d node(s)\n",
              total * 1e3, r.makespan_seconds * 1e3, cluster.num_nodes());
  for (const auto& ns : r.node_stats)
    std::printf("  node %d: %llu AFCs, %s read, %llu scanned, %llu "
                "matched, %.1f ms busy\n",
                ns.node_id, static_cast<unsigned long long>(ns.afcs),
                human_bytes(ns.bytes_read).c_str(),
                static_cast<unsigned long long>(ns.rows_scanned),
                static_cast<unsigned long long>(ns.rows_matched),
                ns.busy_seconds * 1e3);
  int sample = a.flag_int("csv", 10);
  if (sample > 0 && r.total_rows() > 0) {
    std::printf(
        "\n%s",
        std::move(r).merged().to_csv(static_cast<std::size_t>(sample)).c_str());
  }
  return 0;
}

int cmd_emit(const Args& a) {
  codegen::DataServicePlan plan = make_plan(a);
  std::optional<zonemap::ZoneMap> idx = load_index(a, plan);
  std::string src = codegen::emit_cpp(plan.model(), idx ? &*idx : nullptr);
  std::string out = a.flag("out");
  if (out.empty()) {
    std::printf("%s", src.c_str());
  } else {
    write_text_file(out, src);
    std::fprintf(stderr, "wrote %zu bytes of generated C++ to %s\n",
                 src.size(), out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::string cmd = argv[1];
  Args args = parse_args(argc, argv, 2);
  try {
    if (cmd == "parse") return cmd_parse(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "verify") return cmd_verify(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "index") return cmd_index(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "emit") return cmd_emit(args);
    usage(("unknown command '" + cmd + "'").c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "advtool: %s\n", e.what());
    return 1;
  }
}
