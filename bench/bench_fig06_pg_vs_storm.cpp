// Figure 6: "Comparison of PostgreSQL and STORM for Titan Dataset and
// Queries".
//
// The paper loads 6 GB of raw Titan data into PostgreSQL (18 GB after
// loading) and compares query times against STORM reading the original
// flat files.  Here minidb (a from-scratch row store with PostgreSQL's
// storage shape — see DESIGN.md) plays PostgreSQL; the advirt/STORM side
// reads the generated chunked flat files with compiler-generated index and
// extraction functions plus the spatial chunk index (a zone map over the
// DATAINDEX coordinates).
//
// Expected shape (paper): STORM wins on the scan-heavy queries 1, 2, 3, 5
// (PostgreSQL ~3.5x slower on Q1); PostgreSQL wins only on Q4, where its
// B-tree on S1 turns a 1%-selective predicate into a cheap index scan.
#include <memory>

#include "advirt.h"
#include "bench_util.h"
#include "common/tempdir.h"
#include "dataset/titan.h"
#include "minidb/db.h"

using namespace adv;

int main() {
  int s = bench::scale();
  dataset::TitanConfig cfg;
  cfg.nodes = 1;  // Fig. 6 compares single-server engines
  cfg.cells_x = 16;
  cfg.cells_y = 16;
  cfg.cells_z = 4;
  cfg.points_per_chunk = 512 * s;
  TempDir tmp("fig06");
  auto gen = dataset::generate_titan(cfg, tmp.str());

  auto plan = std::make_shared<codegen::DataServicePlan>(
      meta::parse_descriptor(gen.descriptor_text), gen.dataset_name,
      gen.root);
  zonemap::ZoneMap idx = zonemap::ZoneMap::build(
      *plan, nullptr, {.attrs = zonemap::ZoneMap::dataindex_attrs(*plan)});
  storm::StormCluster cluster(plan);

  // Load the same rows into minidb, indexed on the spatial coordinate X
  // and on S1 ("indexed by spatial coordinates in both systems and also by
  // attribute S1 in PostgreSQL").
  expr::Table all = plan->execute("SELECT * FROM TitanData");
  minidb::LoadStats ls;
  std::string dbdir = tmp.subdir("pg");
  minidb::Database db =
      minidb::Database::create(dbdir, "TITAN", all, {"X", "S1"}, &ls);

  std::printf("=== Figure 6: PostgreSQL(-substitute) vs STORM, Titan ===\n");
  std::printf("raw flat files: %s   loaded into row store: %s (%.1fx, "
              "paper: 6 GB -> 18 GB)   load time: %.2f s\n\n",
              human_bytes(gen.bytes_written).c_str(),
              human_bytes(ls.total_bytes()).c_str(),
              static_cast<double>(ls.total_bytes()) / gen.bytes_written,
              ls.load_seconds);

  struct Q {
    const char* id;
    std::string storm_sql;  // against TitanData
    std::string pg_sql;     // against TITAN
  };
  auto both = [](const char* where) {
    return std::pair<std::string, std::string>(
        std::string("SELECT * FROM TitanData") + where,
        std::string("SELECT * FROM TITAN") + where);
  };
  std::vector<Q> queries;
  for (const char* where : {
           "",
           " WHERE X >= 0 AND X <= 10000 AND Y >= 0 AND Y <= 10000 AND Z "
           ">= 0 AND Z <= 100",
           " WHERE DISTANCE(X, Y, Z) < 12000",
           " WHERE S1 < 0.01",
           " WHERE S1 < 0.5",
       }) {
    auto [ss, ps] = both(where);
    queries.push_back({"", ss, ps});
  }
  const char* ids[] = {"Q1 full scan", "Q2 spatial box", "Q3 DISTANCE()<r",
                       "Q4 S1<0.01", "Q5 S1<0.5"};

  // The paper's cluster (PIII, IDE disks) was disk-bound; this host page-
  // caches everything, so the "disk" columns charge each engine the bytes
  // it actually read at a paper-era disk bandwidth on top of measured CPU
  // time.  Set ADV_DISK_MBPS=0 to disable.
  double disk_bw = static_cast<double>(env_int("ADV_DISK_MBPS", 40)) * 1e6;
  bench::ResultTable table({"query", "PG (ms)", "PG disk (ms)", "plan",
                            "STORM (ms)", "STORM disk (ms)", "rows",
                            "winner @disk"});
  int storm_wins = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    minidb::ExecStats pes;
    uint64_t rows_pg = 0, rows_st = 0;
    double t_pg = bench::time_best([&] {
      rows_pg = db.query(queries[i].pg_sql, &pes).num_rows();
    });
    afc::PlannerOptions opts;
    opts.filter = &idx;
    codegen::ExtractStats ses;
    double t_st = bench::time_best([&] {
      codegen::ExtractStats stats;
      rows_st = plan->execute(queries[i].storm_sql, opts, &stats).num_rows();
      ses = stats;
    });
    if (rows_pg != rows_st)
      std::printf("!! row mismatch on %s: %llu vs %llu\n", ids[i],
                  static_cast<unsigned long long>(rows_pg),
                  static_cast<unsigned long long>(rows_st));
    double pg_disk = t_pg, st_disk = t_st;
    if (disk_bw > 0) {
      pg_disk += static_cast<double>(pes.pages_read) * 8192 / disk_bw;
      st_disk += static_cast<double>(ses.bytes_read) / disk_bw;
    }
    double ratio = pg_disk / st_disk;
    if (ratio >= 1.0) storm_wins++;
    table.add_row({ids[i], bench::ms(t_pg), bench::ms(pg_disk), pes.plan,
                   bench::ms(t_st), bench::ms(st_disk),
                   std::to_string(rows_st),
                   ratio >= 1.0 ? format("STORM %.1fx", ratio)
                                : format("PG %.1fx", 1.0 / ratio)});
  }
  table.print();
  std::printf("\nSTORM faster on %d of 5 at disk speed (paper: 4 of 5, "
              "PostgreSQL ahead only on the index-selective Q4)\n",
              storm_wins);
  return 0;
}
