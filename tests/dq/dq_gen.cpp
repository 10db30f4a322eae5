#include "dq/dq_gen.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/string_util.h"
#include "dataset/layout_writer.h"

namespace adv::dq {

DqDataset make_dataset(uint64_t seed) {
  SplitMix64 rng(mix64(seed ^ 0xd1f2fa57ULL));
  DqDataset d;
  d.seed = seed;
  d.nodes = 1 + static_cast<int>(rng.next_below(3));
  d.rels = 1 + static_cast<int>(rng.next_below(3));
  d.timesteps = 2 + static_cast<int>(rng.next_below(10));
  d.grid_per_node = 4 + static_cast<int>(rng.next_below(13));
  d.payloads = 1 + static_cast<int>(rng.next_below(5));
  d.rel_in_filename = rng.next_below(2) == 0;
  d.time_in_filename = !d.rel_in_filename && rng.next_below(4) == 0;
  d.time_outer = rng.next_below(2) == 0;
  // TIME cannot be both the record loop and a file-name binding (the
  // descriptor validator rejects the contradiction).
  d.transposed = !d.time_in_filename && rng.next_below(5) == 0;
  d.arrays = rng.next_below(2) == 0;
  d.store_dims = !d.transposed && rng.next_below(3) == 0;
  d.headers = rng.next_below(3) == 0;
  d.num_leaves =
      1 + static_cast<int>(rng.next_below(static_cast<uint64_t>(d.payloads)));
  // Titan-style spatio-temporal chunking: the record loop is always CELL
  // inside a LAT x LON chunk grid, so transposed does not apply.
  d.st_grid = rng.next_below(4) == 0;
  if (d.st_grid) {
    d.transposed = false;
    d.lat_chunks = 1 + static_cast<int>(rng.next_below(3));
    d.lon_chunks = 1 + static_cast<int>(rng.next_below(3));
    d.cells_per_chunk = 2 + static_cast<int>(rng.next_below(5));
    d.grid_per_node = d.lat_chunks * d.lon_chunks * d.cells_per_chunk;
  }
  // Column-major record loops subsume per-variable arrays (one contiguous
  // array per attribute either way); generate them as distinct shapes.
  d.colmajor = rng.next_below(4) == 0;
  if (d.colmajor) d.arrays = false;
  return d;
}

double DqDataset::value(const std::string& attr, int rel, int time,
                        int gid) const {
  if (attr == "REL") return rel;
  if (attr == "TIME") return time;
  if (st_grid && attr == "LAT")
    return (gid - 1) / (lon_chunks * cells_per_chunk) + 1;
  if (st_grid && attr == "LON")
    return (gid - 1) / cells_per_chunk % lon_chunks + 1;
  uint64_t h = mix64(seed ^ 0xdadafeedULL);
  h = hash_combine(h, std::hash<std::string>{}(attr));
  h = hash_combine(h, static_cast<uint64_t>(rel));
  h = hash_combine(h, static_cast<uint64_t>(time));
  h = hash_combine(h, static_cast<uint64_t>(gid));
  // Payloads are stored as float32; derive the value from a 24-bit mantissa
  // so the double the oracle computes round-trips the file exactly.
  uint32_t m = static_cast<uint32_t>(h >> 40);
  return static_cast<double>(static_cast<float>(m) * (1.0f / 16777216.0f));
}

std::string DqDataset::descriptor() const {
  std::ostringstream os;
  const std::string ty = name + "T";
  os << "[" << ty << "]\nREL = short int\nTIME = int\n";
  if (st_grid) os << "LAT = int\nLON = int\n";
  for (int p = 1; p <= payloads; ++p) os << "P" << p << " = float\n";
  os << "\n[" << name << "]\nDatasetDescription = " << ty << "\n";
  for (int n = 0; n < nodes; ++n)
    os << "DIR[" << n << "] = node" << n << "/dq\n";
  os << "\nDATASET \"" << name << "\" {\n  DATATYPE { " << ty << " }\n"
     << "  DATAINDEX { REL TIME" << (st_grid ? " LAT LON" : "") << " }\n";

  // Vertical partition: contiguous round-robin of payloads over leaves.
  std::vector<std::vector<std::string>> leaf_attrs(
      static_cast<std::size_t>(num_leaves));
  for (int p = 0; p < payloads; ++p)
    leaf_attrs[static_cast<std::size_t>(p * num_leaves / payloads)].push_back(
        "P" + std::to_string(p + 1));

  const std::string grid_range =
      format("($DIRID*%d+1):(($DIRID+1)*%d):1", grid_per_node, grid_per_node);
  const std::string time_range = format("1:%d:1", timesteps);
  const std::string rel_range = format("0:%d:1", rels - 1);

  for (std::size_t l = 0; l < leaf_attrs.size(); ++l) {
    if (leaf_attrs[l].empty()) continue;
    std::vector<std::string> fields = leaf_attrs[l];
    if (store_dims) {
      fields.insert(fields.begin(), "TIME");
      fields.insert(fields.begin(), "REL");
    }
    os << "  DATASET \"leaf" << l << "\" {\n";
    if (headers)
      os << "    DATATYPE { " << ty << " HDR = long MARK = int }\n";
    os << "    DATASPACE {\n";
    if (headers) os << "      HDR\n";

    // Structure loops for dimensions not bound in the file name, then the
    // record loop.
    std::vector<std::pair<std::string, std::string>> outer;
    if (!rel_in_filename && !time_in_filename) {
      if (time_outer) {
        outer.push_back({"TIME", time_range});
        outer.push_back({"REL", rel_range});
      } else {
        outer.push_back({"REL", rel_range});
        outer.push_back({"TIME", time_range});
      }
    } else if (rel_in_filename) {
      outer.push_back({"TIME", time_range});
    } else {
      outer.push_back({"REL", rel_range});
    }

    std::string record_ident = "GRID";
    std::string record_range = grid_range;
    if (st_grid) {
      // Spatio-temporal chunk grid: LAT spans the nodes (spatial
      // partitioning via $DIRID), LON and the CELL record loop are
      // per-chunk.
      outer.push_back({"LAT", format("($DIRID*%d+1):(($DIRID+1)*%d):1",
                                     lat_chunks, lat_chunks)});
      outer.push_back({"LON", format("1:%d:1", lon_chunks)});
      record_ident = "CELL";
      record_range = format("1:%d:1", cells_per_chunk);
    } else if (transposed) {
      record_ident = "TIME";
      record_range = time_range;
      for (auto& [ident, range] : outer)
        if (ident == "TIME") {
          ident = "GRID";
          range = grid_range;
        }
    }

    std::string pad = "      ";
    for (const auto& [ident, range] : outer) {
      os << pad << "LOOP " << ident << " " << range << " {\n";
      pad += "  ";
      if (headers) os << pad << "MARK\n";
    }
    if (arrays) {
      for (const auto& f : fields)
        os << pad << "LOOP " << record_ident << " " << record_range << " { "
           << f << " }\n";
    } else {
      os << pad << "LOOP " << record_ident << " " << record_range
         << (colmajor ? " COLMAJOR" : "") << " { " << join(fields, " ")
         << " }\n";
    }
    for (std::size_t k = 0; k < outer.size(); ++k) {
      pad.resize(pad.size() - 2);
      os << pad << "}\n";
    }
    os << "    }\n    DATA { \"DIR[$DIRID]/L" << l;
    if (rel_in_filename) os << "R$REL";
    if (time_in_filename) os << "T$TIME";
    os << "\"";
    if (rel_in_filename) os << " REL = " << rel_range;
    if (time_in_filename) os << " TIME = " << time_range;
    os << format(" DIRID = 0:%d:1", nodes - 1) << " }\n  }\n";
  }
  os << "}\n";
  return os.str();
}

void write_files(const DqDataset& d, const afc::DatasetModel& model) {
  dataset::ValueFn fn = [&d](const std::string& attr,
                             const meta::VarEnv& vars) {
    int rel = vars.has("REL") ? static_cast<int>(vars.get("REL")) : 0;
    int time = vars.has("TIME") ? static_cast<int>(vars.get("TIME")) : 0;
    int gid = vars.has("GRID") ? static_cast<int>(vars.get("GRID")) : 0;
    if (d.st_grid && vars.has("CELL")) {
      // Cell id from the (LAT, LON, CELL) chunk coordinates; LAT already
      // carries the node offset via $DIRID.
      int lat = static_cast<int>(vars.get("LAT"));
      int lon = static_cast<int>(vars.get("LON"));
      int cell = static_cast<int>(vars.get("CELL"));
      gid = ((lat - 1) * d.lon_chunks + (lon - 1)) * d.cells_per_chunk + cell;
    }
    return d.value(attr, rel, time, gid);
  };
  for (const auto& cf : model.files()) {
    std::filesystem::create_directories(
        std::filesystem::path(cf.full_path).parent_path());
    const auto& leaf = model.leaves()[static_cast<std::size_t>(cf.leaf)];
    dataset::write_file_from_layout(*leaf.decl, model.schema(), cf.env,
                                    cf.full_path, fn);
  }
}

namespace {

// IEEE total order as an unsigned compare — the documented contract for
// group-key identity and ORDER BY (docs/AGGREGATION.md).
uint64_t oracle_obits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return (b >> 63) ? ~b : b | (uint64_t{1} << 63);
}

// Third, independent aggregation / top-k implementation over the oracle's
// scan rows (the engine lives in src/agg, the naive reference in
// codegen/plan.cpp).  Structured differently from both on purpose:
// sort-based run grouping instead of a map or hash table, and long-double
// SUM/AVG accumulation — so its SUM/AVG values match the other two only
// within float tolerance, which is exactly what the harness's tolerant
// comparison demands of those columns.
expr::Table oracle_pushdown(const expr::BoundQuery& q,
                            const expr::Table& scan) {
  const std::vector<expr::Table::Column> out_schema = q.result_columns();
  const std::size_t width = out_schema.size();
  const double qnan = std::numeric_limits<double>::quiet_NaN();

  std::vector<double> rows;  // final rows, row-major `width` wide
  if (q.has_aggregates()) {
    const auto& key_cols = q.group_key_cols();
    const auto& items = q.agg_items();
    const std::size_t n = scan.num_rows();
    const std::size_t ncols = scan.columns().size();
    std::vector<double> cells(n * ncols);
    std::vector<std::vector<uint64_t>> kb(
        n, std::vector<uint64_t>(key_cols.size()));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < ncols; ++c)
        cells[r * ncols + c] = scan.at(r, c);
      for (std::size_t k = 0; k < key_cols.size(); ++k) {
        double v = cells[r * ncols + static_cast<std::size_t>(key_cols[k])];
        if (std::isnan(v)) v = qnan;
        if (v == 0) v = 0.0;
        kb[r][k] = oracle_obits(v);
      }
    }
    std::vector<std::size_t> ord(n);
    std::iota(ord.begin(), ord.end(), std::size_t{0});
    std::sort(ord.begin(), ord.end(),
              [&](std::size_t x, std::size_t y) { return kb[x] < kb[y]; });

    auto emit_group = [&](const std::vector<std::size_t>& members) {
      std::vector<double> keyvals(key_cols.size());
      for (std::size_t k = 0; k < key_cols.size(); ++k) {
        double v = members.empty()
                       ? qnan
                       : cells[members[0] * ncols +
                               static_cast<std::size_t>(key_cols[k])];
        if (std::isnan(v)) v = qnan;
        if (v == 0) v = 0.0;
        keyvals[k] = v;
      }
      for (const auto& o : q.output_cols()) {
        if (!o.is_agg) {
          rows.push_back(keyvals[static_cast<std::size_t>(o.index)]);
          continue;
        }
        const auto& item = items[static_cast<std::size_t>(o.index)];
        const uint64_t count = members.size();
        if (item.fn == sql::AggFn::kCount) {
          rows.push_back(static_cast<double>(count));
          continue;
        }
        long double sum = 0.0L;
        double mn = 0, mx = 0;
        bool seen = false;
        for (std::size_t m : members) {
          const double v = item.input.eval(cells.data() + m * ncols);
          sum += v;
          if (!std::isnan(v)) {
            if (!seen || v < mn) mn = v;
            if (!seen || v > mx) mx = v;
            seen = true;
          }
        }
        switch (item.fn) {
          case sql::AggFn::kSum:
            rows.push_back(count ? static_cast<double>(sum) : 0.0);
            break;
          case sql::AggFn::kAvg:
            rows.push_back(count ? static_cast<double>(
                                       sum / static_cast<long double>(count))
                                 : qnan);
            break;
          case sql::AggFn::kMin:
            rows.push_back(seen ? mn : qnan);
            break;
          default:
            rows.push_back(seen ? mx : qnan);
            break;
        }
      }
    };

    // Global aggregate over empty input still yields its one row.
    if (n == 0 && key_cols.empty()) emit_group({});
    std::vector<std::size_t> run;
    for (std::size_t i = 0; i < n; ++i) {
      if (!run.empty() && kb[ord[i]] != kb[run[0]]) {
        emit_group(run);
        run.clear();
      }
      run.push_back(ord[i]);
    }
    if (!run.empty()) emit_group(run);
  } else {
    // Plain top-k: scan rows already have the final schema.
    rows.reserve(scan.num_rows() * width);
    for (std::size_t r = 0; r < scan.num_rows(); ++r)
      for (std::size_t c = 0; c < width; ++c) rows.push_back(scan.at(r, c));
  }

  // ORDER BY keys, then whole-row lexicographic tie-break — the same total
  // order the engine and the naive reference use, so a LIMIT cuts all
  // three at the same rows (the generated grammar keeps ORDER BY and the
  // leading columns exact, see random_query).
  const std::size_t nrows = width ? rows.size() / width : 0;
  std::vector<std::size_t> perm(nrows);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
    const double* a = rows.data() + x * width;
    const double* b = rows.data() + y * width;
    for (const auto& k : q.order_keys()) {
      const uint64_t u = oracle_obits(a[k.col]), v = oracle_obits(b[k.col]);
      if (u != v) return k.desc ? u > v : u < v;
    }
    for (std::size_t c = 0; c < width; ++c) {
      const uint64_t u = oracle_obits(a[c]), v = oracle_obits(b[c]);
      if (u != v) return u < v;
    }
    return false;
  });
  std::size_t keep = nrows;
  if (q.limit() >= 0)
    keep = std::min<std::size_t>(keep, static_cast<std::size_t>(q.limit()));
  expr::Table out(out_schema);
  for (std::size_t i = 0; i < keep; ++i)
    out.append_rows(rows.data() + perm[i] * width, 1);
  return out;
}

}  // namespace

expr::Table oracle_rows(const DqDataset& d, const expr::BoundQuery& q) {
  const meta::Schema& s = q.schema();
  // Pushdown queries aggregate scan rows (select-slot order); plain
  // queries emit them directly (same shape either way).
  std::vector<expr::Table::Column> scan_cols;
  for (int a : q.select_attrs()) {
    const auto& attr = s.at(static_cast<std::size_t>(a));
    scan_cols.push_back({attr.name, attr.type});
  }
  expr::Table out(scan_cols);
  const auto& needed = q.needed_attrs();
  std::vector<double> buf(needed.size());
  std::vector<double> sel(q.select_slots().size());
  for (int rel = 0; rel < d.rels; ++rel)
    for (int time = 1; time <= d.timesteps; ++time)
      for (int gid = 1; gid <= d.nodes * d.grid_per_node; ++gid) {
        for (std::size_t i = 0; i < needed.size(); ++i)
          buf[i] = d.value(s.at(static_cast<std::size_t>(needed[i])).name,
                           rel, time, gid);
        if (!q.matches(buf.data())) continue;
        for (std::size_t i = 0; i < sel.size(); ++i)
          sel[i] = buf[static_cast<std::size_t>(q.select_slots()[i])];
        out.append_row(sel.data());
      }
  if (q.is_pushdown()) return oracle_pushdown(q, out);
  return out;
}

namespace {

// One atomic condition over the dimensions or payloads.  `pfx` is prepended
// to every attribute reference ("" for single-table queries, "A." / "B."
// for the alias-qualified side conjuncts of a join) — same draws, same
// condition, different spelling.
std::string random_cond(const DqDataset& d, SplitMix64& rng,
                        const std::string& pfx = "") {
  const char* x = pfx.c_str();
  switch (rng.next_below(d.st_grid ? 8 : 6)) {
    case 6: {  // LAT range (prunes whole spatial chunk rows)
      int nlat = d.nodes * d.lat_chunks;
      int lo = 1 + static_cast<int>(rng.next_below(
                       static_cast<uint64_t>(nlat)));
      int hi = lo + static_cast<int>(
                        rng.next_below(static_cast<uint64_t>(nlat - lo + 1)));
      return format("%sLAT BETWEEN %d AND %d", x, lo, hi);
    }
    case 7: {  // LON equality or range
      int lon = 1 + static_cast<int>(rng.next_below(
                        static_cast<uint64_t>(d.lon_chunks)));
      if (rng.next_below(2) == 0) return format("%sLON = %d", x, lon);
      return format("%sLON >= %d", x, lon);
    }
    case 0: {  // TIME range
      int lo = 1 + static_cast<int>(
                       rng.next_below(static_cast<uint64_t>(d.timesteps)));
      int hi = lo + static_cast<int>(rng.next_below(
                        static_cast<uint64_t>(d.timesteps - lo + 1)));
      return rng.next_below(2) == 0
                 ? format("%sTIME >= %d AND %sTIME <= %d", x, lo, x, hi)
                 : format("%sTIME BETWEEN %d AND %d", x, lo, hi);
    }
    case 1: {  // TIME IN list
      int k = 1 + static_cast<int>(rng.next_below(4));
      std::vector<std::string> vals;
      for (int i = 0; i < k; ++i)
        vals.push_back(std::to_string(
            1 + static_cast<int>(
                    rng.next_below(static_cast<uint64_t>(d.timesteps)))));
      return pfx + "TIME IN (" + join(vals, ", ") + ")";
    }
    case 2: {  // REL equality or IN
      int r = static_cast<int>(rng.next_below(static_cast<uint64_t>(d.rels)));
      if (d.rels > 1 && rng.next_below(2) == 0) {
        int r2 =
            static_cast<int>(rng.next_below(static_cast<uint64_t>(d.rels)));
        return format("%sREL IN (%d, %d)", x, r, r2);
      }
      return format("%sREL = %d", x, r);
    }
    case 3: {  // payload comparison
      int p = 1 + static_cast<int>(
                      rng.next_below(static_cast<uint64_t>(d.payloads)));
      return format("%sP%d %s 0.%d", x, p, rng.next_below(2) == 0 ? "<" : ">=",
                    1 + static_cast<int>(rng.next_below(8)));
    }
    case 4: {  // filter function over payloads
      int p = 1 + static_cast<int>(
                      rng.next_below(static_cast<uint64_t>(d.payloads)));
      int q = 1 + static_cast<int>(
                      rng.next_below(static_cast<uint64_t>(d.payloads)));
      switch (rng.next_below(3)) {
        case 0:
          return format("ABSV(%sP%d - 0.5) < 0.%d", x, p,
                        1 + static_cast<int>(rng.next_below(5)));
        case 1:
          return format("MAG2(%sP%d, %sP%d) %s 0.%d", x, p, x, q,
                        rng.next_below(2) == 0 ? "<" : ">=",
                        2 + static_cast<int>(rng.next_below(7)));
        default:
          return format("SPEED(%sP%d, %sP%d, %sP%d) < 1.%d", x, p, x, q, x,
                        1 + static_cast<int>(rng.next_below(
                                static_cast<uint64_t>(d.payloads))),
                        static_cast<int>(rng.next_below(10)));
      }
    }
    default: {  // negated payload comparison
      int p = 1 + static_cast<int>(
                      rng.next_below(static_cast<uint64_t>(d.payloads)));
      return format("NOT %sP%d < 0.%d", x, p,
                    1 + static_cast<int>(rng.next_below(8)));
    }
  }
}

}  // namespace

std::string random_query(const DqDataset& d, SplitMix64& rng) {
  std::size_t nconds = rng.next_below(3);  // 0..2 top-level conjuncts
  std::vector<std::string> conds;
  for (std::size_t i = 0; i < nconds; ++i) {
    std::string c = random_cond(d, rng);
    // Sometimes widen a conjunct into a parenthesized disjunction.
    if (rng.next_below(4) == 0)
      c = "(" + c + " OR " + random_cond(d, rng) + ")";
    conds.push_back(c);
  }
  const std::string where =
      conds.empty() ? "" : " WHERE " + join(conds, " AND ");

  const uint64_t shape = rng.next_below(4);
  if (shape == 0) {
    // Aggregation pushdown: GROUP BY over the dimension attrs (or a global
    // aggregate) with COUNT/SUM/AVG/MIN/MAX over the payloads.  Group keys
    // lead the select list so the whole-row tie-break that every executor
    // shares resolves on exact columns, and ORDER BY sticks to the exact
    // outputs (keys, COUNT, MIN, MAX) — SUM/AVG compare only within float
    // tolerance, so ordering by them could cut a LIMIT at different rows.
    // The bare shape references no attribute at all: only COUNT(*) items
    // and no WHERE, so the planner must still find the record loop.
    std::vector<std::string> keys;
    bool bare = false;
    switch (rng.next_below(d.st_grid ? 6 : 5)) {
      case 0: break;  // global aggregate
      case 1: keys = {"REL"}; break;
      case 2: keys = {"TIME"}; break;
      case 4: bare = true; break;
      case 5: keys = {"LAT", "LON"}; break;
      default: keys = {"REL", "TIME"}; break;
    }
    std::vector<std::string> items;
    std::vector<std::string> orderable = keys;
    const int nitems = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < nitems; ++i) {
      const std::string p =
          format("P%d", 1 + static_cast<int>(rng.next_below(
                                static_cast<uint64_t>(d.payloads))));
      const uint64_t fn = rng.next_below(5);
      switch (bare ? 0 : fn) {
        case 0:
          items.push_back("COUNT(*)");
          orderable.push_back(items.back());
          break;
        case 1:
          items.push_back("SUM(" + p + ")");
          break;
        case 2:
          items.push_back("AVG(" + p + ")");
          break;
        case 3:
          items.push_back("MIN(" + p + ")");
          orderable.push_back(items.back());
          break;
        default:
          items.push_back("MAX(" + p + ")");
          orderable.push_back(items.back());
          break;
      }
    }
    std::vector<std::string> select = keys;
    select.insert(select.end(), items.begin(), items.end());
    std::string sql = "SELECT " + join(select, ", ") + " FROM " + d.name +
                      (bare ? "" : where);
    if (!keys.empty()) sql += " GROUP BY " + join(keys, ", ");
    if (!orderable.empty() && rng.next_below(2) == 0) {
      sql += " ORDER BY " +
             orderable[rng.next_below(orderable.size())] +
             (rng.next_below(2) == 0 ? " DESC" : "");
      if (rng.next_below(4) != 0)
        sql += format(" LIMIT %d", 1 + static_cast<int>(rng.next_below(8)));
    } else if (rng.next_below(4) == 0) {
      sql += format(" LIMIT %d", 1 + static_cast<int>(rng.next_below(8)));
    }
    return sql;
  }
  if (shape == 1) {
    // Plain top-k: full rows through the bounded per-worker heap.  Rows
    // are exact, and ties break on the shared whole-row total order, so
    // the LIMIT cut is byte-identical everywhere.
    std::string attr;
    switch (rng.next_below(3)) {
      case 0: attr = "REL"; break;
      case 1: attr = "TIME"; break;
      default:
        attr = format("P%d", 1 + static_cast<int>(rng.next_below(
                                     static_cast<uint64_t>(d.payloads))));
        break;
    }
    return "SELECT * FROM " + d.name + where + " ORDER BY " + attr +
           (rng.next_below(2) == 0 ? " DESC" : "") +
           format(" LIMIT %d", 1 + static_cast<int>(rng.next_below(12)));
  }
  return "SELECT * FROM " + d.name + where;
}

DqJoinCase random_join_query(const DqDataset& a, const DqDataset& b,
                             SplitMix64& rng) {
  DqJoinCase jc;
  // REL and TIME are implicit in every generated shape (file-name binding,
  // structure loop, or record loop), so any subset joins.
  switch (rng.next_below(3)) {
    case 0: jc.keys = {"TIME"}; break;
    case 1: jc.keys = {"REL"}; break;
    default: jc.keys = {"REL", "TIME"}; break;
  }
  std::vector<std::string> conj;
  for (const std::string& k : jc.keys)
    conj.push_back("A." + k + " = B." + k);
  std::vector<std::string> side_conds[2];
  for (int side = 0; side < 2; ++side) {
    const DqDataset& d = side == 0 ? a : b;
    const std::string pfx = side == 0 ? "A." : "B.";
    const std::size_t n = rng.next_below(3);  // 0..2 conjuncts per side
    for (std::size_t i = 0; i < n; ++i) {
      // Fork the stream so the qualified (join) and unqualified (side
      // query) spellings come from identical draws.
      SplitMix64 fork = rng;
      conj.push_back(random_cond(d, fork, pfx));
      side_conds[side].push_back(random_cond(d, rng));
    }
  }
  jc.sql = "SELECT * FROM " + a.name + " A, " + b.name + " B WHERE " +
           join(conj, " AND ");
  jc.left_sql = "SELECT * FROM " + a.name;
  if (!side_conds[0].empty())
    jc.left_sql += " WHERE " + join(side_conds[0], " AND ");
  jc.right_sql = "SELECT * FROM " + b.name;
  if (!side_conds[1].empty())
    jc.right_sql += " WHERE " + join(side_conds[1], " AND ");
  return jc;
}

expr::Table oracle_join(const expr::Table& left, const expr::Table& right,
                        const std::vector<std::string>& keys) {
  auto col_of = [](const expr::Table& t, const std::string& name) {
    for (std::size_t i = 0; i < t.columns().size(); ++i)
      if (t.columns()[i].name == name) return i;
    throw ValidationError("oracle_join: side table lacks key column " + name);
  };
  std::vector<std::size_t> lk, rk;
  for (const std::string& k : keys) {
    lk.push_back(col_of(left, k));
    rk.push_back(col_of(right, k));
  }
  std::vector<expr::Table::Column> cols = left.columns();
  cols.insert(cols.end(), right.columns().begin(), right.columns().end());
  expr::Table out(std::move(cols));
  std::vector<double> row(left.columns().size() + right.columns().size());
  for (std::size_t i = 0; i < left.num_rows(); ++i) {
    for (std::size_t j = 0; j < right.num_rows(); ++j) {
      bool match = true;
      // Keys are small exact integers in doubles; plain equality is exact.
      for (std::size_t k = 0; k < lk.size() && match; ++k)
        match = left.at(i, lk[k]) == right.at(j, rk[k]);
      if (!match) continue;
      std::size_t c = 0;
      for (std::size_t x = 0; x < left.columns().size(); ++x)
        row[c++] = left.at(i, x);
      for (std::size_t x = 0; x < right.columns().size(); ++x)
        row[c++] = right.at(j, x);
      out.append_row(row.data());
    }
  }
  return out;
}

}  // namespace adv::dq
