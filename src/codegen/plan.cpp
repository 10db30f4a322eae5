#include "codegen/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>

#include "common/io.h"
#include "common/thread_pool.h"
#include "common/string_util.h"

namespace adv::codegen {

namespace {

// Column descriptors of the scan rows extraction produces for a pushdown
// query (group keys first, then aggregate inputs — select_slots order).
std::vector<expr::Table::Column> scan_columns(const expr::BoundQuery& q,
                                              const meta::Schema& schema) {
  std::vector<expr::Table::Column> cols;
  for (int a : q.select_attrs()) {
    const auto& attr = schema.at(static_cast<std::size_t>(a));
    cols.push_back({attr.name, attr.type});
  }
  return cols;
}

// Naive client-side aggregation / top-k over extracted scan rows — the
// differential reference the dq harness compares the pushdown engine
// against (docs/AGGREGATION.md).  Deliberately independent of src/agg:
// std::map grouping, plain left-to-right double accumulation, its own
// sort.  Keys, COUNT, MIN/MAX, and row ordering are exact matches for the
// engine's documented contract; SUM/AVG values may differ within float
// tolerance (plain sums vs the engine's exact superaccumulator).
expr::Table naive_pushdown(const expr::BoundQuery& q,
                           const expr::Table& scan) {
  const std::vector<expr::Table::Column> out_schema = q.result_columns();
  const std::size_t width = out_schema.size();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // IEEE total order as an unsigned compare; the documented contract for
  // both group-key identity (NaN groups with NaN, -0 with +0 after
  // canonicalization) and ORDER BY.
  auto obits = [](double v) -> uint64_t {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return (b >> 63) ? ~b : b | (uint64_t{1} << 63);
  };

  std::vector<double> rows;  // final rows, row-major `width` wide
  if (q.has_aggregates()) {
    struct Acc {
      uint64_t count = 0;
      double sum = 0, mn = 0, mx = 0;
      bool seen = false;
    };
    struct Group {
      std::vector<double> keys;
      std::vector<Acc> accs;
    };
    const auto& key_cols = q.group_key_cols();
    const auto& items = q.agg_items();
    std::map<std::vector<uint64_t>, Group> groups;
    std::vector<double> vals(scan.columns().size());
    std::vector<double> kv(key_cols.size());
    std::vector<uint64_t> kb(key_cols.size());
    for (std::size_t r = 0; r < scan.num_rows(); ++r) {
      for (std::size_t c = 0; c < vals.size(); ++c) vals[c] = scan.at(r, c);
      for (std::size_t k = 0; k < key_cols.size(); ++k) {
        double v = vals[static_cast<std::size_t>(key_cols[k])];
        if (std::isnan(v)) v = qnan;
        if (v == 0) v = 0.0;
        kv[k] = v;
        kb[k] = obits(v);
      }
      Group& g = groups[kb];
      if (g.accs.empty()) {
        g.keys = kv;
        g.accs.resize(items.size());
      }
      for (std::size_t j = 0; j < items.size(); ++j) {
        Acc& a = g.accs[j];
        ++a.count;
        if (items[j].fn == sql::AggFn::kCount) continue;
        const double v = items[j].input.eval(vals.data());
        a.sum += v;
        if (!std::isnan(v)) {
          if (!a.seen || v < a.mn) a.mn = v;
          if (!a.seen || v > a.mx) a.mx = v;
          a.seen = true;
        }
      }
    }
    // Global aggregate over empty input still yields its one row.
    if (groups.empty() && key_cols.empty())
      groups[{}] = Group{{}, std::vector<Acc>(items.size())};
    for (const auto& [bits, g] : groups) {
      (void)bits;
      for (const auto& o : q.output_cols()) {
        if (!o.is_agg) {
          rows.push_back(g.keys[static_cast<std::size_t>(o.index)]);
          continue;
        }
        const Acc& a = g.accs[static_cast<std::size_t>(o.index)];
        switch (items[static_cast<std::size_t>(o.index)].fn) {
          case sql::AggFn::kCount:
            rows.push_back(static_cast<double>(a.count));
            break;
          case sql::AggFn::kSum:
            rows.push_back(a.count ? a.sum : 0.0);
            break;
          case sql::AggFn::kAvg:
            rows.push_back(a.count ? a.sum / static_cast<double>(a.count)
                                   : qnan);
            break;
          case sql::AggFn::kMin:
            rows.push_back(a.seen ? a.mn : qnan);
            break;
          default:
            rows.push_back(a.seen ? a.mx : qnan);
            break;
        }
      }
    }
  } else {
    // Plain top-k: scan rows already have the final schema.
    rows.reserve(scan.num_rows() * width);
    for (std::size_t r = 0; r < scan.num_rows(); ++r)
      for (std::size_t c = 0; c < width; ++c) rows.push_back(scan.at(r, c));
  }

  const std::size_t nrows = width ? rows.size() / width : 0;
  std::vector<std::size_t> perm(nrows);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
    const double* a = rows.data() + x * width;
    const double* b = rows.data() + y * width;
    for (const auto& k : q.order_keys()) {
      const uint64_t u = obits(a[k.col]), v = obits(b[k.col]);
      if (u != v) return k.desc ? u > v : u < v;
    }
    for (std::size_t c = 0; c < width; ++c) {
      const uint64_t u = obits(a[c]), v = obits(b[c]);
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

DataServicePlan::DataServicePlan(meta::Descriptor desc,
                                 const std::string& dataset_name,
                                 const std::string& root_path)
    : model_(std::make_shared<afc::DatasetModel>(std::move(desc),
                                                 dataset_name, root_path)) {}

DataServicePlan DataServicePlan::from_text(const std::string& descriptor_text,
                                           const std::string& dataset_name,
                                           const std::string& root_path) {
  return DataServicePlan(meta::parse_descriptor(descriptor_text),
                         dataset_name, root_path);
}

expr::BoundQuery DataServicePlan::bind(const std::string& sql) const {
  sql::SelectQuery q = sql::parse_select(sql);
  if (q.is_join())
    throw QueryError(
        "FROM names " + std::to_string(q.tables.size()) +
        " datasets; a single-dataset plan cannot execute joins — use "
        "execute_join / join_query (api/join_query.h)");
  if (!iequals(q.table, model_->dataset_name()) &&
      !iequals(q.table, model_->schema().name))
    throw QueryError("query is against table '" + q.table +
                     "' but this plan serves dataset '" +
                     model_->dataset_name() + "' (schema " +
                     model_->schema().name + ")");
  return expr::BoundQuery(std::move(q), model_->schema());
}

afc::PlanResult DataServicePlan::index_fn(const expr::BoundQuery& q,
                                          const afc::PlannerOptions& opts) const {
  return afc::plan_afcs(*model_, q, opts);
}

expr::Table DataServicePlan::execute(const std::string& sql,
                                     const afc::PlannerOptions& opts,
                                     ExtractStats* stats) const {
  return execute(bind(sql), opts, stats);
}

expr::Table DataServicePlan::execute(const expr::BoundQuery& q,
                                     const afc::PlannerOptions& opts,
                                     ExtractStats* stats) const {
  afc::PlanResult pr = index_fn(q, opts);
  expr::Table out(q.is_pushdown() ? scan_columns(q, model_->schema())
                                  : q.result_columns());
  // The naive executors run the interp reference loop: they are the oracle
  // the differential harness compares the vector tier against.
  ExtractorOptions xopts;
  xopts.kernel_mode = KernelMode::kInterp;
  Extractor ex(xopts);
  std::vector<GroupBinding> bindings;
  bindings.reserve(pr.groups.size());
  for (const auto& g : pr.groups)
    bindings.push_back(bind_group(g, q, model_->schema()));
  ExtractStats total;
  total.afcs_pruned = pr.stats.afcs_filtered_by_index;
  total.rows_pruned = pr.stats.rows_pruned;
  total.bytes_skipped = pr.stats.bytes_skipped;
  for (const auto& a : pr.afcs) {
    total += ex.extract(pr.groups[static_cast<std::size_t>(a.group)], a,
                        bindings[static_cast<std::size_t>(a.group)], q, out);
  }
  if (stats) *stats = total;
  if (q.is_pushdown()) return naive_pushdown(q, out);
  return out;
}

expr::Table DataServicePlan::execute_parallel(
    const expr::BoundQuery& q, int threads, const afc::PlannerOptions& opts,
    ExtractStats* stats) const {
  if (threads < 1) throw QueryError("execute_parallel: threads must be >= 1");
  // Pushdown queries delegate to the sequential path: the naive reference
  // accumulates plain doubles, so its SUM/AVG values depend on fold order —
  // one fixed order keeps the reference deterministic (the engine's own
  // parallelism is exercised by StormCluster, not here).
  if (q.is_pushdown()) return execute(q, opts, stats);
  afc::PlanResult pr = index_fn(q, opts);
  std::vector<GroupBinding> bindings;
  bindings.reserve(pr.groups.size());
  for (const auto& g : pr.groups)
    bindings.push_back(bind_group(g, q, model_->schema()));

  std::vector<expr::Table> parts(static_cast<std::size_t>(threads),
                                 expr::Table(q.result_columns()));
  std::vector<ExtractStats> part_stats(static_cast<std::size_t>(threads));
  ThreadPool pool(static_cast<std::size_t>(threads));
  pool.parallel_for(static_cast<std::size_t>(threads), [&](std::size_t w) {
    ExtractorOptions xopts;
    xopts.kernel_mode = KernelMode::kInterp;
    Extractor ex(xopts);
    for (std::size_t i = w; i < pr.afcs.size();
         i += static_cast<std::size_t>(threads)) {
      const afc::Afc& a = pr.afcs[i];
      part_stats[w] +=
          ex.extract(pr.groups[static_cast<std::size_t>(a.group)], a,
                     bindings[static_cast<std::size_t>(a.group)], q,
                     parts[w]);
    }
  });
  expr::Table out = std::move(parts[0]);
  ExtractStats total = part_stats[0];
  for (std::size_t w = 1; w < parts.size(); ++w) {
    out.append_table(parts[w]);
    total += part_stats[w];
  }
  total.afcs_pruned += pr.stats.afcs_filtered_by_index;
  total.rows_pruned += pr.stats.rows_pruned;
  total.bytes_skipped += pr.stats.bytes_skipped;
  if (stats) *stats = total;
  return out;
}

std::vector<std::string> DataServicePlan::verify_files() const {
  std::vector<std::string> problems;
  for (const auto& f : model_->files()) {
    if (!file_exists(f.full_path)) {
      problems.push_back("missing file: " + f.full_path);
      continue;
    }
    uint64_t expect = model_->expected_file_bytes(f);
    uint64_t actual = file_size(f.full_path);
    if (actual != expect) {
      problems.push_back("size mismatch for " + f.full_path + ": layout "
                         "implies " + std::to_string(expect) + " bytes, file "
                         "has " + std::to_string(actual));
    }
  }
  return problems;
}

}  // namespace adv::codegen
