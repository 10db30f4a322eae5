#include "api/virtual_table.h"

#include "common/string_util.h"
#include "metadata/xml.h"
#include "sql/ast.h"

namespace adv {

namespace {

uint64_t fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

VirtualTable VirtualTable::open(const std::string& descriptor_text,
                                const std::string& dataset_name,
                                const std::string& root_path,
                                const Options& options) {
  VirtualTable vt;
  std::size_t i = descriptor_text.find_first_not_of(" \t\r\n");
  meta::Descriptor desc =
      (i != std::string::npos && descriptor_text[i] == '<')
          ? meta::parse_descriptor_xml(descriptor_text)
          : meta::parse_descriptor(descriptor_text);
  vt.plan_ = std::make_shared<codegen::DataServicePlan>(std::move(desc),
                                                        dataset_name,
                                                        root_path);
  vt.descriptor_hash_ =
      fnv1a(root_path, fnv1a(dataset_name, fnv1a(descriptor_text)));
  if (options.verify) {
    auto problems = vt.plan_->verify_files();
    if (!problems.empty())
      throw IoError("VirtualTable::open: " + problems.front() +
                    (problems.size() > 1
                         ? format(" (and %zu more)", problems.size() - 1)
                         : ""));
  }
  vt.cluster_ =
      std::make_shared<storm::StormCluster>(vt.plan_, options.cluster);
  if (!options.zonemap_dir.empty())
    vt.zonemap_ = zonemap::ZoneMap::load(options.zonemap_dir, *vt.plan_);
  // build_zonemap guarantees a fully fresh map: rebuild when the sidecar is
  // missing, unreadable, or has entries dropped for files that changed.
  if (options.build_zonemap &&
      (!vt.zonemap_ || vt.zonemap_->num_stale_files() > 0)) {
    vt.zonemap_ = zonemap::ZoneMap::build(*vt.plan_,
                                          vt.cluster_->extraction_pool());
    if (!options.zonemap_dir.empty())
      vt.zonemap_->save(options.zonemap_dir, *vt.plan_);
  }
  if (options.plan_cache_capacity > 0)
    vt.plan_cache_ =
        std::make_shared<PlanCache>(options.plan_cache_capacity);
  vt.partial_results_ = options.partial_results;
  return vt;
}

uint64_t VirtualTable::total_candidate_rows() const {
  expr::BoundQuery q =
      plan_->bind("SELECT * FROM " + plan_->model().dataset_name());
  return plan_->index_fn(q).candidate_rows();
}

const afc::ChunkFilter* VirtualTable::chunk_filter() const {
  return zonemap_ ? &*zonemap_ : nullptr;
}

std::string VirtualTable::plan_key(const std::string& sql) const {
  return format("%016llx|",
                static_cast<unsigned long long>(descriptor_hash_)) +
         sql::parse_select(sql).to_string();
}

expr::Table VirtualTable::query(const std::string& sql,
                                CancelToken* cancel) const {
  return query_detailed(sql, {}, cancel).merged();
}

storm::QueryResult VirtualTable::query_detailed(
    const std::string& sql, const storm::PartitionSpec& partition,
    CancelToken* cancel) const {
  storm::QueryResult r;
  if (plan_cache_) {
    const std::string key = plan_key(sql);
    std::shared_ptr<const CachedPlan> entry = plan_cache_->find(key);
    if (!entry) {
      auto fresh = std::make_shared<CachedPlan>(plan_->bind(sql));
      fresh->node_plans =
          cluster_->plan_nodes(fresh->query, chunk_filter());
      plan_cache_->insert(key, fresh);
      entry = std::move(fresh);
    }
    r = cluster_->execute_planned(entry->query, entry->node_plans, partition,
                                  cancel);
  } else {
    r = cluster_->execute(sql, partition, chunk_filter(), cancel);
  }
  std::string err = r.first_error();
  if (err.empty()) return r;

  ErrorKind kind = r.first_error_kind();
  // Partial-results mode: as long as one node answered and the query was
  // not cancelled, hand back what survived; the per-node errors stay in
  // the result for the caller to inspect.
  if (partial_results_ && kind != ErrorKind::kCancelled &&
      r.failed_nodes().size() < r.node_stats.size())
    return r;

  const std::string msg = "query failed on a node: " + err;
  switch (kind) {
    case ErrorKind::kCancelled: throw CancelledError(msg);
    case ErrorKind::kParse: throw ParseError(msg, 0, 0);
    case ErrorKind::kValidation: throw ValidationError(msg);
    case ErrorKind::kQuery: throw QueryError(msg);
    case ErrorKind::kInternal: throw InternalError(msg);
    default: throw IoError(msg);
  }
}

}  // namespace adv
