// DataServicePlan — the compiler front door and the library's primary API.
//
// Construction performs the expensive metadata analysis once ("compile
// time" in the paper's two-phase design): descriptor parsing, concrete-file
// enumeration, region/stride analysis.  Afterwards index_fn() and execute()
// do only cheap per-query work.
//
//   DataServicePlan plan =
//       DataServicePlan::from_text(descriptor_text, "IparsData", root_dir);
//   expr::Table t = plan.execute(
//       "SELECT * FROM IparsData WHERE TIME > 1000 AND TIME < 1100");
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "afc/dataset_model.h"
#include "afc/planner.h"
#include "codegen/extractor.h"

namespace adv::codegen {

class DataServicePlan {
 public:
  // Compiles `dataset_name` of an already-parsed descriptor.  `root_path`
  // is the directory the storage DIR paths are relative to.
  DataServicePlan(meta::Descriptor desc, const std::string& dataset_name,
                  const std::string& root_path);

  // Parses `descriptor_text` and compiles.  Throws ParseError /
  // ValidationError / QueryError.
  static DataServicePlan from_text(const std::string& descriptor_text,
                                   const std::string& dataset_name,
                                   const std::string& root_path);

  const afc::DatasetModel& model() const { return *model_; }
  const meta::Schema& schema() const { return model_->schema(); }

  // Parses and binds a query.  The FROM clause must name this dataset (or
  // its schema), case-insensitively.
  expr::BoundQuery bind(const std::string& sql) const;

  // The generated index function: query -> aligned file chunk sets.
  afc::PlanResult index_fn(const expr::BoundQuery& q,
                           const afc::PlannerOptions& opts = {}) const;

  // Convenience single-process execution: plan + extract + filter.
  // (The STORM middleware runs the same pieces per virtual node instead.)
  expr::Table execute(const std::string& sql,
                      const afc::PlannerOptions& opts = {},
                      ExtractStats* stats = nullptr) const;
  expr::Table execute(const expr::BoundQuery& q,
                      const afc::PlannerOptions& opts = {},
                      ExtractStats* stats = nullptr) const;

  // Integrity check: every concrete file must exist with the byte size the
  // layout implies.  Returns human-readable problem descriptions (empty
  // when everything checks out).
  std::vector<std::string> verify_files() const;

 private:
  std::shared_ptr<afc::DatasetModel> model_;
};

}  // namespace adv::codegen
