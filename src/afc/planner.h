// The runtime half of the paper's Figure 5 algorithm.
//
// Given a compiled DatasetModel and a bound query, plan_afcs():
//   1. Find_File_Groups — prunes files by the query's implicit-attribute
//      constraints (file-name bindings and loop spans), forms the cartesian
//      product of matching files across the participating leaf datasets, and
//      drops combinations whose implicit attributes are inconsistent or
//      whose record loops cannot be aligned.
//   2. Process_File_Groups — enumerates aligned file chunk sets per group:
//      iterates the non-record ("enumerated") loops, skipping values the
//      query's intervals exclude (the index function), applies the optional
//      ChunkFilter (external chunk index, e.g. spatial min/max), clips the
//      record range when the record ident names a constrained attribute,
//      and computes per-chunk byte offsets.
#pragma once

#include "afc/dataset_model.h"
#include "afc/types.h"
#include "common/cancel.h"
#include "expr/predicate.h"

namespace adv::afc {

struct PlannerOptions {
  // External chunk index consulted per data-bearing chunk (may be null).
  const ChunkFilter* filter = nullptr;
  // Disable file-level implicit pruning (ablation only; results identical).
  bool prune_files = true;
  // Disable enumerated-loop interval pruning (ablation only).
  bool prune_loops = true;
  // Restrict planning to one virtual node (-1 = all nodes).
  int only_node = -1;
  // Cooperative cancellation: polled per file group and per considered
  // AFC; a fired token aborts planning with CancelledError.
  const CancelToken* cancel = nullptr;
};

// Plans the AFCs answering `q` against `model`.
// Throws QueryError when a needed attribute is neither stored in any file
// nor derivable as an implicit attribute.
PlanResult plan_afcs(const DatasetModel& model, const expr::BoundQuery& q,
                     const PlannerOptions& opts = {});

// The query's footprint: indices into model.files(), ascending, of every
// file some group of `plans` names.  Groups are formed before the chunk
// filter runs, so this is every file the planned query can read, whatever
// the filter later prunes.
std::vector<uint32_t> plan_footprint(const DatasetModel& model,
                                     const std::vector<PlanResult>& plans);

}  // namespace adv::afc
