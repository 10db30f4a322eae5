// C++ source emission: the compiler's second backend.
//
// Besides the in-process specialized plans (plan.h), the tool can emit a
// standalone C++ translation unit implementing the index and extraction
// functions for one dataset — the form the paper describes, where generated
// code is compiled into the STORM services.  The emitted unit has no advirt
// dependencies; its ABI is:
//
//   extern "C" int         advgen_num_attrs(void);
//   extern "C" const char* advgen_attr_name(int i);
//   extern "C" int         advgen_num_groups(void);
//   extern "C" int         advgen_group_node(int g);   // hosting node id
//   extern "C" long long   advgen_scan_group(int g, const char* root,
//                                      const double* lo, const double* hi,
//                                      void (*row_cb)(void*, const double*),
//                                      void* ctx);
//   extern "C" long long   advgen_scan(const char* root,
//                                      const double* lo, const double* hi,
//                                      void (*row_cb)(void*, const double*),
//                                      void* ctx);
//
// advgen_scan_group scans a single file group (a set of files whose chunks
// align); groups carry the id of the cluster node holding their files, so
// distributed middleware can run each node's groups on that node.
//
// advgen_scan evaluates a conjunctive interval query (closed [lo[i], hi[i]]
// per schema attribute; use -/+HUGE_VAL for unconstrained) with the same
// chunk-level pruning the interpreted index function performs, invokes
// row_cb for every matching row (values in schema order), and returns the
// number of rows delivered (negative errno-style value on I/O failure).
// Residual predicates beyond intervals (UDF filters, OR trees) remain the
// host's job, exactly as STORM's filtering service sits above extraction.
#pragma once

#include <string>

#include "afc/dataset_model.h"
#include "expr/predicate.h"

namespace adv::codegen {

// Emits the translation unit.  Group structure is unrolled at emission
// time, so this is intended for datasets with a moderate number of files.
//
// When `bounds` is given (e.g. a zonemap::ZoneMap built over the
// dataset), per-chunk attribute bounds are embedded into the generated
// code and chunks whose bounds are disjoint from the query intervals are
// skipped without I/O — the compiled equivalent of the indexing service.
std::string emit_cpp(const afc::DatasetModel& model,
                     const afc::ChunkBoundsSource* bounds = nullptr);

}  // namespace adv::codegen
