// Data version: the cache-invalidation half of the serving layer's result
// cache key (docs/SERVING.md §6).
//
// A cached query result is only reusable while the bytes it was computed
// from are still the bytes on disk.  DataVersion captures that as one
// 64-bit FNV-1a hash over the identity of a list of the dataset's data
// files (for a served query, its footprint: every file its node plans can
// read, afc::plan_footprint).  The identity is FileCache's FileId (dev,
// inode, size, nanosecond mtime), the same one the handle cache
// revalidates against, so a same-size rewrite within the same wall-clock
// second still changes the version.  When a zone-map sidecar directory is
// known, the identity of the sidecar file (<dataset>.zm) is folded in
// too.  A missing file hashes as an explicit "absent" marker, so creating
// or deleting the sidecar changes the version as well.
//
// The version is a *key component*, not a validation step: entries of a
// superseded version are simply never looked up again and age out of the
// LRU.  Computing it is one stat(2) per file: about 1.4 µs a file on a
// 4-CPU x86 host with warm dentries (a 277-file sweep took 270-455 µs).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "codegen/plan.h"

namespace adv::serve {

struct DataVersion {
  uint64_t hash = 0;
  uint64_t files_seen = 0;  // files stat'ed (diagnostics only)

  bool operator==(const DataVersion& o) const { return hash == o.hash; }
  bool operator!=(const DataVersion& o) const { return hash != o.hash; }

  // 16-hex-digit form, used in cache keys and logs.
  std::string hex() const;

  // Stats the data files `files` (indices into model.files(), hashed in
  // the order given) and, when `sidecar_dir` is non-empty, the dataset's
  // zone-map sidecar under that directory.  Never throws: an unstatable
  // file hashes as absent (a vanished file must invalidate, not crash the
  // server).
  static DataVersion compute(const afc::DatasetModel& model,
                             std::span<const uint32_t> files,
                             const std::string& sidecar_dir);

  // The whole-dataset version: every data file of `plan`'s model, in model
  // order, plus the sidecar as above.
  static DataVersion compute(const codegen::DataServicePlan& plan,
                             const std::string& sidecar_dir = std::string());
};

}  // namespace adv::serve
