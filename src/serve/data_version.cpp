#include "serve/data_version.h"

#include <cstdio>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/io.h"
#include "zonemap/zonemap.h"

namespace adv::serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv1a64(const void* data, std::size_t n, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t mix_u64(uint64_t h, uint64_t v) { return fnv1a64(&v, sizeof v, h); }

// Hashes one file's identity into `h`.  The path is part of the hash so a
// rename (same inode, new name in the model) changes the version, and an
// unstatable file contributes a marker distinct from every real FileId.
uint64_t mix_file(uint64_t h, const std::string& path, uint64_t* seen) {
  h = fnv1a64(path.data(), path.size(), h);
  try {
    auto id = FileHandle::stat_id(path);
    h = mix_u64(h, id.dev);
    h = mix_u64(h, id.ino);
    h = mix_u64(h, id.size);
    h = mix_u64(h, static_cast<uint64_t>(id.mtime_ns));
    if (seen != nullptr) ++*seen;
  } catch (const IoError&) {
    h = fnv1a64("<absent>", 8, h);
  }
  return h;
}

}  // namespace

std::string DataVersion::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf, 16);
}

DataVersion DataVersion::compute(const afc::DatasetModel& model,
                                 std::span<const uint32_t> files,
                                 const std::string& sidecar_dir) {
  DataVersion v;
  uint64_t h = kFnvOffset;
  for (uint32_t f : files) {
    h = mix_file(h, model.files().at(f).full_path, &v.files_seen);
  }
  if (!sidecar_dir.empty()) {
    h = mix_file(h,
                 zonemap::ZoneMap::sidecar_path(sidecar_dir,
                                                model.dataset_name()),
                 &v.files_seen);
  }
  v.hash = h;
  return v;
}

DataVersion DataVersion::compute(const codegen::DataServicePlan& plan,
                                 const std::string& sidecar_dir) {
  std::vector<uint32_t> all(plan.model().files().size());
  std::iota(all.begin(), all.end(), 0u);
  return compute(plan.model(), all, sidecar_dir);
}

}  // namespace adv::serve
