#include "faultz/faultz.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace adv::faultz {

namespace {

constexpr const char* kSiteNames[kNumSites] = {
    "pread.eintr", "pread.eio",  "pread.short", "mmap.fail",
    "mmap.torn",   "send.eintr", "send.partial", "send.reset",
    "recv.eintr",  "recv.reset", "zonemap.load", "node.run",
    "serve.query", "agg.merge",  "serve.cache",
};

}  // namespace

const char* site_name(Site s) {
  auto i = static_cast<std::size_t>(s);
  return i < kNumSites ? kSiteNames[i] : "?";
}

bool site_from_name(const std::string& name, Site& out) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    if (name == kSiteNames[i]) {
      out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

FaultPlan& FaultPlan::instance() {
  static FaultPlan plan;
  return plan;
}

FaultPlan::FaultPlan() {
  // Environment arming lets any existing binary run a campaign without code
  // changes (ctest, benches, the CLI tools).  std::getenv, not adv::env_*,
  // keeps faultz free of link dependencies.
  const char* seed = std::getenv("ADV_FAULT_SEED");
  const char* spec = std::getenv("ADV_FAULT_SPEC");
  if (seed != nullptr && spec != nullptr && *spec != '\0') {
    arm(std::strtoull(seed, nullptr, 10), spec);
  }
}

void FaultPlan::arm(uint64_t seed, const std::string& spec) {
  std::array<SiteState, kNumSites> sites{};
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    auto eq = entry.find('=');
    if (eq == std::string::npos) {
      throw ValidationError("fault spec entry missing '=': " + entry);
    }
    Site site;
    if (!site_from_name(entry.substr(0, eq), site)) {
      throw ValidationError("unknown fault site: " + entry.substr(0, eq));
    }
    std::string rhs = entry.substr(eq + 1);
    auto colon = rhs.find(':');
    auto& st = sites[static_cast<std::size_t>(site)];
    try {
      st.probability = std::stod(rhs.substr(0, colon));
      st.max_fires = colon == std::string::npos
                         ? UINT64_MAX
                         : std::stoull(rhs.substr(colon + 1));
    } catch (const std::exception&) {
      throw ValidationError("bad fault spec value: " + entry);
    }
    if (st.probability < 0.0 || st.probability > 1.0) {
      throw ValidationError("fault probability out of [0,1]: " + entry);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  spec_ = spec;
  sites_ = sites;
  armed_.store(true, std::memory_order_release);
}

void FaultPlan::disarm() { armed_.store(false, std::memory_order_release); }

uint64_t FaultPlan::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

std::string FaultPlan::spec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

bool FaultPlan::should_fire(Site s) {
  if (!armed()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto& st = sites_[static_cast<std::size_t>(s)];
  uint64_t hit = st.hits++;
  if (st.probability <= 0.0 || st.fires >= st.max_fires) return false;
  // Pure function of {seed, site, hit index}: the same campaign fires at
  // the same per-site hit positions on every replay, independent of thread
  // interleaving.
  uint64_t h = hash_combine(hash_combine(seed_, static_cast<uint64_t>(s) + 1),
                            hit);
  if (hash_unit(h) >= st.probability) return false;
  ++st.fires;
  return true;
}

SiteStats FaultPlan::stats(Site s) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& st = sites_[static_cast<std::size_t>(s)];
  return SiteStats{st.hits, st.fires};
}

uint64_t FaultPlan::total_fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& st : sites_) total += st.fires;
  return total;
}

std::string FaultPlan::stats_string() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const auto& st = sites_[i];
    if (st.hits == 0) continue;
    if (!out.empty()) out += ' ';
    out += kSiteNames[i];
    out += '=';
    out += std::to_string(st.fires);
    out += '/';
    out += std::to_string(st.hits);
  }
  return out.empty() ? "(no sites hit)" : out;
}

void maybe_throw_io(Site s, const char* what) {
  if (FaultPlan::instance().should_fire(s)) {
    throw IoError(std::string("injected fault: ") + what + " [" +
                  site_name(s) + "]");
  }
}

ssize_t inj_pread(int fd, void* buf, std::size_t n, off_t offset) {
  if (enabled()) {
    auto& plan = FaultPlan::instance();
    if (plan.should_fire(Site::kPreadEintr)) {
      errno = EINTR;
      return -1;
    }
    if (plan.should_fire(Site::kPreadEio)) {
      errno = EIO;
      return -1;
    }
    // 0 mimics an unexpected EOF (file shorter than the layout promised);
    // pread_some passes it up and pread_exact turns it into a short-read
    // IoError, unlike a partial count which its loop would simply heal.
    if (plan.should_fire(Site::kPreadShort)) return 0;
  }
  return ::pread(fd, buf, n, offset);
}

ssize_t inj_send(int fd, const void* buf, std::size_t n, int flags) {
  if (enabled()) {
    auto& plan = FaultPlan::instance();
    if (plan.should_fire(Site::kSendEintr)) {
      errno = EINTR;
      return -1;
    }
    if (plan.should_fire(Site::kSendReset)) {
      errno = ECONNRESET;
      return -1;
    }
    if (n > 1 && plan.should_fire(Site::kSendPartial)) {
      return ::send(fd, buf, 1, flags);
    }
  }
  return ::send(fd, buf, n, flags);
}

ssize_t inj_recv(int fd, void* buf, std::size_t n, int flags) {
  if (enabled()) {
    auto& plan = FaultPlan::instance();
    if (plan.should_fire(Site::kRecvEintr)) {
      errno = EINTR;
      return -1;
    }
    if (plan.should_fire(Site::kRecvReset)) {
      errno = ECONNRESET;
      return -1;
    }
  }
  return ::recv(fd, buf, n, flags);
}

bool inj_mmap_allowed() {
  return !FaultPlan::instance().should_fire(Site::kMmapFail);
}

ScopedFaultPlan::ScopedFaultPlan(uint64_t seed, const std::string& spec) {
  FaultPlan::instance().arm(seed, spec);
}

ScopedFaultPlan::~ScopedFaultPlan() { FaultPlan::instance().disarm(); }

}  // namespace adv::faultz
