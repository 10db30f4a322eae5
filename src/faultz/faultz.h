// Deterministic fault injection for correctness campaigns.
//
// A process-wide FaultPlan holds a seeded RNG and one hit counter per
// injection *site* (a named point in the read path, the socket layer, the
// sidecar loader, ...).  Whether the k-th hit of a site fires is a pure
// function of {seed, site, k}, so a campaign is fully reproducible from
// {seed, spec} even though the *thread* that takes the k-th hit may vary
// between runs: replaying the same seed injects the same fault at the same
// per-site hit index every time.
//
// Sites are compiled into the production code as cheap guarded hooks: when
// the plan is disarmed (the default, and the only state production ever
// runs in) a hook costs one relaxed atomic load.  Arming happens
// programmatically (tests, the adv_fuzz replay CLI) or via the environment:
//
//   ADV_FAULT_SEED=42 ADV_FAULT_SPEC="pread.eio=0.02:4,mmap.fail=1" ctest
//
// Spec grammar: comma-separated `site=probability[:max_fires]`.  The
// injected behavior per site mirrors what the kernel could do — EINTR and
// EIO from pread, short reads, refused or torn mappings, partial socket
// writes, resets mid-frame — so the production EINTR/short-read/fallback
// handling is exercised, not bypassed.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace adv::faultz {

enum class Site : uint8_t {
  kPreadEintr = 0,  // pread returns -1/EINTR (the retry loop must absorb it)
  kPreadEio,        // pread returns -1/EIO (hard read error)
  kPreadShort,      // pread returns 0 early (premature EOF -> short read)
  kMmapFail,        // FileHandle::map() refuses (forces the pread fallback)
  kMmapTorn,        // a mapped-range read throws (file truncated under map)
  kSendEintr,       // send returns -1/EINTR
  kSendPartial,     // send writes a 1-byte prefix (exercises write_all loop)
  kSendReset,       // send returns -1/ECONNRESET (peer vanished mid-frame)
  kRecvEintr,       // recv returns -1/EINTR
  kRecvReset,       // recv returns -1/ECONNRESET
  kZonemapLoad,     // sidecar load aborts (must fall back to full scan)
  kNodeRun,         // a STORM node worker dies at query start
  kServeQuery,      // the query-service worker dies after admission
  kAggMerge,        // partial-aggregate worker->node merge dies mid-query
  kServeCache,      // result cache misbehaves: a lookup hit is poisoned
                    // (entry evicted, treated as a miss, no single-flight
                    // join) and an insert is dropped — served rows must be
                    // byte-identical to uncached execution either way
  kCount,
};

constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kCount);

// Spec name of a site (e.g. "pread.eio").
const char* site_name(Site s);
// Site for a spec name; returns false when unknown.
bool site_from_name(const std::string& name, Site& out);

struct SiteStats {
  uint64_t hits = 0;   // times the site was reached while armed
  uint64_t fires = 0;  // times it injected
};

class FaultPlan {
 public:
  // The process-wide instance.  First use reads ADV_FAULT_SEED /
  // ADV_FAULT_SPEC and arms when both are set.
  static FaultPlan& instance();

  // Installs a campaign; throws adv::Error on a malformed spec.  Resets all
  // site counters.  Thread-safe against concurrent hooks: sites observe the
  // new plan from their next hit on.
  void arm(uint64_t seed, const std::string& spec);
  // Stops injecting (counters are kept until the next arm()).
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }
  uint64_t seed() const;
  std::string spec() const;

  // The decision hook.  Deterministic per {seed, site, hit index}; returns
  // false when disarmed or the site is not in the spec.
  bool should_fire(Site s);

  SiteStats stats(Site s) const;
  uint64_t total_fires() const;
  // "site=hits/fires" for every site that was hit, for diagnostics.
  std::string stats_string() const;

 private:
  FaultPlan();

  struct SiteState {
    double probability = 0;
    uint64_t max_fires = 0;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  std::string spec_;
  std::array<SiteState, kNumSites> sites_{};
};

// Fast gate for hot-path hooks: one atomic load when no campaign is armed.
inline bool enabled() { return FaultPlan::instance().armed(); }

// Throws adv::IoError("injected fault: <what> [site ...]") when `s` fires.
void maybe_throw_io(Site s, const char* what);

// Syscall wrappers with injection; straight pass-through when disarmed.
ssize_t inj_pread(int fd, void* buf, std::size_t n, off_t offset);
ssize_t inj_send(int fd, const void* buf, std::size_t n, int flags);
ssize_t inj_recv(int fd, void* buf, std::size_t n, int flags);

// False when kMmapFail fires (the caller must fall back to pread).
bool inj_mmap_allowed();

// RAII campaign scope for tests: arms on construction, disarms on
// destruction (also on exceptions, so a failed assertion cannot leak an
// armed plan into the next test).
class ScopedFaultPlan {
 public:
  ScopedFaultPlan(uint64_t seed, const std::string& spec);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace adv::faultz
