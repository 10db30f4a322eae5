// Shared wire codec for the STORM network protocol (v2 + distribution).
//
// One frame grammar serves three peers: QueryServer/QueryClient (the
// client-facing query service, src/storm/net.cpp), NodeDaemon (a
// per-shard storage-node server process, src/storm/node_daemon.cpp), and
// DistCoordinator (the scatter/gather side, src/storm/dist.cpp).  Keeping
// the codec in one place is what makes the interop guarantees testable:
// every peer parses payloads positionally and ignores unknown trailing
// bytes, so a newer peer's extra fields degrade gracefully, and every
// peer answers an unexpected frame type with a typed kError instead of
// hanging.
//
//   frame := u32 payload_length (LE), u8 type, payload
//
// Client/server types 0x01..0x0A are documented in storm/net.h.  The
// distribution types (coordinator <-> node daemon) are:
//
//   0x10 kNodeQuery  coordinator -> daemon: execute this node's share.
//                    payload = u32 node_id, u64 start_afc,
//                              u16 num_consumers, u8 policy,
//                              i32 select_index, f64 range_lo, f64 range_hi,
//                              u64 block_size, u32 sql_len, sql bytes,
//                              f64 deadline_seconds,
//                              f64 heartbeat_interval_seconds,
//                              u32 checkpoint_afcs
//   0x11 kNodeHello  daemon -> coordinator: the node-local plan is built.
//                    payload = u32 node_id, u64 total_afcs,
//                              u64 plan_fingerprint, u16 ncols,
//                    + optional tail: u16 nnames, nnames × (u32 len,
//                    bytes) — the output column names, so a schema-less
//                    coordinator can resolve SELECT * ORDER BY keys
//   0x12 kProgress   daemon -> coordinator: every row of the AFC prefix
//                    [0, afcs_done) has been flushed to the socket.  The
//                    coordinator's commit point: rows received since the
//                    previous kProgress become durable, and a failover
//                    resumes at start_afc = afcs_done with no duplicates.
//                    payload = u64 afcs_done
//   0x13 kHeartbeat  daemon -> coordinator: liveness + progress beacon,
//                    sent from a dedicated thread even mid-extraction.
//                    payload = u64 afcs_started, u64 rows_shipped,
//                              u64 beat_index
//   0x14 kNodeStats  daemon -> coordinator: the node's full NodeStats,
//                    sent once before kEnd.  Aggregation counters
//                    (groups_emitted, agg_bytes_shipped, strategy counts)
//                    ride as an optional 5×u64 tail.
//   0x15 kAggBatch   daemon -> coordinator: serialized partial-aggregate
//                    DELTA state (agg::encode format) covering the rows of
//                    the AFC window since the previous checkpoint, sent in
//                    place of kRowBatch frames for pushdown queries
//                    (docs/AGGREGATION.md).  The kProgress that follows is
//                    its commit point: a staged delta whose kProgress never
//                    arrives is discarded, and the failover replica
//                    regenerates exactly that window — aggregate state is
//                    never double-counted.
//                    payload = u64 nbytes, state bytes
//
// kNodeQuery payloads optionally carry a trailing u32 agg_checkpoint_afcs
// (pushdown checkpoint cadence; 0 or missing = one final checkpoint).
// kError payloads optionally carry a trailing u8 ErrorKind after the
// message string (daemons always send it; older peers ignore it, and a
// missing tail parses as ErrorKind::kOther).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/error.h"

namespace adv::storm::wire {

enum MsgType : uint8_t {
  kQuery = 0x01,
  kSchema = 0x02,
  kRowBatch = 0x03,
  kStats = 0x04,
  kEnd = 0x05,
  kError = 0x06,
  kCancel = 0x07,
  kQueued = 0x08,
  kAdmitted = 0x09,
  kRejected = 0x0A,
  // Distribution (coordinator <-> node daemon).
  kNodeQuery = 0x10,
  kNodeHello = 0x11,
  kProgress = 0x12,
  kHeartbeat = 0x13,
  kNodeStats = 0x14,
  kAggBatch = 0x15,
};

// Byte-buffer writer/reader for frame payloads.  Reads are positional and
// bounds-checked; unread trailing bytes are how optional protocol tails
// are detected (remaining()).
class Payload {
 public:
  Payload() = default;
  explicit Payload(std::vector<unsigned char> data) : data_(std::move(data)) {}

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::size_t at = data_.size();
    data_.resize(at + sizeof v);
    std::memcpy(data_.data() + at, &v, sizeof v);
  }
  void put_bytes(const void* p, std::size_t n) {
    std::size_t at = data_.size();
    data_.resize(at + n);
    std::memcpy(data_.data() + at, p, n);
  }
  void put_string(const std::string& s) {
    put<uint32_t>(static_cast<uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }

  template <typename T>
  T get() {
    T v;
    if (pos_ + sizeof v > data_.size())
      throw IoError("malformed network frame (truncated payload)");
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  std::string get_string() {
    uint32_t n = get<uint32_t>();
    if (pos_ + n > data_.size())
      throw IoError("malformed network frame (truncated string)");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  const unsigned char* raw(std::size_t n) {
    if (pos_ + n > data_.size())
      throw IoError("malformed network frame (truncated block)");
    const unsigned char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  // Unread bytes left in the payload — how optional protocol tails are
  // detected (an older peer simply stops before them).
  std::size_t remaining() const { return data_.size() - pos_; }

  const std::vector<unsigned char>& data() const { return data_; }

 private:
  std::vector<unsigned char> data_;
  std::size_t pos_ = 0;
};

// Loop-until-done send/recv with EINTR absorption; sends use MSG_NOSIGNAL
// so a peer vanishing mid-write surfaces as an IoError (EPIPE), never a
// process-killing SIGPIPE.  Both route through faultz injection hooks.
void write_all(int fd, const void* buf, std::size_t n);
void read_all(int fd, void* buf, std::size_t n);

void send_frame(int fd, MsgType type, const Payload& payload);
std::pair<MsgType, Payload> recv_frame(int fd);

// Receive that watches a CancelToken while blocked: polls the socket in
// 20 ms ticks, and when the token fires sends one kCancel frame, then
// keeps receiving — the server terminates the stream with kError.
std::pair<MsgType, Payload> recv_frame_cancellable(int fd,
                                                   const CancelToken* cancel,
                                                   bool& cancel_sent);

// Receive bounded by a poll timeout: throws IoError("receive timed out...")
// when no frame header byte arrives within `timeout_seconds` (<= 0 blocks
// forever).  Used by the coordinator so a silent peer can never hang a
// gather thread.
std::pair<MsgType, Payload> recv_frame_timeout(int fd, double timeout_seconds);

// Sends a typed error frame; failures are swallowed (the peer may already
// be gone — there is nobody left to tell).
void send_error(int fd, const std::string& msg,
                ErrorKind kind = ErrorKind::kOther) noexcept;

// Parses a kError payload: message plus the optional trailing kind byte
// (ErrorKind::kOther when the peer predates the tail).
std::pair<std::string, ErrorKind> parse_error(Payload& payload);

void set_nodelay(int fd);

// Makes SIGPIPE harmless process-wide (idempotent).  Every server
// entrypoint calls this as belt-and-braces on top of MSG_NOSIGNAL: a peer
// vanishing mid-write must surface as an IoError, never kill the process.
void ignore_sigpipe();

// Blocking-connect with a bounded wait: non-blocking connect + poll +
// SO_ERROR, restored to blocking mode on success.  `timeout_seconds` <= 0
// means wait indefinitely.  Returns the connected fd; throws IoError on
// refusal, timeout, or a bad address.
int connect_with_timeout(const std::string& host, int port,
                         double timeout_seconds);

// RAII socket.
struct Socket {
  int fd = -1;
  Socket() = default;
  explicit Socket(int f) : fd(f) {}
  ~Socket() { reset(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& o) noexcept : fd(o.fd) { o.fd = -1; }
  Socket& operator=(Socket&& o) noexcept {
    if (this != &o) {
      reset();
      fd = o.fd;
      o.fd = -1;
    }
    return *this;
  }
  void reset();
  int release() {
    int f = fd;
    fd = -1;
    return f;
  }
};

// 64-bit FNV-1a, the repo's standard content hash (zone map sidecar
// checksums) — here for plan fingerprints.
inline uint64_t fnv1a64(const void* data, std::size_t n,
                        uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace adv::storm::wire
