#include "storm/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>

#include "faultz/faultz.h"

namespace adv::storm::wire {

void write_all(int fd, const void* buf, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(buf);
  std::size_t off = 0;
  while (off < n) {
    ssize_t w = faultz::inj_send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

void read_all(int fd, void* buf, std::size_t n) {
  unsigned char* p = static_cast<unsigned char*>(buf);
  std::size_t off = 0;
  while (off < n) {
    ssize_t r = faultz::inj_recv(fd, p + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket recv failed: ") + std::strerror(errno));
    }
    if (r == 0) throw IoError("connection closed mid-frame");
    off += static_cast<std::size_t>(r);
  }
}

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

template <typename T>
void append_pod(std::vector<unsigned char>& out, T v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void append_header(std::vector<unsigned char>& out, MsgType type,
                   std::size_t payload_bytes) {
  append_pod<uint32_t>(out, static_cast<uint32_t>(payload_bytes));
  out.push_back(static_cast<unsigned char>(type));
}

}  // namespace

void append_frame(std::vector<unsigned char>& out, MsgType type,
                  const Payload& payload) {
  append_header(out, type, payload.data().size());
  out.insert(out.end(), payload.data().begin(), payload.data().end());
}

void send_frame(int fd, MsgType type, const Payload& payload) {
  std::vector<unsigned char> frame;
  append_frame(frame, type, payload);
  write_all(fd, frame.data(), frame.size());
}

std::pair<MsgType, Payload> recv_frame(int fd) {
  unsigned char header[5];
  read_all(fd, header, 5);
  uint32_t len;
  std::memcpy(&len, header, 4);
  if (len > (64u << 20))
    throw IoError("oversized network frame (" + std::to_string(len) +
                  " bytes)");
  // The length is the peer's claim, not bytes in hand: read in steps of at
  // most 1 MiB and grow the buffer as they arrive, so a peer that announces
  // 64 MiB and then stalls or hangs up pins memory in proportion to what it
  // actually sent.
  constexpr std::size_t kStep = 1u << 20;
  std::vector<unsigned char> data;
  for (std::size_t off = 0; off < len;) {
    const std::size_t n = std::min<std::size_t>(len - off, kStep);
    // Geometric growth, capped at the announced length.
    data.reserve(std::min<std::size_t>(
        len, std::max(off + n, 2 * data.capacity())));
    data.resize(off + n);
    read_all(fd, data.data() + off, n);
    off += n;
  }
  return {static_cast<MsgType>(header[4]), Payload(std::move(data))};
}

std::pair<MsgType, Payload> recv_frame_watched(int fd, double timeout_seconds,
                                               const CancelToken* cancel,
                                               bool* cancel_sent) {
  if (timeout_seconds <= 0 && !cancel) return recv_frame(fd);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    if (cancel && !*cancel_sent && cancel->cancelled()) {
      *cancel_sent = true;
      send_frame(fd, kCancel, Payload());
    }
    long long tick_ms = 20;
    if (timeout_seconds > 0) {
      const long long left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (left <= 0)
        throw IoError("receive timed out after " +
                      std::to_string(timeout_seconds) + "s");
      tick_ms = std::min(tick_ms, left);
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    int rc = ::poll(&p, 1, static_cast<int>(tick_ms));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket poll failed: ") + std::strerror(errno));
    }
    if (rc > 0) return recv_frame(fd);
  }
}

void send_error(int fd, const std::string& msg, ErrorKind kind) noexcept {
  try {
    Payload err;
    err.put_string(msg);
    err.put<uint8_t>(static_cast<uint8_t>(kind));
    send_frame(fd, kError, err);
  } catch (...) {
    // The peer is already gone; nothing left to tell.
  }
}

std::pair<std::string, ErrorKind> parse_error(Payload& payload) {
  std::string msg = payload.get_string();
  ErrorKind kind = ErrorKind::kOther;
  if (payload.remaining() >= 1) {
    uint8_t k = payload.get<uint8_t>();
    if (k <= static_cast<uint8_t>(ErrorKind::kOther))
      kind = static_cast<ErrorKind>(k);
  }
  return {std::move(msg), kind};
}

void put_partition(Payload& p, const PartitionSpec& part) {
  p.put<uint16_t>(static_cast<uint16_t>(part.num_consumers));
  p.put<uint8_t>(static_cast<uint8_t>(part.policy));
  p.put<int32_t>(part.select_index);
  p.put<double>(part.range_lo);
  p.put<double>(part.range_hi);
}

PartitionSpec get_partition(Payload& p) {
  PartitionSpec part;
  part.num_consumers = p.get<uint16_t>();
  part.policy = static_cast<PartitionSpec::Policy>(p.get<uint8_t>());
  part.select_index = p.get<int32_t>();
  part.range_lo = p.get<double>();
  part.range_hi = p.get<double>();
  return part;
}

void put_schema(Payload& p, const std::vector<expr::Table::Column>& cols) {
  p.put<uint16_t>(static_cast<uint16_t>(cols.size()));
  for (const auto& c : cols) {
    p.put<uint8_t>(static_cast<uint8_t>(c.type));
    p.put<uint16_t>(static_cast<uint16_t>(c.name.size()));
    p.put_bytes(c.name.data(), c.name.size());
  }
}

std::vector<expr::Table::Column> get_schema(Payload& p) {
  const uint16_t n = p.get<uint16_t>();
  std::vector<expr::Table::Column> cols(n);
  for (auto& c : cols) {
    c.type = static_cast<DataType>(p.get<uint8_t>());
    const uint16_t len = p.get<uint16_t>();
    c.name.assign(reinterpret_cast<const char*>(p.raw(len)), len);
  }
  return cols;
}

void append_row_batch(std::vector<unsigned char>& out, const RowBatch& b) {
  const std::size_t value_bytes = b.bytes();
  const std::size_t payload_bytes =
      sizeof(uint16_t) + sizeof(uint32_t) + sizeof(uint16_t) + value_bytes;
  append_header(out, kRowBatch, payload_bytes);
  append_pod<uint16_t>(out, static_cast<uint16_t>(b.consumer));
  append_pod<uint32_t>(out, static_cast<uint32_t>(b.num_rows()));
  append_pod<uint16_t>(out, static_cast<uint16_t>(b.num_cols));
  const auto* v = reinterpret_cast<const unsigned char*>(b.data.data());
  out.insert(out.end(), v, v + value_bytes);
}

void RowBatchView::append_to(std::vector<double>& dst) const {
  const std::size_t at = dst.size();
  dst.resize(at + nrows * ncols);
  std::memcpy(dst.data() + at, values, nrows * ncols * sizeof(double));
}

RowBatchView get_row_batch(Payload& p, std::size_t num_consumers,
                           std::size_t ncols) {
  RowBatchView v;
  v.consumer = p.get<uint16_t>();
  v.nrows = p.get<uint32_t>();
  v.ncols = p.get<uint16_t>();
  if (v.consumer >= num_consumers)
    throw IoError("row batch for unknown consumer " +
                  std::to_string(v.consumer));
  if (v.ncols != ncols)
    throw IoError("row batch has " + std::to_string(v.ncols) +
                  " columns, schema has " + std::to_string(ncols));
  v.values = p.raw(v.nrows * v.ncols * sizeof(double));
  return v;
}

namespace {

// kNodeStats' u64 counters in wire order: the fixed block, and the
// aggregation tail.
template <typename NS>
auto node_counters(NS& ns) {
  return std::array{&ns.afcs,          &ns.bytes_read,  &ns.rows_scanned,
                    &ns.rows_matched,  &ns.bytes_sent,  &ns.afcs_pruned,
                    &ns.rows_pruned,   &ns.bytes_skipped, &ns.io_retries,
                    &ns.afcs_interp,   &ns.afcs_vector};
}
template <typename NS>
auto agg_counters(NS& ns) {
  return std::array{&ns.groups_emitted, &ns.agg_bytes_shipped, &ns.agg_dense,
                    &ns.agg_hash, &ns.agg_radix};
}

}  // namespace

void put_node_stats(Payload& p, const NodeStats& ns) {
  p.put<int32_t>(ns.node_id);
  p.put<double>(ns.busy_seconds);
  p.put<double>(ns.transfer_seconds);
  for (const uint64_t* c : node_counters(ns)) p.put<uint64_t>(*c);
  p.put<uint64_t>(0);  // retired tier counter; slot kept so older peers parse
  for (const uint64_t* c : agg_counters(ns)) p.put<uint64_t>(*c);
}

NodeStats get_node_stats(Payload& p) {
  NodeStats ns;
  ns.node_id = p.get<int32_t>();
  ns.busy_seconds = p.get<double>();
  ns.transfer_seconds = p.get<double>();
  for (uint64_t* c : node_counters(ns)) *c = p.get<uint64_t>();
  p.get<uint64_t>();  // retired tier counter
  // Aggregation tail, absent from pre-pushdown daemons.
  if (p.remaining() >= agg_counters(ns).size() * sizeof(uint64_t))
    for (uint64_t* c : agg_counters(ns)) *c = p.get<uint64_t>();
  return ns;
}

void ignore_sigpipe() {
  // signal() is async-signal-safe enough for an idempotent SIG_IGN install;
  // MSG_NOSIGNAL already covers the codec's own sends, this covers any
  // other write path a daemon process might take.
  ::signal(SIGPIPE, SIG_IGN);
}

int connect_with_timeout(const std::string& host, int port,
                         double timeout_seconds) {
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  if (raw < 0) throw IoError("cannot create client socket");
  Socket sock(raw);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw IoError("bad host address '" + host + "'");
  const std::string where = host + ":" + std::to_string(port);

  // Non-blocking connect, then poll for writability (no limit when
  // timeout_seconds <= 0) and read the outcome from SO_ERROR.
  int flags = ::fcntl(sock.fd, F_GETFL, 0);
  ::fcntl(sock.fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR)
    throw IoError("cannot connect to " + where + ": " + std::strerror(errno));
  if (rc != 0) {
    pollfd p{};
    p.fd = sock.fd;
    p.events = POLLOUT;
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
      int wait_ms = -1;
      if (timeout_seconds > 0) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
          throw IoError("connect to " + where + " timed out after " +
                        std::to_string(timeout_seconds) + "s");
        wait_ms = static_cast<int>(left.count());
      }
      int pr = ::poll(&p, 1, wait_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        throw IoError(std::string("connect poll failed: ") +
                      std::strerror(errno));
      }
      if (pr > 0) break;
    }
    int err = 0;
    socklen_t elen = sizeof err;
    if (::getsockopt(sock.fd, SOL_SOCKET, SO_ERROR, &err, &elen) != 0 ||
        err != 0)
      throw IoError("cannot connect to " + where + ": " +
                    std::strerror(err ? err : errno));
  }
  ::fcntl(sock.fd, F_SETFL, flags);
  set_nodelay(sock.fd);
  return sock.release();
}

Listener::Listener(int port, const std::string& what,
                   std::function<void(Connection&)> serve)
    : serve_(std::move(serve)) {
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw IoError("cannot create " + what + " socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  socklen_t alen = sizeof addr;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), alen) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw IoError("cannot bind " + what + ": " + std::strerror(err));
  }
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

Listener::~Listener() {
  stop_accepting();
  close_connections([](Connection&) {});
}

bool Listener::stop_accepting() {
  if (stopping_.exchange(true)) return false;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  return true;
}

void Listener::close_connections(
    const std::function<void(Connection&)>& on_live) {
  // Join outside the lock: serving threads take it to close their fd.
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& c : connections_) {
      on_live(*c);
      conns.push_back(c.get());
    }
  }
  for (Connection* c : conns)
    if (c->thread.joinable()) c->thread.join();
  std::lock_guard<std::mutex> lk(mu_);
  connections_.clear();
}

void Listener::accept_loop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_ || (errno != EINTR && errno != ECONNABORTED)) return;
      continue;
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    set_nodelay(fd);
    std::lock_guard<std::mutex> lk(mu_);
    // Reap the connections that finished since the last accept.
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      if (!c->done.load()) return false;
      c->thread.join();
      return true;
    });
    Connection* cp =
        connections_.emplace_back(std::make_unique<Connection>()).get();
    cp->fd = fd;
    cp->thread = std::thread([this, cp] {
      serve_(*cp);
      std::lock_guard<std::mutex> done_lk(mu_);
      ::close(cp->fd);
      cp->fd = -1;
      cp->done.store(true);
    });
  }
}

ControlReader::ControlReader(int fd, CancelToken& token)
    : fd_(fd), thread_([fd, &token] {
        try {
          for (;;)
            if (recv_frame(fd).first == kCancel) break;
        } catch (const Error&) {
          // EOF or socket error: the client is gone.
        }
        token.cancel();
      }) {}

void ControlReader::join() noexcept {
  if (!thread_.joinable()) return;
  ::shutdown(fd_, SHUT_RD);
  thread_.join();
}

Socket::~Socket() {
  if (fd >= 0) ::close(fd);
}

}  // namespace adv::storm::wire
