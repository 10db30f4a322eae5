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

void send_frame(int fd, MsgType type, const Payload& payload) {
  uint32_t len = static_cast<uint32_t>(payload.data().size());
  unsigned char header[5];
  std::memcpy(header, &len, 4);
  header[4] = static_cast<unsigned char>(type);
  write_all(fd, header, 5);
  if (len) write_all(fd, payload.data().data(), len);
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

std::pair<MsgType, Payload> recv_frame_cancellable(int fd,
                                                   const CancelToken* cancel,
                                                   bool& cancel_sent) {
  if (!cancel) return recv_frame(fd);
  for (;;) {
    if (!cancel_sent && cancel->cancelled()) {
      cancel_sent = true;
      send_frame(fd, kCancel, Payload());
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    int rc = ::poll(&p, 1, 20);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket poll failed: ") + std::strerror(errno));
    }
    if (rc > 0) return recv_frame(fd);
  }
}

std::pair<MsgType, Payload> recv_frame_timeout(int fd,
                                               double timeout_seconds) {
  if (timeout_seconds <= 0) return recv_frame(fd);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0)
      throw IoError("receive timed out after " +
                    std::to_string(timeout_seconds) + "s");
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    int rc = ::poll(&p, 1, static_cast<int>(std::min<long long>(
                               left.count(), 50)));
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

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
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

  if (timeout_seconds <= 0) {
    int rc;
    do {
      rc = ::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0)
      throw IoError("cannot connect to " + host + ":" + std::to_string(port) +
                    ": " + std::strerror(errno));
    set_nodelay(sock.fd);
    return sock.release();
  }

  int flags = ::fcntl(sock.fd, F_GETFL, 0);
  ::fcntl(sock.fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR)
    throw IoError("cannot connect to " + host + ":" + std::to_string(port) +
                  ": " + std::strerror(errno));
  if (rc != 0) {
    pollfd p{};
    p.fd = sock.fd;
    p.events = POLLOUT;
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0)
        throw IoError("connect to " + host + ":" + std::to_string(port) +
                      " timed out after " + std::to_string(timeout_seconds) +
                      "s");
      int pr = ::poll(&p, 1, static_cast<int>(left.count()));
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
      throw IoError("cannot connect to " + host + ":" + std::to_string(port) +
                    ": " + std::strerror(err ? err : errno));
  }
  ::fcntl(sock.fd, F_SETFL, flags);
  set_nodelay(sock.fd);
  return sock.release();
}

void Socket::reset() {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace adv::storm::wire
