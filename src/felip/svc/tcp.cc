#include "felip/svc/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "felip/common/check.h"
#include "felip/obs/metrics.h"

namespace felip::svc {

namespace {

using Clock = std::chrono::steady_clock;

bool ParseEndpoint(const std::string& endpoint, sockaddr_in* addr) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = endpoint.substr(0, colon);
  const std::string port = endpoint.substr(colon + 1);
  char* end = nullptr;
  const unsigned long p = std::strtoul(port.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || p > 65535) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(p));
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) return false;
  return true;
}

std::string FormatEndpoint(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void AppendFrame(std::vector<uint8_t>* out,
                 const std::vector<uint8_t>& payload) {
  const auto len = static_cast<uint32_t>(payload.size());
  uint8_t prefix[4];
  std::memcpy(prefix, &len, sizeof(prefix));
  out->insert(out->end(), prefix, prefix + sizeof(prefix));
  out->insert(out->end(), payload.begin(), payload.end());
}

// Extracts the next complete frame from `buffer`, erasing consumed bytes.
// Returns false when no complete frame is buffered; *violation is set when
// the length prefix itself is invalid.
bool ExtractFrame(std::vector<uint8_t>* buffer, std::vector<uint8_t>* frame,
                  bool* violation) {
  *violation = false;
  if (buffer->size() < 4) return false;
  uint32_t len = 0;
  std::memcpy(&len, buffer->data(), sizeof(len));
  if (len > kMaxFrameBytes) {
    *violation = true;
    return false;
  }
  if (buffer->size() < 4 + static_cast<size_t>(len)) return false;
  frame->assign(buffer->begin() + 4, buffer->begin() + 4 + len);
  buffer->erase(buffer->begin(), buffer->begin() + 4 + len);
  return true;
}

// Remaining milliseconds until `deadline`, clamped to >= 0.
int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

class TcpConnection final : public FrameConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection() override { Close(); }

  // The length prefix and the payload leave in one sendmsg with two
  // iovecs, so the payload is never copied into a prefixed buffer. A
  // partial write advances through the iovecs and sends the rest.
  bool SendFrame(const std::vector<uint8_t>& payload) override {
    if (fd_ < 0 || payload.size() > kMaxFrameBytes) return false;
    const auto len = static_cast<uint32_t>(payload.size());
    uint8_t prefix[4];
    std::memcpy(prefix, &len, sizeof(prefix));
    iovec iov[2] = {
        {prefix, sizeof(prefix)},
        {const_cast<uint8_t*>(payload.data()), payload.size()}};
    size_t first = 0;  // the first iovec with bytes left
    while (first < 2) {
      msghdr msg{};
      msg.msg_iov = iov + first;
      msg.msg_iovlen = 2 - first;
      const ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (n > 0) {
        size_t sent = static_cast<size_t>(n);
        while (first < 2 && sent >= iov[first].iov_len) {
          sent -= iov[first].iov_len;
          ++first;
        }
        if (first < 2) {
          iov[first].iov_base = static_cast<uint8_t*>(iov[first].iov_base) +
                                sent;
          iov[first].iov_len -= sent;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd_, POLLOUT, 0};
        if (poll(&pfd, 1, kWriteStallMs) <= 0) return false;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  RecvStatus RecvFrame(std::vector<uint8_t>* payload,
                       int timeout_ms) override {
    if (fd_ < 0) return RecvStatus::kClosed;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      bool violation = false;
      if (ExtractFrame(&buffer_, payload, &violation)) return RecvStatus::kOk;
      if (violation) {
        Close();
        return RecvStatus::kClosed;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, RemainingMs(deadline));
      if (ready == 0) return RecvStatus::kTimeout;
      if (ready < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kClosed;
      }
      uint8_t chunk[16384];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.insert(buffer_.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n < 0 && errno == EINTR) continue;
      Close();
      return RecvStatus::kClosed;
    }
  }

  void Close() override {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  // How long one send() may stall on a full socket buffer before the
  // connection is declared broken.
  static constexpr int kWriteStallMs = 5000;

  int fd_;
  std::vector<uint8_t> buffer_;
};

class TcpServer final : public FrameServer {
 public:
  explicit TcpServer(const std::string& endpoint) {
    sockaddr_in addr{};
    if (!ParseEndpoint(endpoint, &addr)) return;
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return;
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        listen(listen_fd_, SOMAXCONN) != 0 || !SetNonBlocking(listen_fd_)) {
      close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    endpoint_ = FormatEndpoint(bound);
  }

  ~TcpServer() override {
    Stop();
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  bool ok() const { return listen_fd_ >= 0; }

  bool Start(FrameHandler handler) override {
    FELIP_CHECK_MSG(!loop_.joinable(), "Start() called twice");
    if (listen_fd_ < 0) return false;
    if (pipe(stop_pipe_) != 0) return false;
    SetNonBlocking(stop_pipe_[0]);
    handler_ = std::move(handler);
    loop_ = std::thread([this] { EventLoop(); });
    return true;
  }

  void Stop() override {
    if (!loop_.joinable()) return;
    const uint8_t byte = 1;
    [[maybe_unused]] const ssize_t n = write(stop_pipe_[1], &byte, 1);
    loop_.join();
    close(stop_pipe_[0]);
    close(stop_pipe_[1]);
  }

  std::string endpoint() const override { return endpoint_; }

 private:
  struct Conn {
    std::vector<uint8_t> read_buffer;
    std::vector<uint8_t> write_buffer;
    uint64_t id = 0;
  };

  void EventLoop() {
    obs::Registry& registry = obs::Registry::Default();
    obs::Counter& connections_total =
        registry.GetCounter("felip_svc_tcp_connections_total");
    obs::Counter& frames_total =
        registry.GetCounter("felip_svc_tcp_frames_total");
    obs::Counter& violations_total =
        registry.GetCounter("felip_svc_tcp_protocol_violations_total");

    std::map<int, Conn> conns;
    uint64_t next_id = 1;
    std::vector<pollfd> pfds;
    for (;;) {
      pfds.clear();
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfds.push_back({stop_pipe_[0], POLLIN, 0});
      for (const auto& [fd, conn] : conns) {
        short events = POLLIN;
        if (!conn.write_buffer.empty()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
      }
      if (poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (pfds[1].revents != 0) break;  // stop requested

      if (pfds[0].revents & POLLIN) {
        for (;;) {
          const int fd = accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          if (!SetNonBlocking(fd)) {
            close(fd);
            continue;
          }
          const int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          conns[fd].id = next_id++;
          connections_total.Increment();
        }
      }

      std::vector<int> dead;
      for (size_t i = 2; i < pfds.size(); ++i) {
        const int fd = pfds[i].fd;
        Conn& conn = conns[fd];
        if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          dead.push_back(fd);
          continue;
        }
        if (pfds[i].revents & POLLIN) {
          bool closed = false;
          for (;;) {
            uint8_t chunk[16384];
            const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
            if (n > 0) {
              conn.read_buffer.insert(conn.read_buffer.end(), chunk,
                                      chunk + n);
              continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            if (n < 0 && errno == EINTR) continue;
            closed = true;  // orderly shutdown or error
            break;
          }
          // Dispatch every complete frame that arrived.
          for (;;) {
            std::vector<uint8_t> frame;
            bool violation = false;
            if (!ExtractFrame(&conn.read_buffer, &frame, &violation)) {
              if (violation) {
                violations_total.Increment();
                closed = true;
              }
              break;
            }
            frames_total.Increment();
            std::vector<uint8_t> response =
                handler_(conn.id, std::move(frame));
            if (!response.empty()) {
              AppendFrame(&conn.write_buffer, response);
            }
          }
          if (!conn.write_buffer.empty()) FlushWrites(fd, &conn);
          if (closed) {
            dead.push_back(fd);
            continue;
          }
        }
        if (pfds[i].revents & POLLOUT) {
          if (!FlushWrites(fd, &conn)) dead.push_back(fd);
        }
      }
      for (const int fd : dead) {
        close(fd);
        conns.erase(fd);
      }
    }
    for (const auto& [fd, conn] : conns) close(fd);
  }

  // Writes as much of the buffered response bytes as the socket accepts;
  // false on a hard error.
  static bool FlushWrites(int fd, Conn* conn) {
    size_t sent = 0;
    while (sent < conn->write_buffer.size()) {
      const ssize_t n = send(fd, conn->write_buffer.data() + sent,
                             conn->write_buffer.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    conn->write_buffer.erase(conn->write_buffer.begin(),
                             conn->write_buffer.begin() + sent);
    return true;
  }

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::string endpoint_;
  FrameHandler handler_;
  std::thread loop_;
};

}  // namespace

std::unique_ptr<FrameServer> TcpTransport::NewServer(
    const std::string& endpoint) {
  auto server = std::make_unique<TcpServer>(endpoint);
  if (!server->ok()) return nullptr;
  return server;
}

std::unique_ptr<FrameConnection> TcpTransport::Connect(
    const std::string& endpoint, int timeout_ms) {
  sockaddr_in addr{};
  if (!ParseEndpoint(endpoint, &addr)) return nullptr;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  if (!SetNonBlocking(fd)) {
    close(fd);
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      close(fd);
      return nullptr;
    }
    pollfd pfd{fd, POLLOUT, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) {
      close(fd);
      return nullptr;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      close(fd);
      return nullptr;
    }
  }
  return std::make_unique<TcpConnection>(fd);
}

}  // namespace felip::svc
