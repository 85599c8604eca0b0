#include "server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace orpheus::server {

namespace {

constexpr size_t kFrameReadStepBytes = 64u << 10;

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

// Full write, looping over partials and EINTR. MSG_NOSIGNAL: a hung-up
// peer must surface as EPIPE, not kill the process with SIGPIPE.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Full read. Returns false via *eof when the peer closed before the
// first byte (clean EOF); a close mid-buffer is an error.
Status ReadAll(int fd, char* data, size_t size, bool* eof) {
  *eof = false;
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) {
      if (done == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::Unavailable("connection closed mid-frame");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds " +
                                   std::to_string(kMaxFrameBytes) + " bytes");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  // One buffer, one write: a separate 4-byte header write would
  // interact badly with Nagle + delayed ACK on small frames.
  std::string frame;
  frame.reserve(sizeof(len) + payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));  // LE host
  frame.append(payload.data(), payload.size());
  return WriteAll(fd, frame.data(), frame.size());
}

Result<std::string> ReadFrame(int fd) {
  char header[4];
  bool eof = false;
  ORPHEUS_RETURN_NOT_OK(ReadAll(fd, header, sizeof(header), &eof));
  if (eof) return Status::Unavailable("connection closed");
  uint32_t len = 0;
  std::memcpy(&len, header, sizeof(len));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("oversized frame (" + std::to_string(len) +
                                   " bytes); not an orpheus peer?");
  }
  // The buffer grows as bytes arrive, at most kFrameReadStepBytes ahead
  // of them: a header claiming 64 MiB costs nothing until the peer
  // actually sends that much.
  std::string payload;
  while (payload.size() < len) {
    const size_t got = payload.size();
    const size_t step = std::min<size_t>(len - got, kFrameReadStepBytes);
    payload.resize(got + step);
    ORPHEUS_RETURN_NOT_OK(ReadAll(fd, payload.data() + got, step, &eof));
    if (eof) return Status::Unavailable("connection closed mid-frame");
  }
  return payload;
}

std::string EncodeResponse(const Status& status, bool closed,
                           std::string_view text) {
  std::string payload;
  payload.reserve(2 + text.size());
  payload.push_back(static_cast<char>(status.code()));
  payload.push_back(closed ? 1 : 0);
  if (status.ok()) {
    payload.append(text.data(), text.size());
  } else {
    payload.append(status.message());
  }
  return payload;
}

Result<Response> DecodeResponse(std::string_view payload) {
  if (payload.size() < 2) {
    return Status::Internal("short response frame (" +
                            std::to_string(payload.size()) + " bytes)");
  }
  Response response;
  auto code = static_cast<StatusCode>(static_cast<uint8_t>(payload[0]));
  response.closed = payload[1] != 0;
  std::string body(payload.substr(2));
  if (code == StatusCode::kOk) {
    response.status = Status::OK();
    response.text = std::move(body);
  } else {
    response.status = Status::FromCode(code, std::move(body));
  }
  return response;
}

Result<int> ListenLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Errno("bind 127.0.0.1:" + std::to_string(port));
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    Status st = Errno("listen");
    CloseFd(fd);
    return st;
  }
  return fd;
}

Result<uint16_t> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Errno("connect " + host + ":" + std::to_string(port));
    CloseFd(fd);
    return st;
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& spec) {
  std::string host = "127.0.0.1";
  std::string port_text = spec;
  size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
    if (host.empty()) host = "127.0.0.1";
  }
  char* end = nullptr;
  long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad host:port spec: " + spec);
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace orpheus::server
