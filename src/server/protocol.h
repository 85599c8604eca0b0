// Wire protocol of the OrpheusDB server: length-prefixed frames over a
// TCP stream, one request/response pair per command.
//
// Frame:              [u32 length (LE)][payload]          length <= 64 MiB
// Request payload:    the command line, verbatim (see core/engine_api.h)
// Response payload:   [u8 status code][u8 closed][text]
//
// `status code` is the orpheus::StatusCode of the command (0 = OK, in
// which case `text` is the display output; otherwise the error
// message). `closed` is 1 when the server is ending the session after
// this response (`exit`, shutdown) — the client should not send more
// requests.
//
// On connect, before the first request, the server sends one hello
// frame: "ORPHEUS/1 session <id>". Clients verify the "ORPHEUS/1"
// prefix to fail fast against a non-orpheus endpoint.
//
// This header also carries the small POSIX socket helpers shared by
// server and client; everything binds/connects on IPv4 (the server
// listens on loopback only — it is a single-node session server, not
// an internet-facing daemon).

#ifndef ORPHEUS_SERVER_PROTOCOL_H_
#define ORPHEUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace orpheus::server {

inline constexpr uint32_t kMaxFrameBytes = 64u << 20;
inline constexpr char kHelloPrefix[] = "ORPHEUS/1";

// --- Framing ------------------------------------------------------------

// Writes one [length][payload] frame; loops over partial writes.
Status WriteFrame(int fd, std::string_view payload);

// Reads one frame (blocking). Status::Unavailable with message
// "connection closed" on clean EOF at a frame boundary. Memory grows
// with the bytes received, not with the length the header claims.
Result<std::string> ReadFrame(int fd);

// --- Response payload ----------------------------------------------------

struct Response {
  Status status;       // the command's outcome (code + message)
  bool closed = false; // server ends the session after this response
  std::string text;    // display output when status.ok()
};

std::string EncodeResponse(const Status& status, bool closed,
                           std::string_view text);
Result<Response> DecodeResponse(std::string_view payload);

// --- Sockets ------------------------------------------------------------

// Listening socket bound to 127.0.0.1:`port` (0 = ephemeral).
Result<int> ListenLoopback(uint16_t port);

// The port a listening socket is bound to (resolves port 0).
Result<uint16_t> BoundPort(int fd);

// Blocking connect to host:port. `host` is an IPv4 literal
// ("127.0.0.1") or "localhost".
Result<int> ConnectTcp(const std::string& host, uint16_t port);

// Splits "host:port"; host defaults to 127.0.0.1 when absent.
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& spec);

void CloseFd(int fd);

}  // namespace orpheus::server

#endif  // ORPHEUS_SERVER_PROTOCOL_H_
