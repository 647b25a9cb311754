// NetServer: the real-network shell around the tuning service.
//
// Accepts many concurrent worker TCP connections on a poll(2) event loop
// (one dedicated thread, non-blocking sockets) and multiplexes their
// traffic onto a single MessageService (TuningServer or DurableServer —
// both are single-threaded, and only the loop thread ever touches the
// service, so the protocol stays exactly as deterministic as in-process).
//
// Transports are auto-detected per connection from the first byte: '{'
// opens the JSON-lines debug transport (newline-delimited
// {"now":N,"msg":{...}} envelopes), anything else must be a binary frame
// (net/wire.h). Replies always use the connection's transport.
//
// Two clocks (NetServerOptions::clock):
//   kWall     `now` = seconds since the server started (steady clock); the
//             envelope timestamp is ignored. Real deployments.
//   kMessage  `now` = the envelope timestamp; the idle timer re-ticks the
//             last seen `now`. Virtual-time harnesses — this is what makes
//             decision dumps byte-identical across transports.
//
// The idle timer closes the PR-3 gap where Tick only ran piggybacked on
// HandleMessage: poll() wakes at tick_interval even with zero inbound
// traffic and calls MessageService::Tick, so leases expire (and are
// journaled by a DurableServer) while every worker is silent or dead.
//
// Malformed input never crashes the loop: each frame-decode error kind is
// accounted (NetServerStats + net.frame_* / server.malformed_frames
// telemetry counters, extending the service.malformed family), bad-CRC
// frames are skipped with an error reply on a surviving connection, and
// unframeable streams (bad magic/version/oversized) are closed cleanly.
//
// Stop() drains gracefully: stop accepting, flush every pending reply
// (bounded by drain_timeout), close all sockets, join the loop thread.
// Workers observe EOF, their next Send fails, and they enter the PR-5
// backoff/reconnect path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "service/server.h"

namespace hypertune {

class Telemetry;
class SocketIo;

/// Where HandleMessage's `now` comes from (see file comment).
enum class NetClock { kWall, kMessage };

/// retry_after (seconds) in overload-shed grant denials.
inline constexpr double kShedRetryAfter = 1.0;

struct NetServerOptions {
  /// Listen address; loopback by default (tests, benches, local fleets).
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; NetServer::port() reports the real one.
  int port = 0;
  NetClock clock = NetClock::kWall;
  /// Idle-tick period in wall seconds: the longest a due lease expiry can
  /// wait when no messages arrive.
  double tick_interval = 1.0;
  /// Graceful-shutdown bound on flushing pending replies.
  double drain_timeout = 5.0;
  /// Listen backlog for bursts of connecting workers.
  int backlog = 128;
  /// Cap on concurrent connections; accepts beyond it are shed (closed
  /// immediately and counted). 0 = unlimited.
  std::size_t max_connections = 0;
  /// Cap on a connection's pending-reply buffer. A client that stops
  /// reading while replies pile up past this is evicted — its buffer is
  /// dropped and the socket closed — instead of growing the buffer without
  /// bound. 0 = unlimited.
  std::size_t max_outbuf_bytes = 0;
  /// Overload shedding: when the idle tick runs this many wall seconds
  /// late (the loop can't keep up), request_job / request_jobs are
  /// answered with {"type":"no_job","retry_after":kShedRetryAfter,
  /// "shed":true} without touching the service, until a tick lands on
  /// time again. Cheap messages (heartbeats, reports) still flow — under
  /// overload, finishing in-flight work beats granting more. 0 = off.
  double overload_shed_lag = 0;
  /// Socket-op seam (fault injection); null = real syscalls with EINTR
  /// retried.
  SocketIo* io = nullptr;
  /// Optional observability sink (not owned; must outlive the server).
  Telemetry* telemetry = nullptr;
};

/// Protocol/transport counters. Loaded atomically — readable live from any
/// thread while the loop runs.
struct NetServerStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_closed = 0;
  std::size_t messages_handled = 0;
  std::size_t timer_ticks = 0;
  /// Frame-decode rejections by kind (the malformed-frame contract).
  std::size_t frames_bad_magic = 0;
  std::size_t frames_bad_version = 0;
  std::size_t frames_bad_crc = 0;
  std::size_t frames_oversized = 0;
  std::size_t frames_truncated = 0;
  /// Valid frames whose payload failed to decode (unknown type, underrun),
  /// and unparseable JSON lines; each earns an error reply.
  std::size_t messages_rejected = 0;
  /// Accepts closed immediately because max_connections was reached.
  std::size_t connections_shed = 0;
  /// Connections evicted for exceeding max_outbuf_bytes.
  std::size_t slow_clients_evicted = 0;
  /// Grant requests answered with a shed no_job during overload.
  std::size_t requests_shed = 0;
};

class NetServer {
 public:
  /// Binds and listens immediately (throws CheckError on failure) but does
  /// not serve until Start().
  NetServer(MessageService& service, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Spawns the event-loop thread. Call once.
  void Start();

  /// Graceful shutdown: stop accepting, drain replies, close, join.
  /// Idempotent; the destructor calls it too. After Stop() returns, the
  /// wrapped MessageService is safe to inspect from the caller's thread.
  void Stop();

  /// The bound port (resolves port 0 to the kernel's choice).
  int port() const { return port_; }

  NetServerStats stats() const;

 private:
  struct Connection;
  struct Loop;

  MessageService& service_;
  NetServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Written by the loop thread, read by anyone.
  std::atomic<std::size_t> connections_accepted_{0};
  std::atomic<std::size_t> connections_closed_{0};
  std::atomic<std::size_t> messages_handled_{0};
  std::atomic<std::size_t> timer_ticks_{0};
  std::atomic<std::size_t> frames_bad_magic_{0};
  std::atomic<std::size_t> frames_bad_version_{0};
  std::atomic<std::size_t> frames_bad_crc_{0};
  std::atomic<std::size_t> frames_oversized_{0};
  std::atomic<std::size_t> frames_truncated_{0};
  std::atomic<std::size_t> messages_rejected_{0};
  std::atomic<std::size_t> connections_shed_{0};
  std::atomic<std::size_t> slow_clients_evicted_{0};
  std::atomic<std::size_t> requests_shed_{0};

  void Run();
};

}  // namespace hypertune
