#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "common/check.h"
#include "fault/fault.h"
#include "net/codec.h"
#include "telemetry/telemetry.h"

namespace hypertune {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  HT_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed: " << std::strerror(errno));
  HT_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(F_SETFL) failed: " << std::strerror(errno));
}

}  // namespace

/// Per-connection state: transport (sniffed from the first byte), inbound
/// decode buffers, and the pending-reply buffer for partial writes.
struct NetServer::Connection {
  enum class Transport { kUnknown, kBinary, kJson };

  int fd = -1;
  Transport transport = Transport::kUnknown;
  FrameDecoder decoder;      // binary transport
  std::string line_buffer;   // JSON transport (newline-delimited envelopes)
  std::string outbuf;
  std::size_t out_offset = 0;
  /// Close once outbuf drains (set after an unrecoverable decode error).
  bool close_after_flush = false;
  /// Close now, pending data dropped (slow client over max_outbuf_bytes).
  bool evicted = false;

  bool HasPendingWrite() const { return out_offset < outbuf.size(); }
};

NetServer::NetServer(MessageService& service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {
  HT_CHECK(options_.tick_interval > 0);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  HT_CHECK_MSG(listen_fd_ >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  HT_CHECK_MSG(::inet_pton(AF_INET, options_.bind_address.c_str(),
                           &addr.sin_addr) == 1,
               "invalid bind address '" << options_.bind_address << "'");
  HT_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(" << options_.bind_address << ":" << options_.port
                       << ") failed: " << std::strerror(errno));
  HT_CHECK_MSG(::listen(listen_fd_, options_.backlog) == 0,
               "listen() failed: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  HT_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                         &len) == 0);
  port_ = ntohs(bound.sin_port);
  SetNonBlocking(listen_fd_);
  HT_CHECK_MSG(::pipe(wake_pipe_) == 0,
               "pipe() failed: " << std::strerror(errno));
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
}

NetServer::~NetServer() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void NetServer::Start() {
  HT_CHECK_MSG(!running_.exchange(true), "NetServer already started");
  thread_ = std::thread([this] { Run(); });
}

void NetServer::Stop() {
  if (!running_.load()) return;
  stop_requested_.store(true);
  // Wake poll(); a full pipe is fine — the byte already pending wakes it.
  const char byte = 1;
  (void)!::write(wake_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  // Stop accepting for real: with the listener open, the kernel would keep
  // completing handshakes into the backlog and reconnecting workers would
  // hang on replies that never come instead of seeing ECONNREFUSED.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
  stop_requested_.store(false);
}

NetServerStats NetServer::stats() const {
  NetServerStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_closed = connections_closed_.load();
  stats.messages_handled = messages_handled_.load();
  stats.timer_ticks = timer_ticks_.load();
  stats.frames_bad_magic = frames_bad_magic_.load();
  stats.frames_bad_version = frames_bad_version_.load();
  stats.frames_bad_crc = frames_bad_crc_.load();
  stats.frames_oversized = frames_oversized_.load();
  stats.frames_truncated = frames_truncated_.load();
  stats.messages_rejected = messages_rejected_.load();
  stats.connections_shed = connections_shed_.load();
  stats.slow_clients_evicted = slow_clients_evicted_.load();
  stats.requests_shed = requests_shed_.load();
  return stats;
}

/// Everything the event loop needs, owned by the loop thread. Kept out of
/// the header: <poll.h> and connection bookkeeping are implementation.
struct NetServer::Loop {
  NetServer& server;
  SocketIo& io;
  std::map<int, Connection> connections;
  /// Protocol clock for NetClock::kMessage: the max envelope `now` seen.
  double last_message_now = 0;
  /// True while the loop is behind schedule (tick lag over the shed
  /// threshold); grant requests are shed until a tick lands on time.
  bool overloaded = false;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  explicit Loop(NetServer& owner)
      : server(owner),
        io(owner.options_.io != nullptr ? *owner.options_.io
                                        : SocketIo::Real()) {}

  double WallNow() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }

  double ProtocolNow(double envelope_now) {
    if (server.options_.clock == NetClock::kWall) return WallNow();
    if (envelope_now > last_message_now) last_message_now = envelope_now;
    return envelope_now;
  }

  double TickNow() const {
    return server.options_.clock == NetClock::kWall ? WallNow()
                                                    : last_message_now;
  }

  void CountFrameError(FrameError error) {
    switch (error) {
      case FrameError::kBadMagic: ++server.frames_bad_magic_; break;
      case FrameError::kBadVersion: ++server.frames_bad_version_; break;
      case FrameError::kBadCrc: ++server.frames_bad_crc_; break;
      case FrameError::kOversized: ++server.frames_oversized_; break;
      case FrameError::kTruncated: ++server.frames_truncated_; break;
      case FrameError::kNone: return;
    }
    if (Telemetry* telemetry = server.options_.telemetry) {
      telemetry->Count(std::string("net.frame_") + FrameErrorName(error));
      // The network-framing arm of the service.malformed counter family.
      telemetry->Count("server.malformed_frames");
    }
  }

  void Enqueue(Connection& conn, std::string bytes) {
    if (conn.outbuf.empty() || conn.out_offset == conn.outbuf.size()) {
      conn.outbuf = std::move(bytes);
      conn.out_offset = 0;
    } else {
      conn.outbuf.append(bytes);
    }
    FlushWrites(conn);
    const std::size_t cap = server.options_.max_outbuf_bytes;
    if (cap > 0 && conn.outbuf.size() - conn.out_offset > cap) {
      // A consumer this far behind is effectively dead: buffering more
      // replies for it would grow without bound. Drop its buffer and close.
      conn.evicted = true;
      conn.outbuf.clear();
      conn.out_offset = 0;
      ++server.slow_clients_evicted_;
      if (Telemetry* telemetry = server.options_.telemetry) {
        telemetry->Count("net.slow_clients_evicted");
      }
    }
  }

  /// Writes as much of outbuf as the socket takes; the poll loop retries
  /// the remainder on POLLOUT. Write errors mark the connection dead.
  void FlushWrites(Connection& conn) {
    while (conn.HasPendingWrite()) {
      const ssize_t n =
          io.Send(conn.fd, conn.outbuf.data() + conn.out_offset,
                  conn.outbuf.size() - conn.out_offset);
      if (n > 0) {
        conn.out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.close_after_flush = true;  // peer gone; reap below
      conn.outbuf.clear();
      conn.out_offset = 0;
      return;
    }
    if (!conn.HasPendingWrite()) {
      conn.outbuf.clear();
      conn.out_offset = 0;
    }
  }

  std::string EncodeReply(const Connection& conn, const Json& reply,
                          double now) {
    return conn.transport == Connection::Transport::kJson
               ? EncodeJsonLine(reply, now)
               : EncodeMessage(reply, now);
  }

  void HandleDecoded(Connection& conn, const Json& message,
                     double envelope_now) {
    if (server.options_.clock == NetClock::kMessage &&
        !std::isfinite(envelope_now)) {
      // Refused before it can become the protocol clock: a NaN would be
      // journaled, and an infinity would expire every lease at the next
      // idle tick.
      RejectMessage(conn, kNonFiniteTimeError, TickNow());
      return;
    }
    const double now = ProtocolNow(envelope_now);
    if (overloaded && IsGrantRequest(message)) {
      // Behind schedule: granting more work only digs the hole deeper.
      // Tell the worker to come back without spending service time on a
      // scheduler decision.
      ++server.requests_shed_;
      if (Telemetry* telemetry = server.options_.telemetry) {
        telemetry->Count("net.requests_shed");
      }
      Json shed = NoJobReply(kShedRetryAfter);
      shed.Set("shed", Json(true));
      Enqueue(conn, EncodeReply(conn, shed, now));
      return;
    }
    // HandleMessage turns malformed *messages* into error replies itself;
    // this try is defense in depth for anything else.
    Json reply;
    try {
      reply = server.service_.HandleMessage(message, now);
    } catch (const std::exception& error) {
      reply = ErrorReply(error.what());
    }
    ++server.messages_handled_;
    Enqueue(conn, EncodeReply(conn, reply, now));
  }

  void RejectMessage(Connection& conn, const std::string& text, double now) {
    ++server.messages_rejected_;
    if (Telemetry* telemetry = server.options_.telemetry) {
      telemetry->Count("net.messages_rejected");
    }
    Enqueue(conn, EncodeReply(conn, ErrorReply(text), now));
  }

  void ProcessBinary(Connection& conn) {
    for (;;) {
      if (conn.evicted) return;
      while (auto frame = conn.decoder.Next()) {
        if (conn.evicted) return;
        try {
          const WireMessage decoded = DecodeMessage(*frame);
          HandleDecoded(conn, decoded.message, decoded.now);
        } catch (const std::exception& error) {
          RejectMessage(conn, error.what(), TickNow());
        }
      }
      const FrameError error = conn.decoder.error();
      if (error == FrameError::kNone) return;
      CountFrameError(error);
      if (conn.decoder.poisoned()) {
        // Unframeable stream: say why, flush, close. Never crash.
        RejectMessage(conn,
                      std::string("unrecoverable frame error: ") +
                          FrameErrorName(error),
                      TickNow());
        conn.close_after_flush = true;
        return;
      }
      // Bad CRC: the frame was skipped and the stream is still framed.
      RejectMessage(conn,
                    std::string("frame rejected: ") + FrameErrorName(error),
                    TickNow());
      conn.decoder.ClearError();
    }
  }

  void ProcessJsonLines(Connection& conn) {
    std::size_t start = 0;
    for (;;) {
      if (conn.evicted) break;
      const std::size_t newline = conn.line_buffer.find('\n', start);
      if (newline == std::string::npos) break;
      const std::string_view line =
          std::string_view(conn.line_buffer).substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      try {
        const WireMessage decoded = DecodeJsonLine(line);
        HandleDecoded(conn, decoded.message, decoded.now);
      } catch (const std::exception& error) {
        RejectMessage(conn, error.what(), TickNow());
      }
    }
    conn.line_buffer.erase(0, start);
  }

  void ProcessInput(Connection& conn, std::string_view bytes) {
    if (conn.transport == Connection::Transport::kUnknown && !bytes.empty()) {
      // JSON documents open with '{'; no binary frame does (magic starts
      // with 'H'). One byte settles the connection's transport for life.
      conn.transport = bytes.front() == '{' ? Connection::Transport::kJson
                                            : Connection::Transport::kBinary;
    }
    if (conn.transport == Connection::Transport::kJson) {
      conn.line_buffer.append(bytes);
      ProcessJsonLines(conn);
    } else {
      conn.decoder.Feed(bytes);
      ProcessBinary(conn);
    }
  }

  void Accept() {
    for (;;) {
      const int fd = ::accept(server.listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;  // a signal is not "no more clients"
        return;  // EAGAIN or transient error: poll again
      }
      if (const std::size_t cap = server.options_.max_connections;
          cap > 0 && connections.size() >= cap) {
        // At capacity: shed the connection at the door. The immediate
        // close (ECONNRESET on the client's first exchange) feeds its
        // backoff path, which beats stringing it along unserved.
        ::close(fd);
        ++server.connections_shed_;
        if (Telemetry* telemetry = server.options_.telemetry) {
          telemetry->Count("net.connections_shed");
        }
        continue;
      }
      SetNonBlocking(fd);
      const int one = 1;
      // Request-reply traffic: Nagle would serialize every exchange on a
      // delayed-ACK timer.
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Connection conn;
      conn.fd = fd;
      connections.emplace(fd, std::move(conn));
      ++server.connections_accepted_;
      if (Telemetry* telemetry = server.options_.telemetry) {
        telemetry->Count("net.connections_accepted");
      }
    }
  }

  /// Reads until EAGAIN/EOF. Returns false when the connection is done
  /// (EOF or error) and should be reaped after its outbuf flushes.
  bool ReadReady(Connection& conn) {
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = io.Recv(conn.fd, buffer, sizeof(buffer));
      if (n > 0) {
        ProcessInput(conn, std::string_view(buffer,
                                            static_cast<std::size_t>(n)));
        if (conn.evicted) return false;
        if (conn.close_after_flush) {
          // Poisoned stream: stop reading, let the error reply flush (the
          // reap check below closes once outbuf drains).
          ::shutdown(conn.fd, SHUT_RD);
          return true;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      // EOF (or hard error): a binary stream cut mid-frame is a truncated
      // tail — detected, accounted, never parsed.
      if (conn.transport == Connection::Transport::kBinary) {
        conn.decoder.Finish();
        if (conn.decoder.error() == FrameError::kTruncated) {
          CountFrameError(FrameError::kTruncated);
        }
      }
      return false;
    }
  }

  void Close(Connection& conn) {
    ::close(conn.fd);
    ++server.connections_closed_;
  }

  /// Bounded flush of every pending reply, then close everything.
  void Drain() {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(server.options_.drain_timeout));
    for (;;) {
      std::vector<pollfd> fds;
      for (auto& [fd, conn] : connections) {
        if (conn.HasPendingWrite()) fds.push_back({fd, POLLOUT, 0});
      }
      if (fds.empty()) break;
      const auto remaining = deadline - std::chrono::steady_clock::now();
      if (remaining <= std::chrono::steady_clock::duration::zero()) break;
      const int timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count());
      if (::poll(fds.data(), fds.size(), std::max(timeout_ms, 1)) <= 0) {
        continue;
      }
      for (const pollfd& p : fds) {
        if (p.revents != 0) FlushWrites(connections.at(p.fd));
      }
    }
    for (auto& [fd, conn] : connections) Close(conn);
    connections.clear();
  }
};

void NetServer::Run() {
  Loop loop(*this);
  double next_tick = loop.WallNow() + options_.tick_interval;
  std::vector<pollfd> fds;
  std::vector<int> done;  // fds to reap this iteration

  while (!stop_requested_.load()) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : loop.connections) {
      short events = POLLIN;
      if (conn.HasPendingWrite()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    const double until_tick = next_tick - loop.WallNow();
    const int timeout_ms =
        until_tick <= 0
            ? 0
            : static_cast<int>(until_tick * 1000) + 1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);

    // The idle-expiry path: leases must die on schedule even when not a
    // single worker message arrives (TuningServer::Tick used to run only
    // piggybacked on HandleMessage).
    if (loop.WallNow() >= next_tick) {
      // Tick lag is the overload signal: a loop that can't run its timer
      // on time can't keep up with its sockets either.
      if (options_.overload_shed_lag > 0) {
        loop.overloaded =
            loop.WallNow() - next_tick > options_.overload_shed_lag;
      }
      service_.Tick(loop.TickNow());
      ++timer_ticks_;
      next_tick = loop.WallNow() + options_.tick_interval;
    }
    if (ready <= 0) continue;

    if (fds[0].revents != 0) {
      char sink[64];
      while (::read(wake_pipe_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if (fds[1].revents != 0) loop.Accept();

    done.clear();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      auto it = loop.connections.find(p.fd);
      if (it == loop.connections.end()) continue;
      Connection& conn = it->second;
      bool alive = true;
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        alive = loop.ReadReady(conn);
      }
      if (alive && (p.revents & POLLOUT)) loop.FlushWrites(conn);
      if (!alive || (conn.close_after_flush && !conn.HasPendingWrite())) {
        // Give a poisoned connection one last synchronous flush so the
        // error reply reaches the peer before the FIN.
        if (!alive && conn.HasPendingWrite()) loop.FlushWrites(conn);
        loop.Close(conn);
        done.push_back(p.fd);
      }
    }
    for (const int fd : done) loop.connections.erase(fd);
  }

  loop.Drain();
}

}  // namespace hypertune
