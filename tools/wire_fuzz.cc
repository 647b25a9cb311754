// Seeded wire fuzzer: hammers a live NetServer over loopback TCP with a
// mix of valid frames, bit-flipped mutations of valid frames, mutated
// payloads re-framed with a valid CRC, pure random bytes, JSON-line
// garbage, and frames split mid-header — the traffic a hostile or broken
// client could ever produce. The server runs with every hardening knob
// engaged (max_connections, max_outbuf_bytes, overload shedding) so the
// fuzz also walks the eviction/shed paths.
//
// The tool asserts nothing about replies — by design most inputs are
// garbage and most connections get poisoned and closed. The server-side
// contract is "no crash, no hang, no leak": CI runs it under ASan/UBSan
// (`wire_fuzz --frames 50000`) and any sanitizer report or non-zero exit
// fails the build. Bit flips almost always die at the CRC check, so the
// re-framed payload mutations are what reach the payload decoder; each one
// is also decoded in-process, and a payload the decoder accepts must
// re-encode byte for byte (the codec accepts only canonical bytes) or the
// run exits non-zero. Fully deterministic in --seed, so a failing run
// replays exactly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/random_search.h"
#include "net/codec.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/server.h"

namespace hypertune {
namespace {

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

/// One fuzzing connection. Sends are bounded by SO_SNDTIMEO and reads are
/// non-blocking drains; any socket error just means "reconnect".
class FuzzClient {
 public:
  explicit FuzzClient(int port) : port_(port) { Connect(); }
  ~FuzzClient() { Close(); }

  bool Connect() {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    timeval timeout{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    return true;
  }

  /// False when the connection died (peer closed it, or the send timed
  /// out) — the caller reconnects and the fuzz continues.
  bool Send(std::string_view bytes) {
    if (fd_ < 0) return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Drains whatever replies are pending without blocking; the bytes are
  /// discarded — the fuzzer only cares that the server survives.
  void Drain() {
    if (fd_ < 0) return;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) continue;
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) Close();  // peer closed: reconnect on next send
      return;
    }
  }

  bool connected() const { return fd_ >= 0; }

 private:
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int port_;
  int fd_ = -1;
};

/// A well-formed request drawn from the full lease vocabulary (sometimes
/// study-scoped; the studies don't exist, which exercises error replies).
Json ValidRequest(Rng& rng) {
  Json message = JsonObject{};
  const std::int64_t worker = rng.UniformInt(0, 7);
  switch (rng.Index(4)) {
    case 0:
      message.Set("type", Json("request_job"));
      message.Set("worker", Json(worker));
      break;
    case 1:
      message.Set("type", Json("request_jobs"));
      message.Set("worker", Json(worker));
      message.Set("count", Json(rng.UniformInt(1, 4)));
      break;
    case 2:
      message.Set("type", Json("heartbeat"));
      message.Set("worker", Json(worker));
      message.Set("job_id", Json(rng.UniformInt(-2, 50)));
      break;
    default:
      message.Set("type", Json("report"));
      message.Set("worker", Json(worker));
      message.Set("job_id", Json(rng.UniformInt(-2, 50)));
      message.Set("loss", Json(rng.Uniform()));
      break;
  }
  if (rng.Bernoulli(0.1)) message.Set("study", Json("no-such-study"));
  return message;
}

std::string RandomBytes(Rng& rng, std::size_t max_size) {
  std::string bytes(1 + rng.Index(max_size), '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

/// Messages whose payloads carry the presence, state and flag bytes and
/// the nested configs and entries that the lease requests lack.
constexpr const char* kRichMessages[] = {
    R"({"type":"ack","stale":true})",
    R"({"type":"no_job","retry_after":1.5,"shed":true})",
    R"({"type":"create_study","study":"s","config":{"lr":0.5,"depth":3},)"
    R"("max_leases":2})",
    R"({"type":"jobs","jobs":[{"job_id":1,"job":{"trial":0,)"
    R"("config":{"x":0.5,"act":"relu"},"from":0.0,"to":1.0,"rung":0,)"
    R"("bracket":0,"tag":0},"study":"s"}],"lease_timeout":60.0,)"
    R"("retry_after":5.0})",
    R"({"type":"studies","studies":[{"study":"s","state":"active",)"
    R"("max_leases":0,"active_leases":0,"jobs_assigned":0,)"
    R"("jobs_completed":0}]})",
};

/// A valid message's payload with 1..4 bytes overwritten — often with the
/// small values presence, state and flag bytes take — and sometimes cut
/// short or filed under another frame type, so every layout's decoder sees
/// near-miss bytes. The caller frames it with a valid CRC.
WireFrame MutatedPayload(Rng& rng) {
  const Json message =
      rng.Bernoulli(0.5)
          ? ValidRequest(rng)
          : Json::Parse(kRichMessages[rng.Index(std::size(kRichMessages))]);
  FrameDecoder decoder;
  decoder.Feed(EncodeMessage(message, rng.Uniform(0, 1000)));
  WireFrame frame = *decoder.Next();
  const std::size_t edits = 1 + rng.Index(4);
  for (std::size_t e = 0; e < edits; ++e) {
    frame.payload[rng.Index(frame.payload.size())] = static_cast<char>(
        rng.Bernoulli(0.5) ? rng.UniformInt(0, 3) : rng.UniformInt(0, 255));
  }
  if (rng.Bernoulli(0.1)) {
    frame.payload.resize(rng.Index(frame.payload.size()));
  }
  if (rng.Bernoulli(0.3)) {
    frame.type = static_cast<WireType>(rng.UniformInt(1, 25));
  }
  return frame;
}

struct FuzzCounts {
  std::size_t valid = 0;
  std::size_t mutated = 0;
  std::size_t payload = 0;
  std::size_t payload_accepted = 0;
  std::size_t noncanonical = 0;
  std::size_t random = 0;
  std::size_t json = 0;
  std::size_t split = 0;
  std::size_t reconnects = 0;
};

/// Decodes `frame` in-process, as the server will. A payload the decoder
/// accepts must be exactly what the encoder writes for the decoded message;
/// anything else is counted (and printed) as non-canonical.
void CheckCanonical(const WireFrame& frame, const std::string& framed,
                    FuzzCounts& counts) {
  WireMessage decoded;
  try {
    decoded = DecodeMessage(frame);
  } catch (const CheckError&) {
    return;  // rejected: the server answers it with an error reply
  }
  ++counts.payload_accepted;
  try {
    if (EncodeMessage(decoded.message, decoded.now) == framed) return;
  } catch (const CheckError&) {
    // Accepted bytes the encoder refuses to write: non-canonical too.
  }
  ++counts.noncanonical;
  std::printf("wire_fuzz: accepted a non-canonical type-%d payload: %s\n",
              static_cast<int>(frame.type), decoded.message.Dump().c_str());
}

int RunFuzz(std::size_t frames, std::uint64_t seed) {
  RandomSearchOptions options;
  options.R = 10;
  options.max_trials = -1;  // never finishes: grants keep flowing
  RandomSearchScheduler scheduler(MakeRandomSampler(UnitSpace()), options);
  TuningServer server(scheduler, {.lease_timeout = 60});

  NetServerOptions net_options;
  net_options.clock = NetClock::kWall;
  net_options.tick_interval = 0.01;
  net_options.max_connections = 12;
  net_options.max_outbuf_bytes = 1u << 16;
  net_options.overload_shed_lag = 0.25;
  NetServer net(server, net_options);
  net.Start();

  Rng rng(seed);
  std::vector<FuzzClient> clients;
  clients.reserve(8);
  for (int i = 0; i < 8; ++i) clients.emplace_back(net.port());

  FuzzCounts counts;
  for (std::size_t i = 0; i < frames; ++i) {
    FuzzClient& client = clients[rng.Index(clients.size())];
    if (!client.connected() && !client.Connect()) continue;

    std::string bytes;
    bool split = false;
    const double draw = rng.Uniform();
    if (draw < 0.35) {
      bytes = EncodeMessage(ValidRequest(rng), rng.Uniform(0, 1000));
      ++counts.valid;
    } else if (draw < 0.50) {
      // A valid frame with 1..8 random bytes flipped: hits every decode
      // rejection (magic, version, type, length, CRC, payload underrun).
      bytes = EncodeMessage(ValidRequest(rng), rng.Uniform(0, 1000));
      const std::size_t flips = 1 + rng.Index(8);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.Index(bytes.size())] ^=
            static_cast<char>(1 + rng.UniformInt(0, 254));
      }
      ++counts.mutated;
    } else if (draw < 0.65) {
      const WireFrame frame = MutatedPayload(rng);
      bytes = EncodeFrame(frame.type, frame.payload);
      CheckCanonical(frame, bytes, counts);
      ++counts.payload;
    } else if (draw < 0.80) {
      bytes = RandomBytes(rng, 128);
      ++counts.random;
    } else if (draw < 0.90) {
      // JSON-lines transport: valid envelope or line noise. A leading '{'
      // flips the connection into JSON mode for good.
      if (rng.Bernoulli(0.5)) {
        bytes = EncodeJsonLine(ValidRequest(rng), rng.Uniform(0, 1000));
      } else {
        bytes = "{" + RandomBytes(rng, 64) + "\n";
      }
      ++counts.json;
    } else {
      // Mid-frame split: send a prefix now, usually the rest next time —
      // and sometimes never, leaving a truncated tail for the close path.
      bytes = EncodeMessage(ValidRequest(rng), rng.Uniform(0, 1000));
      split = true;
      ++counts.split;
    }

    bool ok;
    if (split) {
      const std::size_t cut = 1 + rng.Index(bytes.size() - 1);
      ok = client.Send(std::string_view(bytes).substr(0, cut));
      if (ok && rng.Bernoulli(0.8)) {
        ok = client.Send(std::string_view(bytes).substr(cut));
      }
    } else {
      ok = client.Send(bytes);
    }
    if (!ok) {
      ++counts.reconnects;
      client.Connect();
    }
    if (rng.Bernoulli(0.25)) client.Drain();
  }
  for (FuzzClient& client : clients) client.Drain();
  clients.clear();
  net.Stop();

  const NetServerStats stats = net.stats();
  std::printf(
      "wire_fuzz frames=%zu seed=%llu valid=%zu mutated=%zu payload=%zu "
      "(accepted=%zu noncanonical=%zu) random=%zu json=%zu split=%zu "
      "reconnects=%zu\n",
      frames, static_cast<unsigned long long>(seed), counts.valid,
      counts.mutated, counts.payload, counts.payload_accepted,
      counts.noncanonical, counts.random, counts.json, counts.split,
      counts.reconnects);
  std::printf(
      "server   handled=%zu rejected=%zu bad_magic=%zu bad_version=%zu "
      "bad_crc=%zu oversized=%zu truncated=%zu\n",
      stats.messages_handled, stats.messages_rejected, stats.frames_bad_magic,
      stats.frames_bad_version, stats.frames_bad_crc, stats.frames_oversized,
      stats.frames_truncated);
  std::printf(
      "server   accepted=%zu closed=%zu shed_conns=%zu evicted=%zu "
      "shed_requests=%zu ticks=%zu\n",
      stats.connections_accepted, stats.connections_closed,
      stats.connections_shed, stats.slow_clients_evicted, stats.requests_shed,
      stats.timer_ticks);

  // Sanity: the fuzz actually reached the server and exercised both the
  // happy path and several rejection kinds. (Correctness of replies is the
  // chaos harness's job; this tool's contract is survival.)
  if (stats.messages_handled == 0 || stats.frames_bad_magic == 0 ||
      stats.frames_bad_crc == 0) {
    std::printf("wire_fuzz: traffic mix failed to exercise the server\n");
    return 1;
  }
  if (counts.noncanonical != 0) {
    std::printf("wire_fuzz: the decoder accepted %zu non-canonical payloads\n",
                counts.noncanonical);
    return 1;
  }
  std::printf("wire_fuzz passed: server survived the storm\n");
  return 0;
}

}  // namespace
}  // namespace hypertune

int main(int argc, char** argv) {
  std::size_t frames = 50000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--frames" && i + 1 < argc) {
      frames = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--frames N] [--seed S]\n", argv[0]);
      return 2;
    }
  }
  return hypertune::RunFuzz(frames, seed);
}
