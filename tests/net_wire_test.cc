// The binary wire layer: frame encode/decode, the five malformed-frame
// error kinds, and the lossless JSON <-> binary codec over the full lease
// protocol vocabulary (DESIGN.md §8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/codec.h"
#include "net/wire.h"

namespace hypertune {
namespace {

std::string Framed(WireType type, std::string_view payload) {
  return EncodeFrame(type, payload);
}

TEST(FrameRoundTrip, EncodeThenDecode) {
  FrameDecoder decoder;
  decoder.Feed(Framed(WireType::kReport, "hello"));
  const auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kReport);
  EXPECT_EQ(frame->payload, "hello");
  EXPECT_EQ(decoder.error(), FrameError::kNone);
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameRoundTrip, ByteAtATimeFeedStillFrames) {
  const std::string bytes = Framed(WireType::kAck, "payload-bytes") +
                            Framed(WireType::kError, "second");
  FrameDecoder decoder;
  std::vector<WireFrame> frames;
  for (const char byte : bytes) {
    decoder.Feed(std::string_view(&byte, 1));
    while (auto frame = decoder.Next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "payload-bytes");
  EXPECT_EQ(frames[1].payload, "second");
}

TEST(FrameErrors, BadMagicPoisons) {
  FrameDecoder decoder;
  std::string bytes = Framed(WireType::kAck, "x");
  bytes[0] = 'Z';
  decoder.Feed(bytes);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kBadMagic);
  EXPECT_TRUE(decoder.poisoned());
  // Poisoned streams never recover, even with a valid frame appended.
  decoder.ClearError();
  decoder.Feed(Framed(WireType::kAck, "y"));
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameErrors, WrongVersionPoisons) {
  std::string bytes = Framed(WireType::kAck, "x");
  bytes[4] = static_cast<char>(kWireVersion + 1);  // version low byte
  FrameDecoder decoder;
  decoder.Feed(bytes);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kBadVersion);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameErrors, OversizedLengthPoisons) {
  WireWriter header;
  header.U32(kFrameMagic);
  header.U16(kWireVersion);
  header.U16(static_cast<std::uint16_t>(WireType::kAck));
  header.U32(kMaxFramePayload + 1);
  header.U32(0);
  FrameDecoder decoder;
  decoder.Feed(header.bytes());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kOversized);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameErrors, CrcMismatchIsRecoverable) {
  std::string bytes = Framed(WireType::kReport, "payload");
  bytes.back() ^= 0x01;  // flip a payload bit; header CRC no longer matches
  bytes += Framed(WireType::kAck, "intact");
  FrameDecoder decoder;
  decoder.Feed(bytes);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kBadCrc);
  EXPECT_FALSE(decoder.poisoned());
  decoder.ClearError();
  // The corrupt frame was skipped; the stream is still framed.
  const auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "intact");
}

TEST(FrameErrors, TruncatedTailDetectedAtEof) {
  const std::string bytes = Framed(WireType::kReport, "long-payload-here");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(bytes).substr(0, bytes.size() - 3));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.error(), FrameError::kNone);  // just waiting so far
  decoder.Finish();
  EXPECT_EQ(decoder.error(), FrameError::kTruncated);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameErrors, CleanEofIsNotTruncation) {
  FrameDecoder decoder;
  decoder.Feed(Framed(WireType::kAck, "x"));
  ASSERT_TRUE(decoder.Next().has_value());
  decoder.Finish();
  EXPECT_EQ(decoder.error(), FrameError::kNone);
}

// --- Codec: the full protocol vocabulary round-trips bit-identically ---

Json MakeConfig(Rng& rng) {
  Json config = JsonObject{};
  config.Set("lr", Json(rng.Uniform() * 0.1));
  if (rng.Uniform() < 0.7) {
    config.Set("layers", Json(static_cast<std::int64_t>(
                             1 + static_cast<int>(rng.Uniform() * 8))));
  }
  if (rng.Uniform() < 0.5) {
    config.Set("activation", Json(rng.Uniform() < 0.5 ? "relu" : "tanh"));
  }
  return config;
}

Json MakeJob(Rng& rng, std::int64_t trial) {
  Json job = JsonObject{};
  job.Set("trial", Json(trial));
  job.Set("config", MakeConfig(rng));
  job.Set("from", Json(rng.Uniform() * 10));
  job.Set("to", Json(rng.Uniform() * 100));
  job.Set("rung", Json(static_cast<std::int64_t>(rng.Uniform() * 5)));
  job.Set("bracket", Json(static_cast<std::int64_t>(rng.Uniform() * 3)));
  job.Set("tag", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
  return job;
}

/// Every message kind the protocol can put on the wire, with randomized
/// field values (including the optional-field variants).
std::vector<Json> ProtocolSamples(Rng& rng) {
  std::vector<Json> samples;
  {
    Json m = JsonObject{};
    m.Set("type", Json("request_job"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("request_jobs"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("count", Json(static_cast<std::int64_t>(1 + rng.Uniform() * 64)));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("heartbeat"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("job_id", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("report"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("job_id", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
    m.Set("loss", Json(rng.Normal()));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("job"));
    m.Set("job_id", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
    m.Set("job", MakeJob(rng, static_cast<std::int64_t>(rng.Uniform() * 500)));
    m.Set("lease_timeout", Json(30.0 + rng.Uniform()));
    samples.push_back(std::move(m));
  }
  {
    // Batched grant, with and without the short-fill retry hint.
    for (const bool short_fill : {false, true}) {
      Json m = JsonObject{};
      m.Set("type", Json("jobs"));
      Json jobs = JsonArray{};
      const int count = 1 + static_cast<int>(rng.Uniform() * 5);
      for (int i = 0; i < count; ++i) {
        Json entry = JsonObject{};
        entry.Set("job_id",
                  Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
        entry.Set("job", MakeJob(rng, i));
        jobs.PushBack(std::move(entry));
      }
      m.Set("jobs", std::move(jobs));
      m.Set("lease_timeout", Json(30.0));
      if (short_fill) m.Set("retry_after", Json(7.5));
      samples.push_back(std::move(m));
    }
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("no_job"));
    m.Set("retry_after", Json(rng.Uniform() * 20));
    samples.push_back(std::move(m));
  }
  {
    // Overload shedding denial: the appended kNoJobFlagged payload.
    Json m = JsonObject{};
    m.Set("type", Json("no_job"));
    m.Set("retry_after", Json(1.0));
    m.Set("shed", Json(true));
    samples.push_back(std::move(m));
  }
  {
    // Degraded read-only denial (DurableServer with an unwritable journal).
    Json m = JsonObject{};
    m.Set("type", Json("no_job"));
    m.Set("retry_after", Json(5.0));
    m.Set("degraded", Json(true));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("ack"));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("ack"));
    m.Set("stale", Json(true));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("lease_lost"));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("error"));
    m.Set("message", Json("report missing its loss — \"quoted\" & unicode Ω"));
    samples.push_back(std::move(m));
  }

  // --- Multi-tenant vocabulary (DESIGN.md §11): study-scoped lease
  // messages, the admin verbs, and the study-bearing replies. ---
  const std::string study_name =
      rng.Uniform() < 0.5 ? "prod.resnet-50" : "user_7-dev";
  {
    Json m = JsonObject{};
    m.Set("type", Json("request_job"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("study", Json(study_name));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("request_jobs"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("count", Json(static_cast<std::int64_t>(1 + rng.Uniform() * 64)));
    m.Set("study", Json(study_name));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("heartbeat"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("job_id", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
    m.Set("study", Json(study_name));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("report"));
    m.Set("worker", Json(static_cast<std::int64_t>(rng.Uniform() * 1000)));
    m.Set("job_id", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
    m.Set("loss", Json(rng.Normal()));
    m.Set("study", Json(study_name));
    samples.push_back(std::move(m));
  }
  {
    // create_study with and without an explicit quota.
    for (const bool has_quota : {false, true}) {
      Json m = JsonObject{};
      m.Set("type", Json("create_study"));
      m.Set("study", Json(study_name));
      m.Set("config", MakeConfig(rng));
      if (has_quota) {
        m.Set("max_leases",
              Json(static_cast<std::int64_t>(rng.Uniform() * 64)));
      }
      samples.push_back(std::move(m));
    }
  }
  for (const char* verb : {"suspend_study", "resume_study", "delete_study"}) {
    Json m = JsonObject{};
    m.Set("type", Json(verb));
    m.Set("study", Json(study_name));
    samples.push_back(std::move(m));
  }
  {
    Json m = JsonObject{};
    m.Set("type", Json("list_studies"));
    samples.push_back(std::move(m));
  }
  {
    // The list_studies table, including the empty-server case.
    const int count = static_cast<int>(rng.Uniform() * 4);
    Json m = JsonObject{};
    m.Set("type", Json("studies"));
    Json studies = JsonArray{};
    for (int i = 0; i < count; ++i) {
      Json entry = JsonObject{};
      entry.Set("study", Json("study-" + std::to_string(i)));
      entry.Set("state", Json(rng.Uniform() < 0.5 ? "suspended" : "active"));
      entry.Set("max_leases",
                Json(static_cast<std::int64_t>(rng.Uniform() * 16)));
      entry.Set("active_leases",
                Json(static_cast<std::int64_t>(rng.Uniform() * 8)));
      entry.Set("jobs_assigned",
                Json(static_cast<std::int64_t>(rng.Uniform() * 500)));
      entry.Set("jobs_completed",
                Json(static_cast<std::int64_t>(rng.Uniform() * 500)));
      studies.PushBack(std::move(entry));
    }
    m.Set("studies", std::move(studies));
    samples.push_back(std::move(m));
  }
  {
    // Study-bearing single grant (the "*" fair-allocation reply).
    Json m = JsonObject{};
    m.Set("type", Json("job"));
    m.Set("job_id", Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
    m.Set("job", MakeJob(rng, static_cast<std::int64_t>(rng.Uniform() * 500)));
    m.Set("lease_timeout", Json(30.0 + rng.Uniform()));
    m.Set("study", Json(study_name));
    samples.push_back(std::move(m));
  }
  {
    // Study-bearing batched grant, with and without the retry hint.
    for (const bool short_fill : {false, true}) {
      Json m = JsonObject{};
      m.Set("type", Json("jobs"));
      Json jobs = JsonArray{};
      const int count = 1 + static_cast<int>(rng.Uniform() * 5);
      for (int i = 0; i < count; ++i) {
        Json entry = JsonObject{};
        entry.Set("job_id",
                  Json(static_cast<std::int64_t>(rng.Uniform() * 1e6)));
        entry.Set("job", MakeJob(rng, i));
        entry.Set("study", Json("study-" + std::to_string(i % 3)));
        jobs.PushBack(std::move(entry));
      }
      m.Set("jobs", std::move(jobs));
      m.Set("lease_timeout", Json(30.0));
      if (short_fill) m.Set("retry_after", Json(7.5));
      samples.push_back(std::move(m));
    }
  }
  return samples;
}

TEST(WireCodecProperty, EveryMessageRoundTripsBitIdentically) {
  for (const std::uint64_t seed : {1ull, 42ull, 1000ull, 7777ull}) {
    Rng rng(seed);
    for (int round = 0; round < 25; ++round) {
      const double now = rng.Uniform() * 2000;
      for (const Json& message : ProtocolSamples(rng)) {
        const std::string framed = EncodeMessage(message, now);
        FrameDecoder decoder;
        decoder.Feed(framed);
        const auto frame = decoder.Next();
        ASSERT_TRUE(frame.has_value());
        const WireMessage decoded = DecodeMessage(*frame);
        EXPECT_EQ(decoded.now, now);
        // Bit-identity: same fields, same order, same int-vs-double
        // storage — Dump() equality is the strictest observable check.
        EXPECT_EQ(decoded.message, message);
        EXPECT_EQ(decoded.message.Dump(), message.Dump());
      }
    }
  }
}

TEST(WireCodec, BinaryIsCompacterThanJson) {
  Rng rng(3);
  for (const Json& message : ProtocolSamples(rng)) {
    EXPECT_LT(EncodeMessage(message, 1.0).size(),
              EncodeJsonLine(message, 1.0).size())
        << message.Dump();
  }
}

TEST(WireCodec, JsonLineEnvelopeRoundTrips) {
  Rng rng(9);
  for (const Json& message : ProtocolSamples(rng)) {
    const std::string line = EncodeJsonLine(message, 123.25);
    ASSERT_EQ(line.back(), '\n');
    const WireMessage decoded =
        DecodeJsonLine(std::string_view(line).substr(0, line.size() - 1));
    EXPECT_EQ(decoded.now, 123.25);
    // Text transit may legally shift integral doubles to int storage; the
    // numeric values and field order must survive exactly.
    EXPECT_EQ(decoded.message.at("type").AsString(),
              message.at("type").AsString());
    EXPECT_EQ(decoded.message.AsObject().size(), message.AsObject().size());
  }
}

TEST(WireCodec, RejectsMessagesOutsideTheSchema) {
  Json unknown = JsonObject{};
  unknown.Set("type", Json("subscribe"));
  EXPECT_THROW(EncodeMessage(unknown, 0), CheckError);

  Json extra = JsonObject{};
  extra.Set("type", Json("request_job"));
  extra.Set("worker", Json(std::int64_t{1}));
  extra.Set("smuggled", Json("field"));
  EXPECT_THROW(EncodeMessage(extra, 0), CheckError);

  Json missing = JsonObject{};
  missing.Set("type", Json("report"));
  missing.Set("worker", Json(std::int64_t{1}));
  missing.Set("job_id", Json(std::int64_t{2}));
  missing.Set("extra", Json(1));  // right arity, wrong field
  EXPECT_THROW(EncodeMessage(missing, 0), CheckError);

  // The no_job flags are presence-only: a false value would not survive
  // the round trip, so the encoder refuses it outright.
  Json false_flag = JsonObject{};
  false_flag.Set("type", Json("no_job"));
  false_flag.Set("retry_after", Json(1.0));
  false_flag.Set("shed", Json(false));
  EXPECT_THROW(EncodeMessage(false_flag, 0), CheckError);
}

TEST(WireCodec, RejectsTrailingPayloadBytes) {
  Json m = JsonObject{};
  m.Set("type", Json("ack"));
  const std::string framed = EncodeMessage(m, 0);
  // Rebuild the frame with one smuggled byte appended to the payload.
  const std::string payload =
      framed.substr(kFrameHeaderSize) + std::string(1, '\0');
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(WireType::kAck, payload));
  const auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW(DecodeMessage(*frame), CheckError);
}

// --- Golden payload bytes: one fixed message per WireType ---
//
// The round-trip property test would pass a change that moved both codec
// halves the same way; these frames pin the bytes an old peer expects.
// Each hex string is a complete frame (header + payload) recorded from the
// hand-written codec that preceded the schema table. Never edit one to make
// a test pass: a changed byte is a wire break and needs a kWireVersion bump.

Json Object(std::initializer_list<std::pair<const char*, Json>> fields) {
  Json object = JsonObject{};
  for (const auto& [key, value] : fields) object.Set(key, value);
  return object;
}

Json GoldenJob(std::int64_t trial) {
  return Object({{"trial", Json(trial)},
                 {"config", Object({{"lr", Json(0.125)},
                                    {"layers", Json(std::int64_t{4})},
                                    {"act", Json("relu")}})},
                 {"from", Json(1.0)},
                 {"to", Json(3.0)},
                 {"rung", Json(std::int64_t{1})},
                 {"bracket", Json(std::int64_t{0})},
                 {"tag", Json(std::int64_t{-2})}});
}

Json GoldenEntries(bool scoped) {
  Json jobs = JsonArray{};
  for (std::int64_t i = 0; i < 2; ++i) {
    Json entry = Object({{"job_id", Json(100 + i)}, {"job", GoldenJob(i)}});
    if (scoped) entry.Set("study", Json(i == 0 ? "a" : "bb"));
    jobs.PushBack(std::move(entry));
  }
  return jobs;
}

/// A list_studies entry whose four counters are first, first + 1, ...
Json GoldenStudy(const char* name, const char* state, std::int64_t first) {
  return Object({{"study", Json(name)},
                 {"state", Json(state)},
                 {"max_leases", Json(first)},
                 {"active_leases", Json(first + 1)},
                 {"jobs_assigned", Json(first + 2)},
                 {"jobs_completed", Json(first + 3)}});
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char byte : bytes) {
    const auto value = static_cast<unsigned char>(byte);
    hex += kDigits[value >> 4];
    hex += kDigits[value & 0xF];
  }
  return hex;
}

struct GoldenFrame {
  WireType type;
  Json message;
  std::string hex;
};

std::vector<GoldenFrame> GoldenFrames() {
  const Json worker(std::int64_t{3});
  const Json job_id(std::int64_t{17});
  const Json study("s1");
  return {
      {WireType::kRequestJob,
       Object({{"type", Json("request_job")}, {"worker", worker}}),
       "48544e500100010010000000ab67ee0f00000000000029400300000000000000"},
      {WireType::kRequestJobs,
       Object({{"type", Json("request_jobs")},
               {"worker", worker},
               {"count", Json(std::int64_t{4})}}),
       "48544e50010002001800000001b540f600000000000029400300000000000000"
       "0400000000000000"},
      {WireType::kHeartbeat,
       Object({{"type", Json("heartbeat")},
               {"worker", worker},
               {"job_id", job_id}}),
       "48544e5001000300180000004e8a1bc200000000000029400300000000000000"
       "1100000000000000"},
      {WireType::kReport,
       Object({{"type", Json("report")},
               {"worker", worker},
               {"job_id", job_id},
               {"loss", Json(0.25)}}),
       "48544e500100040020000000cb1bc9b800000000000029400300000000000000"
       "1100000000000000000000000000d03f"},
      {WireType::kCreateStudy,
       Object({{"type", Json("create_study")},
               {"study", study},
               {"config", Object({{"kind", Json("asha")},
                                  {"seed", Json(std::int64_t{1})},
                                  {"eta", Json(3.5)}})},
               {"max_leases", Json(std::int64_t{8})}}),
       "48544e500100050043000000a9a965ae00000000000029400200733103000400"
       "6b696e6402040000006173686104007365656401010000000000000003006574"
       "61000000000000000c40010800000000000000"},
      {WireType::kSuspendStudy,
       Object({{"type", Json("suspend_study")}, {"study", study}}),
       "48544e50010006000c0000005c2840fc000000000000294002007331"},
      {WireType::kResumeStudy,
       Object({{"type", Json("resume_study")}, {"study", study}}),
       "48544e50010007000c0000005c2840fc000000000000294002007331"},
      {WireType::kDeleteStudy,
       Object({{"type", Json("delete_study")}, {"study", study}}),
       "48544e50010008000c0000005c2840fc000000000000294002007331"},
      {WireType::kListStudies, Object({{"type", Json("list_studies")}}),
       "48544e5001000900080000001201b8570000000000002940"},
      {WireType::kRequestJobStudy,
       Object({{"type", Json("request_job")},
               {"worker", worker},
               {"study", study}}),
       "48544e5001000a0014000000cabd315900000000000029400300000000000000"
       "02007331"},
      {WireType::kRequestJobsStudy,
       Object({{"type", Json("request_jobs")},
               {"worker", worker},
               {"count", Json(std::int64_t{4})},
               {"study", study}}),
       "48544e5001000b001c0000002a7e0f0100000000000029400300000000000000"
       "040000000000000002007331"},
      {WireType::kHeartbeatStudy,
       Object({{"type", Json("heartbeat")},
               {"worker", worker},
               {"job_id", job_id},
               {"study", study}}),
       "48544e5001000c001c000000c6e4b49500000000000029400300000000000000"
       "110000000000000002007331"},
      {WireType::kReportStudy,
       Object({{"type", Json("report")},
               {"worker", worker},
               {"job_id", job_id},
               {"loss", Json(0.25)},
               {"study", study}}),
       "48544e5001000d0024000000b74f3cb000000000000029400300000000000000"
       "1100000000000000000000000000d03f02007331"},
      {WireType::kJob,
       Object({{"type", Json("job")},
               {"job_id", job_id},
               {"job", GoldenJob(5)},
               {"lease_timeout", Json(60.0)}}),
       "48544e5001001000760000000d5f2b1d00000000000029401100000000000000"
       "0500000000000000030002006c7200000000000000c03f06006c617965727301"
       "04000000000000000300616374020400000072656c75000000000000f03f0000"
       "00000000084001000000000000000000000000000000feffffffffffffff0000"
       "000000004e40"},
      {WireType::kJobs,
       Object({{"type", Json("jobs")},
               {"jobs", GoldenEntries(false)},
               {"lease_timeout", Json(60.0)},
               {"retry_after", Json(15.0)}}),
       "48544e5001001100e9000000e8baf79b00000000000029400200000064000000"
       "000000000000000000000000030002006c7200000000000000c03f06006c6179"
       "6572730104000000000000000300616374020400000072656c75000000000000"
       "f03f000000000000084001000000000000000000000000000000feffffffffff"
       "ffff65000000000000000100000000000000030002006c7200000000000000c0"
       "3f06006c61796572730104000000000000000300616374020400000072656c75"
       "000000000000f03f000000000000084001000000000000000000000000000000"
       "feffffffffffffff0000000000004e40010000000000002e40"},
      {WireType::kNoJob,
       Object({{"type", Json("no_job")}, {"retry_after", Json(15.0)}}),
       "48544e500100120010000000f428bafc00000000000029400000000000002e40"},
      {WireType::kAck, Object({{"type", Json("ack")}}),
       "48544e500100130009000000c426ec21000000000000294000"},
      {WireType::kAck,
       Object({{"type", Json("ack")}, {"stale", Json(true)}}),
       "48544e5001001300090000007e77e5b8000000000000294003"},
      {WireType::kAck,
       Object({{"type", Json("ack")}, {"stale", Json(false)}}),
       "48544e5001001300090000005216eb56000000000000294001"},
      {WireType::kLeaseLost, Object({{"type", Json("lease_lost")}}),
       "48544e5001001400080000001201b8570000000000002940"},
      {WireType::kError,
       Object({{"type", Json("error")}, {"message", Json("bad Ω")}}),
       "48544e5001001500120000001870c1ae00000000000029400600000062616420"
       "cea9"},
      {WireType::kStudies,
       Object({{"type", Json("studies")},
               {"studies", JsonArray{GoldenStudy("a", "active", 0),
                                     GoldenStudy("b", "suspended", 4)}}}),
       "48544e5001001600540000004da147cb00000000000029400200000001006100"
       "0000000000000000010000000000000002000000000000000300000000000000"
       "0100620104000000000000000500000000000000060000000000000007000000"
       "00000000"},
      {WireType::kJobStudy,
       Object({{"type", Json("job")},
               {"job_id", job_id},
               {"job", GoldenJob(5)},
               {"lease_timeout", Json(60.0)},
               {"study", study}}),
       "48544e50010017007a000000781d7d5e00000000000029401100000000000000"
       "0500000000000000030002006c7200000000000000c03f06006c617965727301"
       "04000000000000000300616374020400000072656c75000000000000f03f0000"
       "00000000084001000000000000000000000000000000feffffffffffffff0000"
       "000000004e4002007331"},
      {WireType::kJobsStudy,
       Object({{"type", Json("jobs")},
               {"jobs", GoldenEntries(true)},
               {"lease_timeout", Json(60.0)}}),
       "48544e5001001800e8000000a104323300000000000029400200000064000000"
       "000000000000000000000000030002006c7200000000000000c03f06006c6179"
       "6572730104000000000000000300616374020400000072656c75000000000000"
       "f03f000000000000084001000000000000000000000000000000feffffffffff"
       "ffff01006165000000000000000100000000000000030002006c720000000000"
       "0000c03f06006c61796572730104000000000000000300616374020400000072"
       "656c75000000000000f03f000000000000084001000000000000000000000000"
       "000000feffffffffffffff020062620000000000004e4000"},
      {WireType::kNoJobFlagged,
       Object({{"type", Json("no_job")},
               {"retry_after", Json(1.0)},
               {"shed", Json(true)}}),
       "48544e500100190011000000352e99300000000000002940000000000000f03f"
       "01"},
      {WireType::kNoJobFlagged,
       Object({{"type", Json("no_job")},
               {"retry_after", Json(5.0)},
               {"shed", Json(true)},
               {"degraded", Json(true)}}),
       "48544e5001001900110000005c52dbd800000000000029400000000000001440"
       "03"},
  };
}

TEST(WireGolden, EveryWireTypeEncodesToFrozenBytes) {
  for (const GoldenFrame& golden : GoldenFrames()) {
    const std::string framed = EncodeMessage(golden.message, 12.5);
    EXPECT_EQ(Hex(framed), golden.hex) << golden.message.Dump();
    FrameDecoder decoder;
    decoder.Feed(framed);
    const auto frame = decoder.Next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, golden.type) << golden.message.Dump();
    const WireMessage decoded = DecodeMessage(*frame);
    EXPECT_EQ(decoded.now, 12.5);
    EXPECT_EQ(decoded.message.Dump(), golden.message.Dump());
  }
}

TEST(WireGolden, CoversEveryWireType) {
  std::vector<WireType> covered;
  for (const GoldenFrame& golden : GoldenFrames()) {
    if (std::find(covered.begin(), covered.end(), golden.type) ==
        covered.end()) {
      covered.push_back(golden.type);
    }
  }
  EXPECT_EQ(covered.size(), 23u);
  // Every id without a golden is outside the schema and refuses to decode.
  for (int value = 0; value < 64; ++value) {
    const auto type = static_cast<WireType>(value);
    if (std::find(covered.begin(), covered.end(), type) != covered.end()) {
      continue;
    }
    EXPECT_THROW(DecodeMessage(WireFrame{type, std::string(8, '\0')}),
                 CheckError)
        << value;
  }
}

// --- Canonical decoding: the decoder accepts exactly the encoder's bytes ---

/// Decodes a hand-built payload, framed and CRC-checked like real traffic.
WireMessage DecodePayload(WireType type, const std::string& payload) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(type, payload));
  const auto frame = decoder.Next();
  HT_CHECK(frame.has_value());
  return DecodeMessage(*frame);
}

/// A one-parameter config {"a": 1.5}, optionally with "a" written twice.
void WriteConfigA(WireWriter& writer, bool duplicate) {
  writer.U16(duplicate ? 2 : 1);
  for (int i = 0; i < (duplicate ? 2 : 1); ++i) {
    writer.ShortString("a");
    writer.U8(0);
    writer.F64(1.5 + i);
  }
}

void WriteJobA(WireWriter& writer, bool duplicate_param) {
  writer.I64(1);  // trial
  WriteConfigA(writer, duplicate_param);
  writer.F64(0);  // from
  writer.F64(1);  // to
  writer.I64(0);  // rung
  writer.I64(0);  // bracket
  writer.I64(0);  // tag
}

TEST(WireCodecCanonical, RejectsNonCanonicalPayloads) {
  struct Case {
    const char* what;
    WireType type;
    std::string payload;
  };
  std::vector<Case> cases;
  for (const std::uint8_t flags : {0x02, 0x04, 0xFF}) {
    WireWriter w;
    w.F64(0);
    w.U8(flags);
    cases.push_back({"ack flags", WireType::kAck, w.Take()});
  }
  {
    WireWriter w;
    w.F64(0);
    w.U32(1);
    w.ShortString("s");
    w.U8(7);  // state: only 0 (active) and 1 (suspended) exist
    for (int i = 0; i < 4; ++i) w.I64(0);
    cases.push_back({"studies state byte", WireType::kStudies, w.Take()});
  }
  {
    WireWriter w;
    w.F64(0);
    w.ShortString("s");
    WriteConfigA(w, false);
    w.U8(9);  // quota presence byte
    w.I64(4);
    cases.push_back({"create_study presence byte", WireType::kCreateStudy,
                     w.Take()});
  }
  {
    WireWriter w;
    w.F64(0);
    w.U32(1);
    w.I64(7);
    WriteJobA(w, false);
    w.F64(30);
    w.U8(5);  // retry presence byte
    w.F64(2);
    cases.push_back({"jobs presence byte", WireType::kJobs, w.Take()});
  }
  {
    // An empty study-scoped batch cannot show its scope: the encoder
    // writes an empty batch as kJobs, so kJobsStudy with zero entries has
    // no canonical source.
    WireWriter w;
    w.F64(0);
    w.U32(0);
    w.F64(30);
    w.U8(0);
    cases.push_back({"empty kJobsStudy", WireType::kJobsStudy, w.Take()});
  }
  {
    WireWriter w;
    w.F64(0);
    w.ShortString("s");
    WriteConfigA(w, true);
    w.U8(0);
    cases.push_back({"create_study duplicate parameter",
                     WireType::kCreateStudy, w.Take()});
  }
  {
    WireWriter w;
    w.F64(0);
    w.I64(7);
    WriteJobA(w, true);
    w.F64(30);
    cases.push_back({"job duplicate parameter", WireType::kJob, w.Take()});
  }
  for (const Case& c : cases) {
    EXPECT_THROW(DecodePayload(c.type, c.payload), CheckError) << c.what;
  }

  // The same payloads with canonical bytes decode fine: the rejections
  // above are about the one bad byte, not the hand-built layout.
  WireWriter ack;
  ack.F64(0);
  ack.U8(3);
  EXPECT_EQ(DecodePayload(WireType::kAck, ack.Take()).message.Dump(),
            R"({"type":"ack","stale":true})");
  WireWriter job;
  job.F64(0);
  job.I64(7);
  WriteJobA(job, false);
  job.F64(30);
  EXPECT_EQ(DecodePayload(WireType::kJob, job.Take())
                .message.at("job")
                .at("config")
                .Dump(),
            R"({"a":1.5})");
}

TEST(WireCodecCanonical, AcceptedMutationsReEncodeByteForByte) {
  // Mutate the payloads of valid samples, re-frame them (valid CRC), and
  // require every payload the decoder accepts to be exactly what the
  // encoder would write for the decoded message.
  std::size_t accepted = 0;
  std::size_t tried = 0;
  for (const std::uint64_t seed : {3ull, 11ull, 2024ull}) {
    Rng rng(seed);
    for (int round = 0; round < 20; ++round) {
      for (const Json& message : ProtocolSamples(rng)) {
        FrameDecoder decoder;
        decoder.Feed(EncodeMessage(message, rng.Uniform()));
        const WireFrame original = *decoder.Next();
        for (int trial = 0; trial < 8; ++trial) {
          std::string payload = original.payload;
          const std::size_t edits = 1 + rng.Index(3);
          for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t at = rng.Index(payload.size());
            // Small values hit the presence/state/flag/kind bytes.
            payload[at] = static_cast<char>(
                rng.Bernoulli(0.5) ? rng.UniformInt(0, 3)
                                   : rng.UniformInt(0, 255));
          }
          if (rng.Bernoulli(0.1)) payload.resize(rng.Index(payload.size()));
          // Sometimes file the bytes under another (or an unknown) type.
          const WireType type =
              rng.Bernoulli(0.2)
                  ? static_cast<WireType>(rng.UniformInt(1, 25))
                  : original.type;
          ++tried;
          WireMessage decoded;
          try {
            decoded = DecodePayload(type, payload);
          } catch (const CheckError&) {
            continue;  // rejected: fine, as long as nothing crashed
          }
          ++accepted;
          EXPECT_EQ(Hex(EncodeMessage(decoded.message, decoded.now)),
                    Hex(EncodeFrame(type, payload)))
              << decoded.message.Dump();
        }
      }
    }
  }
  // The mutations must reach past the first byte: many survive decoding.
  EXPECT_GT(accepted, tried / 10);
}

TEST(WireWriterReader, PrimitivesRoundTripAtBoundaries) {
  WireWriter writer;
  writer.U8(0xFF);
  writer.U16(0xFFFF);
  writer.U32(0xFFFFFFFFu);
  writer.U64(0xFFFFFFFFFFFFFFFFull);
  writer.I64(-1);
  writer.F64(-0.0);
  writer.ShortString("");
  writer.String("abc");
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.U8(), 0xFF);
  EXPECT_EQ(reader.U16(), 0xFFFF);
  EXPECT_EQ(reader.U32(), 0xFFFFFFFFu);
  EXPECT_EQ(reader.U64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(reader.I64(), -1);
  const double negative_zero = reader.F64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(reader.ShortString(), "");
  EXPECT_EQ(reader.String(), "abc");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_THROW(reader.U8(), CheckError);
}

}  // namespace
}  // namespace hypertune
