// The lease journal's typed record codec (src/service/server.cc): its bytes
// are the bytes the journal was first written with — a Json object built
// field by field and Dump()ed — so the reference builders below keep that
// construction, and a differential test holds the encoder to it. The decoder
// accepts exactly those bytes and nothing else.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "service/server.h"

namespace hypertune {
namespace {

// --- Reference: the Json record builders the codec replaced ---

Json LeaseHead(const char* kind, std::uint64_t job_id) {
  Json record = JsonObject{};
  record.Set("kind", Json(kind));
  record.Set("job_id", Json(static_cast<std::int64_t>(job_id)));
  return record;
}

Json ReferenceRecord(const LeaseRecord& r) {
  switch (r.kind) {
    case LeaseEventKind::kGrant: {
      Json record = LeaseHead("grant", r.job_id);
      record.Set("worker", Json(static_cast<std::int64_t>(r.worker)));
      record.Set("trial", Json(r.trial));
      record.Set("now", Json(r.now));
      return record;
    }
    case LeaseEventKind::kReport: {
      Json record = LeaseHead("report", r.job_id);
      record.Set("loss", Json(r.loss));
      record.Set("now", Json(r.now));
      return record;
    }
    case LeaseEventKind::kRenew: {
      Json record = LeaseHead("renew", r.job_id);
      record.Set("now", Json(r.now));
      return record;
    }
    case LeaseEventKind::kExpire: {
      Json record = LeaseHead("expire", r.job_id);
      record.Set("now", Json(r.now));
      return record;
    }
    case LeaseEventKind::kShift: {
      Json record = JsonObject{};
      record.Set("kind", Json("shift"));
      record.Set("delta", Json(r.delta));
      record.Set("now", Json(r.now));
      return record;
    }
  }
  throw CheckError("unknown kind");
}

std::string Encode(const LeaseRecord& record) {
  std::string out;
  AppendLeaseRecord(record, out);
  return out;
}

// --- Random records that reach every spelling the number rule has ---

class RecordGen {
 public:
  explicit RecordGen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t Id() {
    switch (Pick(5)) {
      case 0: return Pick(1000);
      case 1: return std::numeric_limits<std::uint64_t>::max() - Pick(3);
      case 2: return static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max()) + Pick(2);
      case 3: return 0;
      default: return rng_();
    }
  }

  TrialId Trial() {
    switch (Pick(4)) {
      case 0: return static_cast<TrialId>(Pick(1000));
      case 1: return std::numeric_limits<TrialId>::max();
      case 2: return std::numeric_limits<TrialId>::min();
      default: return static_cast<TrialId>(rng_());
    }
  }

  double Number() {
    switch (Pick(10)) {
      case 0: return static_cast<double>(Pick(100000));  // integral
      case 1: return -static_cast<double>(Pick(100000));
      case 2: return std::ldexp(static_cast<double>(Pick(1u << 20)), -10);
      case 3: {  // either side of the 1e15 integral cutoff
        const double near = 1e15 + static_cast<double>(Pick(5)) - 2.0;
        return Pick(2) == 0 ? near : -near;
      }
      case 4: return Pick(2) == 0 ? -0.0 : 0.0;
      case 5: {  // subnormal
        const std::uint64_t bits = 1 + (rng_() & ((1ull << 52) - 1));
        return FromBits(bits) * (Pick(2) == 0 ? 1.0 : -1.0);
      }
      case 6: return std::uniform_real_distribution<double>(0, 1e4)(rng_);
      case 7: return std::numeric_limits<double>::max();
      default: {  // any finite bit pattern
        for (;;) {
          const double value = FromBits(rng_());
          if (std::isfinite(value)) return value;
        }
      }
    }
  }

  LeaseRecord Record(LeaseEventKind kind) {
    LeaseRecord record;
    record.kind = kind;
    record.now = Number();
    switch (kind) {
      case LeaseEventKind::kGrant:
        record.job_id = Id();
        record.worker = Id();
        record.trial = Trial();
        break;
      case LeaseEventKind::kReport:
        record.job_id = Id();
        record.loss = Number();
        break;
      case LeaseEventKind::kRenew:
      case LeaseEventKind::kExpire:
        record.job_id = Id();
        break;
      case LeaseEventKind::kShift:
        record.delta = Number();
        break;
    }
    return record;
  }

 private:
  std::uint64_t Pick(std::uint64_t n) { return rng_() % n; }
  static double FromBits(std::uint64_t bits) {
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::mt19937_64 rng_;
};

constexpr LeaseEventKind kKinds[] = {
    LeaseEventKind::kGrant, LeaseEventKind::kReport, LeaseEventKind::kRenew,
    LeaseEventKind::kExpire, LeaseEventKind::kShift};

TEST(LeaseRecordCodec, EncodesJsonDumpBytesAndRoundTrips) {
  RecordGen gen(20261020);
  std::size_t checked = 0;
  for (int i = 0; i < 24000; ++i) {
    for (const LeaseEventKind kind : kKinds) {
      const LeaseRecord record = gen.Record(kind);
      const std::string bytes = Encode(record);
      ASSERT_EQ(bytes, ReferenceRecord(record).Dump());
      const std::optional<LeaseRecord> decoded = ParseLeaseRecord(bytes);
      ASSERT_TRUE(decoded.has_value()) << bytes;
      ASSERT_EQ(*decoded, record) << bytes;
      ++checked;
    }
  }
  EXPECT_GE(checked, 100000u);
}

TEST(LeaseRecordCodec, AppendsToWhatTheBufferHolds) {
  std::string out = "prefix";
  AppendLeaseRecord({.kind = LeaseEventKind::kRenew, .job_id = 3, .now = 2.5},
                    out);
  EXPECT_EQ(out, R"(prefix{"kind":"renew","job_id":3,"now":2.5})");
}

TEST(LeaseRecordCodec, PinnedSpellings) {
  EXPECT_EQ(Encode({.kind = LeaseEventKind::kGrant,
                    .job_id = std::numeric_limits<std::uint64_t>::max(),
                    .worker = 7,
                    .trial = -1,
                    .now = -0.0}),
            R"({"kind":"grant","job_id":-1,"worker":7,"trial":-1,"now":0.0})");
  EXPECT_EQ(Encode({.kind = LeaseEventKind::kReport,
                    .job_id = 1,
                    .loss = 0.1,
                    .now = 1e15}),
            R"({"kind":"report","job_id":1,"loss":0.10000000000000001,)"
            R"("now":1000000000000000})");
  EXPECT_EQ(Encode({.kind = LeaseEventKind::kShift,
                    .delta = 5e-324,
                    .now = 999999999999999.0}),
            R"({"kind":"shift","delta":4.9406564584124654e-324,)"
            R"("now":999999999999999.0})");
}

TEST(LeaseRecordCodec, EncoderRefusesNonFiniteValues) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::string out;
    EXPECT_THROW(AppendLeaseRecord(
                     {.kind = LeaseEventKind::kRenew, .job_id = 1, .now = bad},
                     out),
                 CheckError);
    EXPECT_THROW(AppendLeaseRecord({.kind = LeaseEventKind::kReport,
                                    .job_id = 1,
                                    .loss = bad,
                                    .now = 1.0},
                                   out),
                 CheckError);
  }
}

TEST(LeaseRecordCodec, SkipsHazardRecords) {
  EXPECT_EQ(ParseLeaseRecord(R"({"kind":"hazard","base_duration":1.0})"),
            std::nullopt);
  EXPECT_EQ(ParseLeaseRecord(R"({"kind":"hazard"})"), std::nullopt);
  // Only the exact kind: a longer name is an unknown kind.
  EXPECT_THROW(ParseLeaseRecord(R"({"kind":"hazardous","now":1.0})"),
               CheckError);
}

TEST(LeaseRecordCodec, RefusesEverythingButTheCanonicalForm) {
  const std::vector<std::string> refused = {
      // whitespace
      R"({"kind": "renew","job_id":1,"now":1.0})",
      R"({"kind":"renew", "job_id":1,"now":1.0})",
      R"({"kind":"renew","job_id": 1,"now":1.0})",
      R"( {"kind":"renew","job_id":1,"now":1.0})",
      "{\"kind\":\"renew\",\"job_id\":1,\"now\":1.0}\n",
      // reordered keys
      R"({"kind":"renew","now":1.0,"job_id":1})",
      R"({"job_id":1,"kind":"renew","now":1.0})",
      R"({"kind":"grant","job_id":1,"trial":0,"worker":1,"now":1.0})",
      // missing keys
      R"({"kind":"renew","job_id":1})",
      R"({"kind":"renew","now":1.0})",
      R"({"kind":"grant","job_id":1,"worker":1,"now":1.0})",
      R"({"kind":"shift","now":1.0})",
      R"({"job_id":1,"now":1.0})",
      // extra keys
      R"({"kind":"renew","job_id":1,"now":1.0,"x":1})",
      R"({"kind":"renew","job_id":1,"loss":0.5,"now":1.0})",
      // null
      R"({"kind":"renew","job_id":1,"now":null})",
      R"({"kind":"report","job_id":1,"loss":null,"now":1.0})",
      R"({"kind":null,"job_id":1,"now":1.0})",
      // trailing bytes
      R"({"kind":"renew","job_id":1,"now":1.0}})",
      R"({"kind":"renew","job_id":1,"now":1.0}x)",
      // number spellings other than the encoder's
      R"({"kind":"renew","job_id":1,"now":1})",
      R"({"kind":"renew","job_id":1,"now":1.00})",
      R"({"kind":"renew","job_id":1,"now":1e0})",
      R"({"kind":"renew","job_id":1,"now":-0.0})",
      R"({"kind":"renew","job_id":1,"now":0.1})",
      R"({"kind":"renew","job_id":1,"now":+1.0})",
      R"({"kind":"renew","job_id":1,"now":nan})",
      R"({"kind":"renew","job_id":1,"now":inf})",
      R"({"kind":"renew","job_id":01,"now":1.0})",
      R"({"kind":"renew","job_id":-0,"now":1.0})",
      R"({"kind":"renew","job_id":1.0,"now":1.0})",
      R"({"kind":"renew","job_id":"1","now":1.0})",
      R"({"kind":"renew","job_id":99999999999999999999,"now":1.0})",
      // unknown kinds
      R"({"kind":"grunt","job_id":1,"now":1.0})",
      R"({"kind":"","job_id":1,"now":1.0})",
      R"({"kind":"renew)",
      "",
  };
  for (const std::string& payload : refused) {
    EXPECT_THROW(ParseLeaseRecord(payload), CheckError) << payload;
  }
  // Every proper prefix of a valid record is a truncated one.
  const std::string valid = Encode({.kind = LeaseEventKind::kGrant,
                                    .job_id = 12,
                                    .worker = 3,
                                    .trial = 4,
                                    .now = 0.5});
  ASSERT_TRUE(ParseLeaseRecord(valid).has_value());
  for (std::size_t size = 0; size < valid.size(); ++size) {
    EXPECT_THROW(ParseLeaseRecord(valid.substr(0, size)), CheckError)
        << valid.substr(0, size);
  }
}

}  // namespace
}  // namespace hypertune
