#include "net/codec.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/check.h"

namespace hypertune {
namespace {

// --- The wire schema: the one place a payload layout is written ---
//
// A payload is the f64 `now` followed by the fields of its layout, in table
// order. EncodeMessage and DecodeMessage both walk this table, so they are
// inverses by construction and the decoded field order is the table order
// (which is the order every producer builds).

/// How one field travels.
enum class Kind : std::uint8_t {
  kI64,          // two's-complement u64
  kF64,          // IEEE-754 bit pattern
  kShortString,  // u16 length + bytes
  kString,       // u32 length + bytes
  kConfig,       // u16 count, then (short name, kind byte, value) per param
  kObject,       // a nested object laid out by `sub`
  kEntries,      // u32 count, then that many objects laid out by `sub`
  kOptI64,       // u8 presence (0 or 1), then the i64 when present
  kOptF64,       // u8 presence (0 or 1), then the f64 when present
  kState,        // u8: 0 "active", 1 "suspended"
  kNoJobFlags,   // u8: bit 0 "shed", bit 1 "degraded"; at least one set.
                 // The keys are fixed, and present only as true.
  kAckStale,     // u8: 0 no "stale", 1 "stale":false, 3 "stale":true
};

struct Schema;

struct Field {
  std::string_view key;
  Kind kind;
  const Schema* sub = nullptr;  // kObject and kEntries only
};

struct Schema {
  std::span<const Field> fields;
  /// Study-scoped: the base fields plus a trailing short-string "study".
  bool scoped = false;
};

struct Layout {
  WireType type;
  std::string_view name;  // the JSON "type"
  Schema body;
};

// Mirrors core/trial_json.cc's ToJson(Job).
constexpr Field kJobFields[] = {
    {"trial", Kind::kI64}, {"config", Kind::kConfig}, {"from", Kind::kF64},
    {"to", Kind::kF64},    {"rung", Kind::kI64},      {"bracket", Kind::kI64},
    {"tag", Kind::kI64}};
constexpr Schema kJob{kJobFields};

constexpr Field kJobEntryFields[] = {{"job_id", Kind::kI64},
                                     {"job", Kind::kObject, &kJob}};
constexpr Schema kJobEntry{kJobEntryFields};
// A "*" fair-allocation grant names each entry's study.
constexpr Schema kScopedJobEntry{kJobEntryFields, true};

constexpr Field kStudyEntryFields[] = {
    {"study", Kind::kShortString}, {"state", Kind::kState},
    {"max_leases", Kind::kI64},    {"active_leases", Kind::kI64},
    {"jobs_assigned", Kind::kI64}, {"jobs_completed", Kind::kI64}};
constexpr Schema kStudyEntry{kStudyEntryFields};

constexpr Field kRequestJob[] = {{"worker", Kind::kI64}};
constexpr Field kRequestJobs[] = {{"worker", Kind::kI64},
                                  {"count", Kind::kI64}};
constexpr Field kHeartbeat[] = {{"worker", Kind::kI64},
                                {"job_id", Kind::kI64}};
constexpr Field kReport[] = {
    {"worker", Kind::kI64}, {"job_id", Kind::kI64}, {"loss", Kind::kF64}};
constexpr Field kCreateStudy[] = {{"study", Kind::kShortString},
                                  {"config", Kind::kConfig},
                                  {"max_leases", Kind::kOptI64}};
constexpr Field kStudyVerb[] = {{"study", Kind::kShortString}};
constexpr Field kStudies[] = {{"studies", Kind::kEntries, &kStudyEntry}};
constexpr Field kJobGrant[] = {{"job_id", Kind::kI64},
                               {"job", Kind::kObject, &kJob},
                               {"lease_timeout", Kind::kF64}};
constexpr Field kJobsGrant[] = {{"jobs", Kind::kEntries, &kJobEntry},
                                {"lease_timeout", Kind::kF64},
                                {"retry_after", Kind::kOptF64}};
constexpr Field kScopedJobsGrant[] = {
    {"jobs", Kind::kEntries, &kScopedJobEntry},
    {"lease_timeout", Kind::kF64},
    {"retry_after", Kind::kOptF64}};
constexpr Field kNoJob[] = {{"retry_after", Kind::kF64}};
constexpr Field kNoJobFlagged[] = {
    {"retry_after", Kind::kF64},
    {"", Kind::kNoJobFlags}};  // its keys are "shed" and "degraded"
constexpr Field kAck[] = {{"stale", Kind::kAckStale}};
constexpr Field kError[] = {{"message", Kind::kString}};

// Every WireType, in numbering order. A name appears more than once when
// its messages have variants; the encoder picks the one whose key set the
// message carries, so exactly one layout matches any encodable message.
constexpr Layout kLayouts[] = {
    {WireType::kRequestJob, "request_job", {kRequestJob}},
    {WireType::kRequestJobs, "request_jobs", {kRequestJobs}},
    {WireType::kHeartbeat, "heartbeat", {kHeartbeat}},
    {WireType::kReport, "report", {kReport}},
    {WireType::kCreateStudy, "create_study", {kCreateStudy}},
    {WireType::kSuspendStudy, "suspend_study", {kStudyVerb}},
    {WireType::kResumeStudy, "resume_study", {kStudyVerb}},
    {WireType::kDeleteStudy, "delete_study", {kStudyVerb}},
    {WireType::kListStudies, "list_studies", {}},
    {WireType::kRequestJobStudy, "request_job", {kRequestJob, true}},
    {WireType::kRequestJobsStudy, "request_jobs", {kRequestJobs, true}},
    {WireType::kHeartbeatStudy, "heartbeat", {kHeartbeat, true}},
    {WireType::kReportStudy, "report", {kReport, true}},
    {WireType::kJob, "job", {kJobGrant}},
    {WireType::kJobs, "jobs", {kJobsGrant}},
    {WireType::kNoJob, "no_job", {kNoJob}},
    {WireType::kAck, "ack", {kAck}},
    {WireType::kLeaseLost, "lease_lost", {}},
    {WireType::kError, "error", {kError}},
    {WireType::kStudies, "studies", {kStudies}},
    {WireType::kJobStudy, "job", {kJobGrant, true}},
    {WireType::kJobsStudy, "jobs", {kScopedJobsGrant}},
    {WireType::kNoJobFlagged, "no_job", {kNoJobFlagged}},
};

// --- Encode ---

/// True when `object` carries exactly the keys `schema` writes, plus
/// `extra_keys` the caller accounts for (the top-level "type"). Entries
/// are matched by their first element: an empty array carries no entry
/// keys, so it matches only an unscoped entry layout.
bool Matches(const Schema& schema, const Json& object,
             std::size_t extra_keys) {
  std::size_t keys = extra_keys + (schema.scoped ? 1 : 0);
  if (schema.scoped && !object.Has("study")) return false;
  for (const Field& field : schema.fields) {
    switch (field.kind) {
      case Kind::kOptI64:
      case Kind::kOptF64:
      case Kind::kAckStale:
        keys += object.Has(field.key) ? 1 : 0;
        break;
      case Kind::kNoJobFlags: {
        const std::size_t flags =
            (object.Has("shed") ? 1 : 0) + (object.Has("degraded") ? 1 : 0);
        if (flags == 0) return false;
        keys += flags;
        break;
      }
      case Kind::kEntries: {
        if (!object.Has(field.key)) return false;
        const JsonArray& entries = object.at(field.key).AsArray();
        const bool entries_match =
            entries.empty() ? !field.sub->scoped
                            : Matches(*field.sub, entries.front(), 0);
        if (!entries_match) return false;
        ++keys;
        break;
      }
      default:
        if (!object.Has(field.key)) return false;
        ++keys;
    }
  }
  return keys == object.AsObject().size();
}

void WriteConfig(const Json& config, WireWriter& writer) {
  const JsonObject& object = config.AsObject();
  HT_CHECK_MSG(object.size() <= 0xFFFF, "configuration too wide for wire");
  writer.U16(static_cast<std::uint16_t>(object.size()));
  for (const auto& [name, value] : object) {
    writer.ShortString(name);
    if (value.IsString()) {
      writer.U8(2);
      writer.String(value.AsString());
    } else if (value.IsInt()) {
      writer.U8(1);
      writer.I64(value.AsInt());
    } else {
      writer.U8(0);
      writer.F64(value.AsDouble());
    }
  }
}

void WriteFields(const Schema& schema, const Json& object, WireWriter& writer);

void WriteObject(const Schema& schema, const Json& object,
                 WireWriter& writer) {
  HT_CHECK_MSG(Matches(schema, object, 0),
               "wire codec: object " << object.Dump()
                                     << " does not match its wire layout");
  WriteFields(schema, object, writer);
}

void WriteField(const Field& field, const Json& object, WireWriter& writer) {
  switch (field.kind) {
    case Kind::kI64:
      writer.I64(object.at(field.key).AsInt());
      return;
    case Kind::kF64:
      writer.F64(object.at(field.key).AsDouble());
      return;
    case Kind::kShortString:
      writer.ShortString(object.at(field.key).AsString());
      return;
    case Kind::kString:
      writer.String(object.at(field.key).AsString());
      return;
    case Kind::kConfig:
      WriteConfig(object.at(field.key), writer);
      return;
    case Kind::kObject:
      WriteObject(*field.sub, object.at(field.key), writer);
      return;
    case Kind::kEntries: {
      const JsonArray& entries = object.at(field.key).AsArray();
      writer.U32(static_cast<std::uint32_t>(entries.size()));
      for (const Json& entry : entries) {
        WriteObject(*field.sub, entry, writer);
      }
      return;
    }
    case Kind::kOptI64:
    case Kind::kOptF64: {
      const bool present = object.Has(field.key);
      writer.U8(present ? 1 : 0);
      if (!present) return;
      if (field.kind == Kind::kOptI64) {
        writer.I64(object.at(field.key).AsInt());
      } else {
        writer.F64(object.at(field.key).AsDouble());
      }
      return;
    }
    case Kind::kState: {
      const std::string& state = object.at(field.key).AsString();
      HT_CHECK_MSG(state == "active" || state == "suspended",
                   "wire codec: unknown study state '" << state << "'");
      writer.U8(state == "suspended" ? 1 : 0);
      return;
    }
    case Kind::kNoJobFlags: {
      // Presence-only booleans: producers set them to true or not at all,
      // and a false value would not survive the round trip.
      const bool shed = object.Has("shed");
      const bool degraded = object.Has("degraded");
      HT_CHECK_MSG(!shed || object.at("shed").AsBool(),
                   "wire codec: no_job 'shed' must be true when present");
      HT_CHECK_MSG(!degraded || object.at("degraded").AsBool(),
                   "wire codec: no_job 'degraded' must be true when present");
      writer.U8(static_cast<std::uint8_t>((shed ? 1 : 0) | (degraded ? 2 : 0)));
      return;
    }
    case Kind::kAckStale:
      if (!object.Has(field.key)) {
        writer.U8(0);
      } else {
        writer.U8(object.at(field.key).AsBool() ? 3 : 1);
      }
      return;
  }
}

void WriteFields(const Schema& schema, const Json& object, WireWriter& writer) {
  for (const Field& field : schema.fields) WriteField(field, object, writer);
  if (schema.scoped) writer.ShortString(object.at("study").AsString());
}

/// The layout `message` selects by its type name and key set. Throws
/// CheckError for messages outside the schema.
const Layout& LayoutOf(const Json& message) {
  const std::string& name = message.at("type").AsString();
  bool known = false;
  for (const Layout& layout : kLayouts) {
    if (layout.name != name) continue;
    known = true;
    if (Matches(layout.body, message, 1)) return layout;
  }
  if (!known) {
    throw CheckError("wire codec: message type '" + name +
                     "' is outside the wire schema");
  }
  throw CheckError("wire codec: " + message.Dump() +
                   " matches no wire layout of its type");
}

// --- Decode ---

/// A presence byte: the encoder only ever writes 0 or 1.
bool ReadPresence(WireReader& reader) {
  const std::uint8_t presence = reader.U8();
  HT_CHECK_MSG(presence <= 1,
               "wire codec: bad presence byte " << static_cast<int>(presence));
  return presence == 1;
}

Json ReadConfig(WireReader& reader) {
  const std::uint16_t count = reader.U16();
  Json config = JsonObject{};
  for (std::uint16_t i = 0; i < count; ++i) {
    std::string name = reader.ShortString();
    const std::uint8_t kind = reader.U8();
    switch (kind) {
      case 0: config.Set(name, Json(reader.F64())); break;
      case 1: config.Set(name, Json(reader.I64())); break;
      case 2: config.Set(name, Json(reader.String())); break;
      default:
        throw CheckError("wire codec: unknown parameter kind " +
                         std::to_string(kind));
    }
    // Set replaces an existing key, so a repeat shows as a short object.
    HT_CHECK_MSG(config.AsObject().size() == i + 1u,
                 "wire codec: duplicate parameter '" << name << "'");
  }
  return config;
}

void ReadFields(const Schema& schema, WireReader& reader, Json& object);

Json ReadObject(const Schema& schema, WireReader& reader) {
  Json object = JsonObject{};
  ReadFields(schema, reader, object);
  return object;
}

void ReadField(const Field& field, WireReader& reader, Json& object) {
  std::string key(field.key);
  switch (field.kind) {
    case Kind::kI64:
      object.Set(std::move(key), Json(reader.I64()));
      return;
    case Kind::kF64:
      object.Set(std::move(key), Json(reader.F64()));
      return;
    case Kind::kShortString:
      object.Set(std::move(key), Json(reader.ShortString()));
      return;
    case Kind::kString:
      object.Set(std::move(key), Json(reader.String()));
      return;
    case Kind::kConfig:
      object.Set(std::move(key), ReadConfig(reader));
      return;
    case Kind::kObject:
      object.Set(std::move(key), ReadObject(*field.sub, reader));
      return;
    case Kind::kEntries: {
      const std::uint32_t count = reader.U32();
      // The encoder writes an empty batch with the unscoped layout.
      HT_CHECK_MSG(count > 0 || !field.sub->scoped,
                   "wire codec: empty study-scoped '" << key << "'");
      Json entries = JsonArray{};
      for (std::uint32_t i = 0; i < count; ++i) {
        entries.PushBack(ReadObject(*field.sub, reader));
      }
      object.Set(std::move(key), std::move(entries));
      return;
    }
    case Kind::kOptI64:
      if (ReadPresence(reader)) object.Set(std::move(key), Json(reader.I64()));
      return;
    case Kind::kOptF64:
      if (ReadPresence(reader)) object.Set(std::move(key), Json(reader.F64()));
      return;
    case Kind::kState: {
      const std::uint8_t state = reader.U8();
      HT_CHECK_MSG(state <= 1, "wire codec: bad study state byte "
                                   << static_cast<int>(state));
      object.Set(std::move(key), Json(state == 1 ? "suspended" : "active"));
      return;
    }
    case Kind::kNoJobFlags: {
      const std::uint8_t flags = reader.U8();
      HT_CHECK_MSG(flags >= 1 && flags <= 3, "wire codec: bad no_job flags "
                                                 << static_cast<int>(flags));
      if (flags & 1) object.Set("shed", Json(true));
      if (flags & 2) object.Set("degraded", Json(true));
      return;
    }
    case Kind::kAckStale: {
      const std::uint8_t flags = reader.U8();
      HT_CHECK_MSG(flags == 0 || flags == 1 || flags == 3,
                   "wire codec: bad ack flags " << static_cast<int>(flags));
      if (flags != 0) object.Set(std::move(key), Json(flags == 3));
      return;
    }
  }
}

void ReadFields(const Schema& schema, WireReader& reader, Json& object) {
  for (const Field& field : schema.fields) ReadField(field, reader, object);
  if (schema.scoped) object.Set("study", Json(reader.ShortString()));
}

const Layout& LayoutOf(WireType type) {
  for (const Layout& layout : kLayouts) {
    if (layout.type == type) return layout;
  }
  throw CheckError("wire codec: unknown frame type " +
                   std::to_string(static_cast<int>(type)));
}

}  // namespace

std::string EncodeMessage(const Json& message, double now) {
  WireWriter writer;
  writer.F64(now);
  const Layout& layout = LayoutOf(message);
  WriteFields(layout.body, message, writer);
  return EncodeFrame(layout.type, writer.bytes());
}

WireMessage DecodeMessage(const WireFrame& frame) {
  WireReader reader(frame.payload);
  WireMessage decoded;
  decoded.now = reader.F64();
  const Layout& layout = LayoutOf(frame.type);
  decoded.message.Set("type", Json(std::string(layout.name)));
  ReadFields(layout.body, reader, decoded.message);
  reader.ExpectEnd();
  return decoded;
}

std::string EncodeJsonLine(const Json& message, double now) {
  Json envelope = JsonObject{};
  envelope.Set("now", Json(now));
  envelope.Set("msg", message);
  return envelope.Dump() + "\n";
}

WireMessage DecodeJsonLine(std::string_view line) {
  const Json envelope = Json::Parse(line);
  WireMessage decoded;
  decoded.now = envelope.at("now").AsDouble();
  decoded.message = envelope.at("msg");
  return decoded;
}

}  // namespace hypertune
