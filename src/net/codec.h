// Lossless codec between the tuning service's JSON protocol messages and
// the packed binary wire structs (DESIGN.md §8).
//
// The JSON protocol (service/server.h) stays the source of truth and the
// debug/compat transport; the binary schema is a packed little-endian
// rendering of exactly the same vocabulary:
//
//   requests   request_job, request_jobs, heartbeat, report (± study)
//   admin      create_study, suspend_study, resume_study, delete_study,
//              list_studies
//   replies    job, jobs, no_job (± shed/degraded), ack (± stale),
//              lease_lost, error, studies
//
// One schema table in codec.cc is the only place a payload layout is
// written: per WireType, the JSON type name and the ordered (key, field
// kind) list. The encoder picks the layout whose key set the message
// carries and writes its fields in table order; the decoder walks the same
// layout. A study-scoped type is its base layout plus a trailing study id.
//
// EncodeMessage(json, now) -> framed bytes, DecodeMessage(frame) -> (json,
// now) are exact inverses over that vocabulary: the decoded Json — field
// set, field order, int-vs-double storage — is bit-identical to what the
// server/worker originally built, so Dump() output (and therefore every
// decision golden) is transport-invariant. Doubles travel as IEEE-754 bit
// patterns, integers as two's-complement u64, strings length-prefixed.
//
// Every frame payload begins with the f64 protocol timestamp `now`: the
// clock TuningServer::HandleMessage is clock-agnostic about. A virtual-time
// harness ships virtual time (decision goldens), a real deployment can let
// the server stamp its own wall clock instead (NetServerOptions::clock).
//
// The codec is strict both ways. A message outside the schema (unknown
// type, missing or extra fields) throws CheckError rather than silently
// dropping data — schema evolution means bumping kWireVersion, not
// smuggling fields. The decoder accepts exactly the bytes the encoder
// produces: presence and state bytes other than 0/1, unknown flag bits, an
// empty study-scoped batch, or a repeated config parameter throw
// CheckError, so every accepted payload re-encodes byte for byte.
#pragma once

#include <string>
#include <string_view>

#include "common/json.h"
#include "net/wire.h"

namespace hypertune {

/// A decoded wire message: the JSON protocol message plus the frame's
/// protocol timestamp.
struct WireMessage {
  Json message;
  double now = 0;
};

/// Encodes one JSON protocol message (request or reply) as a complete
/// binary frame. Throws CheckError for messages outside the schema.
std::string EncodeMessage(const Json& message, double now);

/// Decodes a validated frame's payload back to the JSON message. Throws
/// CheckError on malformed payloads or unknown frame types.
WireMessage DecodeMessage(const WireFrame& frame);

/// The JSON-lines debug transport's envelope: one compact line
/// `{"now":N,"msg":{...}}\n` per message, both directions. Parse/Dump of
/// this envelope is lossless for the same reason the binary codec is —
/// doubles print with %.17g and objects keep insertion order.
std::string EncodeJsonLine(const Json& message, double now);
/// Decodes one envelope line (without the trailing newline).
WireMessage DecodeJsonLine(std::string_view line);

}  // namespace hypertune
