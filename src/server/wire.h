/// \file wire.h
/// \brief Framing and response codec of the pip-server client protocol.
///
/// Protocol version PIP1. Transport: length-prefixed frames — a 4-byte
/// big-endian payload length followed by that many bytes. On connect the
/// server sends one greeting frame ("PIP1 <feature list>"); clients must
/// check the leading token before issuing statements, which is how the
/// API surface stays versioned: an incompatible protocol revision changes
/// the token and old clients fail fast instead of misparsing.
///
/// Each request frame carries one SQL statement (UTF-8 text). Each
/// response frame is line-structured text:
///
///   ERR <CODE>\n<message>             -- failed statement
///   ACK <queue_us>\n<message>         -- DDL/DML acknowledgement
///   TBL <queue_us> <nrows> <ncols>\n  -- deterministic table
///     <kind>\t<name>        (x ncols: column metadata)
///     <cell>\t...\t<cell>   (x nrows: ncols cells)
///   CTB <queue_us> <nrows> <ncols>\n  -- symbolic c-table; rows carry
///     ...                                one extra trailing cell: the
///                                        row condition
///
/// <CODE> is a WireErrorCode name (PARSE, NOT_FOUND, INVALID_ARG,
/// CAPABILITY, INTERNAL) — the same names SqlResult::ToString() renders,
/// so scripted clients and humans read one vocabulary. <queue_us> is the
/// admission-gate queue wait in microseconds (0 when the statement never
/// queued). Cells escape backslash, tab and newline as \\, \t, \n; doubles
/// render with 17 significant digits so replayed results are bit-exact.

#ifndef PIP_SERVER_WIRE_H_
#define PIP_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sql/session.h"

namespace pip {
namespace server {

/// Greeting payload sent by the server after accept. The leading token
/// is the protocol version; the rest is a space-separated feature list.
inline constexpr char kProtocolVersion[] = "PIP1";

/// Frames larger than this are a protocol violation (guards both sides
/// against a corrupt or hostile length prefix).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// \brief A decoded response frame, mirroring sql::SqlResult across the
/// wire.
struct WireResponse {
  enum class Kind { kAck, kTable, kCTable, kError };
  Kind kind = Kind::kAck;
  sql::WireErrorCode code = sql::WireErrorCode::kNone;  ///< kError only.
  std::string message;            ///< Ack text or error message.
  uint64_t queue_us = 0;          ///< Admission queue wait.
  std::vector<sql::SqlColumn> columns;
  /// Decoded (unescaped) cell text; c-table rows have one extra trailing
  /// cell holding the row condition.
  std::vector<std::vector<std::string>> rows;

  bool ok() const { return kind != Kind::kError; }
};

/// Renders a statement result into a response payload. `queue_us` is the
/// admission wait the server measured for this statement.
std::string EncodeResponse(const sql::SqlResult& result, uint64_t queue_us);

/// Parses a response payload. InvalidArgument on malformed payloads.
StatusOr<WireResponse> DecodeResponse(const std::string& payload);

/// Writes one length-prefixed frame to `fd`, prefix and payload in a
/// single send. Handles partial writes; Internal on socket errors.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one frame into `*payload`. Returns false on clean EOF before
/// any length byte (peer closed between requests); Internal on socket
/// errors, truncated frames, or frames exceeding kMaxFrameBytes.
StatusOr<bool> ReadFrame(int fd, std::string* payload);

/// Escapes tab/newline/backslash for cell transport.
std::string EscapeCell(const std::string& cell);
std::string UnescapeCell(const std::string& cell);

/// Wire rendering of one deterministic value: doubles at 17 significant
/// digits (bit-exact replay), NULL as empty.
std::string RenderValue(const Value& v);

}  // namespace server
}  // namespace pip

#endif  // PIP_SERVER_WIRE_H_
