#include "src/server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/common/failpoints.h"

namespace pip {
namespace server {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;  // EPIPE instead of SIGPIPE.
#else
constexpr int kSendFlags = 0;
#endif

Status SocketError(const char* op) {
  return Status::Internal(std::string(op) + " failed: " +
                          std::strerror(errno));
}

Status SendAll(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    size_t want = len - sent;
    if (failpoints::Enabled()) {
      if (PIP_FAILPOINT("wire.send_error") == failpoints::ActionKind::kError) {
        return Status::Internal("injected send failure (wire.send_error)");
      }
      // Degrade to one byte per syscall: the peer's frame reassembly
      // must survive arbitrary fragmentation.
      if (PIP_FAILPOINT("wire.short_write") == failpoints::ActionKind::kShort) {
        want = 1;
      }
    }
    ssize_t n = ::send(fd, data + sent, want, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SocketError("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Receives exactly `len` bytes. Returns the byte count actually read —
/// short only on EOF.
StatusOr<size_t> RecvAll(int fd, char* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    if (PIP_FAILPOINT("wire.recv_error") == failpoints::ActionKind::kError) {
      return Status::Internal("injected recv failure (wire.recv_error)");
    }
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SocketError("recv");
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  return got;
}

/// Splits `payload` into lines (without terminators). The payload never
/// ends with a dangling '\n', so a trailing empty line means an encoded
/// empty message, which we keep.
std::vector<std::string> SplitLines(const std::string& payload) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(payload.substr(start));
      break;
    }
    lines.push_back(payload.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (start <= line.size()) {
    size_t end = line.find('\t', start);
    if (end == std::string::npos) {
      cells.push_back(line.substr(start));
      break;
    }
    cells.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return cells;
}

StatusOr<sql::ColumnKind> ColumnKindFromName(const std::string& name) {
  for (sql::ColumnKind kind :
       {sql::ColumnKind::kNull, sql::ColumnKind::kNumeric,
        sql::ColumnKind::kText, sql::ColumnKind::kBool,
        sql::ColumnKind::kMixed, sql::ColumnKind::kSymbolic}) {
    if (name == sql::ColumnKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown column kind '" + name + "'");
}

void AppendColumns(const std::vector<sql::SqlColumn>& columns,
                   std::string* out) {
  for (const sql::SqlColumn& col : columns) {
    out->push_back('\n');
    *out += sql::ColumnKindName(col.kind);
    out->push_back('\t');
    *out += EscapeCell(col.name);
  }
}

StatusOr<uint64_t> ParseU64(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty number field");
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad number field '" + text + "'");
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

std::string EscapeCell(const std::string& cell) {
  std::string out;
  out.reserve(cell.size());
  for (char c : cell) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeCell(const std::string& cell) {
  std::string out;
  out.reserve(cell.size());
  for (size_t i = 0; i < cell.size(); ++i) {
    if (cell[i] != '\\' || i + 1 == cell.size()) {
      out.push_back(cell[i]);
      continue;
    }
    char next = cell[++i];
    if (next == 't') {
      out.push_back('\t');
    } else if (next == 'n') {
      out.push_back('\n');
    } else {
      out.push_back(next);
    }
  }
  return out;
}

std::string RenderValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kBool:
      return v.bool_value() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(v.int_value());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
      return buf;
    }
    case ValueType::kString:
      return v.string_value();
  }
  return "";
}

std::string EncodeResponse(const sql::SqlResult& result, uint64_t queue_us) {
  std::string out;
  switch (result.kind) {
    case sql::SqlResult::Kind::kError:
      out = "ERR ";
      out += sql::WireErrorCodeName(result.error.code);
      out.push_back('\n');
      out += EscapeCell(result.error.message);
      return out;
    case sql::SqlResult::Kind::kAck:
      out = "ACK " + std::to_string(queue_us);
      out.push_back('\n');
      out += EscapeCell(result.message);
      return out;
    case sql::SqlResult::Kind::kTable: {
      const Table& t = result.table;
      out = "TBL " + std::to_string(queue_us) + " " +
            std::to_string(t.num_rows()) + " " +
            std::to_string(t.schema().size());
      AppendColumns(result.columns, &out);
      for (const Row& row : t.rows()) {
        out.push_back('\n');
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) out.push_back('\t');
          out += EscapeCell(RenderValue(row[c]));
        }
      }
      return out;
    }
    case sql::SqlResult::Kind::kCTable: {
      const CTable& t = result.ctable;
      out = "CTB " + std::to_string(queue_us) + " " +
            std::to_string(t.num_rows()) + " " +
            std::to_string(t.schema().size());
      AppendColumns(result.columns, &out);
      for (const CTableRow& row : t.rows()) {
        out.push_back('\n');
        for (const ExprPtr& cell : row.cells) {
          out += EscapeCell(cell->IsConstant() ? RenderValue(cell->value())
                                               : cell->ToString());
          out.push_back('\t');
        }
        out += EscapeCell(row.condition.ToString());
      }
      return out;
    }
  }
  return out;
}

StatusOr<WireResponse> DecodeResponse(const std::string& payload) {
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty() || lines[0].empty()) {
    return Status::InvalidArgument("empty response payload");
  }
  std::istringstream header(lines[0]);
  std::string tag;
  header >> tag;

  WireResponse resp;
  if (tag == "ERR") {
    resp.kind = WireResponse::Kind::kError;
    std::string code_name;
    header >> code_name;
    PIP_ASSIGN_OR_RETURN(resp.code, sql::WireErrorCodeFromName(code_name));
    if (lines.size() < 2) {
      return Status::InvalidArgument("ERR response missing message");
    }
    resp.message = UnescapeCell(lines[1]);
    return resp;
  }
  if (tag == "ACK") {
    resp.kind = WireResponse::Kind::kAck;
    std::string queue;
    header >> queue;
    PIP_ASSIGN_OR_RETURN(resp.queue_us, ParseU64(queue));
    if (lines.size() < 2) {
      return Status::InvalidArgument("ACK response missing message");
    }
    resp.message = UnescapeCell(lines[1]);
    return resp;
  }
  if (tag != "TBL" && tag != "CTB") {
    return Status::InvalidArgument("unknown response tag '" + tag + "'");
  }
  resp.kind = tag == "TBL" ? WireResponse::Kind::kTable
                           : WireResponse::Kind::kCTable;
  std::string queue, nrows_text, ncols_text;
  header >> queue >> nrows_text >> ncols_text;
  PIP_ASSIGN_OR_RETURN(resp.queue_us, ParseU64(queue));
  PIP_ASSIGN_OR_RETURN(uint64_t nrows, ParseU64(nrows_text));
  PIP_ASSIGN_OR_RETURN(uint64_t ncols, ParseU64(ncols_text));
  // Each count is checked alone first: their sum may wrap.
  size_t expected_lines = 1 + ncols + nrows;
  if (ncols >= lines.size() || nrows >= lines.size() ||
      lines.size() != expected_lines) {
    return Status::InvalidArgument(
        "response declares " + std::to_string(expected_lines) +
        " lines, got " + std::to_string(lines.size()));
  }
  size_t cells_per_row =
      ncols + (resp.kind == WireResponse::Kind::kCTable ? 1 : 0);
  for (size_t c = 0; c < ncols; ++c) {
    std::vector<std::string> parts = SplitCells(lines[1 + c]);
    if (parts.size() != 2) {
      return Status::InvalidArgument("malformed column metadata line");
    }
    sql::SqlColumn col;
    PIP_ASSIGN_OR_RETURN(col.kind, ColumnKindFromName(parts[0]));
    col.name = UnescapeCell(parts[1]);
    resp.columns.push_back(std::move(col));
  }
  resp.rows.reserve(nrows);
  for (size_t r = 0; r < nrows; ++r) {
    std::vector<std::string> cells = SplitCells(lines[1 + ncols + r]);
    if (cells.size() != cells_per_row) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " has " +
          std::to_string(cells.size()) + " cells, expected " +
          std::to_string(cells_per_row));
    }
    for (std::string& cell : cells) cell = UnescapeCell(cell);
    resp.rows.push_back(std::move(cells));
  }
  return resp;
}

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::Internal("frame of " + std::to_string(payload.size()) +
                            " bytes exceeds the protocol maximum");
  }
  // Prefix and payload leave in one send: two small writes followed by a
  // read is the Nagle + delayed-ACK pattern, which stalls every round
  // trip for the peer's delayed-ACK timer.
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>(len >> 24));
  frame.push_back(static_cast<char>(len >> 16));
  frame.push_back(static_cast<char>(len >> 8));
  frame.push_back(static_cast<char>(len));
  frame += payload;
  return SendAll(fd, frame.data(), frame.size());
}

StatusOr<bool> ReadFrame(int fd, std::string* payload) {
  unsigned char prefix[4];
  PIP_ASSIGN_OR_RETURN(size_t got,
                       RecvAll(fd, reinterpret_cast<char*>(prefix), 4));
  if (got == 0) return false;  // Clean EOF between frames.
  if (got < 4) return Status::Internal("connection closed mid-frame");
  uint32_t len = (uint32_t{prefix[0]} << 24) | (uint32_t{prefix[1]} << 16) |
                 (uint32_t{prefix[2]} << 8) | uint32_t{prefix[3]};
  if (len > kMaxFrameBytes) {
    return Status::Internal("frame of " + std::to_string(len) +
                            " bytes exceeds the protocol maximum");
  }
  payload->resize(len);
  if (len > 0) {
    PIP_ASSIGN_OR_RETURN(got, RecvAll(fd, &(*payload)[0], len));
    if (got < len) return Status::Internal("connection closed mid-frame");
  }
  return true;
}

}  // namespace server
}  // namespace pip
