//===- Protocol.h - The levityd line protocol (LEVP/1) ----------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between levityd (server/Server.h) and its clients:
/// a line-oriented, versioned request/response protocol with
/// length-prefixed payloads and strict parse errors (docs/SERVER.md is
/// the normative spec).
///
/// Every frame starts with the protocol version tag `LEVP/1`. Requests:
///
/// \code
///   LEVP/1 COMPILE <tenant> <name> <nbytes>\n<nbytes of source>\n
///   LEVP/1 RUN <tenant> <name> [tree|machine|bytecode] [fuel]\n
///   LEVP/1 STATS <tenant>\n            ("*" = the server-wide snapshot)
///   LEVP/1 EVICT [max-entries] [max-bytes]\n
///   LEVP/1 SHUTDOWN\n
/// \endcode
///
/// Responses are uniformly length-prefixed so clients never need to
/// guess where a payload ends:
///
/// \code
///   LEVP/1 <OK|BUSY|TIMEOUT|ERROR|BADREQ|BYE> <nbytes>\n<payload>\n
/// \endcode
///
/// Parsing is *strict*: a malformed frame never executes anything — it
/// produces a `BADREQ <code>: <detail>` response with a stable error
/// code (bad-version, unknown-command, bad-tenant, bad-name, bad-arg,
/// bad-length, payload-too-large, bad-frame) and the reader resyncs at
/// the next line boundary.
///
/// FrameReader/ResponseReader are incremental: feed them whatever bytes
/// arrived (a socket read, half a line, ten pipelined frames) and drain
/// complete frames one at a time. The server drains *all* buffered
/// frames before executing, which is what lets it admit pipelined RUNs
/// as one batch before running any of them.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SERVER_PROTOCOL_H
#define LEVITY_SERVER_PROTOCOL_H

#include "driver/Session.h"
#include "support/Result.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace levity {
namespace server {

/// The version tag every frame must lead with.
inline constexpr std::string_view ProtocolTag = "LEVP/1";

/// One parsed client request.
struct Request {
  enum class Kind : uint8_t {
    Compile,  ///< Register + compile a named program for a tenant.
    Run,      ///< Evaluate a previously compiled program.
    Stats,    ///< Per-tenant (or "*" server-wide) counter snapshot.
    Evict,    ///< Enforce the on-disk store budgets now.
    Shutdown  ///< Stop the server after draining in-flight work.
  };

  Kind K = Kind::Run;
  std::string Tenant; ///< Compile/Run/Stats ("*" only for Stats).
  std::string Name;   ///< Compile/Run: the program's registry name.
  std::string Source; ///< Compile: the program text (the payload).
  std::optional<driver::Backend> B; ///< Run: requested backend.
  std::optional<uint64_t> Fuel;     ///< Run: step budget (the deadline).
  /// Evict: explicit budgets; absent = the server's configured ones.
  std::optional<uint64_t> EvictMaxEntries;
  std::optional<uint64_t> EvictMaxBytes;
};

/// One server response.
struct Response {
  enum class Status : uint8_t {
    Ok,         ///< Request succeeded; payload is the result.
    Busy,       ///< Admission control rejected the request (retry later).
    Timeout,    ///< The run exhausted its fuel deadline.
    Error,      ///< Compile/run failed; payload is `<category>: <detail>`.
    BadRequest, ///< Frame failed strict parsing; payload is the code.
    Bye         ///< Acknowledges SHUTDOWN; the connection is closing.
  };
  Status St = Status::Error;
  std::string Payload;

  bool ok() const { return St == Status::Ok; }
};

/// Canonical wire token for a response status ("OK", "BUSY", …).
std::string_view statusToken(Response::Status St);
/// Canonical wire token for a backend ("tree", "machine", "bytecode").
std::string_view backendToken(driver::Backend B);
/// Parses a backend token; nullopt for anything else.
std::optional<driver::Backend> parseBackendToken(std::string_view Tok);

/// Renders \p R as one wire frame (header line, payload, trailing '\n').
std::string formatRequest(const Request &R);
/// Renders \p R as one wire frame.
std::string formatResponse(const Response &R);

/// Size limits a reader enforces *before* executing anything.
struct FrameLimits {
  size_t MaxLineBytes = 4096;        ///< Header-line cap (resync beyond).
  size_t MaxSourceBytes = 1u << 20;  ///< COMPILE payload cap.
  size_t MaxTokenBytes = 64;         ///< Tenant/name length cap.
};

/// Incremental request parser: append() raw bytes, then drain next()
/// until it returns nullopt (frame incomplete — read more bytes).
/// A returned error is a *parse* error for exactly one malformed frame;
/// the reader has already resynced and may be drained further.
class FrameReader {
public:
  explicit FrameReader(FrameLimits L = {}) : Limits(L) {}

  /// Feeds raw connection bytes into the reader.
  void append(std::string_view Bytes);

  /// Extracts the next complete frame: a parsed Request, a parse error
  /// (the BADREQ text, code-prefixed), or nullopt when the buffered
  /// bytes do not yet hold a whole frame.
  std::optional<Result<Request>> next();

  const FrameLimits &limits() const { return Limits; }

private:
  FrameLimits Limits;
  std::string Buf;
  size_t Pos = 0;       ///< Consumed prefix of Buf.
  bool SkipLine = false; ///< Resync mode after an over-long line.
};

/// Incremental response parser (the client half); same discipline as
/// FrameReader. An error here means the *server* sent a malformed frame
/// — clients treat it as a protocol error and drop the connection.
class ResponseReader {
public:
  explicit ResponseReader(size_t MaxPayloadBytes = 1u << 20)
      : MaxPayloadBytes(MaxPayloadBytes) {}

  void append(std::string_view Bytes);
  std::optional<Result<Response>> next();

private:
  size_t MaxPayloadBytes;
  std::string Buf;
  size_t Pos = 0;
};

} // namespace server
} // namespace levity

#endif // LEVITY_SERVER_PROTOCOL_H
