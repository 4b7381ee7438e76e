//===- Protocol.cpp - The levityd line protocol (LEVP/1) ------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include <charconv>
#include <vector>

using namespace levity;
using namespace levity::server;

std::string_view server::statusToken(Response::Status St) {
  switch (St) {
  case Response::Status::Ok:
    return "OK";
  case Response::Status::Busy:
    return "BUSY";
  case Response::Status::Timeout:
    return "TIMEOUT";
  case Response::Status::Error:
    return "ERROR";
  case Response::Status::BadRequest:
    return "BADREQ";
  case Response::Status::Bye:
    return "BYE";
  }
  return "ERROR";
}

std::string_view server::backendToken(driver::Backend B) {
  switch (B) {
  case driver::Backend::TreeInterp:
    return "tree";
  case driver::Backend::AbstractMachine:
    return "machine";
  case driver::Backend::Bytecode:
    return "bytecode";
  }
  return "machine";
}

std::optional<driver::Backend> server::parseBackendToken(std::string_view T) {
  if (T == "tree")
    return driver::Backend::TreeInterp;
  if (T == "machine")
    return driver::Backend::AbstractMachine;
  if (T == "bytecode")
    return driver::Backend::Bytecode;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Formatting (the client-side half; the server formats responses)
//===----------------------------------------------------------------------===//

std::string server::formatRequest(const Request &R) {
  std::string Out(ProtocolTag);
  switch (R.K) {
  case Request::Kind::Compile:
    Out += " COMPILE " + R.Tenant + " " + R.Name + " " +
           std::to_string(R.Source.size()) + "\n";
    Out += R.Source;
    Out += '\n';
    return Out;
  case Request::Kind::Run:
    Out += " RUN " + R.Tenant + " " + R.Name;
    if (R.B)
      Out += " " + std::string(backendToken(*R.B));
    if (R.Fuel) {
      // Fuel without a backend would be ambiguous on the wire; pin the
      // server's default backend explicitly.
      if (!R.B)
        Out += " bytecode";
      Out += " " + std::to_string(*R.Fuel);
    }
    Out += '\n';
    return Out;
  case Request::Kind::Stats:
    Out += " STATS " + R.Tenant + "\n";
    return Out;
  case Request::Kind::Evict:
    Out += " EVICT";
    if (R.EvictMaxEntries)
      Out += " " + std::to_string(*R.EvictMaxEntries);
    if (R.EvictMaxBytes)
      Out += " " + std::to_string(*R.EvictMaxBytes);
    Out += '\n';
    return Out;
  case Request::Kind::Shutdown:
    Out += " SHUTDOWN\n";
    return Out;
  }
  return Out;
}

std::string server::formatResponse(const Response &R) {
  std::string Out(ProtocolTag);
  Out += ' ';
  Out += statusToken(R.St);
  Out += ' ';
  Out += std::to_string(R.Payload.size());
  Out += '\n';
  Out += R.Payload;
  Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Shared token helpers
//===----------------------------------------------------------------------===//

namespace {

/// Splits \p Line on single spaces. Empty tokens (leading, trailing, or
/// doubled separators) make the frame malformed — strict by design.
bool tokenize(std::string_view Line, std::vector<std::string_view> &Toks) {
  Toks.clear();
  size_t Start = 0;
  while (Start <= Line.size()) {
    size_t Sp = Line.find(' ', Start);
    std::string_view Tok = Line.substr(
        Start, Sp == std::string_view::npos ? Line.size() - Start : Sp - Start);
    if (Tok.empty())
      return false;
    Toks.push_back(Tok);
    if (Sp == std::string_view::npos)
      break;
    Start = Sp + 1;
  }
  return !Toks.empty();
}

bool parseU64(std::string_view Tok, uint64_t &Out) {
  if (Tok.empty() || Tok.size() > 20)
    return false;
  auto [Ptr, Ec] =
      std::from_chars(Tok.data(), Tok.data() + Tok.size(), Out, 10);
  return Ec == std::errc() && Ptr == Tok.data() + Tok.size();
}

/// Tenant and program names: short identifiers safe to echo into
/// registry keys, stats payloads, and filenames.
bool validIdent(std::string_view Tok, size_t MaxBytes) {
  if (Tok.empty() || Tok.size() > MaxBytes)
    return false;
  for (char C : Tok) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '-' ||
              C == ':';
    if (!Ok)
      return false;
  }
  return true;
}

Result<Request> badreq(std::string Code, std::string Detail) {
  return err(std::move(Code) + ": " + std::move(Detail));
}

} // namespace

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

void FrameReader::append(std::string_view Bytes) {
  // Compact once the consumed prefix dominates, so long-lived
  // connections do not grow the buffer without bound.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  Buf.append(Bytes);
}

std::optional<Result<Request>> FrameReader::next() {
  // Resync mode: a prior frame was malformed mid-stream (over-long line
  // or bad payload terminator, both already reported). Silently discard
  // up to and including the next newline, then parse normally.
  if (SkipLine) {
    size_t Nl = Buf.find('\n', Pos);
    if (Nl == std::string::npos) {
      Pos = Buf.size();
      return std::nullopt;
    }
    Pos = Nl + 1;
    SkipLine = false;
  }

  size_t Nl = Buf.find('\n', Pos);
  if (Nl == std::string::npos) {
    if (Buf.size() - Pos > Limits.MaxLineBytes) {
      // No newline within the line cap: report once, then resync.
      Pos = Buf.size();
      SkipLine = true;
      return badreq("bad-frame", "header line exceeds " +
                                     std::to_string(Limits.MaxLineBytes) +
                                     " bytes");
    }
    return std::nullopt; // Incomplete header; read more.
  }

  std::string_view Line(Buf.data() + Pos, Nl - Pos);

  std::vector<std::string_view> T;
  if (!tokenize(Line, T)) {
    Pos = Nl + 1;
    return badreq("bad-frame", "empty or malformed header line");
  }
  if (T[0] != ProtocolTag) {
    Pos = Nl + 1;
    return badreq("bad-version",
                  "expected '" + std::string(ProtocolTag) + "', got '" +
                      std::string(T[0]) + "'");
  }
  if (T.size() < 2) {
    Pos = Nl + 1;
    return badreq("bad-frame", "missing command");
  }
  std::string_view Cmd = T[1];

  if (Cmd == "COMPILE") {
    if (T.size() != 5) {
      Pos = Nl + 1;
      return badreq("bad-arg", "COMPILE takes <tenant> <name> <nbytes>");
    }
    if (!validIdent(T[2], Limits.MaxTokenBytes)) {
      Pos = Nl + 1;
      return badreq("bad-tenant", std::string(T[2]));
    }
    if (!validIdent(T[3], Limits.MaxTokenBytes)) {
      Pos = Nl + 1;
      return badreq("bad-name", std::string(T[3]));
    }
    uint64_t N = 0;
    if (!parseU64(T[4], N)) {
      Pos = Nl + 1;
      return badreq("bad-length", std::string(T[4]));
    }
    if (N > Limits.MaxSourceBytes) {
      // Consume the header and resync past the (unbuffered) payload by
      // line discipline: the payload plus its terminator get skipped as
      // one over-long "line". That keeps memory bounded by design.
      Pos = Nl + 1;
      SkipLine = true;
      return badreq("payload-too-large",
                    std::to_string(N) + " > " +
                        std::to_string(Limits.MaxSourceBytes));
    }
    // Whole frame = header + payload + '\n'. Do not consume the header
    // until all of it is buffered.
    size_t PayloadStart = Nl + 1;
    if (Buf.size() < PayloadStart + N + 1)
      return std::nullopt;
    if (Buf[PayloadStart + N] != '\n') {
      Pos = PayloadStart + N;
      SkipLine = true;
      return badreq("bad-frame", "payload not terminated by newline");
    }
    Request R;
    R.K = Request::Kind::Compile;
    R.Tenant.assign(T[2]);
    R.Name.assign(T[3]);
    R.Source = Buf.substr(PayloadStart, N);
    Pos = PayloadStart + N + 1;
    return Result<Request>(std::move(R));
  }

  // Every remaining command is a single header line; consume it now.
  Pos = Nl + 1;

  if (Cmd == "RUN") {
    if (T.size() < 4 || T.size() > 6)
      return badreq("bad-arg", "RUN takes <tenant> <name> [backend] [fuel]");
    if (!validIdent(T[2], Limits.MaxTokenBytes))
      return badreq("bad-tenant", std::string(T[2]));
    if (!validIdent(T[3], Limits.MaxTokenBytes))
      return badreq("bad-name", std::string(T[3]));
    Request R;
    R.K = Request::Kind::Run;
    R.Tenant.assign(T[2]);
    R.Name.assign(T[3]);
    if (T.size() >= 5) {
      R.B = parseBackendToken(T[4]);
      if (!R.B)
        return badreq("bad-arg",
                      "unknown backend '" + std::string(T[4]) +
                          "' (tree|machine|bytecode)");
    }
    if (T.size() == 6) {
      uint64_t F = 0;
      if (!parseU64(T[5], F) || F == 0)
        return badreq("bad-arg", "fuel must be a positive integer, got '" +
                                     std::string(T[5]) + "'");
      R.Fuel = F;
    }
    return Result<Request>(std::move(R));
  }

  if (Cmd == "STATS") {
    if (T.size() != 3)
      return badreq("bad-arg", "STATS takes <tenant>");
    if (T[2] != "*" && !validIdent(T[2], Limits.MaxTokenBytes))
      return badreq("bad-tenant", std::string(T[2]));
    Request R;
    R.K = Request::Kind::Stats;
    R.Tenant.assign(T[2]);
    return Result<Request>(std::move(R));
  }

  if (Cmd == "EVICT") {
    if (T.size() > 4)
      return badreq("bad-arg", "EVICT takes [max-entries] [max-bytes]");
    Request R;
    R.K = Request::Kind::Evict;
    if (T.size() >= 3) {
      uint64_t N = 0;
      if (!parseU64(T[2], N))
        return badreq("bad-arg", std::string(T[2]));
      R.EvictMaxEntries = N;
    }
    if (T.size() == 4) {
      uint64_t N = 0;
      if (!parseU64(T[3], N))
        return badreq("bad-arg", std::string(T[3]));
      R.EvictMaxBytes = N;
    }
    return Result<Request>(std::move(R));
  }

  if (Cmd == "SHUTDOWN") {
    if (T.size() != 2)
      return badreq("bad-arg", "SHUTDOWN takes no arguments");
    Request R;
    R.K = Request::Kind::Shutdown;
    return Result<Request>(std::move(R));
  }

  return badreq("unknown-command", std::string(Cmd));
}

//===----------------------------------------------------------------------===//
// ResponseReader
//===----------------------------------------------------------------------===//

void ResponseReader::append(std::string_view Bytes) {
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  Buf.append(Bytes);
}

std::optional<Result<Response>> ResponseReader::next() {
  size_t Nl = Buf.find('\n', Pos);
  if (Nl == std::string::npos)
    return std::nullopt;

  std::string_view Line(Buf.data() + Pos, Nl - Pos);
  std::vector<std::string_view> T;
  if (!tokenize(Line, T) || T.size() != 3 || T[0] != ProtocolTag) {
    Pos = Nl + 1;
    return err("malformed response header '" + std::string(Line) + "'");
  }

  Response R;
  bool Known = false;
  for (Response::Status St :
       {Response::Status::Ok, Response::Status::Busy, Response::Status::Timeout,
        Response::Status::Error, Response::Status::BadRequest,
        Response::Status::Bye})
    if (T[1] == statusToken(St)) {
      R.St = St;
      Known = true;
      break;
    }
  if (!Known) {
    Pos = Nl + 1;
    return err("unknown response status '" + std::string(T[1]) + "'");
  }

  uint64_t N = 0;
  if (!parseU64(T[2], N) || N > MaxPayloadBytes) {
    Pos = Nl + 1;
    return err("bad response payload length '" + std::string(T[2]) + "'");
  }

  size_t PayloadStart = Nl + 1;
  if (Buf.size() < PayloadStart + N + 1)
    return std::nullopt; // Incomplete; read more.
  if (Buf[PayloadStart + N] != '\n') {
    Pos = PayloadStart + N;
    return err("response payload not terminated by newline");
  }
  R.Payload = Buf.substr(PayloadStart, N);
  Pos = PayloadStart + N + 1;
  return Result<Response>(std::move(R));
}
