//===- server_test.cpp - levityd: protocol + server semantics -------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The server stack end to end:
//
//   * LEVP/1 wire protocol — format/parse round trips for every request
//     kind, strict per-frame parse errors with stable codes, incremental
//     (byte-at-a-time) feeding, resync after malformed frames;
//   * Server semantics — COMPILE outcomes (front-end / cache-hit /
//     disk-hit), RUN across all three backends, typed BUSY under a full
//     admission queue, typed TIMEOUT from the per-request fuel deadline,
//     EVICT, tenant isolation, and STATS ledgers that reconcile exactly
//     with Session::Stats;
//   * Transports — the stdin/stdout REPL (serveStream) and the
//     Unix-domain socket path, both through the same process() core;
//   * The load generator — a small clean run of the deterministic
//     cold/warm/run/timeout mix.
//
//===----------------------------------------------------------------------===//

#include "server/LoadGen.h"
#include "server/Net.h"
#include "server/Protocol.h"
#include "server/Server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace levity;
using namespace levity::driver;
using namespace levity::server;

namespace {

namespace fs = std::filesystem;

const char *AnswerSrc =
    "square :: Int# -> Int# ;"
    "square x = x *# x ;"
    "answer = square 6# +# 6#";

const char *LoopSrc =
    "sumToH :: Int# -> Int# -> Int# ;"
    "sumToH acc n = case n of {"
    "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
    "} ;"
    "total = sumToH 0# 1000#";

Request compileReq(std::string Tenant, std::string Name,
                   std::string Source) {
  Request R;
  R.K = Request::Kind::Compile;
  R.Tenant = std::move(Tenant);
  R.Name = std::move(Name);
  R.Source = std::move(Source);
  return R;
}

Request runReq(std::string Tenant, std::string Name,
               std::optional<Backend> B = std::nullopt,
               std::optional<uint64_t> Fuel = std::nullopt) {
  Request R;
  R.K = Request::Kind::Run;
  R.Tenant = std::move(Tenant);
  R.Name = std::move(Name);
  R.B = B;
  R.Fuel = Fuel;
  return R;
}

/// Parses a STATS payload ("key value" lines) into a map.
std::map<std::string, uint64_t> parseStats(const std::string &Payload) {
  std::map<std::string, uint64_t> M;
  std::istringstream In(Payload);
  std::string Key;
  uint64_t Value;
  while (In >> Key >> Value)
    M[Key] = Value;
  return M;
}

//===----------------------------------------------------------------------===//
// Protocol: round trips
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, RequestRoundTripsEveryKind) {
  std::vector<Request> Originals;
  Originals.push_back(compileReq("alice", "prog.1", "answer = 1#"));
  Originals.push_back(runReq("bob", "prog-2", Backend::Bytecode, 500));
  Originals.push_back(runReq("bob", "p", std::nullopt, std::nullopt));
  {
    Request R;
    R.K = Request::Kind::Stats;
    R.Tenant = "*";
    Originals.push_back(R);
  }
  {
    Request R;
    R.K = Request::Kind::Evict;
    R.EvictMaxEntries = 4;
    R.EvictMaxBytes = 1 << 20;
    Originals.push_back(R);
  }
  {
    Request R;
    R.K = Request::Kind::Shutdown;
    Originals.push_back(R);
  }

  FrameReader Reader;
  for (const Request &R : Originals)
    Reader.append(formatRequest(R));

  for (const Request &Want : Originals) {
    std::optional<Result<Request>> F = Reader.next();
    ASSERT_TRUE(F.has_value());
    ASSERT_TRUE(F->ok()) << F->error();
    const Request &Got = **F;
    EXPECT_EQ(Got.K, Want.K);
    EXPECT_EQ(Got.Tenant, Want.Tenant);
    EXPECT_EQ(Got.Name, Want.Name);
    EXPECT_EQ(Got.Source, Want.Source);
    EXPECT_EQ(Got.Fuel, Want.Fuel);
    EXPECT_EQ(Got.EvictMaxEntries, Want.EvictMaxEntries);
    EXPECT_EQ(Got.EvictMaxBytes, Want.EvictMaxBytes);
    if (Want.B)
      EXPECT_EQ(Got.B, Want.B);
  }
  EXPECT_FALSE(Reader.next().has_value());
}

TEST(ProtocolTest, FuelWithoutBackendPinsTheWireBackend) {
  // formatRequest must not emit an ambiguous "RUN t n 500": fuel with no
  // backend pins the server default, "bytecode", explicitly.
  std::string Wire = formatRequest(runReq("t", "n", std::nullopt, 500));
  EXPECT_EQ(Wire, "LEVP/1 RUN t n bytecode 500\n");
}

TEST(ProtocolTest, ResponseRoundTrips) {
  ResponseReader Reader;
  std::vector<Response> Originals = {
      {Response::Status::Ok, "5050"},
      {Response::Status::Busy, "queue full"},
      {Response::Status::Timeout, "out of fuel"},
      {Response::Status::Error, "compile-error: boom"},
      {Response::Status::BadRequest, "bad-version: nope"},
      {Response::Status::Bye, ""},
  };
  for (const Response &R : Originals)
    Reader.append(formatResponse(R));
  for (const Response &Want : Originals) {
    std::optional<Result<Response>> F = Reader.next();
    ASSERT_TRUE(F.has_value());
    ASSERT_TRUE(F->ok()) << F->error();
    EXPECT_EQ((*F)->St, Want.St);
    EXPECT_EQ((*F)->Payload, Want.Payload);
  }
}

TEST(ProtocolTest, PayloadsMayContainNewlines) {
  // Length-prefixed framing: multi-line payloads (diagnostics, stats)
  // pass through byte-exact.
  Response R{Response::Status::Ok, "line one\nline two\n"};
  ResponseReader Reader;
  Reader.append(formatResponse(R));
  std::optional<Result<Response>> F = Reader.next();
  ASSERT_TRUE(F.has_value() && F->ok());
  EXPECT_EQ((*F)->Payload, "line one\nline two\n");

  Request C = compileReq("t", "n", "a = 1# ;\nb = 2#\n");
  FrameReader FR;
  FR.append(formatRequest(C));
  std::optional<Result<Request>> G = FR.next();
  ASSERT_TRUE(G.has_value() && G->ok());
  EXPECT_EQ((*G)->Source, "a = 1# ;\nb = 2#\n");
}

TEST(ProtocolTest, IncrementalFeedingByteAtATime) {
  std::string Wire = formatRequest(compileReq("t", "n", "answer = 7#")) +
                     formatRequest(runReq("t", "n", Backend::TreeInterp));
  FrameReader Reader;
  std::vector<Request> Got;
  for (char C : Wire) {
    Reader.append(std::string_view(&C, 1));
    while (std::optional<Result<Request>> F = Reader.next()) {
      ASSERT_TRUE(F->ok()) << F->error();
      Got.push_back(**F);
    }
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].K, Request::Kind::Compile);
  EXPECT_EQ(Got[0].Source, "answer = 7#");
  EXPECT_EQ(Got[1].K, Request::Kind::Run);
}

//===----------------------------------------------------------------------===//
// Protocol: strict errors and resync
//===----------------------------------------------------------------------===//

/// Feeds one line and expects a parse error whose code prefixes the text.
void expectBadFrame(const std::string &Wire, const std::string &Code) {
  FrameReader Reader;
  Reader.append(Wire);
  std::optional<Result<Request>> F = Reader.next();
  ASSERT_TRUE(F.has_value()) << Wire;
  ASSERT_FALSE(F->ok()) << Wire;
  EXPECT_EQ(F->error().substr(0, Code.size() + 1), Code + ":")
      << F->error();
}

TEST(ProtocolTest, StrictParseErrorsHaveStableCodes) {
  expectBadFrame("LEVP/2 RUN t n\n", "bad-version");
  expectBadFrame("HTTP/1.1 GET /\n", "bad-version");
  expectBadFrame("LEVP/1 FROB t\n", "unknown-command");
  expectBadFrame("LEVP/1 RUN bad!tenant n\n", "bad-tenant");
  expectBadFrame("LEVP/1 RUN t bad$name\n", "bad-name");
  expectBadFrame("LEVP/1 RUN t n quantum\n", "bad-arg");
  expectBadFrame("LEVP/1 RUN t n machine zero\n", "bad-arg");
  expectBadFrame("LEVP/1 RUN t n machine 0\n", "bad-arg");
  expectBadFrame("LEVP/1 RUN t\n", "bad-arg");
  expectBadFrame("LEVP/1 COMPILE t n xyz\n", "bad-length");
  expectBadFrame("LEVP/1 COMPILE t n\n", "bad-arg");
  expectBadFrame("LEVP/1 STATS\n", "bad-arg");
  expectBadFrame("LEVP/1 SHUTDOWN now\n", "bad-arg");
  expectBadFrame("LEVP/1  RUN t n\n", "bad-frame"); // Doubled space.
  expectBadFrame("\n", "bad-frame");
}

TEST(ProtocolTest, OversizedPayloadIsRejectedBeforeBuffering) {
  FrameLimits Limits;
  Limits.MaxSourceBytes = 16;
  FrameReader Reader(Limits);
  Reader.append("LEVP/1 COMPILE t n 1000000\n");
  std::optional<Result<Request>> F = Reader.next();
  ASSERT_TRUE(F.has_value());
  ASSERT_FALSE(F->ok());
  EXPECT_EQ(F->error().substr(0, 18), "payload-too-large:");

  // The (discarded) payload and a following good frame: the reader
  // resyncs at the payload's terminating newline.
  Reader.append(std::string(1000000, 'x') + "\n");
  Reader.append("LEVP/1 RUN t n\n");
  std::optional<Result<Request>> G = Reader.next();
  ASSERT_TRUE(G.has_value());
  ASSERT_TRUE(G->ok()) << G->error();
  EXPECT_EQ((*G)->K, Request::Kind::Run);
}

TEST(ProtocolTest, BadPayloadTerminatorResyncsAtNextLine) {
  FrameReader Reader;
  // Claimed 5 bytes but the sixth byte is not '\n': the remainder of
  // that junk is skipped by line discipline, the next frame parses.
  Reader.append("LEVP/1 COMPILE t n 5\nabcdefgh\n");
  Reader.append("LEVP/1 RUN t n tree\n");
  std::optional<Result<Request>> F = Reader.next();
  ASSERT_TRUE(F.has_value());
  ASSERT_FALSE(F->ok());
  EXPECT_EQ(F->error().substr(0, 10), "bad-frame:");
  std::optional<Result<Request>> G = Reader.next();
  ASSERT_TRUE(G.has_value());
  ASSERT_TRUE(G->ok()) << G->error();
  EXPECT_EQ((*G)->B, Backend::TreeInterp);
}

TEST(ProtocolTest, OverlongHeaderLineResyncs) {
  FrameLimits Limits;
  Limits.MaxLineBytes = 64;
  FrameReader Reader(Limits);
  Reader.append(std::string(200, 'a')); // No newline yet.
  std::optional<Result<Request>> F = Reader.next();
  ASSERT_TRUE(F.has_value());
  ASSERT_FALSE(F->ok());
  EXPECT_EQ(F->error().substr(0, 10), "bad-frame:");
  Reader.append("aaaa\nLEVP/1 SHUTDOWN\n");
  std::optional<Result<Request>> G = Reader.next();
  ASSERT_TRUE(G.has_value());
  ASSERT_TRUE(G->ok()) << G->error();
  EXPECT_EQ((*G)->K, Request::Kind::Shutdown);
}

TEST(ProtocolTest, MalformedFrameNeverStallsFollowingFrames) {
  FrameReader Reader;
  Reader.append("LEVP/1 NONSENSE\n");
  Reader.append(formatRequest(runReq("t", "n")));
  std::optional<Result<Request>> F = Reader.next();
  ASSERT_TRUE(F.has_value());
  ASSERT_FALSE(F->ok());
  std::optional<Result<Request>> G = Reader.next();
  ASSERT_TRUE(G.has_value());
  EXPECT_TRUE(G->ok());
}

TEST(ProtocolTest, MutatedAndTruncatedFramesNeverDesyncTheReader) {
  // Byte-level mutation of every request kind: each offset x 3 flips and
  // every truncation, fed in seeded random chunk sizes. The reader may
  // yield only Requests, coded BADREQ errors or nullopt, and a good
  // frame appended afterwards must still parse. A damaged COMPILE can
  // leave the reader waiting for its payload (at most 11 bytes here: a
  // flip can only shrink the length "11") plus the terminator, so the
  // good frame follows a longer run of newlines; each stray empty line
  // is one bad-frame error.
  std::vector<std::string> Frames = {
      formatRequest(compileReq("alice", "prog", "answer = 1#")),
      formatRequest(runReq("alice", "prog", Backend::Bytecode, 500))};
  for (Request::Kind K :
       {Request::Kind::Stats, Request::Kind::Evict, Request::Kind::Shutdown}) {
    Request R;
    R.K = K;
    R.Tenant = "alice";
    R.EvictMaxEntries = 4;
    R.EvictMaxBytes = 1 << 20;
    Frames.push_back(formatRequest(R));
  }
  const std::string Resync(16, '\n');
  const std::string Good = formatRequest(runReq("z", "good"));
  const std::vector<std::string> Codes = {
      "bad-version", "unknown-command", "bad-tenant", "bad-name",
      "bad-arg",     "bad-length",      "bad-frame",  "payload-too-large"};
  std::mt19937 Rng(2017);

  auto Check = [&](const std::string &Mutant) {
    SCOPED_TRACE(Mutant);
    std::string Wire = Mutant + Resync + Good;
    FrameReader Reader;
    std::optional<Request> Last;
    size_t Items = 0;
    for (size_t Pos = 0; Pos < Wire.size();) {
      size_t N = std::min<size_t>(Wire.size() - Pos, 1 + Rng() % 16);
      Reader.append(std::string_view(Wire).substr(Pos, N));
      Pos += N;
      while (std::optional<Result<Request>> F = Reader.next()) {
        // Every item consumes at least one byte; more means a stall.
        ASSERT_LE(++Items, Wire.size()) << "the reader stopped consuming";
        if (F->ok()) {
          Last = **F;
          continue;
        }
        Last.reset();
        std::string Code = F->error().substr(0, F->error().find(':'));
        EXPECT_NE(std::find(Codes.begin(), Codes.end(), Code), Codes.end())
            << F->error();
      }
    }
    ASSERT_TRUE(Last.has_value()) << "the good frame did not parse last";
    EXPECT_EQ(Last->K, Request::Kind::Run);
    EXPECT_EQ(Last->Tenant, "z");
    EXPECT_EQ(Last->Name, "good");
  };

  for (const std::string &Frame : Frames) {
    FrameReader Clean;
    Clean.append(Frame);
    std::optional<Result<Request>> F = Clean.next();
    ASSERT_TRUE(F.has_value() && F->ok()) << Frame;
    for (size_t Off = 0; Off != Frame.size(); ++Off) {
      for (uint8_t Flip : {0x01, 0x80, 0xFF}) {
        std::string Mutant = Frame;
        Mutant[Off] = static_cast<char>(Mutant[Off] ^ Flip);
        Check(Mutant);
      }
      Check(Frame.substr(0, Off));
    }
  }
}

//===----------------------------------------------------------------------===//
// Server semantics
//===----------------------------------------------------------------------===//

TEST(ServerTest, CompileRunAcrossBackendsAndOutcomes) {
  Server S({});
  Response C1 = S.handle(compileReq("alice", "answer", AnswerSrc));
  ASSERT_EQ(C1.St, Response::Status::Ok) << C1.Payload;
  EXPECT_EQ(C1.Payload, "outcome=front-end");

  Response C2 = S.handle(compileReq("alice", "answer", AnswerSrc));
  ASSERT_EQ(C2.St, Response::Status::Ok);
  EXPECT_EQ(C2.Payload, "outcome=cache-hit");

  for (Backend B :
       {Backend::TreeInterp, Backend::AbstractMachine, Backend::Bytecode}) {
    Response R = S.handle(runReq("alice", "answer", B));
    ASSERT_EQ(R.St, Response::Status::Ok) << R.Payload;
    EXPECT_EQ(extractInt(R.Payload).value_or(-1), 42)
        << backendName(B) << ": " << R.Payload;
  }

  TenantStats T = S.tenantStats("alice");
  EXPECT_EQ(T.CompileRequests, 2u);
  EXPECT_EQ(T.FrontEndCompiles, 1u);
  EXPECT_EQ(T.CacheHits, 4u); // 1 re-COMPILE + 3 RUN lookups.
  EXPECT_EQ(T.RunsTree, 1u);
  EXPECT_EQ(T.RunsMachine, 1u);
  EXPECT_EQ(T.RunsBytecode, 1u);
  EXPECT_EQ(T.RunErrors, 0u);
  EXPECT_GT(T.Steps, 0u);
}

TEST(ServerTest, UnknownProgramIsATypedError) {
  Server S({});
  Response R = S.handle(runReq("alice", "ghost"));
  EXPECT_EQ(R.St, Response::Status::Error);
  EXPECT_NE(R.Payload.find("unknown-program"), std::string::npos);
  EXPECT_EQ(S.tenantStats("alice").UnknownPrograms, 1u);
  EXPECT_EQ(S.inFlight(), 0u); // The slot was released.
}

TEST(ServerTest, CompileErrorsAreReportedAndCounted) {
  Server S({});
  Response R = S.handle(compileReq("alice", "broken", "answer = \\x ->"));
  EXPECT_EQ(R.St, Response::Status::Error);
  EXPECT_EQ(R.Payload.substr(0, 14), "compile-error:");
  TenantStats T = S.tenantStats("alice");
  EXPECT_EQ(T.CompileErrors, 1u);
  // A failed COMPILE registers nothing.
  EXPECT_EQ(S.handle(runReq("alice", "broken")).St,
            Response::Status::Error);
  EXPECT_EQ(S.tenantStats("alice").UnknownPrograms, 1u);
}

TEST(ServerTest, TenantsAreIsolated) {
  Server S({});
  ASSERT_TRUE(S.handle(compileReq("alice", "answer", AnswerSrc)).ok());
  // bob never registered "answer": same session cache, distinct registry.
  Response R = S.handle(runReq("bob", "answer"));
  EXPECT_EQ(R.St, Response::Status::Error);
  EXPECT_NE(R.Payload.find("unknown-program"), std::string::npos);
  EXPECT_EQ(S.tenantStats("bob").UnknownPrograms, 1u);
  EXPECT_EQ(S.tenantStats("alice").UnknownPrograms, 0u);
}

TEST(ServerTest, FuelDeadlineComesBackAsTypedTimeout) {
  Server S({});
  ASSERT_TRUE(S.handle(compileReq("alice", "total", LoopSrc)).ok());
  for (Backend B :
       {Backend::TreeInterp, Backend::AbstractMachine, Backend::Bytecode}) {
    Response R = S.handle(runReq("alice", "total", B, 1));
    EXPECT_EQ(R.St, Response::Status::Timeout) << backendName(B);
    EXPECT_EQ(R.Payload, "out of fuel") << backendName(B);
  }
  EXPECT_EQ(S.tenantStats("alice").Timeouts, 3u);
  // Full fuel still completes: the deadline is per-request.
  Response Ok = S.handle(runReq("alice", "total", Backend::Bytecode));
  ASSERT_EQ(Ok.St, Response::Status::Ok) << Ok.Payload;
  EXPECT_EQ(extractInt(Ok.Payload).value_or(-1), 500500);
}

TEST(ServerTest, DefaultRunFuelAppliesWhenRequestNamesNone) {
  ServerOptions Opts;
  Opts.DefaultRunFuel = 1;
  Server S(Opts);
  ASSERT_TRUE(S.handle(compileReq("alice", "total", LoopSrc)).ok());
  Response R = S.handle(runReq("alice", "total", Backend::AbstractMachine));
  EXPECT_EQ(R.St, Response::Status::Timeout);
  // An explicit per-request fuel overrides the default.
  Response Ok =
      S.handle(runReq("alice", "total", Backend::AbstractMachine,
                      100000000));
  EXPECT_EQ(Ok.St, Response::Status::Ok) << Ok.Payload;
}

TEST(ServerTest, AdmissionControlRejectsBeyondQueueDepth) {
  ServerOptions Opts;
  Opts.MaxQueueDepth = 1;
  Server S(Opts);
  ASSERT_TRUE(S.handle(compileReq("alice", "answer", AnswerSrc)).ok());

  // A pipelined batch admits requests before executing any of them, so
  // with depth 1 exactly the first RUN is admitted and the rest get a
  // deterministic typed BUSY.
  std::vector<Result<Request>> Frames;
  for (int I = 0; I != 3; ++I)
    Frames.emplace_back(runReq("alice", "answer", Backend::TreeInterp));
  std::vector<Response> Out = S.process(Frames);
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0].St, Response::Status::Ok) << Out[0].Payload;
  EXPECT_EQ(Out[1].St, Response::Status::Busy);
  EXPECT_EQ(Out[2].St, Response::Status::Busy);
  EXPECT_EQ(S.tenantStats("alice").Rejected, 2u);
  EXPECT_EQ(S.inFlight(), 0u);

  // Sequential requests are admitted again — the slots were released.
  EXPECT_TRUE(S.handle(runReq("alice", "answer")).ok());
}

TEST(ServerTest, PipelinedRunsBatchThroughRunAll) {
  Server S({});
  ASSERT_TRUE(S.handle(compileReq("alice", "answer", AnswerSrc)).ok());
  ASSERT_TRUE(S.handle(compileReq("alice", "total", LoopSrc)).ok());

  std::vector<Result<Request>> Frames;
  for (int I = 0; I != 8; ++I)
    Frames.emplace_back(runReq("alice", I % 2 ? "answer" : "total",
                               I % 4 < 2 ? Backend::TreeInterp
                                         : Backend::Bytecode));
  std::vector<Response> Out = S.process(Frames);
  ASSERT_EQ(Out.size(), 8u);
  for (int I = 0; I != 8; ++I) {
    ASSERT_EQ(Out[I].St, Response::Status::Ok) << I << ": " << Out[I].Payload;
    EXPECT_EQ(extractInt(Out[I].Payload).value_or(-1),
              I % 2 ? 42 : 500500)
        << I;
  }
  TenantStats T = S.tenantStats("alice");
  EXPECT_EQ(T.RunsTree + T.RunsMachine + T.RunsBytecode, 8u);
}

TEST(ServerTest, MixedBatchAnswersEveryFrameInOrder) {
  Server S({});
  std::vector<Result<Request>> Frames;
  Frames.emplace_back(compileReq("alice", "answer", AnswerSrc));
  Frames.emplace_back(err(std::string("bad-version: nope")));
  Frames.emplace_back(runReq("alice", "answer", Backend::TreeInterp));
  Request St;
  St.K = Request::Kind::Stats;
  St.Tenant = "alice";
  Frames.emplace_back(St);

  std::vector<Response> Out = S.process(Frames);
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out[0].St, Response::Status::Ok);
  EXPECT_EQ(Out[1].St, Response::Status::BadRequest);
  EXPECT_EQ(Out[2].St, Response::Status::Ok);
  EXPECT_EQ(Out[3].St, Response::Status::Ok);
  EXPECT_EQ(S.badRequests(), 1u);
  EXPECT_EQ(extractInt(Out[2].Payload).value_or(-1), 42);
}

TEST(ServerTest, EvictEnforcesStoreBudgetsNow) {
  std::string Dir = (fs::temp_directory_path() /
                     ("levity-server-evict-" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(Dir);
  ServerOptions Opts;
  Opts.Compile.StorePath = Dir;
  {
    Server S(Opts);
    for (int I = 0; I != 4; ++I)
      ASSERT_TRUE(S.handle(compileReq("alice", "p" + std::to_string(I),
                                      "answer = " + std::to_string(I) +
                                          "# +# 1#"))
                      .ok());
    S.session().flushStoreWrites();

    Request E;
    E.K = Request::Kind::Evict;
    E.EvictMaxEntries = 1;
    Response R = S.handle(E);
    ASSERT_EQ(R.St, Response::Status::Ok);
    EXPECT_EQ(R.Payload, "evicted=3");

    Request StReq;
    StReq.K = Request::Kind::Stats;
    StReq.Tenant = "*";
    std::map<std::string, uint64_t> St =
        parseStats(S.handle(StReq).Payload);
    EXPECT_EQ(St["session-disk-evictions"], 3u);
  }
  fs::remove_all(Dir);
}

TEST(ServerTest, StatsReconcileExactlyWithSession) {
  Server S({});
  ASSERT_TRUE(S.handle(compileReq("alice", "answer", AnswerSrc)).ok());
  ASSERT_TRUE(S.handle(compileReq("bob", "total", LoopSrc)).ok());
  ASSERT_TRUE(S.handle(compileReq("bob", "answer", AnswerSrc)).ok());
  for (int I = 0; I != 3; ++I) {
    ASSERT_TRUE(S.handle(runReq("alice", "answer")).ok());
    ASSERT_TRUE(S.handle(runReq("bob", "total", Backend::Bytecode)).ok());
  }
  S.handle(runReq("carol", "ghost")); // UnknownPrograms for a 3rd tenant.

  TenantStats Sum;
  for (const auto &[Name, T] : S.allTenantStats()) {
    Sum.FrontEndCompiles += T.FrontEndCompiles;
    Sum.CacheHits += T.CacheHits;
    Sum.DiskHits += T.DiskHits;
  }
  Session::Stats St = S.session().stats();
  EXPECT_EQ(Sum.FrontEndCompiles, St.Compilations);
  EXPECT_EQ(Sum.CacheHits, St.CacheHits);
  EXPECT_EQ(Sum.DiskHits, St.DiskHits);

  // And the wire-level "*" snapshot carries the same reconciliation.
  Request StReq;
  StReq.K = Request::Kind::Stats;
  StReq.Tenant = "*";
  std::map<std::string, uint64_t> Wire =
      parseStats(S.handle(StReq).Payload);
  EXPECT_EQ(Wire["front-end-compiles"], Wire["session-compilations"]);
  EXPECT_EQ(Wire["cache-hits"], Wire["session-cache-hits"]);
  EXPECT_EQ(Wire["disk-hits"], Wire["session-disk-hits"]);
  EXPECT_EQ(Wire["tenants"], 3u);
}

TEST(ServerTest, ShutdownRequestAnswersByeAndUnblocksWaiters) {
  Server S({});
  std::thread Waiter([&] { S.waitForShutdown(); });
  Request R;
  R.K = Request::Kind::Shutdown;
  Response Resp = S.handle(R);
  EXPECT_EQ(Resp.St, Response::Status::Bye);
  EXPECT_TRUE(S.shutdownRequested());
  Waiter.join();
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

TEST(ServerStreamTest, InfiniteAnswerIsPrintedNotForced) {
  // A cyclic list is a finite answer: its lifted fields print `_`, so
  // printing it forces nothing. The connection stays usable after it.
  Request Ones = compileReq("t", "v",
                            "data IntList = Nil | Cons Int IntList ;"
                            "ones :: IntList ;"
                            "ones = Cons (I# 1#) ones ;"
                            "v = ones");
  std::string Wire = formatRequest(Ones) +
                     formatRequest(compileReq("t", "answer", AnswerSrc));
  for (Backend B :
       {Backend::TreeInterp, Backend::AbstractMachine, Backend::Bytecode})
    Wire += formatRequest(runReq("t", "v", B));
  Wire += formatRequest(runReq("t", "answer"));

  std::istringstream In(Wire);
  std::ostringstream Out;
  Server S({});
  S.serveStream(In, Out);

  ResponseReader Reader;
  Reader.append(Out.str());
  std::vector<Response> Got;
  while (std::optional<Result<Response>> F = Reader.next()) {
    ASSERT_TRUE(F->ok()) << F->error();
    Got.push_back(std::move(**F));
  }
  ASSERT_EQ(Got.size(), 6u);
  for (const Response &R : Got)
    EXPECT_EQ(R.St, Response::Status::Ok) << R.Payload;
  for (int I = 2; I != 5; ++I)
    EXPECT_EQ(Got[I].Payload, "Cons _ _") << I;
  EXPECT_EQ(Got[5].Payload, "42#");
}

TEST(ServerStreamTest, OverDeepCompileIsAnErrorAndTheConnectionGoesOn) {
  // 14,000 nested parentheses (28 KB) once overflowed the parser's stack.
  // They now meet the nesting budget: a compile error naming it, and the
  // next RUN on the same connection is answered.
  std::string Deep = "v = " + std::string(14000, '(') + "1#" +
                     std::string(14000, ')');
  std::string Wire = formatRequest(compileReq("t", "v", Deep)) +
                     formatRequest(compileReq("t", "answer", AnswerSrc)) +
                     formatRequest(runReq("t", "answer"));
  std::istringstream In(Wire);
  std::ostringstream Out;
  Server S({});
  S.serveStream(In, Out);

  ResponseReader Reader;
  Reader.append(Out.str());
  std::vector<Response> Got;
  while (std::optional<Result<Response>> F = Reader.next()) {
    ASSERT_TRUE(F->ok()) << F->error();
    Got.push_back(std::move(**F));
  }
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].St, Response::Status::Error);
  EXPECT_NE(Got[0].Payload.find("[nesting-too-deep]"), std::string::npos)
      << Got[0].Payload;
  EXPECT_EQ(Got[1].St, Response::Status::Ok) << Got[1].Payload;
  EXPECT_EQ(Got[2].St, Response::Status::Ok) << Got[2].Payload;
  EXPECT_EQ(Got[2].Payload, "42#");
}

TEST(ServerStreamTest, ServeStreamSpeaksTheFullProtocol) {
  std::string Src(AnswerSrc);
  std::string Wire = formatRequest(compileReq("alice", "answer", Src)) +
                     formatRequest(runReq("alice", "answer",
                                          Backend::Bytecode)) +
                     "LEVP/1 NONSENSE\n" +
                     formatRequest(runReq("alice", "answer",
                                          Backend::TreeInterp, 1));
  Request Bye;
  Bye.K = Request::Kind::Shutdown;
  Wire += formatRequest(Bye);

  std::istringstream In(Wire);
  std::ostringstream Out;
  Server S({});
  S.serveStream(In, Out);
  EXPECT_TRUE(S.shutdownRequested());

  ResponseReader Reader;
  Reader.append(Out.str());
  std::vector<Response> Got;
  while (std::optional<Result<Response>> F = Reader.next()) {
    ASSERT_TRUE(F->ok()) << F->error();
    Got.push_back(std::move(**F));
  }
  ASSERT_EQ(Got.size(), 5u);
  EXPECT_EQ(Got[0].St, Response::Status::Ok);
  EXPECT_EQ(Got[0].Payload, "outcome=front-end");
  EXPECT_EQ(Got[1].St, Response::Status::Ok);
  EXPECT_EQ(extractInt(Got[1].Payload).value_or(-1), 42);
  EXPECT_EQ(Got[2].St, Response::Status::BadRequest);
  EXPECT_EQ(Got[3].St, Response::Status::Timeout);
  EXPECT_EQ(Got[3].Payload, "out of fuel");
  EXPECT_EQ(Got[4].St, Response::Status::Bye);
}

TEST(ServerSocketTest, SocketClientsCompileRunAndShutDown) {
  if (!haveSockets())
    GTEST_SKIP() << "no unix-domain sockets on this platform";
  std::string Path = (fs::temp_directory_path() /
                      ("levity-ut-" + std::to_string(::getpid()) + ".sock"))
                         .string();
  Server S({});
  Result<bool> L = S.listenUnix(Path);
  ASSERT_TRUE(L.ok()) << L.error();

  {
    Result<std::unique_ptr<SocketClient>> C = SocketClient::connect(Path);
    ASSERT_TRUE(C.ok()) << C.error();
    // One pipelined exchange: compile + three runs.
    std::vector<Request> Batch;
    Batch.push_back(compileReq("alice", "answer", AnswerSrc));
    Batch.push_back(runReq("alice", "answer", Backend::TreeInterp));
    Batch.push_back(runReq("alice", "answer", Backend::AbstractMachine));
    Batch.push_back(runReq("alice", "answer", Backend::Bytecode));
    Result<std::vector<Response>> R = (*C)->exchange(Batch);
    ASSERT_TRUE(R.ok()) << R.error();
    ASSERT_EQ(R->size(), 4u);
    EXPECT_EQ((*R)[0].Payload, "outcome=front-end");
    for (int I = 1; I != 4; ++I)
      EXPECT_EQ(extractInt((*R)[I].Payload).value_or(-1), 42) << I;
  }
  {
    // A second connection shares the registry and the ledgers.
    Result<std::unique_ptr<SocketClient>> C = SocketClient::connect(Path);
    ASSERT_TRUE(C.ok()) << C.error();
    Result<std::vector<Response>> R =
        (*C)->exchange({runReq("alice", "answer")});
    ASSERT_TRUE(R.ok()) << R.error();
    EXPECT_EQ(extractInt((*R)[0].Payload).value_or(-1), 42);

    Request Bye;
    Bye.K = Request::Kind::Shutdown;
    Result<std::vector<Response>> B = (*C)->exchange({Bye});
    ASSERT_TRUE(B.ok()) << B.error();
    EXPECT_EQ((*B)[0].St, Response::Status::Bye);
  }
  S.waitForShutdown();
  EXPECT_EQ(S.tenantStats("alice").RunsBytecode, 2u);
}

/// A number in this process's /proc/self/status ("VmSize" in KiB,
/// "Threads"), or 0.
uint64_t procStatus(const std::string &Key) {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind(Key + ":", 0) == 0)
      return std::stoull(Line.substr(Key.size() + 1));
  return 0;
}

TEST(ServerSocketTest, ClosedConnectionsReleaseTheirThreads) {
  if (!haveSockets() || procStatus("VmSize") == 0)
    GTEST_SKIP() << "needs unix-domain sockets and /proc/self/status";
  std::string Path = (fs::temp_directory_path() /
                      ("levity-reap-" + std::to_string(::getpid()) + ".sock"))
                         .string();
  Server S({});
  Result<bool> L = S.listenUnix(Path);
  ASSERT_TRUE(L.ok()) << L.error();
  ASSERT_EQ(S.handle(compileReq("t", "answer", AnswerSrc)).St,
            Response::Status::Ok);

  // Each connection is served, closed and its thread exited before the
  // next opens. A thread left unjoined keeps its 8-MiB stack mapped, so
  // 8 of them would grow VmSize by 56 MiB after the first.
  const uint64_t Threads = procStatus("Threads");
  uint64_t AfterFirst = 0;
  for (int I = 0; I != 8; ++I) {
    {
      Result<std::unique_ptr<SocketClient>> C = SocketClient::connect(Path);
      ASSERT_TRUE(C.ok()) << C.error();
      Result<std::vector<Response>> R = (*C)->exchange({runReq("t", "answer")});
      ASSERT_TRUE(R.ok()) << R.error();
      EXPECT_EQ((*R)[0].Payload, "42#");
    }
    // A thread that overlapped the next connection's would take a fresh
    // stack and malloc arena (64 MiB of VmSize) reaped or not.
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (procStatus("Threads") > Threads) {
      ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
          << "connection " << I << "'s thread did not exit";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (I == 0)
      AfterFirst = procStatus("VmSize");
  }
  EXPECT_LE(procStatus("VmSize"), AfterFirst + 16 * 1024);
}

//===----------------------------------------------------------------------===//
// The load generator
//===----------------------------------------------------------------------===//

TEST(LoadGenTest, ExtractIntHandlesEveryDisplayShape) {
  EXPECT_EQ(extractInt("5050#").value_or(-1), 5050);
  EXPECT_EQ(extractInt("I# 42#").value_or(-1), 42);
  EXPECT_EQ(extractInt("-7#").value_or(0), -7);
  EXPECT_EQ(extractInt("W 5#").value_or(-1), 5);
  EXPECT_FALSE(extractInt("Cons _ _").has_value());
  EXPECT_FALSE(extractInt("Green").has_value());
  EXPECT_FALSE(extractInt("<closure>").has_value());
}

TEST(LoadGenTest, WorkloadProgramsComputeTheirExpectedAnswers) {
  Session S;
  for (const WorkProgram &P : makeWorkload(3)) {
    auto Comp = S.compile(P.Source);
    ASSERT_TRUE(Comp->ok()) << P.Name << ": " << Comp->diagText();
    RunResult R = Comp->run(P.Name, Backend::Bytecode);
    ASSERT_TRUE(R.ok()) << P.Name << ": " << R.Error;
    EXPECT_EQ(R.IntValue.value_or(-1), P.Expected) << P.Name;
  }
}

TEST(LoadGenTest, InProcessLoadRunIsClean) {
  Server S({});
  LoadOptions Load;
  Load.Clients = 3;
  Load.RequestsPerClient = 40;
  Load.Programs = 6;
  LoadReport R = runLoad(
      [&](size_t) { return std::make_unique<InProcessClient>(S); }, Load);
  EXPECT_TRUE(R.clean()) << formatReport(R, false);
  EXPECT_GT(R.Ok, 0u);
  EXPECT_GT(R.Timeouts, 0u); // The fuel-starved probes fired.
  EXPECT_EQ(R.WrongAnswers, 0u);
  EXPECT_EQ(S.inFlight(), 0u);
}

// CI's widest load shape, 64 clients of 8 requests each, sends typed
// TIMEOUTs too: the starved RUNs are offset by client index, so the 32
// clients whose index is 8-15 mod 16 each send one.
TEST(LoadGenTest, WideShapeSendsStarvedRuns) {
  ServerOptions Opts;
  Opts.MaxQueueDepth = 256;
  Server S(Opts);
  LoadOptions Load;
  Load.Clients = 64;
  Load.RequestsPerClient = 8;
  Load.Programs = 16;
  Load.PipelineDepth = 4;
  LoadReport R = runLoad(
      [&](size_t) { return std::make_unique<InProcessClient>(S); }, Load);
  EXPECT_TRUE(R.clean()) << formatReport(R, false);
  EXPECT_EQ(R.Timeouts, 32u);
  EXPECT_EQ(R.WrongAnswers, 0u);
  EXPECT_EQ(S.inFlight(), 0u);
}

} // namespace