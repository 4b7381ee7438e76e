//===- LevpHot.cpp - Workload levp-hot: LEVP frame in, response out -------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// A closed loop of in-process clients against one server::Server. Each
// client formats a pipelined batch of wire frames, pushes the bytes
// through a FrameReader, Server::process and formatResponse, and reads
// them back through its own ResponseReader, verifying every answer. The
// programs are 32 registered sumAcc loops (server::makeWorkload), so
// each run is well under a microsecond and the request path around it
// dominates.
//
// The client counts honestly (unlike LoadReport): a request is timed
// from its batch's send to the receipt of its own response, and a BUSY
// answer counts against the request only when the retry budget gives
// up.
//
// Threads: of the --threads the run may use (default min(2, nproc)),
// half are clients and the rest are the Session pool that
// Server::process hands RUN batches to. A client waits while a worker
// runs its batch, so the timed phase pins each client/worker pair to one
// CPU: it never has more runnable threads than CPUs, and a hand-off
// never waits for an idle CPU of the host to wake up.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/Executor.h"
#include "server/LoadGen.h"
#include "server/Server.h"

#include <algorithm>
#include <thread>

using namespace perfbench;
using namespace levity;
using server::Request;
using server::Response;

namespace {

constexpr size_t NumPrograms = 32;
constexpr unsigned NumTenants = 4;
constexpr size_t Depth = 4;          ///< Pipelined frames per batch.
constexpr size_t MixPeriod = 20;     ///< Frames per mix cycle.
constexpr unsigned BusyRetries = 64;
constexpr size_t LedgerBatches = 50; ///< Per tenant, in ledger().

/// What a frame's response must be.
enum class Expect : uint8_t { Value, Timeout, Compiled };

struct Planned {
  Request Req;
  Expect E = Expect::Value;
  int64_t Value = 0;
};

/// Deterministic request stream of one client: 90% RUN on bytecode,
/// 5% warm re-COMPILE, 5% fuel-1 RUN that must TIME OUT. Each batch of
/// Depth requests is for one of the client's tenants, in turn.
class Stream {
public:
  Stream(const std::vector<server::WorkProgram> &Work,
         std::vector<std::string> Tenants, uint64_t Seed)
      : Work(Work), Tenants(std::move(Tenants)), R(Seed) {}

  Planned next() {
    const server::WorkProgram &P = Work[R.next() % Work.size()];
    Planned Pl;
    Pl.Req.Tenant = Tenants[J / Depth % Tenants.size()];
    Pl.Req.Name = P.Name;
    size_t Slot = J++ % MixPeriod;
    if (Slot == MixPeriod - 1) {
      Pl.Req.K = Request::Kind::Run;
      Pl.Req.B = driver::Backend::Bytecode;
      Pl.Req.Fuel = 1;
      Pl.E = Expect::Timeout;
    } else if (Slot == MixPeriod / 2 - 1) {
      Pl.Req.K = Request::Kind::Compile;
      Pl.Req.Source = P.Source;
      Pl.E = Expect::Compiled;
    } else {
      Pl.Req.K = Request::Kind::Run;
      Pl.Req.B = driver::Backend::Bytecode;
      Pl.E = Expect::Value;
      Pl.Value = P.Expected;
    }
    return Pl;
  }
  /// True at a mix-cycle boundary: runs stop only there, so the planned
  /// 5% timeout share holds exactly.
  bool atCycleStart() const { return J % MixPeriod == 0; }

private:
  const std::vector<server::WorkProgram> &Work;
  std::vector<std::string> Tenants;
  Rng R;
  size_t J = 0;
};

std::string check(const Response &Resp, const Planned &Pl) {
  switch (Pl.E) {
  case Expect::Value: {
    if (Resp.St != Response::Status::Ok)
      return "RUN " + Pl.Req.Name + " answered " +
             std::string(server::statusToken(Resp.St)) + ": " + Resp.Payload;
    std::optional<int64_t> Got = server::extractInt(Resp.Payload);
    if (!Got || *Got != Pl.Value)
      return "RUN " + Pl.Req.Name + " gave '" + Resp.Payload +
             "', expected " + std::to_string(Pl.Value);
    return "";
  }
  case Expect::Timeout:
    return Resp.St == Response::Status::Timeout
               ? ""
               : "fuel-1 RUN " + Pl.Req.Name + " did not time out";
  case Expect::Compiled:
    return Resp.St == Response::Status::Ok &&
                   Resp.Payload.rfind("outcome=", 0) == 0
               ? ""
               : "COMPILE " + Pl.Req.Name + " failed: " + Resp.Payload;
  }
  return "unreachable";
}

/// One client's connection state: its own frame and response readers.
struct Client {
  server::FrameReader Frames;
  server::ResponseReader Responses;
};

/// The wire trip for one batch. Records each frame's latency (µs, from
/// the send) and failures into \p St. Traced, the spans are what each
/// request of the batch waits for: the whole batch's FrameReader and
/// Server::process spans, then one "server.respond" span per request,
/// from the first response's formatting to the receipt of its own.
void exchange(server::Server &Srv, Client &Cl, const std::vector<Planned> &B,
              OpStats &St, Tracer *T, uint64_t Op) {
  std::string Wire;
  for (const Planned &Pl : B)
    Wire += server::formatRequest(Pl.Req);

  int64_t Send = nowNs();
  SpanGuard Root(T, "levp.batch", Op);
  std::vector<Result<Request>> Parsed;
  {
    SpanGuard G(T, "server.frame_parse", Op);
    Cl.Frames.append(Wire);
    while (std::optional<Result<Request>> F = Cl.Frames.next())
      Parsed.push_back(std::move(*F));
  }
  std::vector<Response> Resps;
  {
    SpanGuard G(T, "server.process", Op);
    Resps = Srv.process(Parsed);
  }
  int64_t RespondStart = nowNs();
  for (size_t I = 0; I != B.size(); ++I) {
    St.Attempted += 1;
    if (I >= Resps.size()) {
      St.fail("server returned " + std::to_string(Resps.size()) +
              " responses for " + std::to_string(B.size()) + " frames");
      continue;
    }
    Cl.Responses.append(server::formatResponse(Resps[I]));
    std::optional<Result<Response>> Got = Cl.Responses.next();
    unsigned Retries = 0;
    while (Got && *Got && (*Got)->St == Response::Status::Busy &&
           Retries++ < BusyRetries) {
      ++St.Busy;
      std::this_thread::yield();
      std::vector<Result<Request>> One;
      Cl.Frames.append(server::formatRequest(B[I].Req));
      while (std::optional<Result<Request>> F = Cl.Frames.next())
        One.push_back(std::move(*F));
      std::vector<Response> R1 = Srv.process(One);
      Cl.Responses.append(server::formatResponse(R1.at(0)));
      Got = Cl.Responses.next();
    }
    if (!Got || !*Got) {
      St.fail("protocol error reading response");
      continue;
    }
    std::string Why = check(**Got, B[I]);
    if (!Why.empty()) {
      St.fail(Why);
      continue;
    }
    if (T)
      T->closed("server.respond", Op, RespondStart);
    St.ok(double(nowNs() - Send) / 1000.0);
  }
}

class LevpHot final : public Workload {
public:
  explicit LevpHot(const RunConfig &C)
      : Cfg(C), Clients(std::max(1u, C.Threads / 2)),
        Workers(std::max(1u, C.Threads - Clients)),
        Work(server::makeWorkload(NumPrograms)) {}

  bool setup(std::string &Why) override {
    Srv = makeServer();
    return registerAll(*Srv, Why);
  }

  OpStats timed(double Seconds, TraceLog *Log) override {
    std::vector<OpStats> Per(Clients);
    std::vector<Tracer> Tr(Clients);
    uint64_t Phase = ++Phases;
    driver::Session::Stats Before = Srv->session().stats();
    Clock::time_point T0 = Clock::now();
    runThreads(Clients, [&](unsigned C) {
      Stream S(Work, tenantsOf(C), Cfg.Seed * 1000003 + Phase * 131 + C);
      Client Cl;
      Tracer *T = Log ? &Tr[C] : nullptr;
      uint64_t Op = 0;
      std::vector<Planned> B;
      while (!S.atCycleStart() || secondsSince(T0) < Seconds) {
        B.clear();
        for (size_t I = 0; I != Depth; ++I)
          B.push_back(S.next());
        exchange(*Srv, Cl, B, Per[C], T, (uint64_t(C) << 40) | Op++);
      }
    });
    OpStats All;
    All.WallS = secondsSince(T0);
    for (const OpStats &P : Per)
      All.merge(P);
    if (Log)
      for (Tracer &T : Tr)
        Log->add(T);
    // Every compile lookup the request path made (RUNs and re-COMPILEs)
    // should have been a memory hit.
    driver::Session::Stats After = Srv->session().stats();
    uint64_t Hits = After.CacheHits - Before.CacheHits;
    uint64_t Looked = Hits + (After.Compilations - Before.Compilations) +
                      (After.DiskHits - Before.DiskHits);
    CacheHitRatio = Looked ? double(Hits) / double(Looked) : 0;
    return All;
  }

  std::string layers(double Seconds, const TraceLog &Log,
                     const OpStats &Traced, Metrics &M) override {
    // Per request: a pipelined request waits for its whole batch's parse
    // and process, then for the responses up to its own.
    double Process = Log.medianUs("server.process");
    M["server.frame_parse_us"] = {Log.medianUs("server.frame_parse"), "us"};
    M["server.process_us"] = {Process, "us"};
    M["server.respond_us"] = {Log.medianUs("server.respond"), "us"};
    layerSumRatio(M, Log,
                  {"server.frame_parse", "server.process", "server.respond"},
                  Traced);

    // Replays of the same request streams into the inner layers, on as
    // many client threads as the load had, so the derived self times
    // compare like with like. A runAll replay covers one batch, as
    // server.process does.
    double Slice = Seconds / 3;
    driver::Session &S = Srv->session();
    double RunAll = replay(Slice, [&](unsigned, Stream &St, OpStats &Out) {
      std::vector<driver::Session::RunRequest> Runs;
      std::vector<std::string> Compiles;
      for (size_t I = 0; I != Depth; ++I) {
        Planned Pl = St.next();
        const server::WorkProgram &P = program(Pl.Req.Name);
        if (Pl.Req.K == Request::Kind::Compile) {
          Compiles.push_back(P.Source);
          continue;
        }
        driver::Session::RunRequest RR;
        RR.Source = P.Source;
        RR.Name = P.Name;
        RR.B = Pl.Req.B;
        RR.Fuel = Pl.Req.Fuel;
        Runs.push_back(std::move(RR));
      }
      int64_t T0 = nowNs();
      for (const std::string &Src : Compiles)
        S.compile(Src);
      std::vector<driver::RunResult> Rs = S.runAll(Runs);
      Out.ok(double(nowNs() - T0) / 1000.0);
      for (size_t I = 0; I != Rs.size(); ++I) {
        bool Starved = Runs[I].Fuel.has_value();
        bool Right = Starved ? Rs[I].St == driver::RunResult::Status::OutOfFuel
                             : Rs[I].ok() && Rs[I].IntValue ==
                                                 program(Runs[I].Name).Expected;
        if (!Right)
          Out.fail("runAll replay of " + Runs[I].Name + " is wrong");
      }
    });
    double Hit = replay(Slice, [&](unsigned, Stream &St, OpStats &Out) {
      const server::WorkProgram &P = program(St.next().Req.Name);
      int64_t T0 = nowNs();
      std::shared_ptr<driver::Compilation> Comp = S.compile(P.Source);
      Out.ok(double(nowNs() - T0) / 1000.0);
      if (!Comp->ok())
        Out.fail("compile failed");
    });
    std::vector<std::map<std::string, driver::Executor>> Execs(Clients);
    double Exec = replay(Slice, [&](unsigned C, Stream &St, OpStats &Out) {
      const server::WorkProgram &P = program(St.next().Req.Name);
      auto It = Execs[C].find(P.Name);
      if (It == Execs[C].end())
        It = Execs[C]
                 .emplace(P.Name, driver::Executor(S.compile(P.Source)))
                 .first;
      int64_t T0 = nowNs();
      driver::RunResult R = It->second.run(P.Name, driver::Backend::Bytecode);
      Out.ok(double(nowNs() - T0) / 1000.0);
      if (!R.ok() || R.IntValue != P.Expected)
        Out.fail("long-lived Executor run of " + P.Name + " is wrong");
    });
    M["driver.run_all_us"] = {RunAll, "us"};
    M["driver.compile_hit_us"] = {Hit, "us"};
    M["bytecode.exec_run_us"] = {Exec, "us"};
    M["server.dispatch_self_us"] = {Process - RunAll, "us"};
    M["driver.dispatch_self_us"] = {RunAll - Exec, "us"};

    M["driver.cache_hit_ratio"] = {CacheHitRatio, "fraction"};
    M["server.busy_ratio"] = {
        Traced.Attempted ? double(Traced.Busy) / double(Traced.Attempted) : 0,
        "fraction"};
    Ledger L = ledger();
    double Runs = double(std::max<uint64_t>(1, L["runs"]));
    M["server.timeout_ratio"] = {double(L["timeouts"]) / double(L["frames"]),
                                 "fraction"};
    M["bytecode.steps_per_run"] = {double(L["steps"]) / Runs, "count"};
    M["bytecode.allocs_per_run"] = {double(L["allocs"]) / Runs, "count"};
    M["server.peak_heap_bytes"] = {double(L["peak_heap_bytes"]), "bytes"};
    if (CacheHitRatio != 1)
      return "a request-path compile lookup missed the memory cache";
    if (L["timeouts"] * MixPeriod != L["frames"])
      return "the TIMEOUT share is not the planned 1 in 20";
    return Replay.FirstFailure;
  }

  /// A fresh server driven by one single-threaded client per tenant
  /// over a fixed request prefix; every counter below is deterministic.
  Ledger ledger() override {
    std::unique_ptr<server::Server> Fresh = makeServer();
    std::string Why;
    Ledger L;
    if (!registerAll(*Fresh, Why)) {
      L["setup_failed"] = 1;
      return L;
    }
    driver::Session::Stats Before = Fresh->session().stats();
    OpStats St;
    for (unsigned C = 0; C != NumTenants; ++C) {
      Stream S(Work, {tenant(C)}, Cfg.Seed * 7919 + C);
      Client Cl;
      std::vector<Planned> B;
      for (size_t K = 0; K != LedgerBatches; ++K) {
        B.clear();
        for (size_t I = 0; I != Depth; ++I)
          B.push_back(S.next());
        exchange(*Fresh, Cl, B, St, nullptr, 0);
      }
    }
    driver::Session::Stats After = Fresh->session().stats();
    server::TenantStats Sum;
    for (const auto &[Name, T] : Fresh->allTenantStats()) {
      Sum.Steps += T.Steps;
      Sum.Allocations += T.Allocations;
      Sum.RunsBytecode += T.RunsBytecode;
      Sum.Timeouts += T.Timeouts;
      Sum.PeakHeapBytes = std::max(Sum.PeakHeapBytes, T.PeakHeapBytes);
    }
    L["frames"] = St.Attempted;
    L["failed"] = St.Failed;
    L["runs"] = Sum.RunsBytecode;
    L["timeouts"] = Sum.Timeouts;
    L["steps"] = Sum.Steps;
    L["allocs"] = Sum.Allocations;
    L["peak_heap_bytes"] = Sum.PeakHeapBytes;
    L["cache_hits"] = After.CacheHits - Before.CacheHits;
    L["front_end_compiles"] = After.Compilations - Before.Compilations;
    return L;
  }

private:
  std::unique_ptr<server::Server> makeServer() const {
    server::ServerOptions O;
    O.Compile.AsyncWorkers = Workers;
    O.Compile.DefaultBackend = driver::Backend::Bytecode;
    return std::make_unique<server::Server>(O);
  }

  static std::string tenant(unsigned C) {
    std::string T = "t";
    T += std::to_string(C % NumTenants);
    return T;
  }

  /// The tenants client \p C sends for: every Clients-th one, so all
  /// NumTenants get traffic whatever the client count.
  std::vector<std::string> tenantsOf(unsigned C) const {
    std::vector<std::string> Ts;
    for (unsigned T = C % NumTenants; T < NumTenants; T += Clients)
      Ts.push_back(tenant(T));
    return Ts;
  }

  const server::WorkProgram &program(const std::string &Name) const {
    return Work[std::stoul(Name.substr(1))];
  }

  /// COMPILE every program for every tenant over the wire path, then run
  /// each once on bytecode (warm-up: every later COMPILE is a cache hit).
  bool registerAll(server::Server &Srv, std::string &Why) const {
    OpStats St;
    for (unsigned Tn = 0; Tn != NumTenants; ++Tn) {
      Client Cl;
      std::vector<Planned> B;
      for (const server::WorkProgram &P : Work) {
        Planned C;
        C.Req.K = Request::Kind::Compile;
        C.Req.Tenant = tenant(Tn);
        C.Req.Name = P.Name;
        C.Req.Source = P.Source;
        C.E = Expect::Compiled;
        Planned R;
        R.Req.K = Request::Kind::Run;
        R.Req.Tenant = tenant(Tn);
        R.Req.Name = P.Name;
        R.Req.B = driver::Backend::Bytecode;
        R.Value = P.Expected;
        exchange(Srv, Cl, {C, R}, St, nullptr, 0);
      }
    }
    if (St.Failed)
      Why = "registration: " + St.FirstFailure;
    return St.Failed == 0;
  }

  /// Runs \p Body on one thread per client for \p Seconds, each with its
  /// own request stream; returns the median per-op time.
  double replay(double Seconds,
                const std::function<void(unsigned, Stream &, OpStats &)>
                    &Body) {
    std::vector<OpStats> Per(Clients);
    Clock::time_point T0 = Clock::now();
    runThreads(Clients, [&](unsigned C) {
      Stream S(Work, tenantsOf(C), Cfg.Seed * 1000003 + 977 * (C + 1));
      while (secondsSince(T0) < Seconds)
        Body(C, S, Per[C]);
    });
    OpStats All;
    for (const OpStats &P : Per)
      All.merge(P);
    Replay.merge(All);
    return median(All.LatUs);
  }

  RunConfig Cfg;
  unsigned Clients; ///< Closed-loop client threads.
  unsigned Workers; ///< Session pool threads that run RUN batches.
  std::vector<server::WorkProgram> Work;
  std::unique_ptr<server::Server> Srv;
  uint64_t Phases = 0;
  double CacheHitRatio = 0; ///< Of the last timed phase.
  OpStats Replay; ///< Failures seen by the inner-layer replays.
};

} // namespace

std::unique_ptr<Workload> perfbench::makeLevpHot(const RunConfig &C) {
  return std::make_unique<LevpHot>(C);
}
