//===- Server.cpp - levityd: multi-tenant compile-and-run server ----------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "server/Net.h"
#include "support/FileOps.h"

#include <istream>
#include <ostream>
#include <sstream>

using namespace levity;
using namespace levity::server;

Server::Server(ServerOptions O) : Opts(std::move(O)), S(Opts.Compile) {}

Server::~Server() {
  requestShutdown();
  if (AcceptThread.joinable())
    AcceptThread.join();
  for (Conn &C : Conns)
    C.T.join();
  closeFd(ListenFd);
  if (!ListenPath.empty())
    support::removeFile(ListenPath);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

bool Server::tryAdmit() {
  if (Opts.MaxQueueDepth == 0) {
    InFlight.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  size_t Cur = InFlight.load(std::memory_order_relaxed);
  do {
    if (Cur >= Opts.MaxQueueDepth)
      return false;
  } while (!InFlight.compare_exchange_weak(Cur, Cur + 1,
                                           std::memory_order_relaxed));
  return true;
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

std::optional<std::string>
Server::lookupProgram(const std::string &Tenant,
                      const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RegM);
  auto TIt = Programs.find(Tenant);
  if (TIt == Programs.end())
    return std::nullopt;
  auto PIt = TIt->second.find(Name);
  if (PIt == TIt->second.end())
    return std::nullopt;
  return PIt->second;
}

Response Server::doCompile(const Request &R) {
  if (!tryAdmit()) {
    withTenant(R.Tenant, [](TenantStats &T) { ++T.Rejected; });
    return {Response::Status::Busy, "queue full"};
  }
  driver::CompileOutcome Outcome;
  std::shared_ptr<driver::Compilation> Comp = S.compile(R.Source, Outcome);
  release();

  bool Ok = Comp->ok();
  withTenant(R.Tenant, [&](TenantStats &T) {
    ++T.CompileRequests;
    switch (Outcome) {
    case driver::CompileOutcome::FrontEnd:
      ++T.FrontEndCompiles;
      break;
    case driver::CompileOutcome::CacheHit:
      ++T.CacheHits;
      break;
    case driver::CompileOutcome::DiskHit:
      ++T.DiskHits;
      break;
    }
    if (!Ok)
      ++T.CompileErrors;
  });

  if (!Ok)
    return {Response::Status::Error, "compile-error: " + Comp->diagText()};

  {
    std::lock_guard<std::mutex> Lock(RegM);
    Programs[R.Tenant][R.Name] = R.Source; // Re-COMPILE overwrites.
  }
  std::string Payload = "outcome=";
  switch (Outcome) {
  case driver::CompileOutcome::FrontEnd:
    Payload += "front-end";
    break;
  case driver::CompileOutcome::CacheHit:
    Payload += "cache-hit";
    break;
  case driver::CompileOutcome::DiskHit:
    Payload += "disk-hit";
    break;
  }
  return {Response::Status::Ok, std::move(Payload)};
}

Response Server::foldRunResult(const std::string &Tenant,
                               const driver::RunResult &R,
                               driver::CompileOutcome Outcome) {
  withTenant(Tenant, [&](TenantStats &T) {
    switch (Outcome) {
    case driver::CompileOutcome::FrontEnd:
      ++T.FrontEndCompiles;
      break;
    case driver::CompileOutcome::CacheHit:
      ++T.CacheHits;
      break;
    case driver::CompileOutcome::DiskHit:
      ++T.DiskHits;
      break;
    }
    switch (R.Used) {
    case driver::Backend::TreeInterp:
      ++T.RunsTree;
      break;
    case driver::Backend::AbstractMachine:
      ++T.RunsMachine;
      break;
    case driver::Backend::Bytecode:
      ++T.RunsBytecode;
      break;
    }
    T.Steps += R.steps();
    T.Allocations += R.allocations();
    if (R.peakHeapCells() > T.PeakHeapCells)
      T.PeakHeapCells = R.peakHeapCells();
    if (R.peakHeapBytes() > T.PeakHeapBytes)
      T.PeakHeapBytes = R.peakHeapBytes();
    if (R.St == driver::RunResult::Status::OutOfFuel)
      ++T.Timeouts;
    else if (R.St != driver::RunResult::Status::Ok)
      ++T.RunErrors;
  });

  switch (R.St) {
  case driver::RunResult::Status::Ok:
    return {Response::Status::Ok, R.Display};
  case driver::RunResult::Status::OutOfFuel:
    // The fuel deadline fired. Pinned payload: clients branch on the
    // TIMEOUT status, not this text.
    return {Response::Status::Timeout, "out of fuel"};
  case driver::RunResult::Status::Bottom:
    return {Response::Status::Error, "bottom: " + R.Error};
  case driver::RunResult::Status::RuntimeError:
    return {Response::Status::Error, "runtime-error: " + R.Error};
  case driver::RunResult::Status::Unsupported:
    return {Response::Status::Error, "unsupported: " + R.Error};
  }
  return {Response::Status::Error, "internal: unclassified run result"};
}

void Server::doRunBatch(const std::vector<const Request *> &Batch,
                        std::vector<Response *> &Out) {
  // Admit + resolve each request first, so admission sees the whole
  // batch before any of it runs; the surviving subset then runs as ONE
  // runAll batch, in order, on this connection's thread.
  struct Slot {
    size_t Index;                    ///< Position in Batch/Out.
    driver::CompileOutcome Outcome;  ///< Written by runAll.
  };
  std::vector<Slot> Admitted;
  std::vector<driver::Session::RunRequest> Runs;
  Admitted.reserve(Batch.size());
  Runs.reserve(Batch.size());

  for (size_t I = 0; I != Batch.size(); ++I) {
    const Request &R = *Batch[I];
    if (!tryAdmit()) {
      withTenant(R.Tenant, [](TenantStats &T) { ++T.Rejected; });
      *Out[I] = {Response::Status::Busy, "queue full"};
      continue;
    }
    std::optional<std::string> Src = lookupProgram(R.Tenant, R.Name);
    if (!Src) {
      release();
      withTenant(R.Tenant, [](TenantStats &T) { ++T.UnknownPrograms; });
      *Out[I] = {Response::Status::Error,
                 "unknown-program: '" + R.Name + "' is not registered for "
                 "tenant '" + R.Tenant + "'"};
      continue;
    }
    Admitted.push_back({I, driver::CompileOutcome::CacheHit});
    driver::Session::RunRequest RR;
    RR.Source = std::move(*Src);
    RR.Name = R.Name;
    RR.B = R.B;
    if (R.Fuel)
      RR.Fuel = R.Fuel;
    else if (Opts.DefaultRunFuel)
      RR.Fuel = Opts.DefaultRunFuel;
    Runs.push_back(std::move(RR));
  }
  // Wire up outcome pointers only after Admitted stops growing (the
  // pointees must stay put across runAll).
  for (size_t J = 0; J != Runs.size(); ++J)
    Runs[J].Outcome = &Admitted[J].Outcome;

  if (Runs.empty())
    return;
  std::vector<driver::RunResult> Results = S.runAll(Runs);
  for (size_t J = 0; J != Runs.size(); ++J) {
    release();
    const Request &R = *Batch[Admitted[J].Index];
    *Out[Admitted[J].Index] =
        foldRunResult(R.Tenant, Results[J], Admitted[J].Outcome);
  }
}

namespace {
void statLine(std::ostringstream &OS, std::string_view Key, uint64_t V) {
  OS << Key << ' ' << V << '\n';
}
void tenantLines(std::ostringstream &OS, const TenantStats &T) {
  statLine(OS, "compile-requests", T.CompileRequests);
  statLine(OS, "front-end-compiles", T.FrontEndCompiles);
  statLine(OS, "cache-hits", T.CacheHits);
  statLine(OS, "disk-hits", T.DiskHits);
  statLine(OS, "compile-errors", T.CompileErrors);
  statLine(OS, "runs-tree", T.RunsTree);
  statLine(OS, "runs-machine", T.RunsMachine);
  statLine(OS, "runs-bytecode", T.RunsBytecode);
  statLine(OS, "run-errors", T.RunErrors);
  statLine(OS, "timeouts", T.Timeouts);
  statLine(OS, "rejected", T.Rejected);
  statLine(OS, "unknown-programs", T.UnknownPrograms);
  statLine(OS, "steps", T.Steps);
  statLine(OS, "allocs", T.Allocations);
  statLine(OS, "peak-heap-cells", T.PeakHeapCells);
  statLine(OS, "peak-heap-bytes", T.PeakHeapBytes);
}
} // namespace

Response Server::doStats(const Request &R) {
  std::ostringstream OS;
  if (R.Tenant == "*") {
    // The server-wide snapshot: the tenant ledgers summed, the session's
    // own counters, and the server-only counters. The sums reconcile
    // with the session counters by construction (every session use goes
    // through a tenant ledger).
    TenantStats Sum;
    size_t NumTenants = 0;
    {
      std::lock_guard<std::mutex> Lock(StatsM);
      NumTenants = Tenants.size();
      for (const auto &[Name, T] : Tenants) {
        Sum.CompileRequests += T.CompileRequests;
        Sum.FrontEndCompiles += T.FrontEndCompiles;
        Sum.CacheHits += T.CacheHits;
        Sum.DiskHits += T.DiskHits;
        Sum.CompileErrors += T.CompileErrors;
        Sum.RunsTree += T.RunsTree;
        Sum.RunsMachine += T.RunsMachine;
        Sum.RunsBytecode += T.RunsBytecode;
        Sum.RunErrors += T.RunErrors;
        Sum.Timeouts += T.Timeouts;
        Sum.Rejected += T.Rejected;
        Sum.UnknownPrograms += T.UnknownPrograms;
        Sum.Steps += T.Steps;
        Sum.Allocations += T.Allocations;
        // Peaks max together, not sum: the server-wide figure is the
        // worst single run any tenant saw.
        if (T.PeakHeapCells > Sum.PeakHeapCells)
          Sum.PeakHeapCells = T.PeakHeapCells;
        if (T.PeakHeapBytes > Sum.PeakHeapBytes)
          Sum.PeakHeapBytes = T.PeakHeapBytes;
      }
    }
    statLine(OS, "tenants", NumTenants);
    statLine(OS, "bad-requests", badRequests());
    statLine(OS, "in-flight", inFlight());
    tenantLines(OS, Sum);
    driver::Session::Stats St = S.stats();
    statLine(OS, "session-compilations", St.Compilations);
    statLine(OS, "session-cache-hits", St.CacheHits);
    statLine(OS, "session-evictions", St.Evictions);
    statLine(OS, "session-disk-hits", St.DiskHits);
    statLine(OS, "session-disk-misses", St.DiskMisses);
    statLine(OS, "session-disk-evictions", St.DiskEvictions);
  } else {
    tenantLines(OS, tenantStats(R.Tenant));
  }
  return {Response::Status::Ok, OS.str()};
}

Response Server::doEvict(const Request &R) {
  size_t MaxEntries = static_cast<size_t>(
      R.EvictMaxEntries.value_or(Opts.Compile.MaxStoredArtifacts));
  uint64_t MaxBytes = R.EvictMaxBytes.value_or(Opts.Compile.MaxStoreBytes);
  size_t N = S.evictStore(MaxEntries, MaxBytes);
  return {Response::Status::Ok, "evicted=" + std::to_string(N)};
}

std::vector<Response>
Server::process(const std::vector<Result<Request>> &Frames) {
  std::vector<Response> Out(Frames.size());

  // One pass, batching maximal runs of consecutive RUN frames.
  std::vector<const Request *> RunBatch;
  std::vector<Response *> RunOut;
  auto FlushRuns = [&] {
    if (RunBatch.empty())
      return;
    doRunBatch(RunBatch, RunOut);
    RunBatch.clear();
    RunOut.clear();
  };

  for (size_t I = 0; I != Frames.size(); ++I) {
    const Result<Request> &F = Frames[I];
    if (!F) {
      FlushRuns();
      BadRequests.fetch_add(1, std::memory_order_relaxed);
      Out[I] = {Response::Status::BadRequest, F.error()};
      continue;
    }
    const Request &R = *F;
    if (R.K == Request::Kind::Run) {
      RunBatch.push_back(&R);
      RunOut.push_back(&Out[I]);
      continue;
    }
    FlushRuns();
    switch (R.K) {
    case Request::Kind::Compile:
      Out[I] = doCompile(R);
      break;
    case Request::Kind::Stats:
      Out[I] = doStats(R);
      break;
    case Request::Kind::Evict:
      Out[I] = doEvict(R);
      break;
    case Request::Kind::Shutdown:
      requestShutdown();
      Out[I] = {Response::Status::Bye, "shutting down"};
      break;
    case Request::Kind::Run:
      break; // Handled above.
    }
  }
  FlushRuns();
  return Out;
}

Response Server::handle(const Request &R) {
  std::vector<Result<Request>> Frames;
  Frames.emplace_back(R);
  return process(Frames).front();
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

void Server::serveStream(std::istream &In, std::ostream &Out) {
  FrameReader Reader(Opts.Limits);
  std::string Line;
  std::vector<Result<Request>> Frames;

  while (!shutdownRequested() && std::getline(In, Line)) {
    Reader.append(Line);
    Reader.append("\n");
    // Slurp whatever further input is already buffered so pipelined RUN
    // frames reach process() as one batch.
    while (In.rdbuf()->in_avail() > 0 && std::getline(In, Line)) {
      Reader.append(Line);
      Reader.append("\n");
    }

    Frames.clear();
    while (std::optional<Result<Request>> F = Reader.next())
      Frames.push_back(std::move(*F));
    if (Frames.empty())
      continue; // Incomplete frame (e.g. a COMPILE payload mid-flight).

    bool Bye = false;
    for (const Response &R : process(Frames)) {
      Out << formatResponse(R);
      Bye = Bye || R.St == Response::Status::Bye;
    }
    Out.flush();
    if (Bye)
      break;
  }
}

void Server::serveFd(int Fd) {
  FrameReader Reader(Opts.Limits);
  char Buf[16384];
  std::vector<Result<Request>> Frames;

  for (;;) {
    // Drain every complete frame before touching the fd again.
    Frames.clear();
    while (std::optional<Result<Request>> F = Reader.next())
      Frames.push_back(std::move(*F));
    if (!Frames.empty()) {
      std::string Wire;
      bool Bye = false;
      for (const Response &R : process(Frames)) {
        Wire += formatResponse(R);
        Bye = Bye || R.St == Response::Status::Bye;
      }
      if (!writeAll(Fd, Wire) || Bye)
        return;
      continue;
    }

    if (shutdownRequested())
      return;
    Result<size_t> N = readSomeWithTimeout(Fd, Buf, sizeof(Buf), 200);
    if (!N)
      return; // Read error: drop the connection.
    if (*N == SIZE_MAX)
      continue; // Poll timeout: re-check the shutdown flag.
    if (*N == 0)
      return; // Orderly EOF.
    Reader.append(std::string_view(Buf, *N));
    // Opportunistically slurp bytes that are already queued (0ms poll)
    // so a burst of pipelined frames lands in one batch.
    for (;;) {
      Result<size_t> More = readSomeWithTimeout(Fd, Buf, sizeof(Buf), 0);
      if (!More || *More == SIZE_MAX || *More == 0)
        break;
      Reader.append(std::string_view(Buf, *More));
    }
  }
}

Result<bool> Server::listenUnix(const std::string &Path) {
  Result<int> Fd = unixListen(Path);
  if (!Fd)
    return err(Fd.error());
  ListenFd = *Fd;
  ListenPath = Path;
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!shutdownRequested()) {
    Result<int> Fd = acceptWithTimeout(ListenFd, 200);
    if (!Fd)
      return; // Listener failed (or was closed under us).
    // Join finished connections, so none keeps its stack until shutdown.
    Conns.remove_if([](Conn &C) {
      if (!C.Done.load(std::memory_order_acquire))
        return false;
      C.T.join();
      return true;
    });
    if (*Fd < 0)
      continue; // Timeout: re-check the shutdown flag.
    Conn &C = Conns.emplace_back();
    C.T = std::thread([this, Fd = *Fd, &C] {
      serveFd(Fd);
      closeFd(Fd);
      C.Done.store(true, std::memory_order_release);
    });
  }
}

//===----------------------------------------------------------------------===//
// Lifecycle and introspection
//===----------------------------------------------------------------------===//

void Server::requestShutdown() {
  {
    std::lock_guard<std::mutex> Lock(ShutdownM);
    Shutdown.store(true, std::memory_order_release);
  }
  ShutdownCV.notify_all();
}

void Server::waitForShutdown() {
  std::unique_lock<std::mutex> Lock(ShutdownM);
  ShutdownCV.wait(Lock, [this] { return shutdownRequested(); });
}

TenantStats Server::tenantStats(std::string_view Tenant) const {
  std::lock_guard<std::mutex> Lock(StatsM);
  auto It = Tenants.find(std::string(Tenant));
  return It == Tenants.end() ? TenantStats() : It->second;
}

std::vector<std::pair<std::string, TenantStats>>
Server::allTenantStats() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return {Tenants.begin(), Tenants.end()};
}
