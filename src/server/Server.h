//===- Server.h - levityd: multi-tenant compile-and-run server --*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived front end over driver::Session — the ROADMAP's
/// "compile-and-run as a service" stage. One Server owns one shared
/// Session (in-memory compilation cache as L1, the on-disk `.levc`
/// store as L2) and serves any number of tenants over the LEVP/1 line
/// protocol (server/Protocol.h, spec in docs/SERVER.md):
///
///   * **COMPILE** registers a named program for a tenant and compiles
///     it through the shared caches; the response reports whether the
///     call hit the front end, the memory cache, or the disk store.
///   * **RUN** evaluates a registered program on a chosen backend with a
///     per-request *fuel deadline*: a runaway program stops itself after
///     that many backend steps and comes back as a typed `TIMEOUT`
///     response — a connection thread is never wedged.
///   * **STATS** returns the tenant's accounting ledger (TenantStats);
///     `STATS *` returns the server-wide snapshot, whose totals
///     reconcile exactly with Session::Stats.
///   * **EVICT** enforces the on-disk store budgets now.
///   * **SHUTDOWN** drains and stops the server.
///
/// Every request executes on the thread that received it: compiles go
/// through Session::compile and runs through Session::runAll —
/// pipelined RUN frames on one connection are drained first, admitted
/// together, and run in order as a *single* runAll batch. Admission
/// control caps the number of requests in flight across all connections
/// (ServerOptions::MaxQueueDepth); beyond the cap a request is rejected
/// immediately with a typed `BUSY` response instead of queueing without
/// bound.
///
/// Front ends: serveStream (the stdin/stdout REPL), serveFd /
/// listenUnix (a local Unix-domain socket, one thread per connection).
/// All of them funnel into the same process() path, so every transport
/// shares one admission gate and one accounting ledger.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SERVER_SERVER_H
#define LEVITY_SERVER_SERVER_H

#include "driver/Session.h"
#include "server/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <iosfwd>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace levity {
namespace server {

/// Per-tenant accounting. Monotonic like Session::Stats; snapshot via
/// Server::tenantStats and read fields from the copy. The compile
/// outcome fields count *every* Session::compile performed on the
/// tenant's behalf (explicit COMPILEs and the cache lookups RUNs do),
/// so summing them across tenants reconciles with the session counters:
/// Σ FrontEndCompiles == Stats::Compilations, Σ CacheHits ==
/// Stats::CacheHits, Σ DiskHits == Stats::DiskHits.
struct TenantStats {
  uint64_t CompileRequests = 0; ///< COMPILE frames served (any outcome).
  uint64_t FrontEndCompiles = 0; ///< Compiles the front end performed.
  uint64_t CacheHits = 0;        ///< Served from the in-memory cache.
  uint64_t DiskHits = 0;         ///< Rehydrated from the `.levc` store.
  uint64_t CompileErrors = 0;    ///< COMPILEs whose program failed.
  uint64_t RunsTree = 0;     ///< Runs executed by the tree interpreter.
  uint64_t RunsMachine = 0;  ///< Runs executed by the M machine.
  uint64_t RunsBytecode = 0; ///< Runs executed by the bytecode VM.
  uint64_t RunErrors = 0;    ///< Runs ending in bottom/stuck/unsupported.
  uint64_t Timeouts = 0;     ///< Runs stopped by their fuel deadline.
  uint64_t Rejected = 0;     ///< Requests refused by admission control.
  uint64_t UnknownPrograms = 0; ///< RUNs naming an unregistered program.
  uint64_t Steps = 0;       ///< Cumulative RunResult::steps().
  uint64_t Allocations = 0; ///< Cumulative RunResult::allocations().
  /// High-water marks over the tenant's runs (max, not sum — peaks do
  /// not add across runs). In the executing backend's cell unit /
  /// bytes; a plateau here under a run loop is the memory-reclamation
  /// guarantee made observable at the server tier.
  uint64_t PeakHeapCells = 0; ///< Max RunResult::peakHeapCells() seen.
  uint64_t PeakHeapBytes = 0; ///< Max RunResult::peakHeapBytes() seen.
};

/// Knobs for a Server (one struct so levityd flags map 1:1).
struct ServerOptions {
  /// Session knobs: backend, fuel defaults, cache bounds, StorePath (the
  /// L2 store) and its write-behind pool size (AsyncWorkers). A RUN that
  /// names no backend runs on the bytecode VM, the production engine;
  /// with a store, that default also persists every global's bytecode.
  driver::CompileOptions Compile = [] {
    driver::CompileOptions O;
    O.DefaultBackend = driver::Backend::Bytecode;
    return O;
  }();
  /// Admission cap: the maximum number of COMPILE/RUN requests admitted
  /// concurrently across every connection (queued or executing). Beyond
  /// it requests get an immediate typed BUSY response. 0 = unbounded.
  size_t MaxQueueDepth = 128;
  /// Default per-run fuel deadline applied when a RUN frame names none;
  /// 0 = use the session's per-backend fuel knobs unchanged.
  uint64_t DefaultRunFuel = 0;
  /// Wire-format limits enforced before any execution.
  FrameLimits Limits;
};

/// The multi-tenant compile-and-run server. Thread-safe throughout: any
/// number of connection threads (and direct handle() callers) may use
/// one Server concurrently.
class Server {
public:
  explicit Server(ServerOptions O);
  /// Stops the listener and joins every connection thread.
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  //===------------------------------------------------------------------===//
  // Request execution
  //===------------------------------------------------------------------===//

  /// Executes one parsed request through the full path (admission
  /// control included) and returns its response. The unit-test and
  /// embedding entry point; the transports below all reduce to this.
  Response handle(const Request &R);

  /// Executes a batch of drained frames in order on the calling thread,
  /// returning one response per frame (parse errors become BADREQ
  /// responses). Each maximal run of consecutive RUN frames is admitted
  /// as a whole before any of it runs, then goes through one
  /// Session::runAll call.
  std::vector<Response>
  process(const std::vector<Result<Request>> &Frames);

  //===------------------------------------------------------------------===//
  // Transports
  //===------------------------------------------------------------------===//

  /// The stdin/stdout line-protocol REPL: reads frames from \p In until
  /// EOF or SHUTDOWN, writing each response to \p Out (flushed per
  /// batch). Already-buffered pipelined frames are drained and executed
  /// as one batch.
  void serveStream(std::istream &In, std::ostream &Out);

  /// Serves one connection on \p Fd (same framing, EINTR-safe reads with
  /// periodic shutdown checks). Returns on EOF, error, or shutdown; the
  /// caller owns (and closes) the fd.
  void serveFd(int Fd);

  /// Starts the Unix-domain socket listener at \p Path: binds, listens,
  /// and spawns the accept loop (one thread per connection). Fails when
  /// sockets are unavailable or the path cannot be bound.
  Result<bool> listenUnix(const std::string &Path);

  //===------------------------------------------------------------------===//
  // Lifecycle
  //===------------------------------------------------------------------===//

  /// Asks the server to stop: in-flight requests finish, transports
  /// notice within their poll interval, waitForShutdown unblocks.
  /// (The SHUTDOWN request calls this.)
  void requestShutdown();
  /// True once SHUTDOWN (or requestShutdown) happened.
  bool shutdownRequested() const {
    return Shutdown.load(std::memory_order_acquire);
  }
  /// Blocks until shutdown is requested.
  void waitForShutdown();

  //===------------------------------------------------------------------===//
  // Introspection
  //===------------------------------------------------------------------===//

  /// Snapshot of one tenant's ledger (zeroes for an unknown tenant).
  TenantStats tenantStats(std::string_view Tenant) const;
  /// Snapshot of every tenant's ledger, sorted by tenant name.
  std::vector<std::pair<std::string, TenantStats>> allTenantStats() const;
  /// Malformed frames received (BADREQ responses sent), server-wide.
  uint64_t badRequests() const {
    return BadRequests.load(std::memory_order_relaxed);
  }
  /// Requests currently admitted (queued or executing).
  size_t inFlight() const { return InFlight.load(std::memory_order_relaxed); }

  /// The shared session behind the server (for embedding and tests).
  driver::Session &session() { return S; }
  const ServerOptions &options() const { return Opts; }

private:
  /// Admission control: reserves one in-flight slot, or refuses when the
  /// queue-depth cap is reached.
  bool tryAdmit();
  void release() { InFlight.fetch_sub(1, std::memory_order_relaxed); }

  Response doCompile(const Request &R);
  Response doStats(const Request &R);
  Response doEvict(const Request &R);
  /// Executes \p Batch (parallel slots of Requests/Responses): admits
  /// every request first, then runs the admitted RUNs in order through
  /// one Session::runAll call; unknown programs and admission rejections
  /// are answered in place.
  void doRunBatch(const std::vector<const Request *> &Batch,
                  std::vector<Response *> &Out);

  /// Folds one finished run into its tenant's ledger and renders the
  /// protocol response.
  Response foldRunResult(const std::string &Tenant,
                         const driver::RunResult &R,
                         driver::CompileOutcome Outcome);

  /// Looks up a registered program's source. Empty optional = unknown.
  std::optional<std::string> lookupProgram(const std::string &Tenant,
                                           const std::string &Name) const;

  /// Mutates one tenant's ledger under StatsM.
  template <typename Fn> void withTenant(const std::string &Tenant, Fn F) {
    std::lock_guard<std::mutex> Lock(StatsM);
    F(Tenants[Tenant]);
  }

  void acceptLoop();

  ServerOptions Opts;
  driver::Session S;

  /// tenant → program name → source text. COMPILE registers; RUN
  /// resolves. Guarded by RegM.
  mutable std::mutex RegM;
  std::map<std::string, std::map<std::string, std::string>> Programs;

  mutable std::mutex StatsM;
  std::map<std::string, TenantStats> Tenants;
  std::atomic<uint64_t> BadRequests{0};

  std::atomic<size_t> InFlight{0};

  std::atomic<bool> Shutdown{false};
  std::mutex ShutdownM;
  std::condition_variable ShutdownCV;

  int ListenFd = -1;
  std::string ListenPath;
  std::thread AcceptThread;
  /// Connection threads. Each sets Done last and the accept loop joins
  /// it; only the accept thread, then the destructor, touches Conns.
  struct Conn {
    std::thread T;
    std::atomic<bool> Done{false};
  };
  std::list<Conn> Conns;
};

} // namespace server
} // namespace levity

#endif // LEVITY_SERVER_SERVER_H
