//===- LoadGen.h - Client-side load generator for levityd -------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the server stack: a deterministic multi-client
/// workload driver speaking LEVP/1, behind examples/load_driver.cpp
/// (the CLI) and reused by the server tests; perfbench's levp-hot
/// workload reuses its makeWorkload programs.
///
/// The workload is a family of *distinct* programs with known answers
/// (makeWorkload), so a run checks real results: every OK response is
/// verified against the program's expected value, and a mismatch is a
/// **WrongAnswer** — the one counter that must stay zero at any client
/// count. Traffic is a deterministic cold/warm/run mix per client
/// (registration COMPILEs, warm re-COMPILEs, RUNs rotating across the
/// three backends, optional fuel-starved RUNs that must come back as
/// typed TIMEOUTs), with pipelined batches to exercise the server's
/// batch admission and BUSY-aware retries to exercise admission control.
///
/// Client is transport-neutral: InProcessClient calls straight into a
/// Server (no I/O — the benchmark path), SocketClient speaks the wire
/// protocol over a Unix-domain socket (the levityd path). Both go
/// through the same exchange() discipline, so the two load paths measure
/// the same protocol work.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SERVER_LOADGEN_H
#define LEVITY_SERVER_LOADGEN_H

#include "server/Protocol.h"
#include "server/Server.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace levity {
namespace server {

/// One program of the canonical workload: a named source with a known
/// integer answer bound to a top-level global of the same name (RUN
/// evaluates the global named like the registered program).
struct WorkProgram {
  std::string Name;   ///< Registry name (unique within the workload).
  std::string Source; ///< Program text (unique, so compiles are real).
  int64_t Expected;   ///< Known value of `v`.
};

/// Builds \p Count distinct accumulator-loop programs (program i sums
/// 1..50+i, so sources, names, and answers all differ). Deterministic:
/// every call with the same count yields the same workload.
std::vector<WorkProgram> makeWorkload(size_t Count);

/// Extracts the first (possibly negative) integer from a RUN answer
/// ("5050#" and "I# 5050#" both yield 5050). Nullopt when there is none.
std::optional<int64_t> extractInt(std::string_view Display);

/// A LEVP/1 client endpoint: one pipelined exchange of requests for
/// responses, in order. An error is a *protocol* failure (broken
/// connection, malformed server frame) — the load driver counts it and
/// abandons that client.
class Client {
public:
  virtual ~Client() = default;
  virtual Result<std::vector<Response>>
  exchange(const std::vector<Request> &Batch) = 0;
};

/// Calls straight into a Server (shared admission gate and ledgers, no
/// transport): the benchmark and unit-test client.
class InProcessClient : public Client {
public:
  explicit InProcessClient(Server &S) : S(S) {}
  Result<std::vector<Response>>
  exchange(const std::vector<Request> &Batch) override;

private:
  Server &S;
};

/// Speaks the wire protocol over a Unix-domain socket to a levityd.
class SocketClient : public Client {
public:
  /// Connects to the daemon's socket; fails when it is not listening.
  static Result<std::unique_ptr<SocketClient>>
  connect(const std::string &Path);
  ~SocketClient() override;
  Result<std::vector<Response>>
  exchange(const std::vector<Request> &Batch) override;

private:
  explicit SocketClient(int Fd) : Fd(Fd) {}
  int Fd;
  ResponseReader Reader;
};

/// Load-run knobs. The defaults are the CI smoke shape.
struct LoadOptions {
  size_t Clients = 8;            ///< Concurrent client threads.
  size_t RequestsPerClient = 200; ///< Traffic requests per client
                                  ///< (registration COMPILEs are extra).
  size_t Programs = 32;     ///< Workload size (shared by all clients).
  size_t PipelineDepth = 4; ///< RUNs sent per pipelined batch.
  /// Every Nth traffic request is a RUN with fuel 1: it must come back
  /// as a typed TIMEOUT (counted separately, never an error). Client i
  /// starves its request j when (i + j) % N == N - 1, so clients that
  /// send fewer than N requests starve some too. 0 = never.
  size_t TimeoutPeriod = 16;
  /// Every Nth traffic request is a warm re-COMPILE. 0 = never.
  size_t RecompilePeriod = 5;
  size_t BusyRetries = 256; ///< Per-request retry budget on BUSY.
  bool MixBackends = true;  ///< Rotate tree/machine/bytecode; else default.
};

/// Aggregated outcome of one load run. clean() is the acceptance gate:
/// every answer right, every frame well-formed, no unexpected errors.
struct LoadReport {
  uint64_t Requests = 0;  ///< Traffic requests completed (incl. retries).
  uint64_t Ok = 0;        ///< OK responses.
  uint64_t Busy = 0;      ///< BUSY responses observed (before retry).
  uint64_t BusyGiveUps = 0; ///< Requests dropped after the retry budget.
  uint64_t Timeouts = 0;  ///< TIMEOUT responses (all expected ones).
  uint64_t Errors = 0;    ///< ERROR/BADREQ responses (always unexpected).
  uint64_t WrongAnswers = 0;   ///< OK responses with the wrong value.
  uint64_t ProtocolErrors = 0; ///< Broken exchanges (client abandoned).
  double WallMillis = 0;  ///< Whole run (registration + traffic).
  double P50Micros = 0;   ///< Median per-request latency.
  double P99Micros = 0;   ///< Tail per-request latency.
  double ReqPerSec = 0;   ///< Requests / wall time.

  bool clean() const {
    return WrongAnswers == 0 && ProtocolErrors == 0 && Errors == 0;
  }
};

/// Makes one Client per load thread; called once per client index (a
/// socket client per connection, or the same in-process server).
using ClientFactory = std::function<std::unique_ptr<Client>(size_t)>;

/// Runs the full deterministic load: every client registers its program
/// rotation, then issues its cold/warm/run/timeout mix, verifying every
/// answer. Thread-safe by construction (one Client per thread).
LoadReport runLoad(const ClientFactory &Factory, const LoadOptions &Opts);

/// Renders a report for humans (aligned key/value lines) or as a JSON
/// object (stable keys, for scripts).
std::string formatReport(const LoadReport &R, bool Json);

} // namespace server
} // namespace levity

#endif // LEVITY_SERVER_LOADGEN_H
