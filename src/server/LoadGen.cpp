//===- LoadGen.cpp - Client-side load generator for levityd ---------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "server/LoadGen.h"
#include "server/Net.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

using namespace levity;
using namespace levity::server;

std::vector<WorkProgram> server::makeWorkload(size_t Count) {
  std::vector<WorkProgram> Work;
  Work.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    // Program I sums 1..50+I with an unboxed accumulator loop, so every
    // program has distinct source, a distinct name, and a known answer.
    // The answer is bound to the program's own name: RUN evaluates the
    // global named like the registered program.
    int64_t N = 50 + static_cast<int64_t>(I);
    std::string NS = std::to_string(N);
    WorkProgram P;
    P.Name = "p" + std::to_string(I);
    P.Source = "sumAcc :: Int# -> Int# -> Int# ; "
               "sumAcc acc n = case n of { 0# -> acc ; _ -> "
               "sumAcc (acc +# n) (n -# 1#) } ; " +
               P.Name + " = sumAcc 0# " + NS + "#";
    P.Expected = N * (N + 1) / 2;
    Work.push_back(std::move(P));
  }
  return Work;
}

std::optional<int64_t> server::extractInt(std::string_view Display) {
  // An Int answer's payload is its first number: `42#`, `I# 42#`.
  size_t I = Display.find_first_of("-0123456789");
  int64_t V = 0;
  if (I == std::string_view::npos ||
      std::from_chars(Display.data() + I, Display.data() + Display.size(), V)
              .ec != std::errc())
    return std::nullopt;
  return V;
}

//===----------------------------------------------------------------------===//
// Clients
//===----------------------------------------------------------------------===//

Result<std::vector<Response>>
InProcessClient::exchange(const std::vector<Request> &Batch) {
  std::vector<Result<Request>> Frames;
  Frames.reserve(Batch.size());
  for (const Request &R : Batch)
    Frames.emplace_back(R);
  return S.process(Frames);
}

Result<std::unique_ptr<SocketClient>>
SocketClient::connect(const std::string &Path) {
  Result<int> Fd = unixConnect(Path);
  if (!Fd)
    return err(Fd.error());
  return std::unique_ptr<SocketClient>(new SocketClient(*Fd));
}

SocketClient::~SocketClient() { closeFd(Fd); }

Result<std::vector<Response>>
SocketClient::exchange(const std::vector<Request> &Batch) {
  std::string Wire;
  for (const Request &R : Batch)
    Wire += formatRequest(R);
  Result<bool> W = writeAll(Fd, Wire);
  if (!W)
    return err(W.error());

  std::vector<Response> Out;
  Out.reserve(Batch.size());
  char Buf[16384];
  while (Out.size() != Batch.size()) {
    while (Out.size() != Batch.size()) {
      std::optional<Result<Response>> F = Reader.next();
      if (!F)
        break;
      if (!*F)
        return err("malformed server frame: " + F->error());
      Out.push_back(std::move(**F));
    }
    if (Out.size() == Batch.size())
      break;
    Result<size_t> N = readSomeWithTimeout(Fd, Buf, sizeof(Buf), 30000);
    if (!N)
      return err(N.error());
    if (*N == SIZE_MAX)
      return err("timed out waiting for a response");
    if (*N == 0)
      return err("connection closed mid-exchange");
    Reader.append(std::string_view(Buf, *N));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The load run
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0)
      .count();
}

// Expectation sentinels for one request.
constexpr int64_t ExpectNothing = std::numeric_limits<int64_t>::min();
constexpr int64_t ExpectTimeout = std::numeric_limits<int64_t>::max();

struct ClientState {
  LoadReport R;
  std::vector<double> LatMicros;
};

/// Folds one terminal (non-BUSY) response into the ledger.
void classify(ClientState &St, const Response &Resp, int64_t Expect) {
  ++St.R.Requests;
  switch (Resp.St) {
  case Response::Status::Ok:
    ++St.R.Ok;
    if (Expect == ExpectTimeout) {
      ++St.R.WrongAnswers; // The fuel deadline should have fired.
    } else if (Expect != ExpectNothing) {
      std::optional<int64_t> Got = extractInt(Resp.Payload);
      if (!Got || *Got != Expect)
        ++St.R.WrongAnswers;
    }
    break;
  case Response::Status::Timeout:
    ++St.R.Timeouts;
    if (Expect != ExpectTimeout)
      ++St.R.Errors; // A full-fuel run must never time out.
    break;
  case Response::Status::Error:
  case Response::Status::BadRequest:
    ++St.R.Errors;
    break;
  case Response::Status::Busy:
  case Response::Status::Bye:
    // Busy is handled by the retry loop before classify; Bye never
    // answers load traffic.
    ++St.R.Errors;
    break;
  }
}

/// One pipelined batch with BUSY retries. Returns false on a protocol
/// failure (the client thread abandons its run).
bool exchangeBatch(Client &Cl, ClientState &St,
                   const std::vector<Request> &Batch,
                   const std::vector<int64_t> &Expect,
                   const LoadOptions &Opts) {
  Clock::time_point T0 = Clock::now();
  Result<std::vector<Response>> RR = Cl.exchange(Batch);
  if (!RR || RR->size() != Batch.size()) {
    ++St.R.ProtocolErrors;
    return false;
  }
  double Per = microsSince(T0) / static_cast<double>(Batch.size());

  for (size_t I = 0; I != Batch.size(); ++I) {
    St.LatMicros.push_back(Per);
    Response Resp = (*RR)[I];
    size_t Attempts = 0;
    while (Resp.St == Response::Status::Busy) {
      ++St.R.Busy;
      ++St.R.Requests;
      if (++Attempts > Opts.BusyRetries) {
        ++St.R.BusyGiveUps;
        break;
      }
      // Back off briefly so admitted work can drain.
      if (Attempts > 4)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      else
        std::this_thread::yield();
      Clock::time_point R0 = Clock::now();
      Result<std::vector<Response>> Retry = Cl.exchange({Batch[I]});
      if (!Retry || Retry->size() != 1) {
        ++St.R.ProtocolErrors;
        return false;
      }
      St.LatMicros.push_back(microsSince(R0));
      Resp = (*Retry)[0];
    }
    if (Resp.St != Response::Status::Busy)
      classify(St, Resp, Expect[I]);
  }
  return true;
}

void clientThread(size_t Index, Client &Cl,
                  const std::vector<WorkProgram> &Work,
                  const LoadOptions &Opts, ClientState &St) {
  static constexpr driver::Backend Backends[] = {
      driver::Backend::TreeInterp, driver::Backend::AbstractMachine,
      driver::Backend::Bytecode};

  std::vector<Request> Batch;
  std::vector<int64_t> Expect;
  auto Flush = [&]() -> bool {
    if (Batch.empty())
      return true;
    bool Ok = exchangeBatch(Cl, St, Batch, Expect, Opts);
    Batch.clear();
    Expect.clear();
    return Ok;
  };
  auto Push = [&](Request R, int64_t E) -> bool {
    Batch.push_back(std::move(R));
    Expect.push_back(E);
    return Batch.size() < std::max<size_t>(1, Opts.PipelineDepth) ||
           Flush();
  };
  std::string Tenant = "t" + std::to_string(Index % 4); // A few tenants.

  // Registration: COMPILE every workload program (cold for whichever
  // client gets there first; warm cache/disk hits for the rest).
  for (const WorkProgram &P : Work) {
    Request R;
    R.K = Request::Kind::Compile;
    R.Tenant = Tenant;
    R.Name = P.Name;
    R.Source = P.Source;
    if (!Push(std::move(R), ExpectNothing))
      return;
  }
  if (!Flush())
    return;

  // Traffic: the deterministic cold/warm/run/timeout mix.
  for (size_t J = 0; J != Opts.RequestsPerClient; ++J) {
    const WorkProgram &P = Work[(Index * 31 + J * 7) % Work.size()];
    Request R;
    R.Tenant = Tenant;
    int64_t E;
    if (Opts.TimeoutPeriod && (Index + J) % Opts.TimeoutPeriod ==
                                  Opts.TimeoutPeriod - 1) {
      R.K = Request::Kind::Run;
      R.Name = P.Name;
      R.Fuel = 1; // Starved: must come back as a typed TIMEOUT.
      if (Opts.MixBackends)
        R.B = Backends[(Index + J) % 3];
      E = ExpectTimeout;
    } else if (Opts.RecompilePeriod && J % Opts.RecompilePeriod ==
                                           Opts.RecompilePeriod - 1) {
      R.K = Request::Kind::Compile;
      R.Name = P.Name;
      R.Source = P.Source;
      E = ExpectNothing;
    } else {
      R.K = Request::Kind::Run;
      R.Name = P.Name;
      if (Opts.MixBackends)
        R.B = Backends[(Index + J) % 3];
      E = P.Expected;
    }
    if (!Push(std::move(R), E))
      return;
  }
  Flush();
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

} // namespace

LoadReport server::runLoad(const ClientFactory &Factory,
                           const LoadOptions &Opts) {
  std::vector<WorkProgram> Work = makeWorkload(std::max<size_t>(
      1, Opts.Programs));
  std::vector<ClientState> States(std::max<size_t>(1, Opts.Clients));

  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Threads;
  Threads.reserve(States.size());
  for (size_t C = 0; C != States.size(); ++C) {
    Threads.emplace_back([&, C] {
      std::unique_ptr<Client> Cl = Factory(C);
      if (!Cl) {
        ++States[C].R.ProtocolErrors;
        return;
      }
      clientThread(C, *Cl, Work, Opts, States[C]);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double WallMillis =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();

  LoadReport R;
  std::vector<double> Lat;
  for (const ClientState &St : States) {
    R.Requests += St.R.Requests;
    R.Ok += St.R.Ok;
    R.Busy += St.R.Busy;
    R.BusyGiveUps += St.R.BusyGiveUps;
    R.Timeouts += St.R.Timeouts;
    R.Errors += St.R.Errors;
    R.WrongAnswers += St.R.WrongAnswers;
    R.ProtocolErrors += St.R.ProtocolErrors;
    Lat.insert(Lat.end(), St.LatMicros.begin(), St.LatMicros.end());
  }
  std::sort(Lat.begin(), Lat.end());
  R.WallMillis = WallMillis;
  R.P50Micros = percentile(Lat, 0.50);
  R.P99Micros = percentile(Lat, 0.99);
  R.ReqPerSec = WallMillis > 0
                    ? static_cast<double>(R.Requests) * 1000.0 / WallMillis
                    : 0;
  return R;
}

std::string server::formatReport(const LoadReport &R, bool Json) {
  std::ostringstream OS;
  if (Json) {
    OS << "{\"requests\": " << R.Requests << ", \"ok\": " << R.Ok
       << ", \"busy\": " << R.Busy
       << ", \"busy_give_ups\": " << R.BusyGiveUps
       << ", \"timeouts\": " << R.Timeouts << ", \"errors\": " << R.Errors
       << ", \"wrong_answers\": " << R.WrongAnswers
       << ", \"protocol_errors\": " << R.ProtocolErrors
       << ", \"wall_ms\": " << R.WallMillis
       << ", \"p50_us\": " << R.P50Micros
       << ", \"p99_us\": " << R.P99Micros
       << ", \"req_per_s\": " << R.ReqPerSec << "}";
    return OS.str();
  }
  OS << "requests        " << R.Requests << "\n"
     << "ok              " << R.Ok << "\n"
     << "busy            " << R.Busy << "\n"
     << "busy-give-ups   " << R.BusyGiveUps << "\n"
     << "timeouts        " << R.Timeouts << "\n"
     << "errors          " << R.Errors << "\n"
     << "wrong-answers   " << R.WrongAnswers << "\n"
     << "protocol-errors " << R.ProtocolErrors << "\n"
     << "wall-ms         " << R.WallMillis << "\n"
     << "p50-us          " << R.P50Micros << "\n"
     << "p99-us          " << R.P99Micros << "\n"
     << "req-per-s       " << R.ReqPerSec << "\n";
  return OS.str();
}
