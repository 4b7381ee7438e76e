//===- levityd.cpp - The levity compile-and-run daemon --------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The multi-tenant server the driver stack was built toward: one shared
// Session (in-memory compilation cache + optional on-disk `.levc` store)
// behind the LEVP/1 line protocol (docs/SERVER.md).
//
//   levityd                         # REPL over stdin/stdout
//   levityd --socket /tmp/levity.sock   # Unix-domain socket daemon
//
// Try it interactively:
//
//   $ ./levityd
//   LEVP/1 COMPILE alice answer 64
//   square :: Int# -> Int# ; square x = x *# x ; answer = square 12#
//   LEVP/1 OK 17
//   outcome=front-end
//   LEVP/1 RUN alice answer bytecode
//   LEVP/1 OK 3
//   144
//   LEVP/1 STATS alice
//   ...
//   LEVP/1 SHUTDOWN
//   LEVP/1 BYE 13
//   shutting down
//
// examples/load_driver.cpp is the matching client; CI smoke-tests the
// daemon + load driver pair at 8 concurrent clients.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace levity;
using namespace levity::driver;
using namespace levity::server;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --socket PATH       listen on a Unix-domain socket (default:\n"
      "                      serve the LEVP/1 REPL on stdin/stdout)\n"
      "  --store DIR         on-disk artifact store (the L2 cache)\n"
      "  --queue-depth N     admission cap on in-flight requests\n"
      "                      (0 = unbounded; default 128)\n"
      "  --default-fuel N    per-run step deadline when RUN names none\n"
      "  --cache N           LRU bound on cached compilations (0 = none)\n"
      "  --max-store-bytes N   on-disk store byte budget (0 = none)\n"
      "  --max-store-entries N on-disk store entry budget (0 = none)\n",
      Argv0);
  return 2;
}

bool parseSize(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  std::string SocketPath;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    uint64_t V = 0;
    const char *Val;
    if (Arg == "--socket" && (Val = Next())) {
      SocketPath = Val;
    } else if (Arg == "--store" && (Val = Next())) {
      Opts.Compile.StorePath = Val;
    } else if (Arg == "--queue-depth" && (Val = Next()) &&
               parseSize(Val, V)) {
      Opts.MaxQueueDepth = static_cast<size_t>(V);
    } else if (Arg == "--default-fuel" && (Val = Next()) &&
               parseSize(Val, V)) {
      Opts.DefaultRunFuel = V;
    } else if (Arg == "--cache" && (Val = Next()) && parseSize(Val, V)) {
      Opts.Compile.MaxCachedCompilations = static_cast<size_t>(V);
    } else if (Arg == "--max-store-bytes" && (Val = Next()) &&
               parseSize(Val, V)) {
      Opts.Compile.MaxStoreBytes = V;
    } else if (Arg == "--max-store-entries" && (Val = Next()) &&
               parseSize(Val, V)) {
      Opts.Compile.MaxStoredArtifacts = static_cast<size_t>(V);
    } else {
      return usage(argv[0]);
    }
  }

  Server Srv(Opts);

  if (!SocketPath.empty()) {
    Result<bool> L = Srv.listenUnix(SocketPath);
    if (!L) {
      std::fprintf(stderr, "levityd: %s\n", L.error().c_str());
      return 1;
    }
    std::fprintf(stderr, "levityd: listening on %s (queue depth %zu)\n",
                 SocketPath.c_str(), Opts.MaxQueueDepth);
    Srv.waitForShutdown();
  } else {
    Srv.serveStream(std::cin, std::cout);
  }

  // A parting server-wide snapshot on stderr (stdout is the protocol).
  Request Stats;
  Stats.K = Request::Kind::Stats;
  Stats.Tenant = "*";
  std::fprintf(stderr, "levityd: final stats\n%s",
               Srv.handle(Stats).Payload.c_str());
  return 0;
}
