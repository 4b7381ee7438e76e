//===- shared_store.cpp - Two processes sharing one compilation store -----===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The fleet story the on-disk store exists for, demonstrated (and
// CI-enforced) with two separate processes:
//
//   shared_store --populate <dir>   # process A: compile the whole
//                                   # differential corpus into <dir>
//   shared_store --consume <dir>    # process B: a *cold* process must
//                                   # compile the same corpus with 100%
//                                   # disk hits and ZERO front-end runs,
//                                   # then run every program on the
//                                   # bytecode VM, the production engine.
//
// The consume step exits non-zero unless Session::Stats reports
// DiskHits == corpus size and Compilations == 0 — compiling has
// collapsed to deserializing the `.levc` artifacts process A published —
// and every in-fragment program ran from its stored bytecode.
// CMake registers both steps as a ctest fixture pair, so `ctest` runs
// the cross-process contract on every build (and CI has a dedicated
// job for it).
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"

// The example deliberately shares the test corpus so the two-process
// demo and the in-process differential/round-trip suites always cover
// the same programs.
#include "../tests/DifferentialCorpus.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

using namespace levity;
using namespace levity::driver;
using levity::testing::Corpus;
using levity::testing::CorpusProgram;
using levity::testing::CorpusSize;

namespace {

int fail(const char *Msg) {
  std::fprintf(stderr, "shared_store: FAIL: %s\n", Msg);
  return 1;
}

int populate(const std::string &Dir) {
  // Start from scratch so repeated runs are deterministic.
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  CompileOptions Opts;
  Opts.StorePath = Dir;
  Session S(Opts);
  for (const CorpusProgram &P : Corpus) {
    if (!S.compile(P.Source)->ok())
      return fail(P.Label);
  }
  S.flushStoreWrites(); // The hand-off barrier before process B starts.

  Session::Stats St = S.stats();
  std::printf("populate: %zu programs compiled, %llu store misses, "
              "store at %s\n",
              CorpusSize, static_cast<unsigned long long>(St.DiskMisses),
              Dir.c_str());
  return 0;
}

int consume(const std::string &Dir) {
  CompileOptions Opts;
  Opts.StorePath = Dir;
  Session S(Opts);

  size_t Ran = 0, Unsupported = 0;
  for (const CorpusProgram &P : Corpus) {
    auto Comp = S.compile(P.Source);
    if (!Comp->ok())
      return fail(P.Label);
    if (!Comp->hydrated())
      return fail((std::string(P.Label) + ": expected a disk hit").c_str());
    RunResult R = Comp->run(P.Global, Backend::Bytecode);
    if (P.InFragment && !Comp->hydratedBytecode())
      return fail((std::string(P.Label) + ": no stored bytecode").c_str());
    if (P.InFragment && (R.St == RunResult::Status::Unsupported ||
                         R.Used != Backend::Bytecode))
      return fail((std::string(P.Label) + ": " + R.Error).c_str());
    if (!P.InFragment) {
      if (R.St != RunResult::Status::Unsupported)
        return fail((std::string(P.Label) +
                     ": out-of-fragment program must stay Unsupported")
                        .c_str());
      ++Unsupported;
    }
    ++Ran;
  }

  Session::Stats St = S.stats();
  std::printf("consume: %zu programs (%zu unsupported-by-design), "
              "disk hits %llu, disk misses %llu, front-end runs %llu\n",
              Ran, Unsupported,
              static_cast<unsigned long long>(St.DiskHits),
              static_cast<unsigned long long>(St.DiskMisses),
              static_cast<unsigned long long>(St.Compilations));

  // The acceptance contract: a cold process on a warm store compiles
  // the full corpus by deserialization alone.
  if (St.DiskHits != CorpusSize)
    return fail("expected 100% disk hits");
  if (St.DiskMisses != 0)
    return fail("expected zero disk misses");
  if (St.Compilations != 0)
    return fail("expected zero front-end runs in the cold process");
  std::printf("consume: OK — compiling collapsed to deserialization\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 3 && std::strcmp(argv[1], "--populate") == 0)
    return populate(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "--consume") == 0)
    return consume(argv[2]);
  std::fprintf(stderr,
               "usage: %s --populate <store-dir> | --consume <store-dir>\n",
               argv[0]);
  return 2;
}
