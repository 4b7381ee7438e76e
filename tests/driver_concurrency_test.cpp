//===- driver_concurrency_test.cpp - Hammering one Session from N threads -===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The concurrent-driver contract, end to end:
//
//   * one Session serves ≥8 threads — same-source compiles hit the cache
//     (and build exactly once even when racing), distinct sources build
//     independently;
//   * one immutable Compilation serves many Executors on all three
//     backends concurrently, with results and per-run peak heaps
//     identical to serial runs;
//   * runAll agrees with serial runs, including when N threads call it
//     at once over shared Bytecode compilations;
//   * the LRU bound evicts (counted in Stats) without breaking inflight
//     shared_ptrs, and holds once concurrent traffic settles;
//   * the process's first compiles, racing on separate Sessions, build
//     the shared prelude once and all see it whole.
//
// This suite is the ThreadSanitizer workload in CI: it must run with
// zero reported races.
//
//===----------------------------------------------------------------------===//

#include "driver/Executor.h"
#include "driver/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

using namespace levity;
using namespace levity::driver;

namespace {

constexpr int NumThreads = 8;

const char *QuickstartSrc =
    "square :: Int# -> Int# ;"
    "square x = x *# x ;"
    "answer = square 6# +# 6#";

/// A distinct source whose `answer` evaluates to Seed + 1.
std::string sourceFor(int Seed) {
  return "answer = " + std::to_string(Seed) + "# +# 1#";
}

void spawnAll(std::vector<std::thread> &Threads) {
  for (std::thread &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// The first compile of the process
//===----------------------------------------------------------------------===//

// First in this file, so that it is the first test to build the prelude
// in a whole-suite run; CI also runs it alone in its own process.
TEST(DriverConcurrencyTest, FirstCompilesRaceToBuildThePrelude) {
  std::latch Start(NumThreads);
  std::vector<std::string> Answers(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Session S;
      std::string Src = "v = case id (plusInt (I# " + std::to_string(T) +
                        "#) (I# 1#)) of { I# r -> r }";
      Start.arrive_and_wait();
      std::shared_ptr<Compilation> Comp = S.compile(Src);
      if (!Comp->ok()) {
        Answers[T] = Comp->diagText();
        return;
      }
      Backend B = T % 3 == 0   ? Backend::TreeInterp
                  : T % 3 == 1 ? Backend::AbstractMachine
                               : Backend::Bytecode;
      RunResult R = Executor(Comp).run("v", B);
      Answers[T] = R.ok() ? R.Display : R.Error;
    });
  spawnAll(Threads);
  for (int T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Answers[T], std::to_string(T + 1) + "#") << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Same-source cache hits under contention
//===----------------------------------------------------------------------===//

TEST(DriverConcurrencyTest, SameSourceCompilesOnceAcrossThreads) {
  Session S;
  constexpr int Iters = 25;
  std::vector<std::shared_ptr<Compilation>> First(NumThreads);

  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != Iters; ++I) {
        std::shared_ptr<Compilation> Comp = S.compile(QuickstartSrc);
        ASSERT_TRUE(Comp->ok());
        if (!First[T])
          First[T] = Comp;
        else
          EXPECT_EQ(First[T].get(), Comp.get());
      }
    });
  spawnAll(Threads);

  // Every thread saw the same artifact, and the front end ran once.
  for (int T = 1; T != NumThreads; ++T)
    EXPECT_EQ(First[0].get(), First[T].get());
  Session::Stats St = S.stats(); // one snapshot, fields read together
  EXPECT_EQ(St.Compilations, 1u);
  EXPECT_EQ(St.CacheHits, uint64_t(NumThreads) * Iters - 1);
}

//===----------------------------------------------------------------------===//
// Distinct sources, results identical to serial runs
//===----------------------------------------------------------------------===//

TEST(DriverConcurrencyTest, DistinctSourcesMatchSerialResults) {
  constexpr int NumSources = 24;

  // Serial baseline, its own session.
  std::vector<int64_t> Expected(NumSources);
  {
    Session Serial;
    for (int I = 0; I != NumSources; ++I) {
      RunResult R = Serial.compile(sourceFor(I))->run("answer");
      ASSERT_TRUE(R.ok()) << R.Error;
      Expected[I] = R.IntValue.value_or(-1);
      ASSERT_EQ(Expected[I], I + 1);
    }
  }

  // Concurrent: every thread compiles every source, in a skewed order.
  Session S;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int K = 0; K != NumSources; ++K) {
        int I = (K + T * 3) % NumSources;
        std::shared_ptr<Compilation> Comp = S.compile(sourceFor(I));
        Executor Ex(Comp);
        RunResult R = Ex.run("answer");
        ASSERT_TRUE(R.ok()) << R.Error;
        EXPECT_EQ(R.IntValue.value_or(-1), Expected[I]);
      }
    });
  spawnAll(Threads);

  // Each source front-ended exactly once despite 8× traffic.
  Session::Stats St = S.stats(); // one snapshot, fields read together
  EXPECT_EQ(St.Compilations, uint64_t(NumSources));
  EXPECT_EQ(St.CacheHits, uint64_t(NumSources) * (NumThreads - 1));
}

//===----------------------------------------------------------------------===//
// One shared Compilation, mixed backends
//===----------------------------------------------------------------------===//

TEST(DriverConcurrencyTest, SharedCompilationRunsAllBackendsConcurrently) {
  Session S;
  std::shared_ptr<Compilation> Comp = S.compile(QuickstartSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  // Rotate all three backends per thread: machine runs race the
  // memoized lowering, and bytecode runs race the call_once-style
  // module memoization (the first N threads all want to compile the
  // same module at once).
  const Backend Rotation[] = {Backend::TreeInterp, Backend::AbstractMachine,
                              Backend::Bytecode};
  constexpr int Runs = 12;

  // Serial baseline by run position, on a twin compilation of the same
  // source so that Comp's lazy lowering and module are still unbuilt
  // when the threads start. Thread T replays rotation offset T % 3 on
  // its own Executor, so its I-th run must cost and hold exactly what a
  // serial Executor's I-th run of the same sequence did (the position
  // matters for tree runs: an executor's first one forces the globals).
  // A footprint that changes with the threads beside it is run state
  // leaking across executors.
  Session SerialSession;
  std::shared_ptr<Compilation> Twin = SerialSession.compile(QuickstartSrc);
  ASSERT_TRUE(Twin->ok()) << Twin->diagText();
  RunResult Serial[3][Runs];
  for (int Offset = 0; Offset != 3; ++Offset) {
    Executor Ex(Twin);
    for (int I = 0; I != Runs; ++I) {
      Serial[Offset][I] = Ex.run("answer", Rotation[(I + Offset) % 3]);
      ASSERT_TRUE(Serial[Offset][I].ok()) << Serial[Offset][I].Error;
      ASSERT_GT(Serial[Offset][I].peakHeapBytes(), 0u) << "run " << I;
    }
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Executor Ex(Comp);
      for (int I = 0; I != Runs; ++I) {
        Backend B = Rotation[(I + T) % 3];
        RunResult R = Ex.run("answer", B);
        ASSERT_TRUE(R.ok()) << R.Error;
        EXPECT_EQ(R.IntValue.value_or(-1), 42);
        EXPECT_EQ(R.Used, B);
        const RunResult &Want = Serial[T % 3][I];
        EXPECT_EQ(R.allocations(), Want.allocations())
            << "thread " << T << " run " << I;
        EXPECT_EQ(R.steps(), Want.steps()) << "thread " << T << " run " << I;
        EXPECT_EQ(R.peakHeapCells(), Want.peakHeapCells())
            << "thread " << T << " run " << I;
        EXPECT_EQ(R.peakHeapBytes(), Want.peakHeapBytes())
            << "thread " << T << " run " << I;
      }
      // The artifact also answers type queries concurrently.
      EXPECT_NE(Comp->globalType("square"), nullptr);
      EXPECT_NE(Comp->globalType("answer"), nullptr);
    });
  spawnAll(Threads);
}

TEST(DriverConcurrencyTest, RunAllDrivesBytecodeBackendConcurrently) {
  // runAll from N threads at once over shared Bytecode-backend
  // compilations: the callers race the cache, the shared module memo,
  // and their own transient VMs. Must stay TSan-clean.
  Session S;
  std::vector<Session::RunRequest> Requests;
  for (int I = 0; I != 12; ++I) {
    Session::RunRequest Req;
    Req.Source = sourceFor(I % 6); // duplicates share one compile
    Req.Name = "answer";
    Req.B = Backend::Bytecode;
    Requests.push_back(std::move(Req));
  }
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      std::vector<RunResult> Batch = S.runAll(Requests);
      ASSERT_EQ(Batch.size(), Requests.size());
      for (size_t I = 0; I != Batch.size(); ++I) {
        ASSERT_TRUE(Batch[I].ok()) << Batch[I].Error;
        EXPECT_EQ(Batch[I].IntValue.value_or(-1), int64_t(I % 6) + 1);
        EXPECT_EQ(Batch[I].Used, Backend::Bytecode);
      }
    });
  spawnAll(Threads);
  // Six distinct sources, each built once however the callers raced.
  EXPECT_EQ(S.stats().Compilations, 6u);
}

//===----------------------------------------------------------------------===//
// runAll
//===----------------------------------------------------------------------===//

TEST(DriverConcurrencyTest, RunAllAgreesWithSerialRuns) {
  Session S;
  std::vector<Session::RunRequest> Requests;
  for (int I = 0; I != 12; ++I) {
    Session::RunRequest Req;
    Req.Source = sourceFor(I % 6); // duplicates share one compile
    Req.Name = "answer";
    Req.B = I % 3 == 0   ? std::optional<Backend>(Backend::TreeInterp)
            : I % 3 == 1 ? std::optional<Backend>(Backend::AbstractMachine)
                         : std::optional<Backend>(Backend::Bytecode);
    Requests.push_back(std::move(Req));
  }

  std::vector<RunResult> Batch = S.runAll(Requests);
  ASSERT_EQ(Batch.size(), Requests.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    ASSERT_TRUE(Batch[I].ok()) << Batch[I].Error;
    EXPECT_EQ(Batch[I].IntValue.value_or(-1), int64_t(I % 6) + 1);
    EXPECT_EQ(Batch[I].Used, *Requests[I].B);
  }
  // Six distinct sources → six front-end runs, the rest cache hits.
  EXPECT_EQ(S.stats().Compilations, 6u);
}

//===----------------------------------------------------------------------===//
// The LRU bound
//===----------------------------------------------------------------------===//

TEST(DriverConcurrencyTest, LruBoundEvictsAndCounts) {
  CompileOptions Opts;
  Opts.MaxCachedCompilations = 8;
  Session S(Opts);

  constexpr int NumSources = 40;
  for (int I = 0; I != NumSources; ++I)
    ASSERT_TRUE(S.compile(sourceFor(I))->ok());

  Session::Stats St = S.stats();
  EXPECT_EQ(St.Compilations, uint64_t(NumSources));
  EXPECT_GT(St.Evictions, 0u);
  // Inserts = retained + evicted, and the cache respects the bound.
  EXPECT_EQ(S.cacheSize() + St.Evictions, uint64_t(NumSources));
  EXPECT_LE(S.cacheSize(), Opts.MaxCachedCompilations);

  // Evicted sources recompile correctly (a fresh front-end run).
  RunResult R = S.compile(sourceFor(0))->run("answer");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.IntValue.value_or(-1), 1);
  EXPECT_GT(S.stats().Compilations, uint64_t(NumSources));
}

TEST(DriverConcurrencyTest, LruBoundSurvivesConcurrentTraffic) {
  CompileOptions Opts;
  Opts.MaxCachedCompilations = 4;
  Session S(Opts);

  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int K = 0; K != 30; ++K) {
        int I = (K + T * 7) % 20;
        std::shared_ptr<Compilation> Comp = S.compile(sourceFor(I));
        RunResult R = Comp->run("answer");
        ASSERT_TRUE(R.ok()) << R.Error;
        EXPECT_EQ(R.IntValue.value_or(-1), I + 1);
      }
    });
  spawnAll(Threads);

  EXPECT_GT(S.stats().Evictions, 0u);
  // ceil(4/8)=1 per shard × 8 shards. In-flight builds are never
  // evicted, but each owner re-enforces the cap once its build
  // publishes, so with every thread joined the bound holds exactly.
  EXPECT_LE(S.cacheSize(), size_t(8));
}

} // namespace
