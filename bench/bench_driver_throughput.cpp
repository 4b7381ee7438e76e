//===- bench_driver_throughput.cpp - Concurrent driver throughput ---------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Throughput of the redesigned driver under the workload the API was
// built for: many workers sharing one Session and one immutable
// Compilation.
//
//   * CompileCached/threads:N   — same-source compile() (pure cache-hit
//     path through the sharded cache);
//   * CompileDistinct/threads:N — each iteration compiles a fresh
//     source (front-end throughput under the shard mutexes);
//   * RunTreeWarm/threads:N     — per-thread Executors over one shared
//     Compilation; globals are memoized, so this is the hot lookup path;
//   * RunTreeCold/threads:N     — a fresh Executor per iteration (full
//     re-evaluation, the cost Compilation::run pays);
//   * RunMachine/threads:N      — the M machine replays every run;
//     concurrent runs allocate into the shared, synchronized MContext;
//   * RunTreeLoop/threads:N     — a 200-iteration sumToH# call evaluated
//     per iteration through Executor::evalExpr (the loop itself is
//     outside the machine's L fragment — see ROADMAP);
//   * RunAllBatch               — the Session's batch entry point
//     running 32 requests in order on the calling thread;
//   * CompileColdFrontEnd vs CompileWarmStoreHit — a fresh Session per
//     iteration, without and with a warm on-disk artifact store: the
//     warm variant demonstrates compile-phase time collapsing to .levc
//     deserialization (no front end, no lowering).
//
// Expected shape: cached compiles and tree runs scale near-linearly with
// threads (the artifact is immutable; executors are independent); the
// machine backend scales a bit less (shared allocation); distinct
// compiles are bounded by the front end itself.
//
//===----------------------------------------------------------------------===//

#include "driver/Executor.h"
#include "driver/Session.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace levity;
using namespace levity::driver;

namespace {

const char *QuickstartSrc =
    "square :: Int# -> Int# ;"
    "square x = x *# x ;"
    "answer = square 6# +# 6#";

const char *LoopSrc =
    "sumToH :: Int# -> Int# -> Int# ;"
    "sumToH acc n = case n of {"
    "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
    "} ;"
    "total = sumToH 0# 200#";

struct Fixture {
  Session S;
  std::shared_ptr<Compilation> Quickstart = S.compile(QuickstartSrc);
  std::shared_ptr<Compilation> Loop = S.compile(LoopSrc);
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

//===----------------------------------------------------------------------===//
// Compilation throughput
//===----------------------------------------------------------------------===//

void BM_CompileCached(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    std::shared_ptr<Compilation> Comp = F.S.compile(QuickstartSrc);
    benchmark::DoNotOptimize(Comp.get());
  }
  State.SetItemsProcessed(State.iterations());
}

void BM_CompileDistinct(benchmark::State &State) {
  // A private session per run so the cache never hits; a bounded LRU so
  // memory stays flat across the whole benchmark.
  static std::atomic<int> Salt{0};
  CompileOptions Opts;
  Opts.MaxCachedCompilations = 64;
  static Session S(Opts);
  for (auto _ : State) {
    int N = Salt.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<Compilation> Comp =
        S.compile("answer = " + std::to_string(N) + "# +# 1#");
    benchmark::DoNotOptimize(Comp->ok());
  }
  State.SetItemsProcessed(State.iterations());
}

//===----------------------------------------------------------------------===//
// Run throughput: tree interpreter vs M machine over one shared artifact
//===----------------------------------------------------------------------===//

void BM_RunTreeWarm(benchmark::State &State) {
  // One Executor per benchmark thread: the artifact is shared, the run
  // state is not. Global thunks memoize, so this is the hot-lookup path.
  Executor Ex(fixture().Quickstart);
  uint64_t PeakCells = 0, PeakBytes = 0;
  for (auto _ : State) {
    RunResult R = Ex.run("answer", Backend::TreeInterp);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    PeakCells = std::max(PeakCells, R.peakHeapCells());
    PeakBytes = std::max(PeakBytes, R.peakHeapBytes());
    benchmark::DoNotOptimize(R.IntValue);
  }
  State.SetItemsProcessed(State.iterations());
  // Flat across iterations by construction (run epochs); a growth here
  // is the long-lived-Executor leak coming back.
  State.counters["peak_heap_cells"] = benchmark::Counter(
      static_cast<double>(PeakCells), benchmark::Counter::kAvgThreads);
  State.counters["peak_heap_bytes"] = benchmark::Counter(
      static_cast<double>(PeakBytes), benchmark::Counter::kAvgThreads);
}

void BM_RunTreeCold(benchmark::State &State) {
  // A fresh Executor per iteration: full re-evaluation, i.e. what a
  // transient Compilation::run costs.
  std::shared_ptr<Compilation> Comp = fixture().Quickstart;
  for (auto _ : State) {
    Executor Ex(Comp);
    RunResult R = Ex.run("answer", Backend::TreeInterp);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.IntValue);
  }
  State.SetItemsProcessed(State.iterations());
}

void BM_RunMachine(benchmark::State &State) {
  // The machine replays from an empty heap every run into its
  // executor's run-scoped MContext (reset per run, so the arena peak is
  // the per-run footprint, not cumulative churn).
  Executor Ex(fixture().Quickstart);
  uint64_t PeakCells = 0, PeakBytes = 0;
  for (auto _ : State) {
    RunResult R = Ex.run("answer", Backend::AbstractMachine);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    PeakCells = std::max(PeakCells, R.peakHeapCells());
    PeakBytes = std::max(PeakBytes, R.peakHeapBytes());
    benchmark::DoNotOptimize(R.IntValue);
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["peak_heap_cells"] = benchmark::Counter(
      static_cast<double>(PeakCells), benchmark::Counter::kAvgThreads);
  State.counters["peak_heap_bytes"] = benchmark::Counter(
      static_cast<double>(PeakBytes), benchmark::Counter::kAvgThreads);
}

void BM_RunTreeLoop(benchmark::State &State) {
  // Re-applies sumToH# to fresh arguments each iteration: the 200-step
  // loop really runs every time (applications are never memoized).
  std::shared_ptr<Compilation> Comp = fixture().Loop;
  Executor Ex(Comp);
  core::CoreContext &C = Comp->ctx();
  const core::Expr *Call =
      C.app(C.app(C.var(C.sym("sumToH")), C.litInt(0), true),
            C.litInt(200), true);
  for (auto _ : State) {
    runtime::InterpResult R = Ex.evalExpr(Call);
    if (R.Status != runtime::InterpStatus::Value)
      State.SkipWithError(R.Message.c_str());
    benchmark::DoNotOptimize(R.V);
  }
  State.SetItemsProcessed(State.iterations() * 200);
}

//===----------------------------------------------------------------------===//
// The on-disk artifact store: cold front end vs warm-store hydration
//===----------------------------------------------------------------------===//

/// A store directory pre-populated with LoopSrc (built once, lazily).
const std::string &warmStoreDir() {
  static const std::string Dir = [] {
    std::string D = (std::filesystem::temp_directory_path() /
                     "levity-bench-warm-store")
                        .string();
    std::filesystem::remove_all(D);
    CompileOptions Opts;
    Opts.StorePath = D;
    Session S(Opts);
    S.compile(LoopSrc);
    S.flushStoreWrites();
    return D;
  }();
  return Dir;
}

void BM_CompileColdFrontEnd(benchmark::State &State) {
  // A fresh Session per iteration: every compile pays the full
  // lex → parse → elaborate → levity-check pipeline (the cost every
  // cold process pays without a store).
  for (auto _ : State) {
    Session S;
    std::shared_ptr<Compilation> Comp = S.compile(LoopSrc);
    if (!Comp->ok())
      State.SkipWithError("compile failed");
    benchmark::DoNotOptimize(Comp.get());
  }
  State.SetItemsProcessed(State.iterations());
}

void BM_CompileWarmStoreHit(benchmark::State &State) {
  // A fresh Session per iteration over a warm store: compiling is pure
  // .levc deserialization. The hydrated artifact's stored bytecode runs
  // with zero front-end, lowering or bytecode-compile work.
  CompileOptions Opts;
  Opts.StorePath = warmStoreDir();
  for (auto _ : State) {
    Session S(Opts);
    std::shared_ptr<Compilation> Comp = S.compile(LoopSrc);
    if (!Comp->ok() || !Comp->hydrated())
      State.SkipWithError("expected a warm-store hit");
    benchmark::DoNotOptimize(Comp.get());
  }
  State.SetItemsProcessed(State.iterations());
}

void BM_RunMachineHydrated(benchmark::State &State) {
  // A hydrated Compilation on the oracle machine: hydrate once, then
  // replay the 200-iteration loop. Artifacts store only bytecode, so the
  // first run rebuilds the front end and lowers to M; later runs reuse
  // that memoized M term.
  CompileOptions Opts;
  Opts.StorePath = warmStoreDir();
  Session S(Opts);
  std::shared_ptr<Compilation> Comp = S.compile(LoopSrc);
  if (!Comp->hydrated()) {
    State.SkipWithError("expected a warm-store hit");
    return;
  }
  Executor Ex(Comp);
  uint64_t PeakBytes = 0;
  for (auto _ : State) {
    RunResult R = Ex.run("total", Backend::AbstractMachine);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    PeakBytes = std::max(PeakBytes, R.peakHeapBytes());
    benchmark::DoNotOptimize(R.IntValue);
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["peak_heap_bytes"] =
      static_cast<double>(PeakBytes);
}

//===----------------------------------------------------------------------===//
// The batch entry point
//===----------------------------------------------------------------------===//

void BM_RunAllBatch(benchmark::State &State) {
  Fixture &F = fixture();
  std::vector<Session::RunRequest> Requests;
  for (int I = 0; I != 32; ++I) {
    Session::RunRequest Req;
    Req.Source = I % 2 == 0 ? QuickstartSrc : LoopSrc;
    Req.Name = I % 2 == 0 ? "answer" : "total";
    Req.B = I % 4 < 2 ? Backend::TreeInterp : Backend::AbstractMachine;
    Requests.push_back(std::move(Req));
  }
  for (auto _ : State) {
    std::vector<RunResult> Results = F.S.runAll(Requests);
    benchmark::DoNotOptimize(Results.data());
  }
  State.SetItemsProcessed(State.iterations() * 32);
}

BENCHMARK(BM_CompileCached)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_CompileDistinct)->Threads(1)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunTreeWarm)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_RunTreeCold)->Threads(1)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunMachine)->Threads(1)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunTreeLoop)->Threads(1)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompileColdFrontEnd)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompileWarmStoreHit)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunMachineHydrated)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RunAllBatch)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  std::printf(
      "Driver throughput: N threads x one Session / one Compilation.\n"
      "Expected shape: cached compiles and tree runs scale with threads;\n"
      "machine runs replay into per-executor run arenas; RunAll runs a\n"
      "32-request batch in order on the calling thread. peak_heap_*\n"
      "counters are per-run footprints and must stay flat across\n"
      "iterations (the long-lived-Session reclamation guarantee).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
