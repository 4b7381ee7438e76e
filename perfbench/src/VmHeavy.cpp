//===- VmHeavy.cpp - Workload vm-heavy: long bytecode runs ----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The only workload where the bytecode VM's dispatch loop and heap
// dominate: four programs, each on its own long-lived Executor (so
// per-Executor run regions are reused), on one thread. One op runs all
// four once, in a seeded order: ~2 ms of VM work whose
// latency distribution has one mode, so its median and p99 are steady
// (four separately timed programs would put the median on the edge
// between two of them).
//
//   loop      the §2.1 unboxed sumToH loop: dispatch-bound, allocates
//             nothing per iteration;
//   sumlist   build + fold of a cons list (the Bytecode/SumList shape):
//             constructor-heavy;
//   lazyfold  a strict fold over a prefix of an *infinite* lazy list:
//             live data O(1), but without an in-run collector the heap
//             grows with the prefix;
//   fib       naive fib: call-heavy and not tail-recursive.
//
// Sizes are fixed (not calibrated), so every count is the same on every
// host and seed; each program runs for about half a millisecond on a
// current x86 core, so a quarter-second segment holds over 100 ops and
// the quiet segments of a 30-s run over 1,500.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/Executor.h"

#include <array>

using namespace perfbench;
using namespace levity;

namespace {

constexpr int64_t LoopN = 6000;
constexpr int64_t ListN = 1400;
constexpr int64_t LazyN = 1400;
constexpr int64_t FibN = 17;

struct VmProgram {
  const char *Key;      ///< Metric suffix.
  const char *SpanName; ///< "bytecode.run.<key>".
  std::string Source;
  int64_t Expected;
};

int64_t fib(int64_t N) {
  int64_t A = 0, B = 1;
  for (int64_t I = 0; I != N; ++I) {
    int64_t C = A + B;
    A = B;
    B = C;
  }
  return A;
}

std::string lit(int64_t V) { return std::to_string(V) + "#"; }

std::vector<VmProgram> programs() {
  std::vector<VmProgram> P;
  P.push_back({"loop", "bytecode.run.loop",
               "sumToH :: Int# -> Int# -> Int# ; "
               "sumToH acc n = case n of { 0# -> acc ; "
               "_ -> sumToH (acc +# n) (n -# 1#) } ; "
               "loop = sumToH 0# " + lit(LoopN),
               LoopN * (LoopN + 1) / 2});
  P.push_back({"sumlist", "bytecode.run.sumlist",
               "data IntList = Nil | Cons Int IntList ; "
               "build :: Int# -> IntList ; "
               "build n = case n of { 0# -> Nil ; "
               "_ -> Cons (I# n) (build (n -# 1#)) } ; "
               "sumList :: Int# -> IntList -> Int# ; "
               "sumList acc xs = case xs of { Nil -> acc ; "
               "Cons y ys -> case y of { I# m -> sumList (acc +# m) ys } } ; "
               "sumlist = sumList 0# (build " + lit(ListN) + ")",
               ListN * (ListN + 1) / 2});
  P.push_back({"lazyfold", "bytecode.run.lazyfold",
               "data Stream = Nil | Cons Int Stream ; "
               "from :: Int# -> Stream ; "
               "from n = Cons (I# n) (from (n +# 1#)) ; "
               "takeSum :: Int# -> Int# -> Stream -> Int# ; "
               "takeSum acc k xs = case k of { 0# -> acc ; _ -> "
               "case xs of { Nil -> acc ; Cons y ys -> case y of "
               "{ I# m -> takeSum (acc +# m) (k -# 1#) ys } } } ; "
               "lazyfold = takeSum 0# " + lit(LazyN) + " (from 1#)",
               LazyN * (LazyN + 1) / 2});
  P.push_back({"fib", "bytecode.run.fib",
               "fibR :: Int# -> Int# ; "
               "fibR n = case (n <# 2#) of { 1# -> n ; "
               "_ -> fibR (n -# 1#) +# fibR (n -# 2#) } ; "
               "fib = fibR " + lit(FibN),
               fib(FibN)});
  return P;
}

std::string checkRun(const driver::RunResult &R, const VmProgram &P) {
  if (!R.ok())
    return std::string(P.Key) + ": run failed: " + R.Error;
  if (R.Used != driver::Backend::Bytecode)
    return std::string(P.Key) + ": fell back from bytecode";
  if (R.IntValue != P.Expected)
    return std::string(P.Key) + ": wrong answer " + R.Display;
  return "";
}

class VmHeavy final : public Workload {
public:
  explicit VmHeavy(const RunConfig &C) : Cfg(C), Progs(programs()) {}

  bool setup(std::string &Why) override {
    S = std::make_unique<driver::Session>();
    Execs.clear();
    for (const VmProgram &P : Progs) {
      Execs.emplace_back(S->compile(P.Source));
      std::string Bad =
          checkRun(Execs.back().run(P.Key, driver::Backend::Bytecode), P);
      if (!Bad.empty()) {
        Why = "warm-up: " + Bad;
        return false;
      }
    }
    return true;
  }

  bool oracleCheck(std::string &Why) override {
    // The tree interpreter is the independent answer check (untimed).
    for (const VmProgram &P : Progs) {
      driver::RunResult R =
          S->compile(P.Source)->run(P.Key, driver::Backend::TreeInterp);
      if (!R.ok() || R.IntValue != P.Expected) {
        Why = std::string(P.Key) + ": tree-interpreter oracle disagrees";
        return false;
      }
    }
    return true;
  }

  OpStats timed(double Seconds, TraceLog *Log) override {
    OpStats St;
    Tracer Tr;
    Tracer *T = Log ? &Tr : nullptr;
    Rng R(Cfg.Seed * 6364136223846793005ULL + ++Phases);
    std::array<size_t, 4> Order = {0, 1, 2, 3};
    Clock::time_point T0 = Clock::now();
    for (uint64_t Op = 0; secondsSince(T0) < Seconds; ++Op) {
      for (size_t I = Order.size() - 1; I != 0; --I)
        std::swap(Order[I], Order[size_t(R.next() % (I + 1))]);
      std::string Bad;
      int64_t Start = nowNs();
      {
        SpanGuard Root(T, "vm.op", Op);
        for (size_t K : Order) {
          SpanGuard G(T, Progs[K].SpanName, Op);
          std::string Why = checkRun(
              Execs[K].run(Progs[K].Key, driver::Backend::Bytecode), Progs[K]);
          if (Bad.empty())
            Bad = Why;
        }
      }
      int64_t End = nowNs();
      ++St.Attempted;
      if (Bad.empty())
        St.ok(double(End - Start) / 1000.0);
      else
        St.fail(Bad);
    }
    St.WallS = secondsSince(T0);
    if (Log)
      Log->add(Tr);
    return St;
  }

  std::string layers(double, const TraceLog &Log, const OpStats &Traced,
                     Metrics &M) override {
    Ledger L = ledger();
    for (const VmProgram &P : Progs) {
      std::string K = P.Key;
      double Us = Log.medianUs(P.SpanName);
      double Steps = double(L["steps." + K]);
      M["bytecode.run_us." + K] = {Us, "us"};
      M["bytecode.ns_per_step." + K] = {Steps > 0 ? Us * 1000.0 / Steps : 0,
                                        "ns"};
      M["bytecode.steps." + K] = {Steps, "count"};
      M["bytecode.allocs." + K] = {double(L["allocs." + K]), "count"};
      M["bytecode.peak_heap_bytes." + K] = {
          double(L["peak_heap_bytes." + K]), "bytes"};
      M["bytecode.uncurried_calls." + K] = {
          double(L["uncurried_calls." + K]), "count"};
      M["bytecode.fused_ops." + K] = {double(L["fused_ops." + K]), "count"};
    }
    layerSumRatio(M, Log,
                  {"bytecode.run.loop", "bytecode.run.sumlist",
                   "bytecode.run.lazyfold", "bytecode.run.fib"},
                  Traced);
    return "";
  }

  /// Two runs per program on a fresh Executor: the second (warm) run's
  /// VM counters are the per-op ledger the timed phase repeats.
  Ledger ledger() override {
    driver::Session Fresh;
    Ledger L;
    for (const VmProgram &P : Progs) {
      driver::Executor Ex(Fresh.compile(P.Source));
      Ex.run(P.Key, driver::Backend::Bytecode);
      driver::RunResult R = Ex.run(P.Key, driver::Backend::Bytecode);
      std::string K = P.Key;
      if (!checkRun(R, P).empty())
        L["failed"] += 1;
      L["steps." + K] = R.Vm.Steps;
      L["allocs." + K] = R.Vm.Allocations;
      L["peak_heap_bytes." + K] = R.Vm.PeakHeapBytes;
      L["uncurried_calls." + K] = R.Vm.UncurriedCalls;
      L["fused_ops." + K] = R.Vm.FusedOps;
    }
    return L;
  }

private:
  RunConfig Cfg;
  std::vector<VmProgram> Progs;
  std::unique_ptr<driver::Session> S;
  std::vector<driver::Executor> Execs;
  uint64_t Phases = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeVmHeavy(const RunConfig &C) {
  return std::make_unique<VmHeavy>(C);
}
