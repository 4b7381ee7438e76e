//===- bench_machine.cpp - E5: the M machine (Figures 5-6) ----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Machine-step throughput and the value of thunk sharing (EVAL+FCE):
// a shared thunk is forced once; call-by-name re-evaluates. Lazy (PAPP)
// versus strict (IAPP) application costs are isolated too.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "bytecode/Vm.h"
#include "mcalc/Machine.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

using namespace levity;
using namespace levity::mcalc;

namespace {

/// Builds case I#[1] of I#[n] -> ... depth-nested term (pure step fuel).
const Term *nestedCases(MContext &C, unsigned Depth) {
  const Term *T = C.conVar({C.symbols().intern("n0"), VarSort::Int});
  for (unsigned I = Depth; I != 0; --I) {
    MVar N = {C.symbols().intern("n" + std::to_string(I - 1)),
              VarSort::Int};
    T = C.caseOf(C.conLit(int64_t(I)), N, T);
  }
  return T;
}

void BM_MachineSteps(benchmark::State &State) {
  MContext C;
  Machine M(C);
  const Term *T = nestedCases(C, unsigned(State.range(0)));
  uint64_t Steps = 0;
  for (auto _ : State) {
    MachineResult R = M.run(T);
    Steps += R.Stats.Steps;
    benchmark::DoNotOptimize(R.Value);
  }
  State.counters["M-steps/s"] =
      benchmark::Counter(double(Steps), benchmark::Counter::kIsRate);
}

// Thunk sharing: let q = <work> in use q k times. FCE updates the heap
// after the first force; the other k-1 uses are VAL lookups.
void BM_SharedThunk(benchmark::State &State) {
  MContext C;
  Machine M(C);
  unsigned Uses = unsigned(State.range(0));
  MVar Q = C.freshPtr();
  const Term *Work = nestedCases(C, 64);
  // case q of I#[a] -> ... (Uses times) ... -> I#[a].
  MVar A = C.freshInt();
  const Term *Body = C.conVar(A);
  for (unsigned I = 0; I != Uses; ++I)
    Body = C.caseOf(C.var(Q), A, Body);
  const Term *T = C.let(Q, Work, Body);
  uint64_t Evals = 0;
  for (auto _ : State) {
    MachineResult R = M.run(T);
    Evals = R.Stats.ThunkEvals;
    benchmark::DoNotOptimize(R.Value);
  }
  State.counters["thunk-evals"] = double(Evals); // expect 1, not Uses
}

// The same workload without sharing: the work is duplicated per use,
// modeling call-by-name (L's S_BETAPTR without M's heap).
void BM_UnsharedReeval(benchmark::State &State) {
  MContext C;
  Machine M(C);
  unsigned Uses = unsigned(State.range(0));
  MVar A = C.freshInt();
  const Term *Body = C.conVar(A);
  for (unsigned I = 0; I != Uses; ++I)
    Body = C.caseOf(nestedCases(C, 64), A, Body);
  uint64_t Steps = 0;
  for (auto _ : State) {
    MachineResult R = M.run(Body);
    Steps = R.Stats.Steps;
    benchmark::DoNotOptimize(R.Value);
  }
  State.counters["M-steps/run"] = double(Steps);
}

// Lazy vs strict β: pointer application allocates argument thunks;
// integer application moves a literal into a register.
void BM_LazyBeta(benchmark::State &State) {
  MContext C;
  Machine M(C);
  MVar P = C.freshPtr();
  const Term *Id = C.lam(P, C.var(P));
  MVar Q = C.freshPtr();
  const Term *T = C.let(Q, C.conLit(5), C.appVar(Id, Q));
  for (auto _ : State) {
    MachineResult R = M.run(T);
    benchmark::DoNotOptimize(R.Value);
  }
}

void BM_StrictBeta(benchmark::State &State) {
  MContext C;
  Machine M(C);
  MVar I = C.freshInt();
  const Term *Id = C.lam(I, C.var(I));
  const Term *T = C.appLit(Id, 5);
  for (auto _ : State) {
    MachineResult R = M.run(T);
    benchmark::DoNotOptimize(R.Value);
  }
}

//===--------------------------------------------------------------------===//
// The bytecode VM on the same M terms (PR 6): compile once, then run
// the flat instruction stream — the small-step-vs-dispatch-loop ratio
// on pure step fuel and on thunk sharing.
//===--------------------------------------------------------------------===//

void BM_BytecodeSteps(benchmark::State &State) {
  MContext C;
  const Term *T = nestedCases(C, unsigned(State.range(0)));
  auto Mod = bytecode::compile(T);
  if (!Mod) {
    State.SkipWithError(Mod.error().c_str());
    return;
  }
  bytecode::Vm Vm;
  uint64_t Steps = 0;
  for (auto _ : State) {
    bytecode::VmResult R = Vm.run(**Mod, uint64_t(1) << 40);
    Steps += R.Stats.Steps;
    benchmark::DoNotOptimize(R.Final.I);
  }
  State.counters["vm-steps/s"] =
      benchmark::Counter(double(Steps), benchmark::Counter::kIsRate);
}

void BM_BytecodeSharedThunk(benchmark::State &State) {
  MContext C;
  unsigned Uses = unsigned(State.range(0));
  MVar Q = C.freshPtr();
  const Term *Work = nestedCases(C, 64);
  MVar A = C.freshInt();
  const Term *Body = C.conVar(A);
  for (unsigned I = 0; I != Uses; ++I)
    Body = C.caseOf(C.var(Q), A, Body);
  auto Mod = bytecode::compile(C.let(Q, Work, Body));
  if (!Mod) {
    State.SkipWithError(Mod.error().c_str());
    return;
  }
  bytecode::Vm Vm;
  uint64_t Evals = 0;
  for (auto _ : State) {
    bytecode::VmResult R = Vm.run(**Mod, uint64_t(1) << 40);
    Evals = R.Stats.ThunkEvals;
    benchmark::DoNotOptimize(R.Final.I);
  }
  State.counters["thunk-evals"] = double(Evals); // expect 1, not Uses
}

void BM_BytecodeStrictBeta(benchmark::State &State) {
  MContext C;
  MVar I = C.freshInt();
  auto Mod = bytecode::compile(C.appLit(C.lam(I, C.var(I)), 5));
  if (!Mod) {
    State.SkipWithError(Mod.error().c_str());
    return;
  }
  bytecode::Vm Vm;
  for (auto _ : State) {
    bytecode::VmResult R = Vm.run(**Mod, uint64_t(1) << 40);
    benchmark::DoNotOptimize(R.Final.I);
  }
}

BENCHMARK(BM_MachineSteps)->Name("Machine/Steps")->Arg(64)->Arg(512);
BENCHMARK(BM_SharedThunk)->Name("Machine/SharedThunk")->Arg(2)->Arg(16);
BENCHMARK(BM_UnsharedReeval)
    ->Name("Machine/UnsharedReeval")->Arg(2)->Arg(16);
BENCHMARK(BM_LazyBeta)->Name("Machine/LazyBeta");
BENCHMARK(BM_StrictBeta)->Name("Machine/StrictBeta");
BENCHMARK(BM_BytecodeSteps)->Name("Bytecode/Steps")->Arg(64)->Arg(512);
BENCHMARK(BM_BytecodeSharedThunk)
    ->Name("Bytecode/SharedThunk")->Arg(2)->Arg(16);
BENCHMARK(BM_BytecodeStrictBeta)->Name("Bytecode/StrictBeta");

} // namespace

int main(int argc, char **argv) {
  std::printf("E5 (Figures 5-6): M machine throughput and thunk "
              "sharing.\nExpected shape: shared thunks force once "
              "regardless of use count; unshared re-evaluation scales "
              "with uses; strict beta beats lazy beta (no allocation).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
