//===- bytecode_vm_test.cpp - The flat bytecode compiler and VM -----------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for src/bytecode/: direct compile+run of MContext-built
// terms (values, laziness, knots, switches, the machine-exact stuck
// states), the pinned out-of-fragment compiler diagnostics with the
// driver's clean fallback to the term-graph machine, the validate()
// verifier, and the Backend::Bytecode driver surface (backendName,
// fuel). Observable-equivalence over the full program
// corpus lives in differential_backend_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "anf/Compile.h"
#include "bytecode/Bytecode.h"
#include "bytecode/Vm.h"
#include "driver/Executor.h"
#include "driver/LowerToL.h"
#include "driver/Session.h"
#include "surface/Parser.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::bytecode;

namespace {

/// Compiles \p T (must be in-fragment) and runs it on a fresh VM.
VmResult compileAndRun(const mcalc::Term *T, uint64_t Fuel = 1u << 22) {
  auto Mod = compile(T);
  EXPECT_TRUE(Mod.ok()) << Mod.error();
  if (!Mod.ok())
    return VmResult();
  EXPECT_TRUE(validate(**Mod));
  Vm V;
  return V.run(**Mod, Fuel);
}

/// The Int# a run ended in, or -1.
int64_t intOf(const VmResult &R) {
  return R.ok() && R.Final.isInt() ? R.Final.I : -1;
}

//===----------------------------------------------------------------------===//
// Values and control flow
//===----------------------------------------------------------------------===//

TEST(BytecodeVmTest, PrimArithmetic) {
  mcalc::MContext MC;
  VmResult R = compileAndRun(MC.prim(mcalc::MPrim::Mul, mcalc::MAtom::lit(6),
                                     mcalc::MAtom::lit(7)));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 42);
  EXPECT_EQ(R.Stats.Prims, 1u);
}

TEST(BytecodeVmTest, DoubleArithmetic) {
  mcalc::MContext MC;
  VmResult R = compileAndRun(MC.prim(
      mcalc::MPrim::DAdd, mcalc::MAtom::dlit(1.25), mcalc::MAtom::dlit(2.5)));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  ASSERT_TRUE(R.Final.isDbl());
  EXPECT_DOUBLE_EQ(R.Final.D, 3.75);
}

TEST(BytecodeVmTest, If0TakesBothBranches) {
  mcalc::MContext MC;
  auto Run = [&](int64_t Scrut) {
    return compileAndRun(MC.if0(MC.lit(Scrut), MC.lit(10), MC.lit(20)));
  };
  EXPECT_EQ(intOf(Run(0)), 10);
  EXPECT_EQ(intOf(Run(3)), 20);
  EXPECT_EQ(Run(3).Stats.Branches, 1u);
}

TEST(BytecodeVmTest, LambdaCallOverIntRegister) {
  mcalc::MContext MC;
  mcalc::MVar N = MC.freshInt();
  const mcalc::Term *Inc =
      MC.lam(N, MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(N),
                        mcalc::MAtom::lit(1)));
  VmResult R = compileAndRun(MC.appLit(Inc, 41));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 42);
}

TEST(BytecodeVmTest, BoxAndUnbox) {
  mcalc::MContext MC;
  mcalc::MVar N = MC.freshInt();
  VmResult R = compileAndRun(
      MC.caseOf(MC.conLit(7), N,
                MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(N),
                        mcalc::MAtom::lit(1))));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 8);
  EXPECT_EQ(R.Stats.ConAllocs, 1u);
}

TEST(BytecodeVmTest, SwitchDispatchesOnConTagAndBindsFields) {
  mcalc::MContext MC;
  mcalc::MAtom Fields[] = {mcalc::MAtom::lit(30), mcalc::MAtom::dlit(1.5)};
  mcalc::MVar BI = MC.freshInt(), BD = MC.freshDbl();
  mcalc::MVar Binders[] = {BI, BD};
  mcalc::MAlt Alts[2];
  Alts[0].Pat = mcalc::MAlt::PatKind::Con;
  Alts[0].Tag = 1;
  Alts[0].Body = MC.lit(-1);
  Alts[1].Pat = mcalc::MAlt::PatKind::Con;
  Alts[1].Tag = 2;
  Alts[1].Binders = std::span<const mcalc::MVar>(Binders, 2);
  Alts[1].Body = MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(BI),
                         mcalc::MAtom::lit(12));
  VmResult R =
      compileAndRun(MC.switchOf(MC.con(2, Fields), Alts, MC.lit(-2)));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 42);
  EXPECT_EQ(R.Stats.Switches, 1u);
}

TEST(BytecodeVmTest, SwitchIntLiteralAndDefault) {
  mcalc::MContext MC;
  mcalc::MAlt Alts[1];
  Alts[0].Pat = mcalc::MAlt::PatKind::Int;
  Alts[0].IntVal = 5;
  Alts[0].Body = MC.lit(100);
  EXPECT_EQ(intOf(compileAndRun(MC.switchOf(MC.lit(5), Alts, MC.lit(200)))),
            100);
  EXPECT_EQ(intOf(compileAndRun(MC.switchOf(MC.lit(6), Alts, MC.lit(200)))),
            200);
}

//===----------------------------------------------------------------------===//
// Laziness and knots
//===----------------------------------------------------------------------===//

TEST(BytecodeVmTest, LazyLetForcesOnceThenReusesTheUpdate) {
  // let p = <prim thunk> in case p of n1 -> case p of n2 -> n1 + n2:
  // the thunk must evaluate exactly once and be read back as a value.
  mcalc::MContext MC;
  mcalc::MVar P = MC.freshPtr();
  mcalc::MVar N1 = MC.freshInt(), N2 = MC.freshInt();
  const mcalc::Term *T = MC.let(
      P,
      MC.caseOf(MC.conLit(20), N1,
                MC.conVar(N1)), // forces to I#[20] via a real thunk body
      MC.caseOf(MC.var(P), N1,
                MC.caseOf(MC.var(P), N2,
                          MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(N1),
                                  mcalc::MAtom::var(N2)))));
  VmResult R = compileAndRun(T);
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 40);
  EXPECT_EQ(R.Stats.ThunkEvals, 1u) << "second force must hit the update";
  EXPECT_EQ(R.Stats.ThunkUpdates, 1u);
}

TEST(BytecodeVmTest, LetRecTiesTheKnot) {
  // letrec f = λn. if0 n then 42 else f (n-1) in f 5
  mcalc::MContext MC;
  mcalc::MVar F = MC.freshPtr(), N = MC.freshInt(), M = MC.freshInt();
  const mcalc::Term *Body = MC.if0(
      MC.var(N), MC.lit(42),
      MC.letBang(M,
                 MC.prim(mcalc::MPrim::Sub, mcalc::MAtom::var(N),
                         mcalc::MAtom::lit(1)),
                 MC.appVar(MC.var(F), M)));
  VmResult R =
      compileAndRun(MC.letRec(F, MC.lam(N, Body), MC.appLit(MC.var(F), 5)));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 42);
  EXPECT_GE(R.Stats.Knots, 1u);
}

TEST(BytecodeVmTest, SelfForcingThunkIsTheDanglingPointerStuck) {
  // letrec p = <force p> in case p of ...: the black hole must be
  // detected, exactly like the machine's dangling-pointer stuck.
  mcalc::MContext MC;
  mcalc::MVar P = MC.freshPtr(), N = MC.freshInt();
  const mcalc::Term *T = MC.letRec(
      P, MC.caseOf(MC.var(P), N, MC.conVar(N)),
      MC.caseOf(MC.var(P), N, MC.var(N)));
  VmResult R = compileAndRun(T);
  ASSERT_EQ(R.Out, VmResult::Outcome::Stuck);
  EXPECT_EQ(R.StuckReason,
            "dangling heap pointer (thunk forced while evaluating)");
}

//===----------------------------------------------------------------------===//
// Bottom, stuck, and fuel — the machine-exact classification
//===----------------------------------------------------------------------===//

TEST(BytecodeVmTest, ErrorTermIsBottomWithItsMessage) {
  mcalc::MContext MC;
  VmResult R = compileAndRun(MC.error(MC.symbols().intern("boom")));
  ASSERT_EQ(R.Out, VmResult::Outcome::Bottom);
  EXPECT_EQ(R.ErrorMessage, "boom");
}

TEST(BytecodeVmTest, DivideByZeroIsStuckNotBottom) {
  mcalc::MContext MC;
  VmResult R = compileAndRun(MC.prim(mcalc::MPrim::Quot,
                                     mcalc::MAtom::lit(1),
                                     mcalc::MAtom::lit(0)));
  ASSERT_EQ(R.Out, VmResult::Outcome::Stuck);
  EXPECT_EQ(R.StuckReason, "divide by zero");
}

TEST(BytecodeVmTest, CallingConventionMismatchIsStuck) {
  // Apply an integer literal to a λ over a pointer register: the
  // machine's calling-convention stuck, byte-for-byte.
  mcalc::MContext MC;
  mcalc::MVar P = MC.freshPtr();
  VmResult R = compileAndRun(MC.appLit(MC.lam(P, MC.lit(1)), 3));
  ASSERT_EQ(R.Out, VmResult::Outcome::Stuck);
  EXPECT_EQ(
      R.StuckReason,
      "calling-convention mismatch: integer argument for a non-integer-register parameter");
}

TEST(BytecodeVmTest, CaseOverARawIntIsStuck) {
  mcalc::MContext MC;
  mcalc::MVar N = MC.freshInt();
  VmResult R = compileAndRun(MC.caseOf(MC.lit(5), N, MC.var(N)));
  ASSERT_EQ(R.Out, VmResult::Outcome::Stuck);
  EXPECT_EQ(R.StuckReason, "case continuation expects I#[n]");
}

//===----------------------------------------------------------------------===//
// Eval/apply: uncurried calls, partial applications, over-application
//===----------------------------------------------------------------------===//

TEST(BytecodeVmTest, UnderApplicationBuildsAPap) {
  // (λx.λy. x +# y) 1 — one argument short of the two-parameter proto:
  // eval/apply parks the argument in a PAP, a first-class function
  // value. The proto is never entered.
  mcalc::MContext MC;
  mcalc::MVar X = MC.freshInt(), Y = MC.freshInt();
  const mcalc::Term *F =
      MC.lam(X, MC.lam(Y, MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(X),
                                  mcalc::MAtom::var(Y))));
  auto Mod = compile(MC.appLit(F, 1));
  ASSERT_TRUE(Mod.ok()) << Mod.error();
  Vm V;
  VmResult R = V.run(**Mod, 1u << 22);
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  // The final slot points into V's heap, which still holds the PAP.
  ASSERT_TRUE(R.Final.isPtr());
  EXPECT_EQ(R.Final.P->Kind, Obj::K::Pap);
  EXPECT_EQ(R.Stats.PapAllocs, 1u);
  EXPECT_EQ(R.Stats.Calls, 0u);
}

TEST(BytecodeVmTest, OverApplicationEntersThenAppliesTheResult) {
  // f = λx.λy. (let g = λz. (x+y)+z in g) — a two-parameter proto whose
  // body *returns* a one-parameter closure. f 1 2 3 compiles to a
  // single three-argument CallN: the VM enters f saturated, parks the
  // surplus 3 below the frame, and applies the returned g to it on the
  // way out. No PAP is ever built.
  mcalc::MContext MC;
  mcalc::MVar X = MC.freshInt(), Y = MC.freshInt(), Z = MC.freshInt(),
              W = MC.freshInt();
  mcalc::MVar G = MC.freshPtr();
  const mcalc::Term *GFn =
      MC.lam(Z, MC.letBang(W,
                           MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(X),
                                   mcalc::MAtom::var(Y)),
                           MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(W),
                                   mcalc::MAtom::var(Z))));
  const mcalc::Term *F =
      MC.lam(X, MC.lam(Y, MC.let(G, GFn, MC.var(G))));
  VmResult R =
      compileAndRun(MC.appLit(MC.appLit(MC.appLit(F, 1), 2), 3));
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 6);
  EXPECT_GE(R.Stats.UncurriedCalls, 1u);
  EXPECT_EQ(R.Stats.PapAllocs, 0u);
}

TEST(BytecodeVmTest, PapInAThunkIsBuiltOnceAndSharedAcrossCalls) {
  // let p = (λx.λy. x+y) 10 in (p 2) + (p 30): the partial application
  // lives in a lazy thunk. The first force builds the PAP and updates
  // the cell; the second call reuses the same PAP object, so exactly
  // one PAP is ever allocated.
  mcalc::MContext MC;
  mcalc::MVar X = MC.freshInt(), Y = MC.freshInt();
  mcalc::MVar Pv = MC.freshPtr(), A = MC.freshInt(), B = MC.freshInt();
  const mcalc::Term *F =
      MC.lam(X, MC.lam(Y, MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(X),
                                  mcalc::MAtom::var(Y))));
  const mcalc::Term *T = MC.let(
      Pv, MC.appLit(F, 10),
      MC.letBang(A, MC.appLit(MC.var(Pv), 2),
                 MC.letBang(B, MC.appLit(MC.var(Pv), 30),
                            MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(A),
                                    mcalc::MAtom::var(B)))));
  VmResult R = compileAndRun(T);
  ASSERT_TRUE(R.ok()) << R.StuckReason;
  EXPECT_EQ(intOf(R), 52);
  EXPECT_EQ(R.Stats.PapAllocs, 1u);
  EXPECT_EQ(R.Stats.ThunkEvals, 1u);
  EXPECT_EQ(R.Stats.ThunkUpdates, 1u);
}

TEST(BytecodeVmTest, MultiArgApplyAgainstNonLambdaNamesTheFirstArg) {
  // 5 applied to two arguments goes through the CallN path; the stuck
  // message is keyed by the *first* pending argument, exactly like the
  // machine unwinding its innermost App continuation.
  mcalc::MContext MC;
  VmResult R =
      compileAndRun(MC.appDbl(MC.appLit(MC.lit(5), 1), 2.5));
  ASSERT_EQ(R.Out, VmResult::Outcome::Stuck);
  EXPECT_EQ(R.StuckReason, "App(n) against a non-lambda value");
}

TEST(BytecodeVmTest, PapMismatchedSecondArgIsTheMachineStuck) {
  // Saturating a PAP with a wrong-register argument reports the same
  // calling-convention stuck the one-at-a-time machine would: the
  // stored argument matched, the new one does not.
  mcalc::MContext MC;
  mcalc::MVar X = MC.freshInt(), Y = MC.freshInt();
  mcalc::MVar Pv = MC.freshPtr();
  const mcalc::Term *F =
      MC.lam(X, MC.lam(Y, MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(X),
                                  mcalc::MAtom::var(Y))));
  const mcalc::Term *T =
      MC.let(Pv, MC.appLit(F, 10), MC.appDbl(MC.var(Pv), 1.5));
  VmResult R = compileAndRun(T);
  ASSERT_EQ(R.Out, VmResult::Outcome::Stuck);
  EXPECT_EQ(
      R.StuckReason,
      "calling-convention mismatch: double argument for a non-double-register parameter");
}

TEST(BytecodeVmTest, DivergenceRunsOutOfFuel) {
  // letrec f = λn. f n in f 0
  mcalc::MContext MC;
  mcalc::MVar F = MC.freshPtr(), N = MC.freshInt();
  const mcalc::Term *T = MC.letRec(F, MC.lam(N, MC.appVar(MC.var(F), N)),
                                   MC.appLit(MC.var(F), 0));
  VmResult R = compileAndRun(T, /*Fuel=*/1000);
  EXPECT_EQ(R.Out, VmResult::Outcome::OutOfFuel);
  EXPECT_EQ(R.Stats.Steps, 1000u);
  // The loop is a tail call: frame depth must not grow with the fuel.
  EXPECT_LE(R.Stats.MaxFrameDepth, 3u);
}

//===----------------------------------------------------------------------===//
// Fragment boundaries: pinned diagnostics, clean fallback
//===----------------------------------------------------------------------===//

TEST(BytecodeCompilerTest, FreeVariableIsAPinnedDiagnostic) {
  mcalc::MContext MC;
  mcalc::MVar N = MC.freshInt();
  auto Mod = compile(MC.var(N));
  ASSERT_FALSE(Mod.ok());
  EXPECT_EQ(Mod.error().rfind("bytecode backend: free variable '", 0), 0u)
      << Mod.error();
}

TEST(BytecodeCompilerTest, OverDeepTermIsAPinnedDiagnostic) {
  // A term nested past MaxCompileDepth (built iteratively — only the
  // compiler recurses) must fail with the pinned diagnostic, never
  // overflow the C++ stack, never miscompile.
  mcalc::MContext MC;
  const mcalc::Term *T = MC.lit(0);
  for (unsigned I = 0; I != MaxCompileDepth + 64; ++I) {
    mcalc::MVar N = MC.freshInt();
    T = MC.letBang(N,
                   MC.prim(mcalc::MPrim::Add, mcalc::MAtom::lit(1),
                           mcalc::MAtom::lit(1)),
                   T);
  }
  auto Mod = compile(T);
  ASSERT_FALSE(Mod.ok());
  EXPECT_EQ(Mod.error(),
            "bytecode backend: term nests deeper than the bytecode "
            "compiler supports");
}

TEST(BytecodeCompilerTest, NullTermIsRejected) {
  EXPECT_FALSE(compile(nullptr).ok());
}

//===----------------------------------------------------------------------===//
// Compile work grows linearly with the term
//===----------------------------------------------------------------------===//

/// Doubling the input may at most 2.2x each work count. Re-walking every
/// closure's subterm (quadratic on both shapes below) gives about 4x.
void expectLinear(const CompileStats &N, const CompileStats &TwoN) {
  ASSERT_GT(N.FreeVarVisits, 0u);
  ASSERT_GT(N.InstrsEmitted, 0u);
  EXPECT_LE(TwoN.FreeVarVisits * 10, N.FreeVarVisits * 22)
      << N.FreeVarVisits << " -> " << TwoN.FreeVarVisits;
  EXPECT_LE(TwoN.InstrsEmitted * 10, N.InstrsEmitted * 22)
      << N.InstrsEmitted << " -> " << TwoN.InstrsEmitted;
}

/// N nested lazy lets, each thunk holding the next binding and capturing
/// the box bound just before it:
///   let b0 = I#[0] in let x1 = R1 in case x1 of r -> r
///   Rk = case b(k-1) of n -> let! m = n +# 1 in let bk = I#[m] in
///        let x(k+1) = R(k+1) in x(k+1)
///   RN = case b(N-1) of n -> I#[n]
/// It evaluates to N - 1.
CompileStats compileNestedThunks(unsigned N) {
  mcalc::MContext MC;
  std::vector<mcalc::MVar> B(N);
  for (mcalc::MVar &V : B)
    V = MC.freshPtr();
  mcalc::MVar Last = MC.freshInt();
  const mcalc::Term *Rhs = MC.caseOf(MC.var(B[N - 1]), Last, MC.conVar(Last));
  for (unsigned K = N - 1; K != 0; --K) {
    mcalc::MVar Nk = MC.freshInt(), Mk = MC.freshInt(), Next = MC.freshPtr();
    Rhs = MC.caseOf(
        MC.var(B[K - 1]), Nk,
        MC.letBang(Mk,
                   MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(Nk),
                           mcalc::MAtom::lit(1)),
                   MC.let(B[K], MC.conVar(Mk),
                          MC.let(Next, Rhs, MC.var(Next)))));
  }
  mcalc::MVar X1 = MC.freshPtr(), R = MC.freshInt();
  const mcalc::Term *T =
      MC.let(B[0], MC.conLit(0),
             MC.let(X1, Rhs, MC.caseOf(MC.var(X1), R, MC.var(R))));
  CompileStats Stats;
  auto Mod = compile(T, &Stats);
  EXPECT_TRUE(Mod.ok()) << Mod.error();
  if (Mod.ok()) {
    Vm V;
    EXPECT_EQ(intOf(V.run(**Mod, 1u << 22)), static_cast<int64_t>(N) - 1);
  }
  return Stats;
}

TEST(BytecodeCompilerTest, CompileWorkIsLinearInNestedThunks) {
  expectLinear(compileNestedThunks(100), compileNestedThunks(200));
}

/// Lowers \p Src's user bindings with the driver's program lowering and
/// compiles them into one module; \p Stats receives the compile's work.
/// Global 0 is the first user binding.
std::shared_ptr<const Module> compileSource(const std::string &Src,
                                            CompileStats &Stats) {
  driver::Session S;
  auto Comp = S.compile(Src);
  EXPECT_TRUE(Comp->ok()) << Comp->diagText();
  if (!Comp->ok())
    return nullptr;
  lcalc::LContext L;
  mcalc::MContext MC;
  std::vector<driver::LoweredGlobal> Globals = driver::lowerProgram(
      Comp->ctx(), *Comp->program(), Comp->elabOutput()->UserBindings, L, MC);
  std::vector<GlobalTerm> Terms;
  for (const driver::LoweredGlobal &G : Globals) {
    EXPECT_TRUE(G.Value.ok()) << G.Name << ": " << G.Value.error();
    if (!G.Value.ok())
      return nullptr;
    Terms.push_back({G.Var.Name, *G.Value});
  }
  auto Mod = compileProgram(Terms, &Stats);
  EXPECT_TRUE(Mod.ok()) << Mod.error();
  return Mod.ok() ? *Mod : nullptr;
}

/// N Int# loops summed in one answer, through Session::compile and the
/// driver's lowering of the program.
CompileStats compileSummedLoops(unsigned N) {
  std::string Src, Ans;
  for (unsigned K = 0; K != N; ++K) {
    std::string F = "f" + std::to_string(K);
    Src += F + " :: Int# -> Int# -> Int# ; " + F + " acc n = case n of { " +
           "0# -> acc ; _ -> " + F + " (acc +# n) (n -# 1#) } ; ";
    Ans += (K ? " +# " : "") + F + " 0# 3#";
  }
  CompileStats Stats;
  if (auto Mod = compileSource("ans :: Int# ; ans = " + Ans + " ; " + Src,
                               Stats)) {
    Vm V;
    EXPECT_EQ(intOf(V.run(*Mod, 1u << 22)), 6 * static_cast<int64_t>(N));
  }
  return Stats;
}

TEST(BytecodeCompilerTest, CompileWorkIsLinearInSummedLoops) {
  expectLinear(compileSummedLoops(50), compileSummedLoops(100));
}

/// N globals, each calling the one before: g0 x = x and
/// gk x = g(k-1) (x +# 1#), so v = g(N-1) 0# is N - 1.
std::string globalChain(unsigned N) {
  std::string Src = "v = g" + std::to_string(N - 1) + " 0# ; ";
  Src += "g0 :: Int# -> Int# ; g0 x = x";
  for (unsigned K = 1; K != N; ++K) {
    std::string G = "g" + std::to_string(K);
    Src += " ; " + G + " :: Int# -> Int# ; " + G + " x = g" +
           std::to_string(K - 1) + " (x +# 1#)";
  }
  return Src;
}

TEST(BytecodeDriverTest, LongGlobalChainRunsOnEveryBackendInLinearWork) {
  // Each global lowers once into the program's one module, so doubling
  // the chain at most 2.2x the VM's steps and the compiler's work, and
  // the VM runs it itself.
  uint64_t Steps[2];
  CompileStats Work[2];
  for (unsigned I = 0; I != 2; ++I) {
    const unsigned N = 2000u << I;
    SCOPED_TRACE(N);
    driver::Session S;
    auto Comp = S.compile(globalChain(N));
    ASSERT_TRUE(Comp->ok()) << Comp->diagText();
    for (driver::Backend B :
         {driver::Backend::TreeInterp, driver::Backend::AbstractMachine,
          driver::Backend::Bytecode}) {
      driver::RunResult R = Comp->run("v", B);
      ASSERT_TRUE(R.ok()) << driver::backendName(B) << ": " << R.Error;
      EXPECT_EQ(R.Used, B);
      EXPECT_EQ(R.Display, std::to_string(N - 1) + "#");
      Steps[I] = R.steps();
    }
    ASSERT_NE(compileSource(globalChain(N), Work[I]), nullptr);
  }
  EXPECT_LE(Steps[1] * 10, Steps[0] * 22) << Steps[0] << " -> " << Steps[1];
  expectLinear(Work[0], Work[1]);
}

TEST(BytecodeDriverTest, OverDeepProgramIsUnsupportedOnEveryCompiledBackend) {
  // Core built by hand skips the parser's nesting budget; the core → L
  // lowering enforces the same budget, so a chain nested past the
  // bytecode compiler's depth is refused, typed, on the machine and on
  // the VM alike — nothing falls back to another backend.
  driver::Session S;
  auto Comp = S.compileProgram([](core::CoreContext &C) {
    core::CoreProgram P;
    const core::Expr *E = C.litInt(0);
    for (unsigned I = 0; I != MaxCompileDepth + 64; ++I)
      E = C.primOp(core::PrimOp::AddI, {C.litInt(1), E});
    P.Bindings.push_back({C.sym("v"), C.intHashTy(), E});
    return P;
  });
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  for (driver::Backend B :
       {driver::Backend::AbstractMachine, driver::Backend::Bytecode}) {
    driver::RunResult R = Comp->run("v", B);
    EXPECT_EQ(R.St, driver::RunResult::Status::Unsupported) << R.Error;
    EXPECT_EQ(R.Used, B);
    EXPECT_EQ(R.Error, "nesting too deep: the program nests deeper than " +
                           std::to_string(surface::MaxCoreNestingDepth) +
                           " core levels");
  }
  driver::RunResult Tree = Comp->run("v", driver::Backend::TreeInterp);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  EXPECT_EQ(Tree.IntValue.value_or(-1),
            static_cast<int64_t>(MaxCompileDepth + 64));
}

//===----------------------------------------------------------------------===//
// The verifier
//===----------------------------------------------------------------------===//

TEST(BytecodeValidateTest, RejectsOperandUnderflow) {
  Module M;
  Proto P;
  P.Entry = 0;
  P.End = 1;
  M.Protos.push_back(P);
  M.Code.push_back({Op::Return, 0, 0, 0}); // Return with an empty stack.
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsJumpOutsideTheOwningProto) {
  Module M;
  M.IntPool.push_back(0);
  Proto P;
  P.Entry = 0;
  P.End = 3;
  M.Protos.push_back(P);
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::Jump, 0, 0, /*C=*/17}); // Past End.
  M.Code.push_back({Op::Return, 0, 0, 0});
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsOutOfRangeLocals) {
  Module M;
  Proto P;
  P.Entry = 0;
  P.End = 2;
  P.NumLocals = 1;
  M.Protos.push_back(P);
  M.Code.push_back({Op::LoadLocal, 0, /*B=*/4, 0}); // Slot 4 of 1.
  M.Code.push_back({Op::Return, 0, 0, 0});
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsOverlappingProtos) {
  // An outer proto with a huge frame whose flow walk visits the interior
  // of an inner one-slot proto: the shared depth map memoizes the outer
  // walk's depths, so the inner walk never re-explores its successors
  // under its own [Entry, End) bounds, and running the inner proto would
  // fall through its End into a StoreLocal operand-checked only against
  // the outer frame — an out-of-bounds write. Protos must partition the
  // code stream, so this module is structurally rejected.
  Module M;
  M.IntPool.push_back(0);
  Proto Outer;
  Outer.Entry = 0;
  Outer.End = 5;
  Outer.NumLocals = 65535;
  M.Protos.push_back(Outer);
  Proto Inner;
  Inner.Entry = 1;
  Inner.End = 3;
  Inner.NumLocals = 1;
  M.Protos.push_back(Inner);
  M.Code.push_back({Op::Jump, 0, 0, /*C=*/1});
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::StoreLocal, 0, /*B=*/60000, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsProtosThatDoNotPartitionTheCode) {
  // Protos must cover [0, Code.size()) contiguously and in order —
  // exactly what compile() emits. A gap between protos is rejected.
  Module M;
  M.IntPool.push_back(0);
  Proto A;
  A.Entry = 0;
  A.End = 2;
  M.Protos.push_back(A);
  Proto B;
  B.Entry = 3; // Skips instruction 2.
  B.End = 5;
  M.Protos.push_back(B);
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0}); // Owned by no proto.
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsOpenEntryProto) {
  // Vm::run enters Protos[0] with no captures and no argument; an entry
  // expecting either would silently read default-initialized slots.
  Module M;
  M.IntPool.push_back(0);
  Proto P;
  P.Entry = 0;
  P.End = 2;
  P.NumLocals = 1;
  M.Protos.push_back(P);
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  ASSERT_TRUE(validate(M)); // Closed entry: fine.

  M.Protos[0].ParamSorts.push_back(static_cast<uint8_t>(mcalc::VarSort::Int));
  EXPECT_FALSE(validate(M));

  M.Protos[0].ParamSorts.clear();
  M.Protos[0].Caps.push_back({/*Src=*/0, /*Sort=*/0});
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsZeroArityCallN) {
  // CallN/TailCallN carry the argument count in B; zero arguments is
  // never emitted (plain evaluation needs no call) and the dispatch
  // loop reads the first argument's kind for its stuck message, so the
  // verifier rejects B == 0 outright.
  Module M;
  M.IntPool.push_back(0);
  Proto P;
  P.Entry = 0;
  P.End = 4;
  M.Protos.push_back(P);
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::CallN, 0, /*B=*/1, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  ASSERT_TRUE(validate(M)); // Well-typed one-argument CallN: fine.

  M.Code[2].B = 0;
  EXPECT_FALSE(validate(M));

  M.Code[2] = {Op::TailCallN, 0, /*B=*/0, 0};
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, RejectsArityMismatchedClosureProtos) {
  // MkThunk/MkThunkRec targets are entered by force with no arguments —
  // they must have zero parameters. MkClosure/MkClosureRec targets are
  // entered by apply at saturation — they must have at least one.
  Module M;
  M.IntPool.push_back(0);
  Proto Entry;
  Entry.Entry = 0;
  Entry.End = 2;
  M.Protos.push_back(Entry);
  Proto Fn;
  Fn.Entry = 2;
  Fn.End = 4;
  Fn.NumLocals = 1;
  Fn.ParamSorts.push_back(static_cast<uint8_t>(mcalc::VarSort::Int));
  M.Protos.push_back(Fn);
  M.Code.push_back({Op::MkClosure, 0, 0, /*C=*/1});
  M.Code.push_back({Op::Return, 0, 0, 0});
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  ASSERT_TRUE(validate(M)); // Closure over a one-parameter proto: fine.

  M.Protos[1].ParamSorts.clear();
  EXPECT_FALSE(validate(M)) << "closure over a zero-parameter proto";

  M.Code[0].Code = Op::MkThunk;
  EXPECT_TRUE(validate(M)); // Thunk over a zero-parameter proto: fine.

  M.Protos[1].ParamSorts.push_back(
      static_cast<uint8_t>(mcalc::VarSort::Int));
  EXPECT_FALSE(validate(M)) << "thunk over a parameterized proto";
}

TEST(BytecodeValidateTest, RejectsMalformedParamMetadata) {
  Module M;
  M.IntPool.push_back(0);
  Proto Entry;
  Entry.Entry = 0;
  Entry.End = 2;
  M.Protos.push_back(Entry);
  Proto Fn;
  Fn.Entry = 2;
  Fn.End = 4;
  Fn.NumLocals = 1;
  Fn.ParamSorts.push_back(static_cast<uint8_t>(mcalc::VarSort::Int));
  M.Protos.push_back(Fn);
  M.Code.push_back({Op::MkClosure, 0, 0, /*C=*/1});
  M.Code.push_back({Op::Return, 0, 0, 0});
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  ASSERT_TRUE(validate(M));

  // A parameter sort outside the Ptr/Int/Dbl trichotomy.
  M.Protos[1].ParamSorts[0] = 9;
  EXPECT_FALSE(validate(M));

  // Captures + parameters must fit in the frame's local slots.
  M.Protos[1].ParamSorts[0] = static_cast<uint8_t>(mcalc::VarSort::Int);
  M.Protos[1].ParamSorts.push_back(
      static_cast<uint8_t>(mcalc::VarSort::Int));
  EXPECT_FALSE(validate(M)) << "two fixed slots in a one-local frame";
}

TEST(BytecodeValidateTest, RejectsOutOfRangeSuperinstructionOperands) {
  // The fused forms carry a local slot or pool index the plain forms
  // would have read from the stack; each operand is range-checked.
  Module M;
  M.IntPool.push_back(4);
  Proto P;
  P.Entry = 0;
  P.End = 3;
  P.NumLocals = 1;
  M.Protos.push_back(P);
  M.Code.push_back({Op::PushInt, 0, 0, 0});
  M.Code.push_back(
      {Op::PrimLocal, static_cast<uint8_t>(mcalc::MPrim::Add), 0, 0});
  M.Code.push_back({Op::Return, 0, 0, 0});
  ASSERT_TRUE(validate(M));

  M.Code[1].B = 5; // Local slot out of range.
  EXPECT_FALSE(validate(M));
  M.Code[1].B = 0;

  M.Code[1].A = 255; // Not an MPrim.
  EXPECT_FALSE(validate(M));

  M.Code[1] = {Op::PrimInt, static_cast<uint8_t>(mcalc::MPrim::Add), 0,
               /*C=*/0};
  ASSERT_TRUE(validate(M));
  M.Code[1].C = 3; // Pool index out of range.
  EXPECT_FALSE(validate(M));

  M.Code = {{Op::ReturnLocal, 0, /*B=*/0, 0}};
  M.Protos[0].End = 1;
  ASSERT_TRUE(validate(M));
  M.Code[0].B = 1; // Local slot out of range.
  EXPECT_FALSE(validate(M));
}

TEST(BytecodeValidateTest, AcceptsCompilerOutput) {
  mcalc::MContext MC;
  mcalc::MVar N = MC.freshInt();
  auto Mod = compile(MC.caseOf(
      MC.conLit(3), N,
      MC.if0(MC.var(N), MC.lit(0),
             MC.prim(mcalc::MPrim::Mul, mcalc::MAtom::var(N),
                     mcalc::MAtom::var(N)))));
  ASSERT_TRUE(Mod.ok()) << Mod.error();
  EXPECT_TRUE(validate(**Mod));
}

//===----------------------------------------------------------------------===//
// The driver surface
//===----------------------------------------------------------------------===//

TEST(BytecodeDriverTest, BackendNameCoversAllBackends) {
  EXPECT_EQ(driver::backendName(driver::Backend::TreeInterp), "tree-interp");
  EXPECT_EQ(driver::backendName(driver::Backend::AbstractMachine),
            "abstract-machine");
  EXPECT_EQ(driver::backendName(driver::Backend::Bytecode), "bytecode");
}

TEST(BytecodeDriverTest, MaxVmStepsBoundsTheRun) {
  driver::Session S;
  auto Comp = S.compile("loop :: Int# -> Int# ;"
                        "loop n = loop (n +# 1#) ;"
                        "v = loop 0#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  driver::Executor Ex(Comp);
  Ex.options().MaxVmSteps = 500;
  driver::RunResult R = Ex.run("v", driver::Backend::Bytecode);
  EXPECT_EQ(R.St, driver::RunResult::Status::OutOfFuel);
  EXPECT_EQ(R.Error, "out of fuel");
  EXPECT_EQ(R.Used, driver::Backend::Bytecode);
  EXPECT_EQ(R.steps(), 500u);
}

TEST(BytecodeDriverTest, ExecutorReusesItsVmAcrossRuns) {
  driver::Session S;
  auto Comp = S.compile("a = 1# +# 2# ; b = 3# *# 4#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  driver::Executor Ex(Comp);
  EXPECT_EQ(Ex.run("a", driver::Backend::Bytecode).IntValue.value_or(-1), 3);
  EXPECT_EQ(Ex.run("b", driver::Backend::Bytecode).IntValue.value_or(-1), 12);
  // And runs stay correct when interleaved with the other backends.
  EXPECT_EQ(Ex.run("a", driver::Backend::AbstractMachine)
                .IntValue.value_or(-1),
            3);
  EXPECT_EQ(Ex.run("b", driver::Backend::Bytecode).IntValue.value_or(-1), 12);
}

TEST(BytecodeDriverTest, ExecutorRecoversAfterOutOfFuel) {
  // The VM mirror of the tree interpreter's un-blackhole fix: a run cut
  // off by fuel (or aborted by an error) mid-force must not leave heap
  // thunks black-holed. With the executor's heap recycled as a region
  // across runs, a stale Blackhole surviving the abort would make the
  // retry stick on a bogus re-entered-black-hole — so starve a run,
  // restore the fuel, and the SAME executor must succeed.
  driver::Session S;
  auto Comp = S.compile("sumToH :: Int# -> Int# -> Int# ;"
                        "sumToH acc n = case n of {"
                        "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
                        "} ;"
                        "total = sumToH 0# 1000#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  driver::Executor Ex(Comp);
  Ex.options().MaxVmSteps = 10; // Starve the first run mid-force.
  driver::RunResult Starved = Ex.run("total", driver::Backend::Bytecode);
  EXPECT_EQ(Starved.St, driver::RunResult::Status::OutOfFuel);
  EXPECT_EQ(Starved.Used, driver::Backend::Bytecode);

  Ex.options().MaxVmSteps = 1000000000;
  driver::RunResult Retry = Ex.run("total", driver::Backend::Bytecode);
  ASSERT_TRUE(Retry.ok()) << Retry.Error;
  EXPECT_EQ(Retry.Used, driver::Backend::Bytecode);
  EXPECT_EQ(Retry.IntValue.value_or(-1), 500500);
}

TEST(BytecodeDriverTest, RunsReportPeakHeapStats) {
  // Allocating programs must surface nonzero peak-heap stats through
  // RunResult; a pure-unboxed program legitimately reports zero (the
  // whole run lives in registers).
  driver::Session S;
  auto Comp = S.compile("inc :: Int -> Int ;"
                        "inc n = case n of { I# x -> I# (x +# 1#) } ;"
                        "boxed = inc (inc (I# 40#)) ;"
                        "pure = 40# +# 2#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  driver::Executor Ex(Comp);

  driver::RunResult Boxed = Ex.run("boxed", driver::Backend::Bytecode);
  ASSERT_TRUE(Boxed.ok()) << Boxed.Error;
  EXPECT_GT(Boxed.peakHeapCells(), 0u);
  EXPECT_GT(Boxed.peakHeapBytes(), 0u);

  driver::RunResult Pure = Ex.run("pure", driver::Backend::Bytecode);
  ASSERT_TRUE(Pure.ok()) << Pure.Error;
  EXPECT_EQ(Pure.peakHeapCells(), 0u);
}

TEST(BytecodeDriverTest, StuckRunsNameTheVmTier) {
  // The VM names its own tier in stuck reports, so a diverging
  // diagnosis never points at the wrong backend.
  driver::Session S;
  auto Comp = S.compile("v = quotInt# 1# 0#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  driver::RunResult R = Comp->run("v", driver::Backend::Bytecode);
  EXPECT_EQ(R.St, driver::RunResult::Status::RuntimeError);
  EXPECT_EQ(R.Error, "bytecode vm stuck: divide by zero");
}

} // namespace
