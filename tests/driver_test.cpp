//===- driver_test.cpp - The compilation-session facade -------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// End-to-end coverage of driver::Session / driver::Compilation:
//
//   * backend agreement — the tree interpreter and the abstract machine
//     (core → L → ANF → M) compute the same values and the same
//     deterministic allocation counts for the quickstart program;
//   * the compilation cache — identical source returns the *same*
//     Compilation object; distinct source does not;
//   * diagnostics — failing programs carry SourceLoc and DiagCode
//     through the facade.
//
//===----------------------------------------------------------------------===//

#include "PipelineFixture.h"
#include "driver/Executor.h"
#include "driver/Session.h"
#include "runtime/Samples.h"
#include "surface/Parser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <pthread.h>
#include <string>
#include <type_traits>
#include <vector>

using namespace levity;
using namespace levity::driver;

namespace {

const char *QuickstartSrc =
    "square :: Int# -> Int# ;"
    "square x = x *# x ;"
    "answer = square 6# +# 6#";

//===----------------------------------------------------------------------===//
// (a) Backend agreement
//===----------------------------------------------------------------------===//

TEST(DriverTest, BackendsAgreeOnQuickstartValue) {
  Session S;
  auto Comp = S.compile(QuickstartSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run("answer", Backend::TreeInterp);
  RunResult Mach = Comp->run("answer", Backend::AbstractMachine);

  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  ASSERT_TRUE(Tree.IntValue.has_value());
  ASSERT_TRUE(Mach.IntValue.has_value());
  EXPECT_EQ(*Tree.IntValue, 42);
  EXPECT_EQ(*Mach.IntValue, 42);
  EXPECT_EQ(*Tree.IntValue, *Mach.IntValue);
}

TEST(DriverTest, BackendsAgreeOnQuickstartAllocations) {
  Session S;
  auto Comp = S.compile(QuickstartSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run("answer", Backend::TreeInterp);
  RunResult Mach = Comp->run("answer", Backend::AbstractMachine);
  ASSERT_TRUE(Tree.ok() && Mach.ok());

  // The program is fully unboxed except for the `square` binding itself:
  // each backend allocates exactly one heap object for it (a closure in
  // the tree interpreter, a LET thunk in the M machine) and nothing per
  // arithmetic step. Both cost models are deterministic.
  EXPECT_EQ(Tree.allocations(), 1u);
  EXPECT_EQ(Mach.allocations(), 1u);
  EXPECT_EQ(Tree.allocations(), Mach.allocations());

  // Re-running through the *Compilation* uses a fresh transient Executor
  // per call: both backends replay from scratch, deterministically.
  RunResult Tree2 = Comp->run("answer", Backend::TreeInterp);
  RunResult Mach2 = Comp->run("answer", Backend::AbstractMachine);
  EXPECT_EQ(Tree2.allocations(), Tree.allocations());
  EXPECT_EQ(Mach2.allocations(), Mach.allocations());
  EXPECT_EQ(Tree2.IntValue.value_or(-1), 42);
}

TEST(DriverTest, ExecutorMemoizesGlobalThunksAcrossRuns) {
  // A long-lived Executor keeps its interpreter: global thunks are
  // memoized, so the second tree run allocates nothing at all. (The
  // machine backend replays from an empty heap on purpose.)
  Session S;
  auto Comp = S.compile(QuickstartSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  Executor Ex(Comp);
  RunResult First = Ex.run("answer", Backend::TreeInterp);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_EQ(First.allocations(), 1u);

  RunResult Second = Ex.run("answer", Backend::TreeInterp);
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_EQ(Second.allocations(), 0u);
  EXPECT_EQ(Second.IntValue.value_or(-1), 42);

  RunResult Mach = Ex.run("answer", Backend::AbstractMachine);
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Mach.allocations(), 1u);
}

TEST(DriverTest, ExecutorRecoversAfterOutOfFuel) {
  // A failed run must not leave global thunks black-holed: raising the
  // fuel on the same Executor and retrying succeeds (no bogus <<loop>>).
  Session S;
  auto Comp = S.compile("sumToH :: Int# -> Int# -> Int# ;"
                        "sumToH acc n = case n of {"
                        "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
                        "} ;"
                        "total = sumToH 0# 1000#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  Executor Ex(Comp);
  Ex.options().MaxInterpSteps = 10; // Starve the first run.
  RunResult Starved = Ex.run("total", Backend::TreeInterp);
  EXPECT_EQ(Starved.St, RunResult::Status::OutOfFuel);

  Ex.options().MaxInterpSteps = 200000000;
  RunResult Retry = Ex.run("total", Backend::TreeInterp);
  ASSERT_TRUE(Retry.ok()) << Retry.Error;
  EXPECT_EQ(Retry.IntValue.value_or(-1), 500500);
}

TEST(DriverTest, RunAndGlobalTypeAreConstOnTheArtifact) {
  // The artifact/executor split's contract: a Compilation is immutable
  // after build, so running and type lookup work through a const ref.
  Session S;
  auto Comp = S.compile(QuickstartSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  const Compilation &Artifact = *Comp;
  RunResult R = Artifact.run("answer", Backend::TreeInterp);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.IntValue.value_or(-1), 42);

  const core::Type *T = Artifact.globalType("square");
  ASSERT_NE(T, nullptr);
  EXPECT_NE(T->str().find("Int#"), std::string::npos) << T->str();

  static_assert(
      std::is_same_v<decltype(&Compilation::globalType),
                     const core::Type *(Compilation::*)(std::string_view)
                         const>,
      "globalType must be const-qualified");
}

TEST(DriverTest, BackendsAgreeOnBoxedProgram) {
  Session S;
  auto Comp = S.compile("inc :: Int -> Int ;"
                        "inc n = case n of { I# x -> I# (x +# 1#) } ;"
                        "answer = inc (inc (I# 40#))");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run("answer", Backend::TreeInterp);
  RunResult Mach = Comp->run("answer", Backend::AbstractMachine);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Tree.IntValue.value_or(-1), 42);
  EXPECT_EQ(Mach.IntValue.value_or(-1), 42);
}

TEST(DriverTest, BackendsAgreeOnDoubleProgram) {
  // Double# is a second unboxed literal sort in L/M: both backends run
  // double arithmetic and agree on the value.
  Session S;
  auto Comp = S.compile("half = 21.0## +## 0.5##");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run("half", Backend::TreeInterp);
  RunResult Mach = Comp->run("half", Backend::AbstractMachine);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_DOUBLE_EQ(Tree.DoubleValue.value_or(-1), 21.5);
  EXPECT_DOUBLE_EQ(Mach.DoubleValue.value_or(-1), 21.5);
}

TEST(DriverTest, DoubleDisplayIsShortestRoundTripOnEveryBackend) {
  // Every backend prints a Double# as its shortest round-trip text: no
  // six-digit rounding, no fixed-point "0.000000".
  Session S;
  auto Comp = S.compile("tiny = 0.0000001## ;"
                        "third = 1.0## /## 3.0##");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  for (Backend B :
       {Backend::TreeInterp, Backend::AbstractMachine, Backend::Bytecode}) {
    SCOPED_TRACE(std::string(backendName(B)));
    RunResult Tiny = Comp->run("tiny", B);
    ASSERT_TRUE(Tiny.ok()) << Tiny.Error;
    EXPECT_EQ(Tiny.Used, B);
    EXPECT_EQ(Tiny.Display, "1e-07##");

    RunResult Third = Comp->run("third", B);
    ASSERT_TRUE(Third.ok()) << Third.Error;
    ASSERT_TRUE(Third.DoubleValue.has_value());
    const std::string &D = Third.Display;
    ASSERT_GT(D.size(), 2u);
    ASSERT_EQ(D.substr(D.size() - 2), "##") << D;
    EXPECT_EQ(std::strtod(D.substr(0, D.size() - 2).c_str(), nullptr),
              *Third.DoubleValue)
        << D;
  }
}

TEST(DriverTest, OneAnswerTextOnEveryBackend) {
  // One reader per backend, one printer: the answer is surface syntax,
  // fields are read by rep at depth one, and lifted fields print `_`
  // without being forced (the cyclic `ones` would never finish).
  Session S;
  auto Comp = S.compile("data Color = Red | Green | Blue ;"
                        "data P = MkP Int Int ;"
                        "data W = W Int# ;"
                        "data Acc = MkAcc Int# Double# ;"
                        "data IntList = Nil | Cons Int IntList ;"
                        "ones :: IntList ;"
                        "ones = Cons (I# 1#) ones ;"
                        "unboxed = 42# ;"
                        "boxed = I# 42# ;"
                        "green = Green ;"
                        "pair = MkP (I# 1#) (I# 2#) ;"
                        "w = W 5# ;"
                        "acc = MkAcc 3# 2.5## ;"
                        "fn :: Int# -> Int# ;"
                        "fn x = x +# 1#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  const std::pair<const char *, const char *> Expected[] = {
      {"unboxed", "42#"},   {"boxed", "I# 42#"},
      {"green", "Green"},   {"pair", "MkP _ _"},
      {"ones", "Cons _ _"}, {"w", "W 5#"},
      {"acc", "MkAcc 3# 2.5##"}, {"fn", "<closure>"}};
  for (Backend B :
       {Backend::TreeInterp, Backend::AbstractMachine, Backend::Bytecode}) {
    SCOPED_TRACE(std::string(backendName(B)));
    for (const auto &[Name, Text] : Expected) {
      RunResult R = Comp->run(Name, B);
      ASSERT_TRUE(R.ok()) << Name << ": " << R.Error;
      EXPECT_EQ(R.Used, B);
      EXPECT_EQ(R.Display, Text);
    }
    // Only Int# and the I# box carry IntValue; a user constructor with
    // one Int# field is not a box.
    EXPECT_EQ(Comp->run("unboxed", B).IntValue.value_or(-1), 42);
    EXPECT_EQ(Comp->run("boxed", B).IntValue.value_or(-1), 42);
    EXPECT_FALSE(Comp->run("w", B).IntValue.has_value());
    EXPECT_FALSE(Comp->run("acc", B).DoubleValue.has_value());
  }
}

TEST(DriverTest, BackendsAgreeOnRecursiveLoop) {
  // The flagship Section 2.1 loop: self-recursion reaches the global's
  // own cell, made once on first demand — no knot (RECLET) at all.
  Session S;
  auto Comp = S.compile("sumToH :: Int# -> Int# -> Int# ;"
                        "sumToH acc n = case n of {"
                        "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
                        "} ;"
                        "total = sumToH 0# 100#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run("total", Backend::TreeInterp);
  RunResult Mach = Comp->run("total", Backend::AbstractMachine);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Tree.IntValue.value_or(-1), 5050);
  EXPECT_EQ(Mach.IntValue.value_or(-1), 5050);
  EXPECT_EQ(Mach.Machine.Knots, 0u);
  EXPECT_EQ(Mach.Machine.Allocations, 1u) << "sumToH's cell, nothing else";
}

TEST(DriverTest, BackendsAgreeOnComparisonPrimops) {
  Session S;
  auto Comp = S.compile("a = 3# <# 4# ;"
                        "b = 4# <=# 3# ;"
                        "c = 5# ==# 5# ;"
                        "d = 2.5## <## 2.75##");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  for (const char *Name : {"a", "b", "c", "d"}) {
    RunResult Tree = Comp->run(Name, Backend::TreeInterp);
    RunResult Mach = Comp->run(Name, Backend::AbstractMachine);
    ASSERT_TRUE(Tree.ok()) << Name << ": " << Tree.Error;
    ASSERT_TRUE(Mach.ok()) << Name << ": " << Mach.Error;
    EXPECT_EQ(Tree.IntValue.value_or(-1), Mach.IntValue.value_or(-2))
        << Name;
  }
}

//===----------------------------------------------------------------------===//
// Fragment boundaries — one pinned diagnostic per remaining
// "not expressible in L" branch in LowerToL.cpp, so fragment growth is
// deliberate and documented.
//===----------------------------------------------------------------------===//

TEST(DriverTest, MachineRunsConstructorCases) {
  // PR 5: Bool's True/False alternatives (surface `if`) lower through
  // the tag-dispatch case — both backends agree.
  Session S;
  auto Comp = S.compile("flag = if isTrue# (3# <# 4#) then 1# else 0#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("flag", Backend::AbstractMachine);
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Mach.IntValue.value_or(-1), 1);
  EXPECT_GT(Mach.Machine.Switches, 0u);
  EXPECT_EQ(Comp->run("flag", Backend::TreeInterp).IntValue.value_or(-2),
            1);
}

TEST(DriverTest, MachineRunsNaryConstructors) {
  // An n-ary user data type: constructor allocation and tag dispatch
  // through the whole pipeline, with a lazy boxed field left unforced.
  Session S;
  auto Comp = S.compile(
      "data P2 = MkP2 Int Int ;"
      "first :: P2 -> Int# ;"
      "first p = case p of { MkP2 a b -> case a of { I# x -> x } } ;"
      "v = first (MkP2 (I# 31#) (error \"second field unforced\"))");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("v", Backend::AbstractMachine);
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Mach.IntValue.value_or(-1), 31);
  EXPECT_GT(Mach.Machine.Branches, 0u);
  RunResult Tree = Comp->run("v", Backend::TreeInterp);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  EXPECT_EQ(Tree.IntValue.value_or(-2), 31);
}

TEST(DriverTest, FragmentRejectsConversionPrimop) {
  Session S;
  auto Comp = S.compile("conv = int2Double# 3#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("conv", Backend::AbstractMachine);
  EXPECT_EQ(Mach.St, RunResult::Status::Unsupported);
  EXPECT_EQ(Mach.Error, "not expressible in L: primop int2Double#");
  EXPECT_TRUE(Comp->run("conv", Backend::TreeInterp).ok());
}

TEST(DriverTest, FragmentRejectsLitCaseWithoutDefault) {
  Session S;
  auto Comp = S.compile("f :: Int# -> Int# ;"
                        "f x = case x of { 0# -> 1# } ;"
                        "v = f 0#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("v", Backend::AbstractMachine);
  EXPECT_EQ(Mach.St, RunResult::Status::Unsupported);
  EXPECT_EQ(Mach.Error, "not expressible in L: literal case without a "
                        "default alternative");
  EXPECT_EQ(Comp->run("v", Backend::TreeInterp).IntValue.value_or(-1), 1);
}

TEST(DriverTest, MachineRunsDefaultOnlyCase) {
  // PR 5 fix: a default-only case forces the scrutinee and takes the
  // default — no more "scrutinee sort" rejection.
  Session S;
  auto Comp = S.compile("g :: Int# -> Int# ;"
                        "g x = case x of { _ -> 2# } ;"
                        "v = g 7#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("v", Backend::AbstractMachine);
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Mach.IntValue.value_or(-1), 2);
  EXPECT_EQ(Comp->run("v", Backend::TreeInterp).IntValue.value_or(-2), 2);
}

TEST(DriverTest, DefaultOnlyCaseStillForcesBottomScrutinee) {
  // The default-only case is a force, not a no-op: a bottom scrutinee
  // must abort on both backends.
  Session S;
  auto Comp = S.compile("g :: Int -> Int# ;"
                        "g x = case x of { _ -> 2# } ;"
                        "v = g (error \"forced\")");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("v", Backend::AbstractMachine);
  EXPECT_EQ(Mach.St, RunResult::Status::Bottom);
  EXPECT_EQ(Mach.Error, "forced");
  RunResult Tree = Comp->run("v", Backend::TreeInterp);
  EXPECT_EQ(Tree.St, RunResult::Status::Bottom);
  EXPECT_EQ(Tree.Error, "forced");
}

TEST(DriverTest, FragmentRejectsUnboxedTuples) {
  Session S;
  auto Comp = S.compile("p = (# 1#, 2# #)");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("p", Backend::AbstractMachine);
  EXPECT_EQ(Mach.St, RunResult::Status::Unsupported);
  EXPECT_EQ(Mach.Error,
            "not expressible in L: unboxed tuple expression");
}

TEST(DriverTest, FragmentRejectsNonExhaustiveConCaseWithoutDefault) {
  // A constructor case must cover every tag or carry a default: L's
  // E_CASE would otherwise lose progress (an unmatched value has no
  // rule), so the lowering rejects it up front.
  Session S;
  auto Comp = S.compile("data Maybe a = Nothing | Just a ;"
                        "f :: Maybe Int -> Int# ;"
                        "f m = case m of { Just n -> 1# } ;"
                        "v = f Nothing");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Mach = Comp->run("v", Backend::AbstractMachine);
  EXPECT_EQ(Mach.St, RunResult::Status::Unsupported);
  EXPECT_EQ(Mach.Error,
            "not expressible in L: non-exhaustive constructor case "
            "without a default alternative");
}

TEST(DriverTest, TopLevelMutualRecursionRunsOnEveryBackend) {
  // Each global reaches the other through its cell: no knot, no fix.
  Session S;
  auto Comp = S.compile(
      "ev :: Int# -> Int# ;"
      "ev n = case n of { 0# -> 1# ; _ -> od (n -# 1#) } ;"
      "od :: Int# -> Int# ;"
      "od n = case n of { 0# -> 0# ; _ -> ev (n -# 1#) } ;"
      "v = ev 10# ;"
      "w = od 7#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  for (Backend B :
       {Backend::TreeInterp, Backend::AbstractMachine, Backend::Bytecode}) {
    RunResult V = Comp->run("v", B);
    RunResult W = Comp->run("w", B);
    ASSERT_TRUE(V.ok()) << backendName(B) << ": " << V.Error;
    ASSERT_TRUE(W.ok()) << backendName(B) << ": " << W.Error;
    EXPECT_EQ(V.Used, B);
    EXPECT_EQ(V.Display, "1#") << backendName(B);
    EXPECT_EQ(W.Display, "1#") << backendName(B);
  }
}

TEST(DriverTest, UnsupportedGlobalDoesNotFailItsNeighbours) {
  // A global outside the fragment fails alone with its own diagnostic;
  // so does every global that uses it, and no other.
  Session S;
  auto Comp = S.compile("conv = int2Double# 3# ;"
                        "ok = 5# ;"
                        "user = conv");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  for (Backend B : {Backend::AbstractMachine, Backend::Bytecode}) {
    RunResult Ok = Comp->run("ok", B);
    ASSERT_TRUE(Ok.ok()) << backendName(B) << ": " << Ok.Error;
    EXPECT_EQ(Ok.Used, B);
    EXPECT_EQ(Ok.Display, "5#");
    for (const char *Name : {"conv", "user"}) {
      RunResult R = Comp->run(Name, B);
      EXPECT_EQ(R.St, RunResult::Status::Unsupported) << Name;
      EXPECT_EQ(R.Used, B);
      EXPECT_EQ(R.Error, "not expressible in L: primop int2Double#") << Name;
    }
  }
}

TEST(DriverTest, MachineRunsNonIHashConstructors) {
  // PR 5: MkPair (algebraic data beyond Int) from the sample program
  // now lowers; both backends reach a constructor value.
  Session S;
  auto Comp = S.compileProgram(runtime::buildSampleProgram);
  ASSERT_TRUE(Comp->ok());
  RunResult Mach = Comp->run("divModBoxed", Backend::AbstractMachine);
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  RunResult Tree = Comp->run("divModBoxed", Backend::TreeInterp);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;
  // Neither backend reports a scalar for a Pair value.
  EXPECT_FALSE(Mach.IntValue.has_value());
  EXPECT_FALSE(Tree.IntValue.has_value());
}

TEST(DriverTest, FragmentRejectsMutuallyRecursiveLet) {
  // A two-binding letrec expression (built programmatically; the fix
  // lowering only covers single bindings).
  Session S;
  auto Comp = S.compileProgram([](core::CoreContext &C) {
    const core::Type *IntT = C.intTy();
    Symbol A = C.sym("a"), B = C.sym("b");
    core::RecBinding RBs[2] = {{A, IntT, C.var(B)}, {B, IntT, C.var(A)}};
    core::CoreProgram P;
    P.Bindings.push_back(
        {C.sym("knot"), IntT, C.letRec(RBs, C.var(A))});
    return P;
  });
  ASSERT_TRUE(Comp->ok());
  RunResult Mach = Comp->run("knot", Backend::AbstractMachine);
  EXPECT_EQ(Mach.St, RunResult::Status::Unsupported);
  EXPECT_EQ(Mach.Error, "not expressible in L: mutually recursive let");
}

//===----------------------------------------------------------------------===//
// Error lowering — the diagnostic message survives the machine pipeline
//===----------------------------------------------------------------------===//

TEST(DriverTest, MachineBackendSurfacesErrorMessages) {
  // `error "msg"` lowers with the message attached to the L/M error
  // node; a machine-backend ⊥ run reports the original string, matching
  // the tree interpreter.
  Session S;
  auto Comp = S.compile("boom :: Int# ;"
                        "boom = error \"the message survives\"");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run("boom", Backend::TreeInterp);
  RunResult Mach = Comp->run("boom", Backend::AbstractMachine);
  EXPECT_EQ(Tree.St, RunResult::Status::Bottom);
  EXPECT_EQ(Mach.St, RunResult::Status::Bottom);
  EXPECT_EQ(Tree.Error, "the message survives");
  EXPECT_EQ(Mach.Error, "the message survives");
}

//===----------------------------------------------------------------------===//
// (b) The compilation cache
//===----------------------------------------------------------------------===//

TEST(DriverTest, CacheReturnsSameCompilationForIdenticalSource) {
  Session S;
  auto First = S.compile(QuickstartSrc);
  auto Second = S.compile(QuickstartSrc);
  EXPECT_EQ(First.get(), Second.get());
  Session::Stats St = S.stats(); // one snapshot, fields read together
  EXPECT_EQ(St.Compilations, 1u);
  EXPECT_EQ(St.CacheHits, 1u);

  auto Different = S.compile("answer = 41# +# 1#");
  EXPECT_NE(First.get(), Different.get());
  EXPECT_EQ(S.stats().Compilations, 2u);
}

TEST(DriverTest, CacheCanBeDisabled) {
  CompileOptions Opts;
  Opts.EnableCache = false;
  Session S(Opts);
  auto First = S.compile(QuickstartSrc);
  auto Second = S.compile(QuickstartSrc);
  EXPECT_NE(First.get(), Second.get());
  Session::Stats St = S.stats(); // one snapshot, fields read together
  EXPECT_EQ(St.Compilations, 2u);
  EXPECT_EQ(St.CacheHits, 0u);
}

TEST(DriverTest, CachedCompilationKeepsLoweredBackends) {
  // The point of caching whole Compilations: a repeated run skips
  // re-elaboration *and* re-lowering.
  Session S;
  auto First = S.compile(QuickstartSrc);
  ASSERT_TRUE(First->run("answer", Backend::AbstractMachine).ok());
  auto Second = S.compile(QuickstartSrc);
  RunResult R = Second->run("answer", Backend::AbstractMachine);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.IntValue.value_or(-1), 42);
}

TEST(DriverTest, SourceHashIsStable) {
  EXPECT_EQ(Session::hashSource(QuickstartSrc),
            Session::hashSource(QuickstartSrc));
  EXPECT_NE(Session::hashSource("a = 1#"), Session::hashSource("a = 2#"));
  Session S;
  EXPECT_EQ(S.compile(QuickstartSrc)->sourceHash(),
            Session::hashSource(QuickstartSrc));
}

//===----------------------------------------------------------------------===//
// (c) Diagnostics through the facade
//===----------------------------------------------------------------------===//

/// Runs \p Fn on a thread with a 1-MiB stack, 8x less than the default,
/// in an optimized build. Sanitizers and unoptimized builds grow frames
/// several times over (ASan about tenfold), so those get the default
/// 8 MiB.
void onSmallStack(const std::function<void()> &Fn) {
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) &&                       \
    !defined(__SANITIZE_THREAD__)
  const size_t Stack = size_t{1} << 20;
#else
  const size_t Stack = size_t{8} << 20;
#endif
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, Stack);
  pthread_t T;
  auto Trampoline = [](void *F) -> void * {
    (*static_cast<const std::function<void()> *>(F))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&T, &Attr, Trampoline,
                           const_cast<std::function<void()> *>(&Fn)),
            0);
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
}

TEST(DriverTest, NestingBudgetAdmitsExactlyItsDepth) {
  // Each shape nests Levels deep. At the budget the program compiles
  // and runs on every backend within a 1-MiB stack (8 MiB under a
  // sanitizer or in a debug build); one level more is the typed
  // diagnostic.
  auto Repeat = [](const std::string &S, unsigned N) {
    std::string Out;
    for (unsigned I = 0; I != N; ++I)
      Out += S;
    return Out;
  };
  struct Shape {
    const char *Name;
    std::function<std::string(unsigned)> Source;
    std::string Answer;
  };
  const unsigned Max = surface::MaxNestingDepth;
  const std::vector<Shape> Shapes = {
      {"parens",
       [&](unsigned L) {
         return "v = " + Repeat("(", L - 1) + "1#" + Repeat(")", L - 1);
       },
       "1#"},
      {"operator chain",
       [&](unsigned L) { return "v = 1#" + Repeat(" +# 1#", L - 1); },
       std::to_string(Max) + "#"},
      {"lambdas",
       [&](unsigned L) { return "v = " + Repeat("\\x -> ", L - 1) + "1#"; },
       "<closure>"},
      {"case",
       [&](unsigned L) {
         return "v = " + Repeat("case 1# of { _ -> ", L - 1) + "1#" +
                Repeat(" }", L - 1);
       },
       "1#"},
      {"let",
       [&](unsigned L) { return "v = " + Repeat("let a = 1# in ", L - 1) + "a"; },
       "1#"},
  };
  for (const Shape &Sh : Shapes) {
    SCOPED_TRACE(Sh.Name);
    onSmallStack([&] {
      Session S;
      auto Comp = S.compile(Sh.Source(Max));
      ASSERT_TRUE(Comp->ok()) << Comp->diagText();
      for (Backend B : {Backend::TreeInterp, Backend::AbstractMachine,
                        Backend::Bytecode}) {
        RunResult R = Comp->run("v", B);
        ASSERT_TRUE(R.ok()) << backendName(B) << ": " << R.Error;
        EXPECT_EQ(R.Display, Sh.Answer) << backendName(B);
      }
      auto Deeper = S.compile(Sh.Source(Max + 1));
      ASSERT_FALSE(Deeper->ok());
      ASSERT_EQ(Deeper->diags().diagnostics().size(), 1u)
          << Deeper->diagText();
      EXPECT_EQ(Deeper->diags().diagnostics()[0].Code,
                DiagCode::NestingTooDeep);
    });
  }
}

TEST(DriverTest, DiagnosticsCarryLocAndCode) {
  Session S;
  auto Comp = S.compile("main =\n  nonexistent");
  ASSERT_FALSE(Comp->ok());

  bool Found = false;
  for (const Diagnostic &D : Comp->diags().diagnostics()) {
    if (D.Sev != Severity::Error)
      continue;
    EXPECT_NE(D.Code, DiagCode::None);
    if (D.Loc.isValid()) {
      Found = true;
      EXPECT_EQ(D.Loc.Line, 2u);
    }
  }
  EXPECT_TRUE(Found) << "no error carried a source location:\n"
                     << Comp->diagText();
  EXPECT_TRUE(Comp->diags().hasError(DiagCode::ScopeError))
      << Comp->diagText();
}

TEST(DriverTest, LevityRestrictionSurfacesThroughFacade) {
  Session S;
  auto Comp = S.compile("bad :: forall r (a :: TYPE r). a -> a ;"
                        "bad x = x");
  ASSERT_FALSE(Comp->ok());
  EXPECT_TRUE(Comp->diags().hasError(DiagCode::LevityPolymorphicBinder))
      << Comp->diagText();

  // Running a failed compilation reports the failure instead of crashing.
  RunResult R = Comp->run("bad");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("compilation failed"), std::string::npos);
}

TEST(DriverTest, ParseErrorsStopThePipeline) {
  Session S;
  auto Comp = S.compile("main = (1# +#");
  ASSERT_FALSE(Comp->ok());
  EXPECT_TRUE(Comp->diags().hasErrors());
  EXPECT_EQ(Comp->program(), nullptr);
}

//===----------------------------------------------------------------------===//
// The shared prelude
//===----------------------------------------------------------------------===//

/// Runs \p Name on all three backends and expects \p Display from each.
void expectOnEveryBackend(const Compilation &Comp, std::string_view Name,
                          const std::string &Display) {
  for (Backend B : {Backend::TreeInterp, Backend::AbstractMachine,
                    Backend::Bytecode}) {
    RunResult R = Comp.run(Name, B);
    ASSERT_TRUE(R.ok()) << backendName(B) << ": " << R.Error;
    EXPECT_EQ(R.Display, Display) << backendName(B);
  }
}

TEST(DriverTest, CompilationsShareThePreludesTermsAndTycons) {
  Session S1, S2;
  auto A = S1.compile("v = plusInt (I# 1#) (I# 2#)");
  auto B = S2.compile("w = eqInt (I# 1#) (I# 2#)");
  ASSERT_TRUE(A->ok()) << A->diagText();
  ASSERT_TRUE(B->ok()) << B->diagText();

  Symbol PlusA = A->ctx().sym("plusInt");
  Symbol PlusB = B->ctx().sym("plusInt");
  EXPECT_EQ(PlusA, PlusB);
  const core::TopBinding *InA = A->program()->find(PlusA);
  const core::TopBinding *InB = B->program()->find(PlusB);
  ASSERT_NE(InA, nullptr);
  ASSERT_NE(InB, nullptr);
  EXPECT_EQ(InA->Rhs, InB->Rhs);
  EXPECT_EQ(A->ctx().intTyCon(), B->ctx().intTyCon());
  EXPECT_EQ(A->ctx().boolTyCon(), B->ctx().boolTyCon());
}

TEST(DriverTest, UserBindingShadowsABuiltin) {
  // With a signature at another type, and without one: either way the
  // module's `id` replaces the prelude's, on every backend.
  Session S;
  auto Sig = S.compile("id :: Int# -> Int# ;"
                       "id x = x +# 1# ;"
                       "v = id 41#");
  ASSERT_TRUE(Sig->ok()) << Sig->diagText();
  EXPECT_EQ(Sig->globalType("id")->str(), "Int# -> Int#");
  expectOnEveryBackend(*Sig, "v", "42#");

  auto Inferred = S.compile("id x = x +# 1# ;"
                            "v = id 41#");
  ASSERT_TRUE(Inferred->ok()) << Inferred->diagText();
  expectOnEveryBackend(*Inferred, "v", "42#");

  // A builtin the module does not rebind stays available beside it.
  auto Mixed = S.compile("id :: Int -> Int ;"
                         "id n = plusInt n n ;"
                         "v = case id (I# 4#) of { I# r -> r }");
  ASSERT_TRUE(Mixed->ok()) << Mixed->diagText();
  expectOnEveryBackend(*Mixed, "v", "8#");
}

TEST(DriverTest, UserBindersNamedLikePreludeBindersAreNotCaptured) {
  // plusInt binds a, b, x and y; $ and . bind fresh f, g and x. Globals
  // and parameters of those names must stay the module's own.
  Session S;
  auto Comp = S.compile("x = 5# ;"
                        "a :: Int ;"
                        "a = I# 3# ;"
                        "f :: Int -> Int ;"
                        "f y = plusInt a y ;"
                        "g f x = (f . f) $ x ;"
                        "v = case g f (I# x) of { I# b -> b }");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  expectOnEveryBackend(*Comp, "v", "11#");
}

//===----------------------------------------------------------------------===//
// Stage timings
//===----------------------------------------------------------------------===//

TEST(DriverTest, TimingsCoverEveryStage) {
  Session S;
  auto Comp = S.compile(QuickstartSrc);
  ASSERT_TRUE(Comp->ok());
  ASSERT_EQ(Comp->timings().size(), 4u);
  EXPECT_EQ(Comp->timings()[0].Stage, "lex");
  EXPECT_EQ(Comp->timings()[1].Stage, "parse");
  EXPECT_EQ(Comp->timings()[2].Stage, "elaborate");
  EXPECT_EQ(Comp->timings()[3].Stage, "lint");
  for (const StageTiming &T : Comp->timings())
    EXPECT_GE(T.Millis, 0.0);
  EXPECT_FALSE(Comp->timingReport().empty());
}

//===----------------------------------------------------------------------===//
// Programmatic (core-IR) compilations
//===----------------------------------------------------------------------===//

TEST(DriverTest, ProgrammaticCompilationRidesTheFacade) {
  Session S;
  auto Comp = S.compileProgram(runtime::buildSampleProgram);
  ASSERT_TRUE(Comp->ok());
  RunResult R = Comp->run("sumTo#");
  ASSERT_TRUE(R.ok()) << R.Error; // a function value
  Executor Ex(Comp);
  runtime::InterpResult IR =
      Ex.evalExpr(runtime::callSumToUnboxed(Comp->ctx(), 100));
  ASSERT_EQ(IR.Status, runtime::InterpStatus::Value);
  EXPECT_EQ(intHash(IR.V).value_or(-1), 5050);
  // The unboxed loop allocates nothing (Section 2.1's claim).
  EXPECT_EQ(IR.Stats.ThunkAllocs + IR.Stats.BoxAllocs, 0u);
}

//===----------------------------------------------------------------------===//
// Fuel exhaustion: the typed deadline signal, pinned per backend
//===----------------------------------------------------------------------===//

const char *LoopTotalSrc =
    "sumToH :: Int# -> Int# -> Int# ;"
    "sumToH acc n = case n of {"
    "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
    "} ;"
    "total = sumToH 0# 1000#";

TEST(DriverTest, FuelExhaustionIsPinnedPerBackend) {
  // Every backend maps its step budget running out to the SAME result:
  // Status::OutOfFuel with the pinned "out of fuel" reason. The server
  // turns exactly this pair into a typed TIMEOUT response, so it is a
  // wire contract, not a wording choice.
  Session S;
  auto Comp = S.compile(LoopTotalSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  for (Backend B : {Backend::TreeInterp, Backend::AbstractMachine,
                    Backend::Bytecode}) {
    Executor Ex(Comp);
    Ex.options().MaxInterpSteps = 1;
    Ex.options().MaxMachineSteps = 1;
    Ex.options().MaxVmSteps = 1;
    RunResult R = Ex.run("total", B);
    EXPECT_EQ(R.St, RunResult::Status::OutOfFuel)
        << "backend " << backendName(B);
    EXPECT_EQ(R.Error, "out of fuel") << "backend " << backendName(B);
    EXPECT_EQ(R.Used, B) << "backend " << backendName(B);
    EXPECT_FALSE(R.ok());
  }
}

TEST(DriverTest, RunAllPerRequestFuelIsADeadline) {
  // RunRequest::Fuel overrides every backend's budget for that request
  // only: starved requests come back OutOfFuel while an unstarved
  // request for the same program still completes.
  Session S;
  std::vector<Session::RunRequest> Reqs;
  for (Backend B : {Backend::TreeInterp, Backend::AbstractMachine,
                    Backend::Bytecode}) {
    Session::RunRequest R;
    R.Source = LoopTotalSrc;
    R.Name = "total";
    R.B = B;
    R.Fuel = 1;
    Reqs.push_back(std::move(R));
  }
  Session::RunRequest Full;
  Full.Source = LoopTotalSrc;
  Full.Name = "total";
  Full.B = Backend::Bytecode;
  Reqs.push_back(std::move(Full));

  std::vector<RunResult> Results = S.runAll(Reqs);
  ASSERT_EQ(Results.size(), 4u);
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_EQ(Results[I].St, RunResult::Status::OutOfFuel) << I;
    EXPECT_EQ(Results[I].Error, "out of fuel") << I;
  }
  ASSERT_TRUE(Results[3].ok()) << Results[3].Error;
  EXPECT_EQ(Results[3].IntValue.value_or(-1), 500500);
}

TEST(DriverTest, OneFuelValueGivesOneStatusOnMachineAndBytecode) {
  // Fuel pays for steps only, on every engine: a run that reports N
  // steps finishes with fuel N and runs out with N - 1. So a budget at
  // least both engines' step counts finishes on both, and one below
  // both runs out on both.
  Session S;
  auto Comp = S.compile(LoopTotalSrc);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  auto RunWith = [&](Backend B, uint64_t Fuel) {
    Executor Ex(Comp);
    Ex.options().MaxInterpSteps = Fuel;
    Ex.options().MaxMachineSteps = Fuel;
    Ex.options().MaxVmSteps = Fuel;
    return Ex.run("total", B);
  };
  const uint64_t Ample = uint64_t{1} << 30;
  for (Backend B : {Backend::TreeInterp, Backend::AbstractMachine,
                    Backend::Bytecode}) {
    RunResult Full = RunWith(B, Ample);
    ASSERT_TRUE(Full.ok()) << backendName(B) << ": " << Full.Error;
    ASSERT_EQ(Full.Used, B);
    EXPECT_TRUE(RunWith(B, Full.steps()).ok()) << backendName(B);
    EXPECT_EQ(RunWith(B, Full.steps() - 1).St, RunResult::Status::OutOfFuel)
        << backendName(B);
  }

  const uint64_t M = RunWith(Backend::AbstractMachine, Ample).steps();
  const uint64_t V = RunWith(Backend::Bytecode, Ample).steps();
  for (uint64_t Fuel : {std::max(M, V), std::min(M, V) - 1})
    EXPECT_EQ(RunWith(Backend::AbstractMachine, Fuel).St,
              RunWith(Backend::Bytecode, Fuel).St)
        << "fuel " << Fuel;
}

TEST(DriverTest, CompileReportsPerCallOutcome) {
  // The CompileOutcome out-param attributes each call exactly: first
  // compile is FrontEnd, repeats are CacheHit, and the outcomes
  // reconcile with the session counters.
  Session S;
  CompileOutcome O1, O2;
  auto A = S.compile(QuickstartSrc, O1);
  auto B = S.compile(QuickstartSrc, O2);
  ASSERT_TRUE(A->ok());
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(O1, CompileOutcome::FrontEnd);
  EXPECT_EQ(O2, CompileOutcome::CacheHit);

  Session::Stats St = S.stats();
  EXPECT_EQ(St.Compilations, 1u);
  EXPECT_EQ(St.CacheHits, 1u);
}

TEST(DriverTest, RunAllWritesOutcomes) {
  Session S;
  CompileOutcome O[2] = {};
  std::vector<Session::RunRequest> Reqs(2);
  Reqs[0].Source = QuickstartSrc;
  Reqs[0].Name = "answer";
  Reqs[0].Outcome = &O[0];
  Reqs[1].Source = QuickstartSrc;
  Reqs[1].Name = "answer";
  Reqs[1].Outcome = &O[1];

  std::vector<RunResult> Results = S.runAll(Reqs);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].ok() && Results[1].ok());
  // Requests run in order: the first builds, the second hits its cache
  // entry.
  EXPECT_EQ(O[0], CompileOutcome::FrontEnd);
  EXPECT_EQ(O[1], CompileOutcome::CacheHit);
}

} // namespace
