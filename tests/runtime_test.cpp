//===- runtime_test.cpp - Instrumented evaluator + cost model (E1/E3) -----===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The interpreter's semantics (laziness, strictness, recursion, sharing,
// erasure) and the *cost-model* claims of Sections 2.1 and 2.3: the boxed
// loop allocates per iteration, the unboxed loop allocates nothing;
// unboxed tuples return through registers with zero heap traffic.
//
//===----------------------------------------------------------------------===//

#include "PipelineFixture.h"
#include "core/TypeCheck.h"
#include "runtime/Interp.h"
#include "runtime/Samples.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::core;
using namespace levity::runtime;

namespace {

class InterpTest : public ::testing::Test {
protected:
  CoreContext C;
  Interp I{C};

  int64_t evalIntHash(const Expr *E) {
    InterpResult R = I.eval(E);
    EXPECT_EQ(R.Status, InterpStatus::Value) << R.Message;
    std::optional<int64_t> V = intHash(R.V);
    EXPECT_TRUE(V.has_value());
    return V.value_or(-999);
  }
};

TEST_F(InterpTest, LiteralsAndPrims) {
  EXPECT_EQ(evalIntHash(C.litInt(42)), 42);
  EXPECT_EQ(evalIntHash(C.primOp(PrimOp::AddI,
                                 {C.litInt(40), C.litInt(2)})),
            42);
  EXPECT_EQ(evalIntHash(C.primOp(PrimOp::MulI,
                                 {C.litInt(6), C.litInt(7)})),
            42);
}

TEST_F(InterpTest, DivideByZeroIsRuntimeError) {
  InterpResult R =
      I.eval(C.primOp(PrimOp::QuotI, {C.litInt(1), C.litInt(0)}));
  EXPECT_EQ(R.Status, InterpStatus::RuntimeError);
}

TEST_F(InterpTest, StrictApplicationEvaluatesNow) {
  // (\(x :: Int#) -> 1#) applied to error must diverge.
  Symbol X = C.sym("x");
  const Expr *Fn = C.lam(X, C.intHashTy(), C.litInt(1));
  const Expr *Bottom =
      C.errorExpr(C.intHashTy(), C.intRep(), C.litString(C.sym("boom")));
  InterpResult R = I.eval(C.app(Fn, Bottom, /*StrictArg=*/true));
  EXPECT_EQ(R.Status, InterpStatus::Bottom);
  EXPECT_EQ(R.Message, "boom");
}

TEST_F(InterpTest, LazyApplicationDefersWork) {
  // (\(x :: Int) -> 1#) applied to error terminates: x is never forced.
  Symbol X = C.sym("x");
  const Expr *Fn = C.lam(X, C.intTy(), C.litInt(1));
  const Expr *Bottom =
      C.errorExpr(C.intTy(), C.liftedRep(), C.litString(C.sym("boom")));
  InterpResult R = I.eval(C.app(Fn, Bottom, /*StrictArg=*/false));
  EXPECT_EQ(R.Status, InterpStatus::Value);
  EXPECT_EQ(R.Stats.ThunkAllocs, 1u);
  EXPECT_EQ(R.Stats.ThunkForces, 0u);
}

TEST_F(InterpTest, ThunkSharingForcesOnce) {
  // let x = <expensive> in x + x forces the thunk once.
  Symbol X = C.sym("x");
  const Expr *Expensive =
      C.primOp(PrimOp::AddI, {C.litInt(20), C.litInt(1)});
  // x :: Int (boxed) so the let is lazy; unbox twice and add.
  const Expr *Boxed = C.conApp(C.iHashCon(), {}, {&Expensive, 1});
  Symbol A = C.sym("a"), B = C.sym("b");
  Alt AltA;
  AltA.Kind = Alt::AltKind::ConPat;
  AltA.Con = C.iHashCon();
  AltA.Binders = C.arena().copyArray({A});
  Alt AltB = AltA;
  AltB.Binders = C.arena().copyArray({B});
  AltB.Rhs = C.primOp(PrimOp::AddI, {C.var(A), C.var(B)});
  AltA.Rhs = C.caseOf(C.var(X), C.intHashTy(), {&AltB, 1});
  const Expr *Body = C.caseOf(C.var(X), C.intHashTy(), {&AltA, 1});
  const Expr *E = C.let(X, C.intTy(), Boxed, Body, /*Strict=*/false);
  InterpResult R = I.eval(E);
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 42);
  EXPECT_EQ(R.Stats.ThunkForces, 1u) << "thunk must be shared";
}

TEST_F(InterpTest, InfiniteLoopDetectedAsBlackHole) {
  // letrec x = x in x — forcing a black hole is <<loop>>.
  Symbol X = C.sym("x");
  RecBinding B{X, C.intTy(), C.var(X)};
  const Expr *E = C.letRec({&B, 1}, C.var(X));
  InterpResult R = I.eval(E);
  EXPECT_EQ(R.Status, InterpStatus::RuntimeError);
  EXPECT_EQ(R.Message, "<<loop>>");
}

TEST_F(InterpTest, TypeApplicationErased) {
  // (/\(a::Type) -> \(x::a) -> x) @Int applied to boxed 5.
  Symbol A = C.sym("a"), X = C.sym("x");
  const Type *AT = C.varTy(A, C.typeKind());
  const Expr *PolyId = C.tyLam(A, C.typeKind(), C.lam(X, AT, C.var(X)));
  const Expr *Five = C.litInt(5);
  const Expr *Boxed = C.conApp(C.iHashCon(), {}, {&Five, 1});
  const Expr *E = C.app(C.tyApp(PolyId, C.intTy()), Boxed, false);
  InterpResult R = I.eval(E);
  ASSERT_EQ(R.Status, InterpStatus::Value);
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 5);
}

//===--------------------------------------------------------------------===//
// The sample programs (sumTo and friends)
//===--------------------------------------------------------------------===//

class SamplesTest : public ::testing::Test {
protected:
  CoreContext C;
  Interp I{C};

  void SetUp() override { I.loadProgram(buildSampleProgram(C)); }
};

TEST_F(SamplesTest, SumToBoxedComputes) {
  InterpResult R = I.eval(callSumToBoxed(C, 100));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 5050);
}

TEST_F(SamplesTest, SumToUnboxedComputes) {
  InterpResult R = I.eval(callSumToUnboxed(C, 100));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 5050);
}

TEST_F(SamplesTest, SumToDoubleComputes) {
  InterpResult R = I.eval(callSumToDouble(C, 100.0));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_DOUBLE_EQ(doubleHash(R.V).value_or(-1), 5050.0);
}

// Section 2.1's claim, as cost-model facts: the boxed loop allocates
// thunks and boxes per iteration; the unboxed loop allocates *nothing*.
TEST_F(SamplesTest, BoxedLoopAllocatesPerIteration) {
  const int64_t N = 1000;
  InterpResult R = I.eval(callSumToBoxed(C, N));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  // Two lazy arguments per iteration → ≥ 2N thunks; plusInt/minusInt box
  // their results → ≥ 2N boxes.
  EXPECT_GE(R.Stats.ThunkAllocs, uint64_t(2 * N));
  EXPECT_GE(R.Stats.BoxAllocs, uint64_t(2 * N));
}

TEST_F(SamplesTest, UnboxedLoopAllocatesNothing) {
  const int64_t N = 1000;
  InterpResult R = I.eval(callSumToUnboxed(C, N));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(R.Stats.ThunkAllocs, 0u);
  EXPECT_EQ(R.Stats.BoxAllocs, 0u);
  // Only the two top-level closures for sumTo# itself.
  EXPECT_LE(R.Stats.ClosureAllocs, uint64_t(2 * N + 2));
}

TEST_F(SamplesTest, UnboxedLoopRunsDeep) {
  // Tail recursion must run in constant C++ stack.
  InterpResult R = I.eval(callSumToUnboxed(C, 200000));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1),
            int64_t(200000) * 200001 / 2);
}

// Section 2.3: divMod via unboxed tuple returns two values with zero
// heap allocation; the boxed version allocates a pair and two boxes.
TEST_F(SamplesTest, DivModUnboxedIsAllocationFree) {
  InterpResult R = I.eval(callDivModUnboxed(C, 17, 5));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 3002);
  EXPECT_EQ(R.Stats.heapAllocations() - R.Stats.ClosureAllocs, 0u);
  EXPECT_GE(R.Stats.TupleMoves, 1u);
}

TEST_F(SamplesTest, DivModBoxedAllocates) {
  InterpResult R = I.eval(callDivModBoxed(C, 17, 5));
  ASSERT_EQ(R.Status, InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 3002);
  // One pair + two result boxes + two argument boxes at least.
  EXPECT_GE(R.Stats.BoxAllocs, 3u);
}

// The samples pass Core Lint, Section 5.1 checks included — the
// pipeline invariant every elaborated program must satisfy.
TEST_F(SamplesTest, SamplesLintAndLevityCheck) {
  CoreProgram P = buildSampleProgram(C);
  CoreChecker Checker(C);
  CoreEnv Env;
  for (const TopBinding &B : P.Bindings)
    Env.addGlobal(B.Name, B.Ty);
  DiagnosticEngine Diags;
  for (const TopBinding &B : P.Bindings)
    EXPECT_TRUE(Checker.lint(Env, B, Diags))
        << std::string(B.Name.str()) << ": " << Diags.str();
}

// Fuel exhaustion is reported, not hung.
TEST_F(SamplesTest, FuelExhaustion) {
  InterpResult R = I.eval(callSumToBoxed(C, 1000000), /*MaxSteps=*/1000);
  EXPECT_EQ(R.Status, InterpStatus::OutOfFuel);
}

} // namespace
