//===- integration_test.cpp - Cross-module pipeline edge cases ------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// End-to-end scenarios that cross several modules at once: mixed-rep
// programs, deep recursion through the pipeline, error propagation,
// laziness interacting with classes, and diagnostics quality.
//
//===----------------------------------------------------------------------===//

#include "PipelineFixture.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::surface;

namespace {

// Fibonacci with boxed ints: deep-ish recursion + sharing.
TEST(IntegrationTest, FibBoxed) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "fib :: Int -> Int ;"
      "fib n = case n < 2 of {"
      "  True -> n ;"
      "  False -> fib (n - 1) + fib (n - 2)"
      "} ;"
      "main = fib 15"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 610);
}

// GCD at Int#: a non-tail recursion over unboxed values.
TEST(IntegrationTest, GcdUnboxed) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "gcdH :: Int# -> Int# -> Int# ;"
      "gcdH a b = case b of {"
      "  0# -> a ;"
      "  _  -> gcdH b (remInt# a b)"
      "} ;"
      "main = gcdH 1071# 462#"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 21);
  EXPECT_EQ(R.Stats.heapAllocations() - R.Stats.ClosureAllocs, 0u);
}

// Mixed representations through one data type: unbox, compute at
// Double#, rebox.
TEST(IntegrationTest, MixedRepRoundTrip) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "data Vec = MkVec Double# Double# ;"
      "norm2 :: Vec -> Double# ;"
      "norm2 v = case v of {"
      "  MkVec x y -> x *## x +## y *## y"
      "} ;"
      "main = norm2 (MkVec 3.0## 4.0##)"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_DOUBLE_EQ(doubleHash(R.V).value_or(-1), 25.0);
}

// Unlifted fields are strict: constructing the box forces them.
TEST(IntegrationTest, UnliftedFieldsAreStrict) {
  Pipeline P;
  ASSERT_TRUE(P.compile("data Box = MkBox Int# ;"
                        "main = case MkBox (error \"strict!\") of {"
                        "  MkBox n -> 1#"
                        "}"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  EXPECT_EQ(R.Status, runtime::InterpStatus::Bottom);
  EXPECT_EQ(R.Message, "strict!");
}

// ...while lifted fields are lazy.
TEST(IntegrationTest, LiftedFieldsAreLazy) {
  Pipeline P;
  ASSERT_TRUE(P.compile("data Box = MkBox Int ;"
                        "main = case MkBox (error \"lazy\") of {"
                        "  MkBox n -> 1#"
                        "}"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
}

// Unboxed tuples as arguments AND results, through a helper.
TEST(IntegrationTest, UnboxedTupleThreading) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "swap :: (# Int#, Int# #) -> (# Int#, Int# #) ;"
      "swap p = case p of { (# a, b #) -> (# b, a #) } ;"
      "main = case swap (# 1#, 2# #) of { (# x, y #) -> x *# 10# +# y }"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 21);
}

// The empty unboxed tuple is a legal value with zero registers.
TEST(IntegrationTest, EmptyUnboxedTuple) {
  Pipeline P;
  ASSERT_TRUE(P.compile("unit :: (# #) ;"
                        "unit = (# #) ;"
                        "main = case unit of { (# #) -> 42# }"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 42);
}

// Diagnostics carry source locations.
TEST(IntegrationTest, DiagnosticsCarryLocations) {
  Pipeline P;
  EXPECT_FALSE(P.compile("main =\n  nonexistent"));
  bool FoundLoc = false;
  for (const Diagnostic &D : P.diags().diagnostics())
    if (D.Loc.Line == 2)
      FoundLoc = true;
  EXPECT_TRUE(FoundLoc) << P.diags().str();
}

// Shadowing: local binders shadow globals and each other.
TEST(IntegrationTest, ShadowingResolvesInnermost) {
  Pipeline P;
  ASSERT_TRUE(P.compile("x = 1 ;"
                        "main = let x = 2 in (\\x -> x + 10) x"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 12);
}

// Higher-order functions over unboxed results through ($).
TEST(IntegrationTest, HigherOrderUnboxedResults) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "applyTo :: forall r (b :: TYPE r). Int -> (Int -> b) -> b ;"
      "applyTo x f = f x ;"
      "unbox :: Int -> Int# ;"
      "unbox n = case n of { I# h -> h } ;"
      "main = applyTo 41 unbox +# 1#"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 42);
}

// A rep-polymorphic *argument* position in a signature is rejected even
// if the body never runs.
TEST(IntegrationTest, RepPolyParameterSignatureRejected) {
  Pipeline P;
  EXPECT_FALSE(P.compile(
      "bad :: forall r (a :: TYPE r). a -> Int ;"
      "bad x = 0"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::LevityPolymorphicBinder))
      << P.diags().str();
}

// Interpreter guards: deep boxed recursion does not overflow the C++
// stack for tail calls, and fuel stops runaway loops.
TEST(IntegrationTest, TailCallsRunDeep) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      "count :: Int# -> Int# ;"
      "count n = case n of { 0# -> 0# ; _ -> count (n -# 1#) } ;"
      "main = count 500000#"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
}

TEST(IntegrationTest, RunawayLoopHitsFuel) {
  Pipeline P;
  ASSERT_TRUE(P.compile("loop :: Int# -> Int# ;"
                        "loop n = loop n ;"
                        "main = loop 1#"))
      << P.diags().str();
  runtime::InterpResult R =
      P.interp().eval(P.ctx().var(P.ctx().sym("main")), /*MaxSteps=*/100000);
  EXPECT_EQ(R.Status, runtime::InterpStatus::OutOfFuel);
}

// Full pipeline stats: the elaborated sample program's Core Lint, its
// Section 5.1 checks included, ran with no diagnostics, and every user
// binding got a zonked, closed type.
TEST(IntegrationTest, AllBindingsHaveClosedTypes) {
  Pipeline P;
  ASSERT_TRUE(P.compile("f x = x + 1 ;"
                        "g y = f (f y) ;"
                        "h = g 5"))
      << P.diags().str();
  for (Symbol Name : P.Comp->elabOutput()->UserBindings) {
    const core::Type *T = P.elaborator().globalType(Name.str());
    ASSERT_NE(T, nullptr);
    core::MetaSet Metas;
    core::collectMetas(P.ctx(), T, Metas);
    EXPECT_TRUE(Metas.TypeMetaIds.empty() && Metas.RepMetaIds.empty())
        << std::string(Name.str()) << " : " << T->str();
  }
}

} // namespace
