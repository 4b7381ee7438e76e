//===- surface_elaborate_test.cpp - End-to-end pipeline tests -------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Full pipeline: source text → lex → parse → infer/elaborate (with rep
// metavariables and levity defaulting) → core lint (which sets the
// strictness bits and checks Section 5.1) → evaluation. Covers the
// paper's running examples end to end: sumTo/sumTo# (Section 2.1), divMod (2.3), error/myError (3.3/5.2),
// bTwice (3.1/5), ($)/(.) generalizations (7.2), and the inference
// stories of Section 5.2 (experiments E1/E3/E7/E10 acceptance matrix).
//
//===----------------------------------------------------------------------===//

#include "PipelineFixture.h"

#include "surface/Lexer.h"
#include "surface/Parser.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::surface;

namespace {

#define COMPILE_OK(P, Src)                                                 \
  ASSERT_TRUE((P).compile(Src)) << (P).diags().str()

TEST(PipelineTest, UnboxedArithmetic) {
  Pipeline P;
  COMPILE_OK(P, "main = 40# +# 2#");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 42);
}

TEST(PipelineTest, BoxedArithmeticViaBuiltins) {
  Pipeline P;
  COMPILE_OK(P, "main = 40 + 2");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 42);
}

TEST(PipelineTest, InferenceDefaultsToInt) {
  // f x = x infers a -> a with a :: Type (never levity-polymorphic,
  // Section 5.2).
  Pipeline P;
  COMPILE_OK(P, "f x = x ; main = f 5");
  const core::Type *T = P.elaborator().globalType("f");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->str(), "forall (a :: Type). a -> a");
}

// Section 2.1: the full sumTo at both representations, from source.
TEST(PipelineTest, SumToBothWays) {
  Pipeline P;
  COMPILE_OK(P,
             "sumTo :: Int -> Int -> Int ;"
             "sumTo acc n = case n of {"
             "  0 -> acc ;"
             "  _ -> sumTo (acc + n) (n - 1)"
             "} ;"
             "sumToH :: Int# -> Int# -> Int# ;"
             "sumToH acc n = case n of {"
             "  0# -> acc ;"
             "  _  -> sumToH (acc +# n) (n -# 1#)"
             "} ;"
             "boxed = sumTo 0 100 ;"
             "unboxed = sumToH 0# 100#");
  runtime::InterpResult RB = P.evalName("boxed");
  ASSERT_EQ(RB.Status, runtime::InterpStatus::Value) << RB.Message;
  EXPECT_EQ(boxedInt(RB.V).value_or(-1), 5050);

  runtime::InterpResult RU = P.evalName("unboxed");
  ASSERT_EQ(RU.Status, runtime::InterpStatus::Value) << RU.Message;
  EXPECT_EQ(intHash(RU.V).value_or(-1), 5050);
  // The unboxed loop performs no heap allocation beyond the top-level
  // closures (cost-model claim E1).
  EXPECT_EQ(RU.Stats.ThunkAllocs, 0u);
  EXPECT_EQ(RU.Stats.BoxAllocs, 0u);
}

// Section 2.3: divMod with an unboxed pair, from source.
TEST(PipelineTest, DivModUnboxedTuple) {
  Pipeline P;
  COMPILE_OK(P,
             "divMod :: Int# -> Int# -> (# Int#, Int# #) ;"
             "divMod a b = (# quotInt# a b, remInt# a b #) ;"
             "main = case divMod 17# 5# of { (# q, r #) -> q *# 10# +# r }");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 32);
  EXPECT_EQ(R.Stats.BoxAllocs, 0u);
  EXPECT_EQ(R.Stats.ThunkAllocs, 0u);
}

// Section 3.3/5.2: myError with a declared levity-polymorphic signature
// is accepted and usable at an unboxed type.
TEST(PipelineTest, MyErrorLevityPolymorphic) {
  Pipeline P;
  COMPILE_OK(P,
             "myError :: forall r (a :: TYPE r). String -> a ;"
             "myError s = error s ;"
             "f :: Int# -> Int# ;"
             "f n = case n <# 0# of {"
             "  1# -> myError \"negative\" ;"
             "  _  -> n"
             "} ;"
             "ok = f 4# ;"
             "bad = f (0# -# 7#)");
  runtime::InterpResult ROk = P.evalName("ok");
  ASSERT_EQ(ROk.Status, runtime::InterpStatus::Value) << ROk.Message;
  EXPECT_EQ(intHash(ROk.V).value_or(-1), 4);

  runtime::InterpResult RBad = P.evalName("bad");
  EXPECT_EQ(RBad.Status, runtime::InterpStatus::Bottom);
  EXPECT_EQ(RBad.Message, "negative");
}

// Without a signature, myError gets the levity-monomorphic default
// (a :: Type) — usable at Int but NOT at Int#.
TEST(PipelineTest, UnannotatedWrapperDefaultsToLifted) {
  Pipeline P;
  COMPILE_OK(P, "myError s = error s");
  const core::Type *T = P.elaborator().globalType("myError");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->str(), "forall (a :: Type). String -> a");

  // And instantiating it at Int# fails.
  Pipeline P2;
  EXPECT_FALSE(P2.compile("myError s = error s ;"
                          "f :: Int# -> Int# ;"
                          "f n = myError \"no\""));
  EXPECT_TRUE(P2.diags().hasErrors());
}

// Section 5: the levity-polymorphic bTwice signature is rejected with
// the binder restriction.
TEST(PipelineTest, BTwiceRepPolyRejected) {
  Pipeline P;
  EXPECT_FALSE(P.compile(
      "bTwice :: forall r (a :: TYPE r). Bool -> a -> (a -> a) -> a ;"
      "bTwice b x f = case b of { True -> f (f x) ; False -> x }"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::LevityPolymorphicBinder))
      << P.diags().str();
}

// ...while the Type-kinded bTwice is accepted and runs.
TEST(PipelineTest, BTwiceLiftedAccepted) {
  Pipeline P;
  COMPILE_OK(P,
             "bTwice :: forall a. Bool -> a -> (a -> a) -> a ;"
             "bTwice b x f = case b of { True -> f (f x) ; False -> x } ;"
             "main = bTwice True 5 (\\n -> n + 1)");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 7);
}

// Section 7.2: ($) at an unboxed *result* type — the generalized type in
// action. Note the argument must stay lifted (only b :: TYPE r): `f $ 3#`
// would be rejected, exactly as in GHC.
TEST(PipelineTest, DollarAtUnboxedResult) {
  Pipeline P;
  COMPILE_OK(P,
             "unbox :: Int -> Int# ;"
             "unbox n = case n of { I# h -> h +# 1# } ;"
             "main = unbox $ 41");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 42);
}

// And the flip side: ($) with an *unboxed argument* is rejected — the
// argument position of ($) is not levity-generalizable (Section 7.2).
TEST(PipelineTest, DollarAtUnboxedArgumentRejected) {
  Pipeline P;
  EXPECT_FALSE(P.compile("f :: Int# -> Int# ;"
                         "f x = x ;"
                         "main = f $ 3#"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::KindError)) << P.diags().str();
}

// Section 7.2: (.) with an unboxed final result.
TEST(PipelineTest, ComposeAtUnboxedResult) {
  Pipeline P;
  COMPILE_OK(P,
             "unbox :: Int -> Int# ;"
             "unbox n = case n of { I# h -> h } ;"
             "inc :: Int -> Int ;"
             "inc n = n + 1 ;"
             "both :: Int -> Int# ;"
             "both = unbox . inc ;"
             "main = both 41");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 42);
}

TEST(PipelineTest, UserDataTypesAndCase) {
  Pipeline P;
  COMPILE_OK(P,
             "data Shape = Circle Int | Rect Int Int ;"
             "area s = case s of {"
             "  Circle r -> r * r ;"
             "  Rect w h -> w * h"
             "} ;"
             "main = area (Rect 6 7)");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 42);
}

TEST(PipelineTest, PolymorphicDataTypes) {
  Pipeline P;
  COMPILE_OK(P,
             "data Box a = MkBox a ;"
             "unbox b = case b of { MkBox x -> x } ;"
             "main = unbox (MkBox 42)");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 42);
  const core::Type *T = P.elaborator().globalType("unbox");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->str(), "forall (a :: Type). Box a -> a");
}

TEST(PipelineTest, LazinessObservable) {
  // Passing `error` to a constant function terminates (boxed argument).
  Pipeline P;
  COMPILE_OK(P,
             "konst :: Int -> Int -> Int ;"
             "konst x y = x ;"
             "main = konst 1 (error \"boom\")");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
}

TEST(PipelineTest, StrictnessObservable) {
  // An Int# argument is evaluated before the call: error propagates.
  Pipeline P;
  COMPILE_OK(P,
             "konst :: Int# -> Int# -> Int# ;"
             "konst x y = x ;"
             "main = konst 1# (error \"boom\")");
  runtime::InterpResult R = P.evalName("main");
  EXPECT_EQ(R.Status, runtime::InterpStatus::Bottom);
}

TEST(PipelineTest, LocalLetAndLambda) {
  Pipeline P;
  COMPILE_OK(P,
             "main = let go acc n = case n of {"
             "                        0 -> acc ;"
             "                        _ -> go (acc + n) (n - 1) }"
             "       in go 0 10");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 55);
}

TEST(PipelineTest, IfOverComparisons) {
  Pipeline P;
  COMPILE_OK(P, "main = if 3 < 4 then 1 else 0");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 1);
}

TEST(PipelineTest, DoubleHashArithmetic) {
  Pipeline P;
  COMPILE_OK(P, "main = 2.5## *## 4.0##");
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_DOUBLE_EQ(doubleHash(R.V).value_or(-1), 10.0);
}

TEST(PipelineTest, ScopeErrorsReported) {
  Pipeline P;
  EXPECT_FALSE(P.compile("main = nonexistent"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::ScopeError));
}

TEST(PipelineTest, TypeErrorsReported) {
  Pipeline P;
  EXPECT_FALSE(P.compile("main = 1# +# 2.0##"));
  EXPECT_TRUE(P.diags().hasErrors());
}

// Kind-mismatched instantiation: a lifted-only function at Int#.
TEST(PipelineTest, InstantiationPrincipleViaKinds) {
  Pipeline P;
  EXPECT_FALSE(P.compile("apply :: forall a. (a -> a) -> a -> a ;"
                         "apply f x = f x ;"
                         "bad :: Int# -> Int# ;"
                         "bad n = apply (\\x -> x) n"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::KindError)) << P.diags().str();
}

// Typing work is linear in nesting depth. Core Lint types each node of a
// left-nested `+#` chain once, so doubling the chain about doubles
// CoreChecker::typeOf's node visits; a pass that re-types every
// argument's subtree would quadruple them.
TEST(PipelineTest, TypingVisitsGrowLinearlyWithNesting) {
  uint64_t Previous = 0;
  for (unsigned Levels : {32u, 64u, 128u}) {
    std::string Src = "v = 1#";
    for (unsigned I = 1; I != Levels; ++I)
      Src += " +# 1#";
    DiagnosticEngine Diags;
    core::CoreContext C;
    Elaborator Elab(C, Diags);
    SModule M = Parser(Lexer(Src, Diags).lexAll(), Diags).parseModule();
    ASSERT_TRUE(Elab.run(M).has_value()) << Diags.str();
    uint64_t Visits = Elab.typeOfVisits();
    EXPECT_GE(Visits, uint64_t(Levels)) << Levels << " levels";
    if (Previous != 0)
      EXPECT_LE(double(Visits), 2.2 * double(Previous))
          << Levels << " levels: " << Visits << " visits, " << Previous
          << " at half the depth";
    Previous = Visits;
  }
}

} // namespace
