//===- surface_classes_test.cpp - Levity-polymorphic classes (Sec 7.3) ----===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Experiment E8: class Num (a :: TYPE r) with instances at Int (boxed)
// and Int# (unboxed), dictionary translation, `3# + 4#` working through
// ad-hoc overloading, and the abs1/abs2 arity subtlety — all from source.
//
//===----------------------------------------------------------------------===//

#include "PipelineFixture.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::surface;

namespace {

// The paper's generalized Num class (Section 7.3), verbatim modulo
// syntax: class Num (a :: TYPE r) — one class, instances at *different
// representations*.
const char *NumClassPrelude =
    "class Num (a :: TYPE r) where {"
    "  (+) :: a -> a -> a ;"
    "  abs :: a -> a"
    "} ;"
    "instance Num Int# where {"
    "  (+) x y = x +# y ;"
    "  abs n = case n <# 0# of { 1# -> negateInt# n ; _ -> n }"
    "} ;"
    "instance Num Int where {"
    "  (+) a b = case a of { I# x -> case b of { I# y -> I# (x +# y) } } ;"
    "  abs n = case n < 0 of { True -> 0 - n ; False -> n }"
    "} ;";

TEST(ClassTest, UnboxedInstanceAddition) {
  // The headline: "we can now happily write 3# + 4# to add machine
  // integers".
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) +
                        "main = 3# + 4#"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 7);
}

TEST(ClassTest, BoxedInstanceAddition) {
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) + "main = 3 + 4"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 7);
}

TEST(ClassTest, AbsAtBothReps) {
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) +
                        "u = abs (0# -# 5#) ;"
                        "b = abs (0 - 5)"))
      << P.diags().str();
  runtime::InterpResult RU = P.evalName("u");
  ASSERT_EQ(RU.Status, runtime::InterpStatus::Value) << RU.Message;
  EXPECT_EQ(intHash(RU.V).value_or(-1), 5);
  runtime::InterpResult RB = P.evalName("b");
  ASSERT_EQ(RB.Status, runtime::InterpStatus::Value) << RB.Message;
  EXPECT_EQ(boxedInt(RB.V).value_or(-1), 5);
}

// abs1 = abs — no levity-polymorphic binder (the dictionary methods are
// lifted function values); ACCEPTED, exactly as the paper says.
TEST(ClassTest, Abs1Accepted) {
  Pipeline P;
  ASSERT_TRUE(P.compile(
      std::string(NumClassPrelude) +
      "abs1 :: forall r (a :: TYPE r). Num a => a -> a ;"
      "abs1 = abs ;"
      "main = abs1 (0# -# 3#)"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 3);
}

// abs2 x = abs x — the η-expansion binds x :: a :: TYPE r; REJECTED with
// the binder restriction. "When compiling, η-equivalent definitions are
// not equivalent!" (Section 7.3.)
TEST(ClassTest, Abs2Rejected) {
  Pipeline P;
  EXPECT_FALSE(P.compile(
      std::string(NumClassPrelude) +
      "abs2 :: forall r (a :: TYPE r). Num a => a -> a ;"
      "abs2 x = abs x"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::LevityPolymorphicBinder))
      << P.diags().str();
}

// A constrained-but-lifted function: polymorphism over Num a with
// a :: Type needs no levity machinery and can bind its argument.
TEST(ClassTest, LiftedConstrainedFunction) {
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) +
                        "double :: Num a => a -> a ;"
                        "double x = x + x ;"
                        "main = double 21"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(boxedInt(R.V).value_or(-1), 42);
}

// Missing instances are reported.
TEST(ClassTest, MissingInstanceReported) {
  Pipeline P;
  EXPECT_FALSE(P.compile("class Num (a :: TYPE r) where {"
                         "  (+) :: a -> a -> a ;"
                         "  abs :: a -> a"
                         "} ;"
                         "main = 2.5## + 1.0##"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::MissingInstance))
      << P.diags().str();
}

// Incomplete instances are reported.
TEST(ClassTest, IncompleteInstanceReported) {
  Pipeline P;
  EXPECT_FALSE(P.compile("class Num (a :: TYPE r) where {"
                         "  (+) :: a -> a -> a ;"
                         "  abs :: a -> a"
                         "} ;"
                         "instance Num Int# where { (+) x y = x +# y }"));
  EXPECT_TRUE(P.diags().hasError(DiagCode::MissingInstance))
      << P.diags().str();
}

// Dictionary dispatch through a constraint goes to the right instance
// per call site.
TEST(ClassTest, DispatchSelectsInstance) {
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) +
                        "addBoth :: Int -> Int# -> Int# ;"
                        "addBoth b u = case b + b of {"
                        "  I# x -> (u + u) +# x"
                        "} ;"
                        "main = addBoth 10 3#"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_EQ(intHash(R.V).value_or(-1), 26);
}

// A Double# instance shows a third calling convention (float registers)
// through the same class.
TEST(ClassTest, DoubleHashInstance) {
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) +
                        "instance Num Double# where {"
                        "  (+) x y = x +## y ;"
                        "  abs d = case d <## 0.0## of {"
                        "    1# -> negateDouble# d ; _ -> d }"
                        "} ;"
                        "main = abs (2.0## + 0.5##)"))
      << P.diags().str();
  runtime::InterpResult R = P.evalName("main");
  ASSERT_EQ(R.Status, runtime::InterpStatus::Value) << R.Message;
  EXPECT_DOUBLE_EQ(doubleHash(R.V).value_or(-1), 2.5);
}

// The generalized method type is levity-polymorphic, like the paper's
// (+) :: forall (r::Rep) (a::TYPE r). Num a => a -> a -> a.
TEST(ClassTest, MethodSignatureShape) {
  Pipeline P;
  ASSERT_TRUE(P.compile(std::string(NumClassPrelude) + "main = 1 + 1"))
      << P.diags().str();
  ASSERT_EQ(P.elaborator().classes().size(), 1u);
  const ClassInfo &Num = P.elaborator().classes()[0];
  EXPECT_EQ(Num.RepVars.size(), 1u);
  EXPECT_EQ(Num.VarKind->str(), "TYPE r");
  ASSERT_EQ(Num.Methods.size(), 2u);
  EXPECT_EQ(Num.Methods[0].Sig->str(), "a -> a -> a");
}

} // namespace
