//===- lcalc_metatheory_test.cpp - Preservation & Progress (Section 6.1) --===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Randomized property tests for the two type-safety theorems of Section
// 6.1, over the correct-by-construction term generator:
//
//   Preservation: if Γ ⊢ e : τ and Γ ⊢ e → e', then Γ ⊢ e' : τ.
//   Progress:     if Γ ⊢ e : τ (no term bindings), e is a value or steps.
//
// Also checks that the generator itself only produces well-typed terms
// (a meta-meta test: if this fails, the other properties are vacuous).
//
//===----------------------------------------------------------------------===//

#include "lcalc/Eval.h"
#include "lcalc/Gen.h"
#include "lcalc/Subst.h"
#include "lcalc/TypeCheck.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::lcalc;

namespace {

/// Padding-free on purpose: gtest names each instance after the raw
/// bytes of its parameter, and padding bytes would hold whatever the
/// stack held, giving the same test a different ctest name per build.
struct GenParams {
  uint64_t Seed;
  uint64_t MaxDepth;
};
static_assert(sizeof(GenParams) == 2 * sizeof(uint64_t), "no padding bytes");

class MetatheoryTest : public ::testing::TestWithParam<GenParams> {};

constexpr unsigned TermsPerCase = 300;

TEST_P(MetatheoryTest, GeneratorProducesWellTypedClosedTerms) {
  LContext C;
  TypeChecker TC(C);
  TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  TermGen Gen(C, GetParam().Seed, Opts);
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    TermGen::Generated G = Gen.generate();
    ASSERT_TRUE(isClosed(G.E)) << G.E->str();
    Result<const Type *> T = TC.typeOfClosed(G.E);
    ASSERT_TRUE(T.ok()) << "generated ill-typed term: " << G.E->str()
                        << "\n  error: " << T.error();
    EXPECT_TRUE(typeEqual(*T, G.Ty))
        << "generator type " << G.Ty->str() << " vs checker type "
        << (*T)->str() << "\n  term: " << G.E->str();
  }
}

TEST_P(MetatheoryTest, Preservation) {
  LContext C;
  TypeChecker TC(C);
  Evaluator Ev(C);
  TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  TermGen Gen(C, GetParam().Seed ^ 0x9e3779b97f4a7c15ull, Opts);
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    TermGen::Generated G = Gen.generate();
    const Expr *Cur = G.E;
    // Follow the whole reduction sequence, checking the type after every
    // step (stronger than single-step preservation).
    for (unsigned Step = 0; Step != 64; ++Step) {
      TypeEnv Env;
      StepResult R = Ev.step(Env, Cur);
      if (R.Status != StepStatus::Stepped)
        break;
      Cur = R.Next;
      Result<const Type *> T = TC.typeOfClosed(Cur);
      ASSERT_TRUE(T.ok()) << "step broke typing (rule " << R.Rule
                          << "): " << Cur->str() << "\n  error: "
                          << T.error() << "\n  from: " << G.E->str();
      ASSERT_TRUE(typeEqual(*T, G.Ty))
          << "type changed from " << G.Ty->str() << " to " << (*T)->str()
          << "\n  after rule " << R.Rule << "\n  term: " << Cur->str();
    }
  }
}

TEST_P(MetatheoryTest, Progress) {
  LContext C;
  Evaluator Ev(C);
  TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  TermGen Gen(C, GetParam().Seed ^ 0xdeadbeefcafef00dull, Opts);
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    TermGen::Generated G = Gen.generate();
    const Expr *Cur = G.E;
    for (unsigned Step = 0; Step != 64; ++Step) {
      TypeEnv Env;
      StepResult R = Ev.step(Env, Cur);
      // Progress: never stuck.
      ASSERT_NE(R.Status, StepStatus::Stuck)
          << "stuck non-value: " << Cur->str() << " (" << R.Rule << ")";
      if (R.Status != StepStatus::Stepped)
        break;
      Cur = R.Next;
    }
  }
}

// Terms reach a value or bottom within a generous fuel bound: L has no
// recursion, so reduction always terminates (strong normalization).
TEST_P(MetatheoryTest, Termination) {
  LContext C;
  Evaluator Ev(C);
  TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  TermGen Gen(C, GetParam().Seed ^ 0x12345678u, Opts);
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    TermGen::Generated G = Gen.generate();
    RunResult R = Ev.runClosed(G.E, 100000);
    EXPECT_TRUE(R.Final == StepStatus::Value ||
                R.Final == StepStatus::Bottom)
        << "did not terminate cleanly: " << G.E->str();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MetatheoryTest,
    ::testing::Values(GenParams{1, 3}, GenParams{2, 4}, GenParams{3, 5},
                      GenParams{4, 5}, GenParams{5, 6}, GenParams{6, 6},
                      GenParams{7, 7}, GenParams{8, 4}),
    [](const ::testing::TestParamInfo<GenParams> &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "depth" +
             std::to_string(Info.param.MaxDepth);
    });

} // namespace
