//===- lcalc_pipeline_test.cpp - The Section 6 harness end to end ---------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Hand-built L terms through lcalc::Pipeline: typechecked once (Figure 3),
// then run with the small-step semantics (Figure 4), compiled to the M
// machine (Figures 5-7), and compiled on to bytecode. The three engines
// agree, and their answers print through the driver's one printer.
//
//===----------------------------------------------------------------------===//

#include "lcalc/Pipeline.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::lcalc;

namespace {

constexpr uint64_t Fuel = 1000000;

constexpr Engine AllEngines[] = {Engine::SmallStep, Engine::Machine,
                                 Engine::Bytecode};

TEST(DriverTest, FormalPipelineSharesTheCompilationAPI) {
  // (Λr. Λa:TYPE r. λf:Int→a. f I#[7]) I Int# (λn:Int. case n of I#[m]→m)
  Pipeline P([](LContext &L) {
    Symbol R = L.sym("r"), A = L.sym("a"), F = L.sym("f");
    const Expr *Gen =
        L.repLam(R, L.tyLam(A, LKind::typeVar(R),
                            L.lam(F, L.arrowTy(L.intTy(), L.varTy(A)),
                                  L.app(L.var(F), L.con(L.intLit(7))))));
    return L.app(L.tyApp(L.repApp(Gen, RuntimeRep::integer()), L.intHashTy()),
                 L.lam(L.sym("n"), L.intTy(),
                       L.caseOf(L.var(L.sym("n")), L.sym("m"),
                                L.var(L.sym("m")))));
  });
  ASSERT_TRUE(P.type().ok()) << P.type().error();
  EXPECT_EQ((*P.type())->str(), "Int#");

  PipelineResult Small = P.run(Engine::SmallStep, Fuel);
  PipelineResult Mach = P.run(Engine::Machine, Fuel);
  ASSERT_TRUE(Small.ok()) << Small.Error;
  ASSERT_TRUE(Mach.ok()) << Mach.Error;
  EXPECT_EQ(Small.IntValue.value_or(-1), 7);
  EXPECT_EQ(Mach.IntValue.value_or(-1), 7);
}

TEST(DriverTest, FormalAnswersPrintOnEveryBackend) {
  // data T = A | B Int# | C Int Double#. The M and bytecode values carry
  // only the tag; the name comes from the L data declaration.
  Pipeline P([](LContext &L) {
    LDataDecl *T = L.declareData(L.sym("T"));
    L.addDataCon(T, L.sym("A"), {});
    const Type *BF[] = {L.intHashTy()};
    L.addDataCon(T, L.sym("B"), BF);
    const Type *CF[] = {L.intTy(), L.doubleHashTy()};
    L.addDataCon(T, L.sym("C"), CF);
    const Expr *Args[] = {L.con(L.intLit(1)), L.doubleLit(2.5)};
    return L.conData(T, 2, Args);
  });
  ASSERT_TRUE(P.type().ok()) << P.type().error();
  for (Engine E : AllEngines) {
    PipelineResult R = P.run(E, Fuel);
    ASSERT_TRUE(R.ok()) << int(E) << ": " << R.Error;
    EXPECT_EQ(R.Display, "C _ 2.5##") << int(E);
  }
}

TEST(DriverTest, IllTypedFormalTermFailsWithTypeError) {
  // λx:a. x with a levity-polymorphic — E_LAM's restriction.
  Pipeline P([](LContext &L) {
    Symbol R = L.sym("r"), A = L.sym("a");
    return L.repLam(R, L.tyLam(A, LKind::typeVar(R),
                               L.lam(L.sym("x"), L.varTy(A),
                                     L.var(L.sym("x")))));
  });
  ASSERT_FALSE(P.type().ok());
  EXPECT_NE(P.type().error().find("(E_LAM)"), std::string::npos)
      << P.type().error();
  // Nothing runs an ill-typed term.
  for (Engine E : AllEngines) {
    PipelineResult R = P.run(E, Fuel);
    EXPECT_EQ(R.St, PipelineResult::Status::IllTyped) << int(E);
    EXPECT_EQ(R.Error, P.type().error());
    EXPECT_EQ(R.Steps, 0u);
  }
}

TEST(DriverTest, FormalPrimopsAgreeAcrossSemantics) {
  // The executable L/M primop extension: 6*6+6 on every engine.
  Pipeline P([](LContext &L) {
    return L.prim(LPrim::Add, L.prim(LPrim::Mul, L.intLit(6), L.intLit(6)),
                  L.intLit(6));
  });
  ASSERT_TRUE(P.type().ok()) << P.type().error();
  for (Engine E : AllEngines) {
    PipelineResult R = P.run(E, Fuel);
    ASSERT_TRUE(R.ok()) << int(E) << ": " << R.Error;
    EXPECT_EQ(R.IntValue.value_or(-1), 42) << int(E);
    EXPECT_EQ(R.Display, "42#") << int(E);
  }
}

TEST(BytecodeDriverTest, FormalPipelineRunsOnTheVm) {
  Pipeline P([](LContext &L) { return L.intLit(7); });
  ASSERT_TRUE(P.type().ok()) << P.type().error();
  PipelineResult R = P.run(Engine::Bytecode, Fuel);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.IntValue.value_or(-1), 7);
  // The VM ran it: its ledger holds the steps, the machine's is empty.
  EXPECT_GT(R.Vm.Steps, 0u);
  EXPECT_EQ(R.Steps, R.Vm.Steps);
  EXPECT_EQ(R.Machine.Steps, 0u);
}

TEST(LcalcPipelineTest, FuelIsAnArgumentOfEachRun) {
  // The same harness runs out of fuel at a cut and finishes without one.
  Pipeline P([](LContext &L) {
    return L.prim(LPrim::Add, L.prim(LPrim::Mul, L.intLit(6), L.intLit(6)),
                  L.intLit(6));
  });
  for (Engine E : AllEngines) {
    PipelineResult Full = P.run(E, Fuel);
    ASSERT_TRUE(Full.ok()) << int(E) << ": " << Full.Error;
    ASSERT_GT(Full.Steps, 0u);
    EXPECT_TRUE(P.run(E, Full.Steps).ok()) << int(E);
    PipelineResult Cut = P.run(E, Full.Steps - 1);
    EXPECT_EQ(Cut.St, PipelineResult::Status::OutOfFuel) << int(E);
    EXPECT_EQ(Cut.Error, "out of fuel");
    EXPECT_EQ(P.run(E, Fuel).Display, "42#") << int(E);
  }
}

TEST(LcalcPipelineTest, BottomIsReportedOnEveryEngine) {
  // error @I @Int#
  Pipeline P([](LContext &L) {
    return L.tyApp(L.repApp(L.error(), RuntimeRep::integer()), L.intHashTy());
  });
  ASSERT_TRUE(P.type().ok()) << P.type().error();
  for (Engine E : AllEngines)
    EXPECT_EQ(P.run(E, Fuel).St, PipelineResult::Status::Bottom) << int(E);
}

} // namespace
