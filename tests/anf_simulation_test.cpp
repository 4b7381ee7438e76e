//===- anf_simulation_test.cpp - Compilation & Simulation theorems --------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Property tests for the two compilation theorems of Section 6.3:
//
//   Compilation: if Γ ⊢ e : τ (and Γ ∝ V) then ⟦e⟧ᵥΓ ⇝ t — compilation
//     is *total* on well-typed terms.
//   Simulation:  if Γ ⊢ e : τ and Γ ⊢ e → e', then ⟦e⟧ ⇝ t, ⟦e'⟧ ⇝ t',
//     and t ⇔ t' — the machine agrees with the reduction semantics.
//
// Joinability t ⇔ t' is approximated by the observational oracle in
// anf/Joinability.h. We additionally check full-run agreement: the L
// evaluator's final outcome matches the M machine's on the compiled term.
// Finally the bytecode tier, the only code a `.levc` artifact persists,
// is held to the machine as its oracle: every generated term's M form
// compiles to bytecode, survives the BCOD encode → decode → validate
// round trip, and runs to the machine's outcome, and a run cut short at
// any step leaves its Vm as clean as a fresh one.
//
//===----------------------------------------------------------------------===//

#include "anf/Compile.h"
#include "anf/Joinability.h"
#include "bytecode/Vm.h"
#include "driver/Serialize.h"
#include "lcalc/Eval.h"
#include "lcalc/Gen.h"
#include "mcalc/Machine.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace levity;

namespace {

/// Padding-free on purpose: gtest names each instance after the raw
/// bytes of its parameter, and padding bytes would hold whatever the
/// stack held, giving the same test a different ctest name per build.
struct SimParams {
  uint64_t Seed;
  uint64_t MaxDepth;
};
static_assert(sizeof(SimParams) == 2 * sizeof(uint64_t), "no padding bytes");

class SimulationTest : public ::testing::TestWithParam<SimParams> {};

constexpr unsigned TermsPerCase = 200;

// Compilation theorem: every well-typed closed term compiles.
TEST_P(SimulationTest, CompilationIsTotalOnWellTypedTerms) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::Compiler Comp(L, MC);
  lcalc::TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  lcalc::TermGen Gen(L, GetParam().Seed, Opts);
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    lcalc::TermGen::Generated G = Gen.generate();
    Result<const mcalc::Term *> T = Comp.compileClosed(G.E);
    ASSERT_TRUE(T.ok()) << "well-typed term failed to compile: "
                        << G.E->str() << "\n  " << T.error();
  }
}

// Simulation theorem, stepwise: compile before and after an L step; the
// results must be joinable.
TEST_P(SimulationTest, StepwiseSimulation) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::Compiler Comp(L, MC);
  anf::JoinOracle Oracle(L, MC);
  lcalc::Evaluator Ev(L);
  lcalc::TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  lcalc::TermGen Gen(L, GetParam().Seed ^ 0xabcdefull, Opts);

  unsigned Unknown = 0, Checked = 0;
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    lcalc::TermGen::Generated G = Gen.generate();
    const lcalc::Expr *Cur = G.E;
    for (unsigned Step = 0; Step != 16; ++Step) {
      lcalc::TypeEnv Env;
      lcalc::StepResult R = Ev.step(Env, Cur);
      if (R.Status != lcalc::StepStatus::Stepped)
        break;
      Result<const mcalc::Term *> T1 = Comp.compileClosed(Cur);
      Result<const mcalc::Term *> T2 = Comp.compileClosed(R.Next);
      ASSERT_TRUE(T1.ok()) << T1.error();
      ASSERT_TRUE(T2.ok()) << T2.error();
      anf::JoinResult J = Oracle.joinable(G.Ty, *T1, *T2);
      ASSERT_NE(J.Verdict, anf::JoinVerdict::NotJoinable)
          << "simulation failed after rule " << R.Rule << "\n  before: "
          << Cur->str() << "\n  after: " << R.Next->str() << "\n  detail: "
          << J.Detail;
      if (J.Verdict == anf::JoinVerdict::Unknown)
        ++Unknown;
      ++Checked;
      Cur = R.Next;
    }
  }
  // The oracle must actually decide most cases, or the test is vacuous.
  ASSERT_GT(Checked, 0u);
  EXPECT_LT(Unknown, Checked / 2)
      << "oracle undecided on " << Unknown << "/" << Checked << " steps";
}

// Full-run agreement: L evaluation and M execution reach consistent
// final outcomes (value vs ⊥), and equal observables at base types.
TEST_P(SimulationTest, FullRunAgreement) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::Compiler Comp(L, MC);
  anf::JoinOracle Oracle(L, MC);
  lcalc::Evaluator Ev(L);
  mcalc::Machine M(MC);
  lcalc::TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  lcalc::TermGen Gen(L, GetParam().Seed ^ 0x5eedull, Opts);

  for (unsigned I = 0; I != TermsPerCase; ++I) {
    lcalc::TermGen::Generated G = Gen.generate();
    lcalc::RunResult LR = Ev.runClosed(G.E, 100000);
    Result<const mcalc::Term *> T = Comp.compileClosed(G.E);
    ASSERT_TRUE(T.ok()) << T.error();
    mcalc::MachineResult MR = M.run(*T, 1000000);

    ASSERT_NE(MR.Status, mcalc::MachineOutcome::Stuck)
        << "compiled code stuck (" << MR.StuckReason << ") for "
        << G.E->str();

    if (LR.Final == lcalc::StepStatus::Bottom) {
      EXPECT_EQ(MR.Status, mcalc::MachineOutcome::Bottom)
          << "L diverged but M did not: " << G.E->str();
      continue;
    }
    ASSERT_EQ(LR.Final, lcalc::StepStatus::Value);
    ASSERT_EQ(MR.Status, mcalc::MachineOutcome::Value)
        << "L reached a value but M did not: " << G.E->str();

    // Compare observables by compiling the L value and asking the oracle.
    Result<const mcalc::Term *> TV = Comp.compileClosed(LR.Last);
    ASSERT_TRUE(TV.ok()) << TV.error();
    anf::JoinResult J = Oracle.joinable(G.Ty, *T, *TV);
    EXPECT_NE(J.Verdict, anf::JoinVerdict::NotJoinable)
        << "final values disagree for " << G.E->str() << "\n  L value: "
        << LR.Last->str() << "\n  detail: " << J.Detail;
  }
}

// Bytecode agreement: the compiled M term becomes a bytecode module that
// round-trips through the BCOD codec and runs to the machine's outcome.
TEST_P(SimulationTest, BytecodeAgreesWithTheMachine) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::Compiler Comp(L, MC);
  mcalc::Machine M(MC);
  bytecode::Vm OrigVm, BackVm;
  lcalc::TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  lcalc::TermGen Gen(L, GetParam().Seed ^ 0xb17ec0deull, Opts);

  using VmOut = bytecode::VmResult::Outcome;
  using MOut = mcalc::MachineOutcome;
  unsigned Bottoms = 0, Scalars = 0;
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    lcalc::TermGen::Generated G = Gen.generate();
    SCOPED_TRACE(G.E->str());
    Result<const mcalc::Term *> T = Comp.compileClosed(G.E);
    ASSERT_TRUE(T.ok()) << T.error();
    Result<std::shared_ptr<const bytecode::Module>> Mod = bytecode::compile(*T);
    ASSERT_TRUE(Mod.ok()) << "bytecode compiler refused: " << Mod.error();

    driver::levc::ByteWriter W;
    driver::levc::writeBytecodeModule(W, **Mod);
    driver::levc::ByteReader R(W.bytes());
    std::shared_ptr<const bytecode::Module> Back =
        driver::levc::readBytecodeModule(R);
    ASSERT_NE(Back, nullptr) << "the decoder rejected a compiled module";
    EXPECT_TRUE(R.atEnd());

    bytecode::VmResult VR = OrigVm.run(**Mod, 1000000);
    bytecode::VmResult BR = BackVm.run(*Back, 1000000);
    ASSERT_EQ(VR.Out, BR.Out);
    EXPECT_EQ(VR.Stats.Steps, BR.Stats.Steps);
    EXPECT_EQ(VR.ErrorMessage, BR.ErrorMessage);

    mcalc::MachineResult MR = M.run(*T, 1000000);
    ASSERT_NE(VR.Out, VmOut::Stuck) << VR.StuckReason;
    switch (MR.Status) {
    case MOut::Value:
      ASSERT_EQ(VR.Out, VmOut::Value);
      break;
    case MOut::Bottom:
      ASSERT_EQ(VR.Out, VmOut::Bottom);
      EXPECT_EQ(VR.ErrorMessage, MR.ErrorMessage);
      ++Bottoms;
      continue;
    case MOut::OutOfFuel:
      EXPECT_EQ(VR.Out, VmOut::OutOfFuel);
      continue;
    case MOut::Stuck:
      FAIL() << "machine stuck: " << MR.StuckReason;
    }
    if (const auto *Lit = mcalc::dyn_cast<mcalc::LitTerm>(MR.Value)) {
      ASSERT_TRUE(VR.Final.isInt());
      EXPECT_EQ(VR.Final.I, Lit->value());
      ++Scalars;
    } else if (const auto *DLit = mcalc::dyn_cast<mcalc::DLitTerm>(MR.Value)) {
      ASSERT_TRUE(VR.Final.isDbl());
      EXPECT_TRUE(VR.Final.D == DLit->value() ||
                  (std::isnan(VR.Final.D) && std::isnan(DLit->value())))
          << VR.Final.D << " vs " << DLit->value();
      ++Scalars;
    }
  }
  // Both kinds of comparison must actually happen, or the test is vacuous.
  EXPECT_GT(Bottoms, 0u);
  EXPECT_GT(Scalars, 0u);
}

// Fuel cuts: a bytecode run stopped after any number of steps leaves
// nothing behind in its Vm's recycled heap and stacks. For every
// generated term that finishes, and every fuel value below its step
// count, the cut run is out of fuel and an immediate rerun on the same Vm
// repeats the clean run exactly.
TEST_P(SimulationTest, EveryFuelCutLeavesTheVmClean) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::Compiler Comp(L, MC);
  bytecode::Vm Vm;
  lcalc::TermGen::Options Opts;
  Opts.MaxDepth = GetParam().MaxDepth;
  lcalc::TermGen Gen(L, GetParam().Seed ^ 0xc075ull, Opts);

  using VmOut = bytecode::VmResult::Outcome;
  constexpr uint64_t Fuel = 1000000;
  unsigned Cuts = 0;
  for (unsigned I = 0; I != TermsPerCase; ++I) {
    lcalc::TermGen::Generated G = Gen.generate();
    SCOPED_TRACE(G.E->str());
    Result<const mcalc::Term *> T = Comp.compileClosed(G.E);
    ASSERT_TRUE(T.ok()) << T.error();
    Result<std::shared_ptr<const bytecode::Module>> Mod = bytecode::compile(*T);
    ASSERT_TRUE(Mod.ok()) << "bytecode compiler refused: " << Mod.error();

    // A pointer result dies with the next run; its slot's kind and a
    // scalar's payload stay readable.
    const bytecode::VmResult Clean = Vm.run(**Mod, Fuel);
    if (Clean.Out == VmOut::OutOfFuel)
      continue;
    ASSERT_NE(Clean.Out, VmOut::Stuck) << Clean.StuckReason;
    for (uint64_t F = 0; F != Clean.Stats.Steps; ++F) {
      SCOPED_TRACE("fuel " + std::to_string(F));
      ASSERT_EQ(Vm.run(**Mod, F).Out, VmOut::OutOfFuel);
      bytecode::VmResult Again = Vm.run(**Mod, Fuel);
      ASSERT_EQ(Again.Out, Clean.Out) << Again.StuckReason;
      EXPECT_EQ(Again.Stats.Steps, Clean.Stats.Steps);
      EXPECT_EQ(Again.Stats.Allocations, Clean.Stats.Allocations);
      EXPECT_EQ(Again.Stats.MaxHeapObjects, Clean.Stats.MaxHeapObjects);
      EXPECT_EQ(Again.ErrorMessage, Clean.ErrorMessage);
      ASSERT_EQ(Again.Final.isInt(), Clean.Final.isInt());
      ASSERT_EQ(Again.Final.isDbl(), Clean.Final.isDbl());
      if (Clean.Final.isInt())
        EXPECT_EQ(Again.Final.I, Clean.Final.I);
      if (Clean.Final.isDbl())
        EXPECT_TRUE(Again.Final.D == Clean.Final.D ||
                    (std::isnan(Again.Final.D) && std::isnan(Clean.Final.D)));
      ++Cuts;
    }
  }
  // Cuts must actually happen, or the test is vacuous.
  EXPECT_GT(Cuts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SimulationTest,
    ::testing::Values(SimParams{11, 3}, SimParams{12, 4}, SimParams{13, 5},
                      SimParams{14, 5}, SimParams{15, 6}, SimParams{16, 6}),
    [](const ::testing::TestParamInfo<SimParams> &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "depth" +
             std::to_string(Info.param.MaxDepth);
    });

//===--------------------------------------------------------------------===//
// Joinability oracle self-tests
//===--------------------------------------------------------------------===//

TEST(JoinOracleTest, DistinguishesDifferentLiterals) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::JoinOracle Oracle(L, MC);
  anf::JoinResult J =
      Oracle.joinable(L.intHashTy(), MC.lit(1), MC.lit(2));
  EXPECT_EQ(J.Verdict, anf::JoinVerdict::NotJoinable);
}

TEST(JoinOracleTest, EquatesEqualBoxes) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::JoinOracle Oracle(L, MC);
  anf::JoinResult J =
      Oracle.joinable(L.intTy(), MC.conLit(4), MC.conLit(4));
  EXPECT_EQ(J.Verdict, anf::JoinVerdict::Joinable);
}

TEST(JoinOracleTest, BottomOnlyMatchesBottom) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::JoinOracle Oracle(L, MC);
  EXPECT_EQ(Oracle.joinable(L.intTy(), MC.error(), MC.error()).Verdict,
            anf::JoinVerdict::Joinable);
  EXPECT_EQ(Oracle.joinable(L.intTy(), MC.error(), MC.conLit(1)).Verdict,
            anf::JoinVerdict::NotJoinable);
}

TEST(JoinOracleTest, ProbesFunctions) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::JoinOracle Oracle(L, MC);
  // λi. i versus λi. 0 at Int# → Int#: distinguished by probing.
  mcalc::MVar I1 = MC.freshInt(), I2 = MC.freshInt();
  const mcalc::Term *Id = MC.lam(I1, MC.var(I1));
  const mcalc::Term *Zero = MC.lam(I2, MC.lit(0));
  const lcalc::Type *Ty = L.arrowTy(L.intHashTy(), L.intHashTy());
  EXPECT_EQ(Oracle.joinable(Ty, Id, Id).Verdict,
            anf::JoinVerdict::Joinable);
  EXPECT_EQ(Oracle.joinable(Ty, Id, Zero).Verdict,
            anf::JoinVerdict::NotJoinable);
}

TEST(JoinOracleTest, ProbesBoxedFunctions) {
  lcalc::LContext L;
  mcalc::MContext MC;
  anf::JoinOracle Oracle(L, MC);
  // λp. p versus λp. I#[0]-thunk at Int → Int.
  mcalc::MVar P1 = MC.freshPtr(), P2 = MC.freshPtr();
  const mcalc::Term *Id = MC.lam(P1, MC.var(P1));
  const mcalc::Term *K0 = MC.lam(P2, MC.conLit(0));
  const lcalc::Type *Ty = L.arrowTy(L.intTy(), L.intTy());
  EXPECT_EQ(Oracle.joinable(Ty, Id, Id).Verdict,
            anf::JoinVerdict::Joinable);
  EXPECT_EQ(Oracle.joinable(Ty, Id, K0).Verdict,
            anf::JoinVerdict::NotJoinable);
}

} // namespace
