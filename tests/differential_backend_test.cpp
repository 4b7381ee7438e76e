//===- differential_backend_test.cpp - Tree vs machine as oracles ---------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The differential harness the widened core→L→ANF→M fragment unlocks:
// every program in the corpus runs on Backend::TreeInterp (the big-step
// core evaluator), Backend::AbstractMachine (core → L → Figure 7 ANF →
// the Figure 6 machine), and Backend::Bytecode (the same M lowering
// compiled to the flat bytecode VM), and the three RunResults must agree
// — same status, same printed answer and Int#/Double# value, same error
// message on ⊥.
// Programs outside the widened fragment must report Unsupported with a
// "not expressible in L" diagnostic, never crash and never silently
// diverge.
//
// This is deliberately stronger coverage than per-backend unit tests:
// every corpus program is an oracle for all three semantics at once.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"
#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::driver;

namespace {

using levity::testing::CorpusProgram;
using levity::testing::Corpus;

/// Runs one corpus program on all three backends and asserts agreement.
void runDifferential(const CorpusProgram &P) {
  SCOPED_TRACE(P.Label);
  Session S;
  auto Comp = S.compile(P.Source);
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();

  RunResult Tree = Comp->run(P.Global, Backend::TreeInterp);
  RunResult Mach = Comp->run(P.Global, Backend::AbstractMachine);
  RunResult Bc = Comp->run(P.Global, Backend::Bytecode);

  // The tree interpreter runs the whole core language; it must never
  // report a fragment restriction.
  ASSERT_NE(Tree.St, RunResult::Status::Unsupported) << Tree.Error;

  if (!P.InFragment) {
    ASSERT_EQ(Mach.St, RunResult::Status::Unsupported) << Mach.Error;
    EXPECT_EQ(Mach.Error.rfind("not expressible in L", 0), 0u)
        << "unsupported programs must carry the fragment diagnostic, got: "
        << Mach.Error;
    // The bytecode backend is gated by the same lowering: identical
    // diagnostic, on every backend.
    ASSERT_EQ(Bc.St, RunResult::Status::Unsupported) << Bc.Error;
    EXPECT_EQ(Bc.Error, Mach.Error);
    return;
  }

  // In-fragment programs must actually execute on the VM (the machine
  // fallback is only for bytecode-fragment gaps, and the lowering's
  // whole output compiles).
  EXPECT_EQ(Bc.Used, Backend::Bytecode)
      << "bytecode compile fell back: " << Bc.Error;

  ASSERT_EQ(Tree.St, Mach.St)
      << "status diverged: tree='" << Tree.Error << "' machine='"
      << Mach.Error << "'";
  ASSERT_EQ(Tree.St, Bc.St)
      << "status diverged: tree='" << Tree.Error << "' bytecode='"
      << Bc.Error << "'";
  switch (Tree.St) {
  case RunResult::Status::Ok:
    // One printer: the text a client gets is byte-identical.
    EXPECT_EQ(Tree.Display, Mach.Display);
    EXPECT_EQ(Tree.Display, Bc.Display);
    ASSERT_EQ(Tree.IntValue.has_value(), Mach.IntValue.has_value());
    ASSERT_EQ(Tree.DoubleValue.has_value(), Mach.DoubleValue.has_value());
    ASSERT_EQ(Tree.IntValue.has_value(), Bc.IntValue.has_value());
    ASSERT_EQ(Tree.DoubleValue.has_value(), Bc.DoubleValue.has_value());
    if (Tree.IntValue) {
      EXPECT_EQ(*Tree.IntValue, *Mach.IntValue);
      EXPECT_EQ(*Tree.IntValue, *Bc.IntValue);
    }
    if (Tree.DoubleValue) {
      EXPECT_DOUBLE_EQ(*Tree.DoubleValue, *Mach.DoubleValue);
      EXPECT_DOUBLE_EQ(*Tree.DoubleValue, *Bc.DoubleValue);
    }
    break;
  case RunResult::Status::Bottom:
    EXPECT_EQ(Tree.Error, Mach.Error);
    EXPECT_EQ(Tree.Error, Bc.Error);
    break;
  default:
    break; // Status equality is the contract for the rest.
  }
}

class DifferentialBackendTest
    : public ::testing::TestWithParam<CorpusProgram> {};

TEST_P(DifferentialBackendTest, TreeMachineAndBytecodeAgree) {
  runDifferential(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DifferentialBackendTest, ::testing::ValuesIn(Corpus),
    [](const ::testing::TestParamInfo<CorpusProgram> &Info) {
      return std::string(Info.param.Label);
    });

TEST(DifferentialBackendTest, RejectedLevityPolymorphismCarriesItsDiagnostic) {
  for (const levity::testing::RejectedProgram &P : levity::testing::Rejected) {
    SCOPED_TRACE(P.Label);
    Session S;
    auto Comp = S.compile(P.Source);
    EXPECT_FALSE(Comp->ok());
    EXPECT_TRUE(Comp->diags().hasError(P.Code)) << Comp->diagText();
  }
}

//===----------------------------------------------------------------------===//
// Cross-cutting agreement properties
//===----------------------------------------------------------------------===//

TEST(DifferentialBackendTest, SumToAgreesAcrossIterationCounts) {
  // The flagship loop at several sizes through one cached Compilation.
  Session S;
  auto Comp = S.compile("sumToH :: Int# -> Int# -> Int# ;"
                        "sumToH acc n = case n of {"
                        "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
                        "} ;"
                        "a = sumToH 0# 1# ;"
                        "b = sumToH 0# 17# ;"
                        "c = sumToH 0# 500# ;"
                        "d = sumToH 0# 2000#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  const std::pair<const char *, int64_t> Expected[] = {
      {"a", 1}, {"b", 153}, {"c", 125250}, {"d", 2001000}};
  for (const auto &[Name, Value] : Expected) {
    RunResult Tree = Comp->run(Name, Backend::TreeInterp);
    RunResult Mach = Comp->run(Name, Backend::AbstractMachine);
    RunResult Bc = Comp->run(Name, Backend::Bytecode);
    ASSERT_TRUE(Tree.ok()) << Name << ": " << Tree.Error;
    ASSERT_TRUE(Mach.ok()) << Name << ": " << Mach.Error;
    ASSERT_TRUE(Bc.ok()) << Name << ": " << Bc.Error;
    EXPECT_EQ(Tree.IntValue.value_or(-1), Value) << Name;
    EXPECT_EQ(Mach.IntValue.value_or(-1), Value) << Name;
    EXPECT_EQ(Bc.IntValue.value_or(-1), Value) << Name;
  }
}

TEST(DifferentialBackendTest, MachineLoopRunsUnboxed) {
  // Section 2.1's claim on the machine side: the unboxed loop's only
  // heap traffic is the letrec knot and the top-level binding chain —
  // the per-iteration path allocates nothing.
  Session S;
  auto Comp = S.compile("sumToH :: Int# -> Int# -> Int# ;"
                        "sumToH acc n = case n of {"
                        "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
                        "} ;"
                        "small = sumToH 0# 10# ;"
                        "large = sumToH 0# 1000#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Small = Comp->run("small", Backend::AbstractMachine);
  RunResult Large = Comp->run("large", Backend::AbstractMachine);
  ASSERT_TRUE(Small.ok()) << Small.Error;
  ASSERT_TRUE(Large.ok()) << Large.Error;
  // 100x the iterations, identical allocation count.
  EXPECT_EQ(Small.Machine.Allocations, Large.Machine.Allocations);
  EXPECT_GT(Large.Machine.BetaInt, Small.Machine.BetaInt);
}

TEST(DifferentialBackendTest, BytecodeLoopRunsUnboxedAtConstantDepth) {
  // The Section 2.1 claim in the VM's own cost model: the loop's
  // arguments stay in Int# registers — no thunks, no I# boxes, no
  // closures, no PAPs per iteration — and the self-call is a saturated
  // TailCallN that re-enters at the same stack position, so the stack
  // stays at constant depth no matter the iteration count. Before
  // multi-arg uncurrying the curried `sumToH acc` spine allocated one
  // closure per iteration; the per-iteration heap traffic is now zero,
  // pinned exactly below.
  Session S;
  auto Comp = S.compile("sumToH :: Int# -> Int# -> Int# ;"
                        "sumToH acc n = case n of {"
                        "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
                        "} ;"
                        "small = sumToH 0# 10# ;"
                        "large = sumToH 0# 1000#");
  ASSERT_TRUE(Comp->ok()) << Comp->diagText();
  RunResult Small = Comp->run("small", Backend::Bytecode);
  RunResult Large = Comp->run("large", Backend::Bytecode);
  ASSERT_TRUE(Small.ok()) << Small.Error;
  ASSERT_TRUE(Large.ok()) << Large.Error;
  ASSERT_EQ(Small.Used, Backend::Bytecode);
  ASSERT_EQ(Large.Used, Backend::Bytecode);
  EXPECT_EQ(Small.Vm.MaxFrameDepth, Large.Vm.MaxFrameDepth)
      << "the recursive call must run as a frame-reusing tail call";
  EXPECT_GT(Large.Vm.TailCalls, Small.Vm.TailCalls);
  EXPECT_GT(Large.Vm.UncurriedCalls, Small.Vm.UncurriedCalls)
      << "the recursive spine must compile to a multi-arg TailCallN";
  // 100x the iterations, *identical* heap traffic: every argument
  // arrives saturated in a register-typed frame slot.
  EXPECT_EQ(Small.Vm.ThunkEvals, Large.Vm.ThunkEvals);
  EXPECT_EQ(Small.Vm.ConAllocs, Large.Vm.ConAllocs);
  EXPECT_EQ(Small.Vm.Allocations, Large.Vm.Allocations)
      << "the unboxed loop must not allocate per iteration";
  EXPECT_EQ(Small.Vm.PapAllocs, 0u);
  EXPECT_EQ(Large.Vm.PapAllocs, 0u);
  // The fused superinstructions carry the loop's arithmetic.
  EXPECT_GT(Large.Vm.FusedOps, Small.Vm.FusedOps);
  // The accessor satellite: steps()/allocations() must read the VM
  // ledger when the VM ran.
  EXPECT_EQ(Large.steps(), Large.Vm.Steps);
  EXPECT_EQ(Large.allocations(), Large.Vm.Allocations);
}

} // namespace
