//===- mcalc_machine_test.cpp - Figure 6 rule-by-rule machine tests -------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Every transition of the M machine, plus thunk sharing (EVAL + FCE),
// capture-avoiding substitution, and the calling-convention mismatches
// that levity restrictions exist to prevent (experiment E5).
//
//===----------------------------------------------------------------------===//

#include "mcalc/Machine.h"
#include "mcalc/Syntax.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::mcalc;

namespace {

class MachineTest : public ::testing::Test {
protected:
  MContext C;
  Machine M{C};

  MVar p(std::string_view N) { return {C.symbols().intern(N), VarSort::Ptr}; }
  MVar i(std::string_view N) { return {C.symbols().intern(N), VarSort::Int}; }
  MVar f(std::string_view N) { return {C.symbols().intern(N), VarSort::Dbl}; }

  int64_t runToLit(const Term *T) {
    MachineResult R = M.run(T);
    EXPECT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
    const auto *L = dyn_cast<LitTerm>(R.Value);
    EXPECT_NE(L, nullptr) << "final value: " << R.Value->str();
    return L ? L->value() : -1;
  }

  int64_t runToCon(const Term *T) {
    MachineResult R = M.run(T);
    EXPECT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
    const auto *L = dyn_cast<ConLitTerm>(R.Value);
    EXPECT_NE(L, nullptr) << "final value: " << R.Value->str();
    return L ? L->value() : -1;
  }
};

//===--------------------------------------------------------------------===//
// Values and trivial runs
//===--------------------------------------------------------------------===//

TEST_F(MachineTest, ValuesAreFinal) {
  EXPECT_EQ(runToLit(C.lit(5)), 5);
  EXPECT_EQ(runToCon(C.conLit(5)), 5);
  MachineResult R = M.run(C.lam(p("x"), C.var(p("x"))));
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_TRUE(isValue(R.Value));
}

TEST_F(MachineTest, ErrorAborts) {
  // ERR.
  MachineResult R = M.run(C.error());
  EXPECT_EQ(R.Status, MachineOutcome::Bottom);
}

//===--------------------------------------------------------------------===//
// Application (PAPP/IAPP/PPOP/IPOP)
//===--------------------------------------------------------------------===//

TEST_F(MachineTest, IntegerApplication) {
  // (λi. i) 42 → 42 via IAPP then IPOP.
  const Term *T = C.appLit(C.lam(i("a"), C.var(i("a"))), 42);
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_EQ(cast<LitTerm>(R.Value)->value(), 42);
  EXPECT_EQ(R.Stats.BetaInt, 1u);
  EXPECT_EQ(R.Stats.BetaPtr, 0u);
}

TEST_F(MachineTest, PointerApplicationThroughLet) {
  // let q = I#[7] in (λx. x) q → I#[7] (PAPP, PPOP, VAL).
  MVar Q = p("q");
  const Term *T =
      C.let(Q, C.conLit(7), C.appVar(C.lam(p("x"), C.var(p("x"))), Q));
  EXPECT_EQ(runToCon(T), 7);
}

TEST_F(MachineTest, ConventionMismatchPtrForInt) {
  // Applying a pointer argument to λi. … must get stuck — this is the
  // register-class mismatch that kinds-as-conventions rules out.
  MVar Q = p("q");
  const Term *T =
      C.let(Q, C.conLit(7), C.appVar(C.lam(i("n"), C.var(i("n"))), Q));
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
  EXPECT_NE(R.StuckReason.find("calling-convention mismatch"),
            std::string::npos);
}

TEST_F(MachineTest, ConventionMismatchIntForPtr) {
  const Term *T = C.appLit(C.lam(p("x"), C.var(p("x"))), 3);
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
  EXPECT_NE(R.StuckReason.find("calling-convention mismatch"),
            std::string::npos);
}

TEST_F(MachineTest, ApplyingNonFunctionSticks) {
  MachineResult R = M.run(C.appLit(C.lit(1), 2));
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
}

//===--------------------------------------------------------------------===//
// Laziness: LET, VAL, EVAL, FCE
//===--------------------------------------------------------------------===//

TEST_F(MachineTest, LazyLetDoesNotEvaluateUnusedRhs) {
  // let q = error in 5 → 5; the thunk is never entered.
  const Term *T = C.let(p("q"), C.error(), C.lit(5));
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_EQ(R.Stats.Allocations, 1u);
  EXPECT_EQ(R.Stats.ThunkEvals, 0u);
}

TEST_F(MachineTest, UsedThunkIsEvaluated) {
  // let q = (λx. x) applied-to-nothing… simpler: let q = I#[3] (a value):
  // VAL path, no thunk machinery.
  MVar Q = p("q");
  const Term *T = C.let(Q, C.conLit(3), C.var(Q));
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_EQ(R.Stats.VarLookups, 1u);
  EXPECT_EQ(R.Stats.ThunkEvals, 0u);
}

TEST_F(MachineTest, ThunkEvaluatedOnDemandAndUpdated) {
  // let q = (case I#[1] of I#[n] -> I#[n]) in q — the rhs is a non-value,
  // so using q triggers EVAL and the result is written back by FCE.
  MVar Q = p("q");
  const Term *Rhs = C.caseOf(C.conLit(1), i("n"), C.conVar(i("n")));
  const Term *T = C.let(Q, Rhs, C.var(Q));
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_EQ(cast<ConLitTerm>(R.Value)->value(), 1);
  EXPECT_EQ(R.Stats.ThunkEvals, 1u);
  EXPECT_EQ(R.Stats.ThunkUpdates, 1u);
}

TEST_F(MachineTest, ThunkSharing) {
  // Force the same thunk twice: the second use must be a VAL lookup, not
  // a re-evaluation (this is what distinguishes M from L's call-by-name).
  MVar Q = p("q");
  const Term *Rhs = C.caseOf(C.conLit(21), i("n"), C.conVar(i("n")));
  // case q of I#[a] -> case q of I#[b] -> I#[b]
  const Term *Body = C.caseOf(C.var(Q), i("a"),
                              C.caseOf(C.var(Q), i("b"), C.conVar(i("b"))));
  MachineResult R = M.run(C.let(Q, Rhs, Body));
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_EQ(cast<ConLitTerm>(R.Value)->value(), 21);
  EXPECT_EQ(R.Stats.ThunkEvals, 1u) << "thunk evaluated more than once";
  EXPECT_EQ(R.Stats.VarLookups, 1u);
}

TEST_F(MachineTest, DanglingPointerSticks) {
  MachineResult R = M.run(C.var(p("nowhere")));
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
  EXPECT_NE(R.StuckReason.find("dangling"), std::string::npos);
}

TEST_F(MachineTest, ReentrantLetAllocatesDistinctCells) {
  // (λx. let q = I#[1] in case q of I#[a] -> x) applied twice would clash
  // if LET reused the same heap name. Build:
  //   let f = λx. (let q = I#[9] in case q of I#[a] -> x)
  //   in case (f applied to I#[5]-thunk) of I#[m] ->
  //        case (f applied to I#[6]-thunk) of I#[n] -> I#[n]
  MVar F = p("f"), X = p("x"), Q = p("q"), A1 = p("a1"), A2 = p("a2");
  const Term *FBody =
      C.lam(X, C.let(Q, C.conLit(9), C.caseOf(C.var(Q), i("a"),
                                              C.var(X))));
  const Term *Call1 = C.appVar(C.var(F), A1);
  const Term *Call2 = C.appVar(C.var(F), A2);
  const Term *T = C.let(
      F, FBody,
      C.let(A1, C.conLit(5),
            C.let(A2, C.conLit(6),
                  C.caseOf(Call1, i("m"),
                           C.caseOf(Call2, i("n"), C.conVar(i("n")))))));
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_EQ(cast<ConLitTerm>(R.Value)->value(), 6);
  EXPECT_EQ(R.Stats.Allocations, 5u); // f, a1, a2, q (twice)
}

//===--------------------------------------------------------------------===//
// Strict let (SLET/ILET) and case (CASE/IMAT)
//===--------------------------------------------------------------------===//

TEST_F(MachineTest, StrictLetEvaluatesRhsFirst) {
  // let! n = (λi. i) 4 in I#[n].
  const Term *T = C.letBang(
      i("n"), C.appLit(C.lam(i("k"), C.var(i("k"))), 4), C.conVar(i("n")));
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Value);
  EXPECT_EQ(cast<ConLitTerm>(R.Value)->value(), 4);
  EXPECT_EQ(R.Stats.StrictLets, 1u);
}

TEST_F(MachineTest, StrictLetOfErrorDiverges) {
  const Term *T = C.letBang(i("n"), C.error(), C.lit(5));
  EXPECT_EQ(M.run(T).Status, MachineOutcome::Bottom);
}

TEST_F(MachineTest, CaseUnpacksBox) {
  // case I#[11] of I#[n] -> n.
  const Term *T = C.caseOf(C.conLit(11), i("n"), C.var(i("n")));
  EXPECT_EQ(runToLit(T), 11);
}

TEST_F(MachineTest, CaseOfNonBoxSticks) {
  const Term *T = C.caseOf(C.lit(11), i("n"), C.var(i("n")));
  MachineResult R = M.run(T);
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
}

TEST_F(MachineTest, UnresolvedIntVarSticks) {
  EXPECT_EQ(M.run(C.var(i("n"))).Status, MachineOutcome::Stuck);
  EXPECT_EQ(M.run(C.conVar(i("n"))).Status, MachineOutcome::Stuck);
}

//===--------------------------------------------------------------------===//
// Substitution
//===--------------------------------------------------------------------===//

TEST_F(MachineTest, SubstLitConvertsForms) {
  // I#[n][5/n] = I#[5]; (t n)[5/n] = t 5.
  const Term *T = C.appVar(C.conVar(i("n")), i("n"));
  const Term *Out = subst(C, T, i("n"), MAtom::lit(5));
  EXPECT_EQ(Out->str(), "I#[5] 5");
}

TEST_F(MachineTest, SubstVarRenames) {
  const Term *T = C.appVar(C.var(p("x")), p("x"));
  const Term *Out = subst(C, T, p("x"), MAtom::anyVar(p("y")));
  EXPECT_EQ(Out->str(), "y y");
}

TEST_F(MachineTest, SubstShadowingStops) {
  // (λx. x)[y/x] = λx. x.
  const Term *T = C.lam(p("x"), C.var(p("x")));
  EXPECT_EQ(subst(C, T, p("x"), MAtom::anyVar(p("y"))), T);
}

TEST_F(MachineTest, SubstAvoidsCapture) {
  // (λy. x)[y/x] must freshen the binder.
  const Term *T = C.lam(p("y"), C.var(p("x")));
  const Term *Out = subst(C, T, p("x"), MAtom::anyVar(p("y")));
  const auto *L = cast<LamTerm>(Out);
  EXPECT_NE(L->param(), p("y"));
  EXPECT_EQ(cast<VarTerm>(L->body())->var(), p("y"));
}

TEST_F(MachineTest, SubstIntoLetRhsAndBody) {
  // (let q = x in q x)[y/x].
  MVar Q = p("q");
  const Term *T =
      C.let(Q, C.var(p("x")), C.appVar(C.var(Q), p("x")));
  const Term *Out = subst(C, T, p("x"), MAtom::anyVar(p("y")));
  EXPECT_EQ(Out->str(), "let q = y in q y");
}

TEST_F(MachineTest, SubstDblConvertsForms) {
  // DPOP/DLET: f becomes d, t f becomes t d, and d lands in primop and
  // CON field atoms.
  MVar F = f("f");
  MAtom D = MAtom::dlit(2.5);
  EXPECT_EQ(subst(C, C.var(F), F, D)->str(), "2.5##");
  EXPECT_EQ(subst(C, C.appVar(C.var(p("g")), F), F, D)->str(), "g 2.5##");
  const Term *P =
      subst(C, C.prim(MPrim::DAdd, MAtom::var(F), MAtom::var(f("h"))), F, D);
  EXPECT_EQ(P->str(), "2.5 +## h");
  EXPECT_TRUE(cast<PrimTerm>(P)->lhs().IsDbl);
  MAtom Fields[] = {MAtom::anyVar(p("x")), MAtom::var(F)};
  const Term *K = subst(C, C.con(1, Fields), F, D);
  EXPECT_EQ(K->str(), "CON 1 [x, 2.5]");
  EXPECT_TRUE(isValue(K));
  // An untouched term comes back as the same node.
  const Term *Other = C.appVar(C.var(p("g")), f("h"));
  EXPECT_EQ(subst(C, Other, F, D), Other);
}

TEST_F(MachineTest, SubstStopsAtShadowingCaseAndLetrec) {
  // (case I#[n] of I#[n] -> n)[5/n]: the scrutinee is rewritten, the
  // body is not.
  const Term *Case = C.caseOf(C.conVar(i("n")), i("n"), C.var(i("n")));
  EXPECT_EQ(subst(C, Case, i("n"), MAtom::lit(5))->str(),
            "case I#[5] of I#[n] -> n");
  // letrec r binds r in both halves: (letrec r = r in r)[y/r] is itself.
  const Term *Rec = C.letRec(p("r"), C.var(p("r")), C.var(p("r")));
  EXPECT_EQ(subst(C, Rec, p("r"), MAtom::anyVar(p("y"))), Rec);
}

TEST_F(MachineTest, SubstAvoidsCaptureUnderCaseAndLetrec) {
  // (case I#[1] of I#[m] -> m +# n)[m/n] freshens m.
  const Term *Case =
      C.caseOf(C.conLit(1), i("m"),
               C.prim(MPrim::Add, MAtom::var(i("m")), MAtom::var(i("n"))));
  const auto *CO =
      cast<CaseTerm>(subst(C, Case, i("n"), MAtom::anyVar(i("m"))));
  EXPECT_NE(CO->binder(), i("m"));
  const auto *Sum = cast<PrimTerm>(CO->body());
  EXPECT_EQ(Sum->lhs().Var, CO->binder());
  EXPECT_EQ(Sum->rhs().Var, i("m"));
  // (letrec y = y x in y x)[y/x] freshens y in both halves.
  const Term *Knot = C.appVar(C.var(p("y")), p("x"));
  const auto *LR =
      cast<LetRecTerm>(subst(C, C.letRec(p("y"), Knot, Knot), p("x"),
                             MAtom::anyVar(p("y"))));
  EXPECT_NE(LR->binder(), p("y"));
  for (const Term *Half : {LR->rhs(), LR->body()}) {
    const auto *A = cast<AppVarTerm>(Half);
    EXPECT_EQ(cast<VarTerm>(A->fn())->var(), LR->binder());
    EXPECT_EQ(A->arg(), p("y"));
  }
}

TEST_F(MachineTest, SubstRespectsSwitchAlternativeBinders) {
  // switch s of { CON 0 [x] -> x y ; CON 1 [y] -> y x ; _ -> x }[y/x]:
  // the first alternative is shadowed, the second freshens y.
  MVar X = p("x"), Y = p("y");
  MAlt Alts[2];
  Alts[0].Tag = 0;
  Alts[0].Binders = {&X, 1};
  Alts[0].Body = C.appVar(C.var(X), Y);
  Alts[1].Tag = 1;
  Alts[1].Binders = {&Y, 1};
  Alts[1].Body = C.appVar(C.var(Y), X);
  const auto *S =
      cast<SwitchTerm>(subst(C, C.switchOf(C.var(p("s")), Alts, C.var(X)), X,
                             MAtom::anyVar(Y)));
  EXPECT_EQ(S->alts()[0].Body, Alts[0].Body);
  EXPECT_EQ(S->alts()[0].Binders[0], X);
  MVar Fresh = S->alts()[1].Binders[0];
  EXPECT_NE(Fresh, Y);
  const auto *A = cast<AppVarTerm>(S->alts()[1].Body);
  EXPECT_EQ(cast<VarTerm>(A->fn())->var(), Fresh);
  EXPECT_EQ(A->arg(), Y);
  EXPECT_EQ(S->defaultBody()->str(), "y");
  // A literal stops at an Int# binder of the same name.
  MVar N = i("n");
  MAlt IntAlt;
  IntAlt.Tag = 0;
  IntAlt.Binders = {&N, 1};
  IntAlt.Body = C.var(N);
  const Term *Sw = C.switchOf(C.var(p("s")), {&IntAlt, 1}, C.var(N));
  EXPECT_EQ(subst(C, Sw, N, MAtom::lit(4))->str(),
            "switch s of { CON 0 [n] -> n ; _ -> 4 }");
}

TEST_F(MachineTest, StatsCountSteps) {
  const Term *T = C.caseOf(C.conLit(1), i("n"), C.var(i("n")));
  MachineResult R = M.run(T);
  EXPECT_GT(R.Stats.Steps, 0u);
  EXPECT_EQ(R.Stats.Cases, 1u);
}

TEST_F(MachineTest, FuelExhaustionReported) {
  // An infinite loop is inexpressible without recursion, but fuel can be
  // made smaller than the program needs.
  const Term *T = C.caseOf(C.conLit(1), i("n"), C.conVar(i("n")));
  MachineResult R = M.run(T, 1);
  EXPECT_EQ(R.Status, MachineOutcome::OutOfFuel);
}

TEST_F(MachineTest, PrintsReadably) {
  const Term *T = C.letBang(i("n"), C.lit(3), C.conVar(i("n")));
  EXPECT_EQ(T->str(), "let! n = 3 in I#[n]");
}

//===--------------------------------------------------------------------===//
// SWITCH / SWITCHk — the tag-dispatch pair (PR 5)
//===--------------------------------------------------------------------===//

class SwitchTest : public MachineTest {
protected:
  /// switch Scrut of { CON 0 [] -> 10 ; CON 1 [n] -> n ; _ -> Def }.
  const Term *twoConSwitch(const Term *Scrut, const Term *Def) {
    MVar N = i("n");
    MAlt Alts[2];
    Alts[0].Pat = MAlt::PatKind::Con;
    Alts[0].Tag = 0;
    Alts[0].Body = C.lit(10);
    Alts[1].Pat = MAlt::PatKind::Con;
    Alts[1].Tag = 1;
    Alts[1].Binders = std::span<const MVar>(&N, 1);
    Alts[1].Body = C.var(N);
    return C.switchOf(Scrut, Alts, Def);
  }
};

TEST_F(SwitchTest, DispatchesOnConstructorTag) {
  // SWITCHk: CON 1 [7] selects the tag-1 alternative and binds n := 7.
  MAtom Args[] = {MAtom::lit(7)};
  MachineResult R = M.run(twoConSwitch(C.con(1, Args), nullptr));
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_EQ(cast<LitTerm>(R.Value)->value(), 7);
  EXPECT_EQ(R.Stats.Switches, 1u);
  EXPECT_EQ(R.Stats.Branches, 1u);

  MachineResult R0 = M.run(twoConSwitch(C.con(0, {}), nullptr));
  ASSERT_EQ(R0.Status, MachineOutcome::Value) << R0.StuckReason;
  EXPECT_EQ(cast<LitTerm>(R0.Value)->value(), 10);
}

TEST_F(SwitchTest, UnmatchedTagTakesDefault) {
  MachineResult R = M.run(twoConSwitch(C.con(2, {}), C.lit(99)));
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_EQ(cast<LitTerm>(R.Value)->value(), 99);
}

TEST_F(SwitchTest, UnmatchedTagWithoutDefaultIsStuck) {
  MachineResult R = M.run(twoConSwitch(C.con(2, {}), nullptr));
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
  EXPECT_NE(R.StuckReason.find("no matching switch alternative"),
            std::string::npos);
}

TEST_F(SwitchTest, BoxedIntScrutineeMatchesTagZero) {
  // I#[n] dispatches as tag 0 of the built-in Int, binding the payload.
  MVar N = i("n");
  MAlt Alt;
  Alt.Pat = MAlt::PatKind::Con;
  Alt.Tag = 0;
  Alt.Binders = std::span<const MVar>(&N, 1);
  Alt.Body = C.prim(MPrim::Add, MAtom::var(N), MAtom::lit(1));
  const Term *T = C.switchOf(C.conLit(41), {&Alt, 1}, nullptr);
  EXPECT_EQ(runToLit(T), 42);
}

TEST_F(SwitchTest, LiteralAlternativesDispatchByValue) {
  MAlt Alts[2];
  Alts[0].Pat = MAlt::PatKind::Int;
  Alts[0].IntVal = 3;
  Alts[0].Body = C.lit(30);
  Alts[1].Pat = MAlt::PatKind::Int;
  Alts[1].IntVal = 4;
  Alts[1].Body = C.lit(40);
  EXPECT_EQ(runToLit(C.switchOf(C.lit(4), Alts, C.lit(0))), 40);
  EXPECT_EQ(runToLit(C.switchOf(C.lit(3), Alts, C.lit(0))), 30);
  EXPECT_EQ(runToLit(C.switchOf(C.lit(9), Alts, C.lit(0))), 0);

  MAlt DAlt;
  DAlt.Pat = MAlt::PatKind::Dbl;
  DAlt.DblVal = 2.5;
  DAlt.Body = C.lit(1);
  EXPECT_EQ(runToLit(C.switchOf(C.dlit(2.5), {&DAlt, 1}, C.lit(0))), 1);
  EXPECT_EQ(runToLit(C.switchOf(C.dlit(2.0), {&DAlt, 1}, C.lit(0))), 0);
}

TEST_F(SwitchTest, PointerFieldsBindLazilyThroughTheHeap) {
  // let p = <thunk> in switch CON 0 [p, 8] of { CON 0 [q, m] -> q + m }:
  // the pointer field flows through unevaluated; forcing q runs the
  // thunk (EVAL + FCE) and the unboxed field substitutes as a literal.
  MVar P = p("p"), Q = p("q"), Mm = i("m"), N = i("n");
  MAtom ConArgs[] = {MAtom::anyVar(P), MAtom::lit(8)};
  MVar Binders[2] = {Q, Mm};
  MAlt Alt;
  Alt.Pat = MAlt::PatKind::Con;
  Alt.Tag = 0;
  Alt.Binders = std::span<const MVar>(Binders, 2);
  // case q of I#[n] -> n + m.
  Alt.Body = C.caseOf(C.var(Q), N,
                      C.prim(MPrim::Add, MAtom::var(N), MAtom::var(Mm)));
  const Term *T =
      C.let(P, C.conLit(34), C.switchOf(C.con(0, ConArgs), {&Alt, 1},
                                        nullptr));
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_EQ(cast<LitTerm>(R.Value)->value(), 42);
  EXPECT_EQ(R.Stats.Allocations, 1u);
}

TEST_F(SwitchTest, ConAllocsCountConstructorHeapNodes) {
  // A CON bound by a lazy let is a constructor node in the heap.
  MVar P = p("p");
  MAtom Args[] = {MAtom::lit(1)};
  const Term *T = C.let(P, C.con(1, Args),
                        twoConSwitch(C.var(P), nullptr));
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_EQ(R.Stats.ConAllocs, 1u);
}

TEST_F(SwitchTest, UnresolvedUnboxedConFieldIsStuck) {
  // A CON whose unboxed atom never got a literal is not a value and has
  // no rule: stuck, like any other ill-sorted program.
  MAtom Args[] = {MAtom::var(i("loose"))};
  MachineResult R = M.run(C.con(1, Args));
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
  EXPECT_NE(R.StuckReason.find("unresolved unboxed field"),
            std::string::npos);
}

TEST_F(SwitchTest, SwitchBinderArityMismatchIsStuck) {
  // Tag matches but the pattern arity does not: stuck, not UB.
  MAtom Args[] = {MAtom::lit(1), MAtom::lit(2)};
  MachineResult R = M.run(twoConSwitch(C.con(1, Args), nullptr));
  EXPECT_EQ(R.Status, MachineOutcome::Stuck);
  EXPECT_NE(R.StuckReason.find("arity mismatch"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// FinalHeap reachability pruning
//===--------------------------------------------------------------------===//

TEST_F(MachineTest, FinalHeapDropsCellsUnreachableFromTheResult) {
  // let live = CON_1[1] in let dead = CON_2[2] in CON_3[live]: the
  // result value names live but not dead, so the snapshot must keep
  // exactly the live cell. (Keeping the whole heap is the unbounded-
  // growth bug: every run's dead bindings would outlive the run pinned
  // inside MachineResult.)
  MAtom LiveRhs[] = {MAtom::lit(1)};
  MAtom DeadRhs[] = {MAtom::lit(2)};
  MAtom ResultArgs[] = {MAtom::anyVar(p("live"))};
  const Term *T =
      C.let(p("live"), C.con(1, LiveRhs),
            C.let(p("dead"), C.con(2, DeadRhs), C.con(3, ResultArgs)));
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  ASSERT_EQ(R.FinalHeap.size(), 1u);

  // Probing the survivor through the snapshot still works: resume from
  // FinalHeap on the field the result carries (the machine freshens let
  // binders, so take the name from the value, not from the source).
  const auto *Res = cast<ConTerm>(R.Value);
  ASSERT_EQ(Res->args().size(), 1u);
  MVar Field = Res->args()[0].Var;
  ASSERT_TRUE(R.FinalHeap.count(Field.Name));
  MachineResult Probe = M.runWithHeap(C.var(Field), R.FinalHeap);
  ASSERT_EQ(Probe.Status, MachineOutcome::Value) << Probe.StuckReason;
  EXPECT_EQ(cast<ConTerm>(Probe.Value)->tag(), 1u);
}

TEST_F(MachineTest, FinalHeapKeepsTransitivelyReachableCells) {
  // Reachability is transitive through stored terms: the result names b,
  // b's cell names a, so both survive while dead is dropped.
  MAtom ARhs[] = {MAtom::lit(5)};
  MAtom BRhs[] = {MAtom::anyVar(p("a"))};
  MAtom DeadRhs[] = {MAtom::lit(9)};
  MAtom ResultArgs[] = {MAtom::anyVar(p("b"))};
  const Term *T = C.let(
      p("a"), C.con(1, ARhs),
      C.let(p("b"), C.con(2, BRhs),
            C.let(p("dead"), C.con(9, DeadRhs), C.con(3, ResultArgs))));
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_EQ(R.FinalHeap.size(), 2u);
}

TEST_F(MachineTest, NonValueOutcomesKeepTheWholeHeap) {
  // Stuck/bottom states have no result to trace from; the full heap
  // stays available for debugging.
  MAtom Rhs[] = {MAtom::lit(1)};
  const Term *T = C.let(p("x"), C.con(1, Rhs), C.error());
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Bottom);
  EXPECT_EQ(R.FinalHeap.size(), 1u);
}

TEST_F(MachineTest, RunsReportPeakHeapBytes) {
  // Any allocating run must surface a nonzero arena peak.
  MAtom Rhs[] = {MAtom::lit(1)};
  MAtom ResultArgs[] = {MAtom::anyVar(p("x"))};
  const Term *T = C.let(p("x"), C.con(1, Rhs), C.con(3, ResultArgs));
  MachineResult R = M.run(T);
  ASSERT_EQ(R.Status, MachineOutcome::Value) << R.StuckReason;
  EXPECT_GT(R.Stats.PeakHeapBytes, 0u);
  EXPECT_EQ(R.Stats.MaxHeapSize, 1u);
}

} // namespace
