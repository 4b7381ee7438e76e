//===- lcalc_syntax_test.cpp - L syntax, alpha-equivalence, substitution --===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Figure 2 structures: values (recursive under Λ), type alpha-equivalence,
// free-variable computation, and capture-avoiding substitution.
//
//===----------------------------------------------------------------------===//

#include "lcalc/Subst.h"
#include "lcalc/Syntax.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::lcalc;

namespace {

class LSyntaxTest : public ::testing::Test {
protected:
  LContext C;

  Symbol s(std::string_view N) { return C.sym(N); }
};

//===--------------------------------------------------------------------===//
// Values (Figure 2)
//===--------------------------------------------------------------------===//

TEST_F(LSyntaxTest, LiteralsAndLambdasAreValues) {
  EXPECT_TRUE(isValue(C.intLit(3)));
  EXPECT_TRUE(isValue(C.lam(s("x"), C.intTy(), C.var(s("x")))));
}

TEST_F(LSyntaxTest, ConOfValueIsValue) {
  EXPECT_TRUE(isValue(C.con(C.intLit(3))));
  // I#[e] with reducible payload is not a value.
  const Expr *Redex =
      C.app(C.lam(s("x"), C.intHashTy(), C.var(s("x"))), C.intLit(1));
  EXPECT_FALSE(isValue(C.con(Redex)));
}

// Values are recursive under Λ: Λα:κ. v is a value only if v is.
TEST_F(LSyntaxTest, ValueRecursionUnderTypeLambda) {
  const Expr *V = C.tyLam(s("a"), LKind::typePtr(), C.intLit(3));
  EXPECT_TRUE(isValue(V));
  const Expr *Redex =
      C.app(C.lam(s("x"), C.intHashTy(), C.var(s("x"))), C.intLit(1));
  EXPECT_FALSE(isValue(C.tyLam(s("a"), LKind::typePtr(), Redex)));
}

TEST_F(LSyntaxTest, ValueRecursionUnderRepLambda) {
  EXPECT_TRUE(isValue(C.repLam(s("r"), C.intLit(3))));
  const Expr *Redex =
      C.app(C.lam(s("x"), C.intHashTy(), C.var(s("x"))), C.intLit(1));
  EXPECT_FALSE(isValue(C.repLam(s("r"), Redex)));
}

TEST_F(LSyntaxTest, ApplicationsAreNotValues) {
  EXPECT_FALSE(isValue(C.app(C.var(s("f")), C.intLit(1))));
  EXPECT_FALSE(isValue(C.error()));
  EXPECT_FALSE(isValue(C.caseOf(C.con(C.intLit(1)), s("x"), C.intLit(2))));
}

//===--------------------------------------------------------------------===//
// Pretty printing
//===--------------------------------------------------------------------===//

TEST_F(LSyntaxTest, PrintsTypes) {
  EXPECT_EQ(C.intTy()->str(), "Int");
  EXPECT_EQ(C.intHashTy()->str(), "Int#");
  EXPECT_EQ(C.arrowTy(C.intHashTy(), C.intHashTy())->str(), "Int# -> Int#");
  // Arrows associate right.
  EXPECT_EQ(
      C.arrowTy(C.arrowTy(C.intTy(), C.intTy()), C.intTy())->str(),
      "(Int -> Int) -> Int");
  EXPECT_EQ(C.errorType()->str(),
            "forall r. forall a:TYPE r. Int -> a");
}

TEST_F(LSyntaxTest, PrintsExprs) {
  const Expr *E = C.app(C.lam(s("x"), C.intTy(), C.var(s("x"))),
                        C.con(C.intLit(4)));
  EXPECT_EQ(E->str(), "(\\x:Int. x) I#[4]");
}

//===--------------------------------------------------------------------===//
// Alpha-equivalence of types
//===--------------------------------------------------------------------===//

TEST_F(LSyntaxTest, AlphaEqualForAll) {
  const Type *A =
      C.forAllTy(s("a"), LKind::typePtr(),
                 C.arrowTy(C.varTy(s("a")), C.varTy(s("a"))));
  const Type *B =
      C.forAllTy(s("b"), LKind::typePtr(),
                 C.arrowTy(C.varTy(s("b")), C.varTy(s("b"))));
  EXPECT_TRUE(typeEqual(A, B));
}

TEST_F(LSyntaxTest, AlphaInequalDifferentKinds) {
  const Type *A = C.forAllTy(s("a"), LKind::typePtr(), C.varTy(s("a")));
  const Type *B = C.forAllTy(s("a"), LKind::typeInt(), C.varTy(s("a")));
  EXPECT_FALSE(typeEqual(A, B));
}

TEST_F(LSyntaxTest, AlphaEqualForAllRep) {
  const Type *A = C.forAllRepTy(
      s("r"), C.forAllTy(s("a"), LKind::typeVar(s("r")),
                         C.arrowTy(C.intTy(), C.varTy(s("a")))));
  const Type *B = C.forAllRepTy(
      s("q"), C.forAllTy(s("b"), LKind::typeVar(s("q")),
                         C.arrowTy(C.intTy(), C.varTy(s("b")))));
  EXPECT_TRUE(typeEqual(A, B));
}

TEST_F(LSyntaxTest, ShadowingRespectsInnermostBinder) {
  // ∀a.∀a. a  ≡  ∀a.∀b. b   but  ∀a.∀a. a  ≢  ∀a.∀b. a.
  const Type *AA = C.forAllTy(
      s("a"), LKind::typePtr(),
      C.forAllTy(s("a"), LKind::typePtr(), C.varTy(s("a"))));
  const Type *AB_b = C.forAllTy(
      s("a"), LKind::typePtr(),
      C.forAllTy(s("b"), LKind::typePtr(), C.varTy(s("b"))));
  const Type *AB_a = C.forAllTy(
      s("a"), LKind::typePtr(),
      C.forAllTy(s("b"), LKind::typePtr(), C.varTy(s("a"))));
  EXPECT_TRUE(typeEqual(AA, AB_b));
  EXPECT_FALSE(typeEqual(AA, AB_a));
}

TEST_F(LSyntaxTest, FreeVariablesMustMatchByName) {
  EXPECT_TRUE(typeEqual(C.varTy(s("a")), C.varTy(s("a"))));
  EXPECT_FALSE(typeEqual(C.varTy(s("a")), C.varTy(s("b"))));
}

//===--------------------------------------------------------------------===//
// Free variables
//===--------------------------------------------------------------------===//

TEST_F(LSyntaxTest, FreeTermVars) {
  const Expr *E = C.lam(s("x"), C.intTy(),
                        C.app(C.var(s("f")), C.var(s("x"))));
  FreeVars FV;
  freeVars(E, FV);
  EXPECT_EQ(FV.Term.size(), 1u);
  EXPECT_TRUE(FV.Term.count(s("f")));
}

TEST_F(LSyntaxTest, CaseBinderScopesOverBodyOnly) {
  // case x of I#[x] -> x : outer x is free (scrutinee), body x is bound.
  const Expr *E = C.caseOf(C.var(s("x")), s("x"), C.var(s("x")));
  FreeVars FV;
  freeVars(E, FV);
  EXPECT_EQ(FV.Term.size(), 1u);
  EXPECT_TRUE(FV.Term.count(s("x")));
}

TEST_F(LSyntaxTest, FreeRepVarsThroughKinds) {
  // Λα:TYPE r. x has r free (in the kind annotation).
  const Expr *E = C.tyLam(s("a"), LKind::typeVar(s("r")), C.intLit(1));
  FreeVars FV;
  freeVars(E, FV);
  EXPECT_TRUE(FV.Rep.count(s("r")));
}

TEST_F(LSyntaxTest, IsClosedDetectsEscapes) {
  EXPECT_TRUE(isClosed(C.lam(s("x"), C.intTy(), C.var(s("x")))));
  EXPECT_FALSE(isClosed(C.var(s("x"))));
  EXPECT_FALSE(isClosed(C.tyApp(C.intLit(1), C.varTy(s("a")))));
  EXPECT_FALSE(isClosed(C.repApp(C.intLit(1), RuntimeRep::var(s("r")))));
}

//===--------------------------------------------------------------------===//
// Substitution
//===--------------------------------------------------------------------===//

TEST_F(LSyntaxTest, SubstTermVariable) {
  const Expr *Body = C.app(C.var(s("f")), C.var(s("x")));
  const Expr *Out = subst(C, Body, s("x"), C.intLit(7));
  EXPECT_EQ(Out->str(), "f 7");
}

TEST_F(LSyntaxTest, SubstShadowedVariableIsNoOp) {
  const Expr *E = C.lam(s("x"), C.intTy(), C.var(s("x")));
  EXPECT_EQ(subst(C, E, s("x"), C.intLit(7)), E);
}

TEST_F(LSyntaxTest, SubstAvoidsCapture) {
  // (λy:Int. x)[y/x] must freshen the binder, not capture.
  const Expr *E = C.lam(s("y"), C.intTy(), C.var(s("x")));
  const Expr *Out = subst(C, E, s("x"), C.var(s("y")));
  const auto *L = cast<LamExpr>(Out);
  EXPECT_NE(L->var(), s("y"));
  EXPECT_EQ(cast<VarExpr>(L->body())->name(), s("y"));
}

TEST_F(LSyntaxTest, SubstSharesUnchangedSubtrees) {
  const Expr *E = C.lam(s("y"), C.intTy(), C.intLit(3));
  EXPECT_EQ(subst(C, E, s("zzz"), C.intLit(7)), E);
}

TEST_F(LSyntaxTest, SubstTypeInType) {
  const Type *T = C.arrowTy(C.varTy(s("a")), C.varTy(s("a")));
  const Type *Out = substTypeInType(C, T, s("a"), C.intHashTy());
  EXPECT_EQ(Out->str(), "Int# -> Int#");
}

TEST_F(LSyntaxTest, SubstTypeAvoidsCaptureUnderForAll) {
  // (∀b. a -> b)[b/a] must not capture the free b.
  const Type *T = C.forAllTy(s("b"), LKind::typePtr(),
                             C.arrowTy(C.varTy(s("a")), C.varTy(s("b"))));
  const Type *Out = substTypeInType(C, T, s("a"), C.varTy(s("b")));
  const auto *F = cast<ForAllType>(Out);
  EXPECT_NE(F->var(), s("b"));
  const auto *Arrow = cast<ArrowType>(F->body());
  EXPECT_EQ(cast<VarType>(Arrow->param())->name(), s("b"));
  EXPECT_EQ(cast<VarType>(Arrow->result())->name(), F->var());
}

TEST_F(LSyntaxTest, SubstRepInType) {
  const Type *T = C.forAllTy(s("a"), LKind::typeVar(s("r")),
                             C.varTy(s("a")));
  const Type *Out =
      substRepInType(C, T, s("r"), RuntimeRep::integer());
  EXPECT_EQ(cast<ForAllType>(Out)->varKind(), LKind::typeInt());
}

TEST_F(LSyntaxTest, SubstRepShadowed) {
  const Type *T = C.forAllRepTy(
      s("r"), C.forAllTy(s("a"), LKind::typeVar(s("r")), C.varTy(s("a"))));
  EXPECT_EQ(substRepInType(C, T, s("r"), RuntimeRep::pointer()), T);
}

TEST_F(LSyntaxTest, SubstRepInExprKinds) {
  const Expr *E = C.tyLam(s("a"), LKind::typeVar(s("r")),
                          C.lam(s("x"), C.varTy(s("a")), C.var(s("x"))));
  const Expr *Out = subst(C, E, s("r"), RuntimeRep::pointer());
  EXPECT_EQ(cast<TyLamExpr>(Out)->varKind(), LKind::typePtr());
}

TEST_F(LSyntaxTest, SubstTypeInExprAnnotations) {
  const Expr *E = C.lam(s("x"), C.varTy(s("a")), C.var(s("x")));
  const Expr *Out = subst(C, E, s("a"), C.intHashTy());
  EXPECT_EQ(cast<LamExpr>(Out)->varType(), C.intHashTy());
}

TEST_F(LSyntaxTest, SubstTermAvoidsCaptureUnderCaseAndFix) {
  // (case z of I#[y] -> x)[y/x] freshens the alternative's binder.
  const Expr *Case = C.caseOf(C.var(s("z")), s("y"), C.var(s("x")));
  const auto *CO = cast<CaseExpr>(subst(C, Case, s("x"), C.var(s("y"))));
  const LAlt &A = CO->alts()[0];
  EXPECT_NE(A.Binders[0], s("y"));
  EXPECT_EQ(cast<VarExpr>(A.Rhs)->name(), s("y"));
  // (case x of I#[x] -> x)[7/x] rewrites the scrutinee only.
  const Expr *Shadow = C.caseOf(C.var(s("x")), s("x"), C.var(s("x")));
  const auto *SO = cast<CaseExpr>(subst(C, Shadow, s("x"), C.intLit(7)));
  EXPECT_EQ(cast<IntLitExpr>(SO->scrut())->value(), 7);
  EXPECT_EQ(SO->alts()[0].Binders[0], s("x"));
  EXPECT_EQ(SO->alts()[0].Rhs, cast<CaseExpr>(Shadow)->alts()[0].Rhs);
  // (fix y:Int. x)[y/x] freshens y; (fix x:Int. x)[7/x] is itself.
  const auto *F = cast<FixExpr>(subst(
      C, C.fix(s("y"), C.intTy(), C.var(s("x"))), s("x"), C.var(s("y"))));
  EXPECT_NE(F->var(), s("y"));
  EXPECT_EQ(cast<VarExpr>(F->body())->name(), s("y"));
  const Expr *Fix = C.fix(s("x"), C.intTy(), C.var(s("x")));
  EXPECT_EQ(subst(C, Fix, s("x"), C.intLit(7)), Fix);
}

TEST_F(LSyntaxTest, SubstTypeAvoidsCaptureUnderTyLam) {
  // (Λb:TYPE P. λz:a. z)[b/a] freshens b.
  const Expr *E =
      C.tyLam(s("b"), LKind::typePtr(),
              C.lam(s("z"), C.varTy(s("a")), C.var(s("z"))));
  const auto *L = cast<TyLamExpr>(subst(C, E, s("a"), C.varTy(s("b"))));
  EXPECT_NE(L->var(), s("b"));
  EXPECT_EQ(cast<VarType>(cast<LamExpr>(L->body())->varType())->name(),
            s("b"));
  // (Λa. λz:a. z)[Int#/a] is itself.
  const Expr *Shadow =
      C.tyLam(s("a"), LKind::typePtr(),
              C.lam(s("z"), C.varTy(s("a")), C.var(s("z"))));
  EXPECT_EQ(subst(C, Shadow, s("a"), C.intHashTy()), Shadow);
}

TEST_F(LSyntaxTest, SubstTermAvoidsTypeCaptureUnderTyLam) {
  // (Λb:TYPE P. x)[(λz:b. z)/x] freshens b: the replacement's b is the
  // outer one. Term substitution renames type binders by the same rule.
  const Expr *By = C.lam(s("z"), C.varTy(s("b")), C.var(s("z")));
  const Expr *E = C.tyLam(s("b"), LKind::typePtr(), C.var(s("x")));
  const auto *L = cast<TyLamExpr>(subst(C, E, s("x"), By));
  EXPECT_NE(L->var(), s("b"));
  EXPECT_EQ(L->body(), By);
}

TEST_F(LSyntaxTest, SubstAvoidsCaptureUnderRepLam) {
  // Type substitution: (Λr. λz:a. z)[(∀c:TYPE r. c)/a] freshens r, since
  // the replacement mentions the outer r.
  const Type *WithR =
      C.forAllTy(s("c"), LKind::typeVar(s("r")), C.varTy(s("c")));
  const Expr *E =
      C.repLam(s("r"), C.lam(s("z"), C.varTy(s("a")), C.var(s("z"))));
  const auto *L = cast<RepLamExpr>(subst(C, E, s("a"), WithR));
  EXPECT_NE(L->repVar(), s("r"));
  EXPECT_EQ(cast<LamExpr>(L->body())->varType(), WithR);
  // Rep substitution: (Λs. Λa:TYPE r. 1)[s/r] freshens s.
  const Expr *R =
      C.repLam(s("s"), C.tyLam(s("a"), LKind::typeVar(s("r")), C.intLit(1)));
  const auto *RL = cast<RepLamExpr>(
      subst(C, R, s("r"), RuntimeRep::var(s("s"))));
  EXPECT_NE(RL->repVar(), s("s"));
  EXPECT_EQ(cast<TyLamExpr>(RL->body())->varKind(), LKind::typeVar(s("s")));
  // (Λr. Λa:TYPE r. 1)[P/r] is itself.
  const Expr *Shadow =
      C.repLam(s("r"), C.tyLam(s("a"), LKind::typeVar(s("r")), C.intLit(1)));
  EXPECT_EQ(subst(C, Shadow, s("r"), RuntimeRep::pointer()), Shadow);
}

TEST_F(LSyntaxTest, TypeAndRepSubstShareUnchangedSubtrees) {
  // (λx:a. x) (Λb:TYPE r. λy:Int. y): the type substitution rewrites
  // only the left, the rep substitution only the right.
  const Expr *Left = C.lam(s("x"), C.varTy(s("a")), C.var(s("x")));
  const Expr *Right = C.tyLam(s("b"), LKind::typeVar(s("r")),
                              C.lam(s("y"), C.intTy(), C.var(s("y"))));
  const Expr *E = C.app(Left, Right);
  const auto *T = cast<AppExpr>(subst(C, E, s("a"), C.intHashTy()));
  EXPECT_NE(T->fn(), Left);
  EXPECT_EQ(T->arg(), Right);
  const auto *R = cast<AppExpr>(subst(C, E, s("r"), RuntimeRep::integer()));
  EXPECT_EQ(R->fn(), Left);
  EXPECT_NE(R->arg(), Right);
  EXPECT_EQ(cast<TyLamExpr>(R->arg())->body(),
            cast<TyLamExpr>(Right)->body());
  EXPECT_EQ(subst(C, E, s("zzz"), C.intHashTy()), E);
  EXPECT_EQ(subst(C, E, s("zzz"), RuntimeRep::integer()), E);
}

} // namespace
