//===- levity_check_test.cpp - Section 5.1 restrictions on core (E10) -----===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Core Lint's Section 5.1 checks: the acceptance matrix for the paper's
// examples.
// Notably the abs1/abs2 pair of Section 7.3 — η-equivalent definitions
// where one is accepted and the other rejected — and the bTwice story.
//
//===----------------------------------------------------------------------===//

#include "core/TypeCheck.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::core;

namespace {

class LevityCheckTest : public ::testing::Test {
protected:
  CoreContext C;
  DiagnosticEngine Diags;
  CoreChecker Checker{C};
  CoreEnv Env;

  /// Lints \p E as a binding of the type typeOf gives it.
  bool check(const Expr *E) {
    Diags.clear();
    Result<const Type *> T = Checker.typeOf(Env, E);
    EXPECT_TRUE(T.ok()) << (T.ok() ? "" : T.error()) << " for " << E->str();
    return T.ok() && Checker.lint(Env, {C.sym("it"), *T, E}, Diags);
  }

  // The pinned-order tests below quantify over r and a :: TYPE r.
  Symbol RVar = C.sym("r"), AVar = C.sym("a");
  const Kind *PolyKind = C.kindTYPE(C.repVar(RVar));
  const Type *PolyTy = C.varTy(AVar, PolyKind);

  /// /\(r :: Rep). /\(a :: TYPE r). Body.
  const Expr *overPoly(const Expr *Body) {
    return C.tyLam(RVar, C.repKind(), C.tyLam(AVar, PolyKind, Body));
  }
  /// error @r @a Msg: a levity-polymorphic value, bound nowhere.
  const Expr *polyValue(const char *Msg) {
    return C.errorExpr(PolyTy, C.repVar(RVar), C.litString(C.sym(Msg)));
  }
  /// error @LiftedRep @T Name: a lifted stand-in of type \p T.
  const Expr *lifted(const Type *T, const char *Name) {
    return C.errorExpr(T, C.liftedRep(), C.litString(C.sym(Name)));
  }
  /// Box :: TYPE r -> Type with MkBox :: forall (b :: TYPE r). b -> Box b,
  /// a constructor whose field is levity-polymorphic.
  const DataCon *boxCon() {
    Symbol B = C.sym("b");
    TyCon *Box = C.makeTyCon(C.sym("Box"),
                             C.kindArrow(PolyKind, C.typeKind()),
                             C.liftedRep());
    return C.makeDataCon(C.sym("MkBox"), Box, {B}, {PolyKind},
                         {C.varTy(B, PolyKind)});
  }
  Alt conAlt(const DataCon *DC, std::initializer_list<Symbol> Binders,
             const Expr *Rhs) {
    Alt A;
    A.Kind = Alt::AltKind::ConPat;
    A.Con = DC;
    A.Binders = C.arena().copyArray(Binders);
    A.Rhs = Rhs;
    return A;
  }
};

// Monomorphic and TYPE-P-polymorphic binders are fine.
TEST_F(LevityCheckTest, ConcreteBindersAccepted) {
  Symbol X = C.sym("x");
  EXPECT_TRUE(check(C.lam(X, C.intTy(), C.var(X))));
  EXPECT_TRUE(check(C.lam(X, C.intHashTy(), C.var(X))));
  EXPECT_TRUE(
      check(C.lam(X, C.unboxedTupleTy({C.intHashTy(), C.intTy()}),
                  C.var(X))));
}

// Polymorphism at a *fixed* kind is fine: λ(x::a) with a :: Type.
TEST_F(LevityCheckTest, LiftedPolymorphicBinderAccepted) {
  Symbol A = C.sym("a"), X = C.sym("x");
  const Type *AT = C.varTy(A, C.typeKind());
  EXPECT_TRUE(check(C.tyLam(A, C.typeKind(), C.lam(X, AT, C.var(X)))));
}

// Restriction 1: λ(x::a) with a :: TYPE r is rejected.
TEST_F(LevityCheckTest, LevityPolymorphicBinderRejected) {
  Symbol R = C.sym("r"), A = C.sym("a"), X = C.sym("x");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, KA);
  const Expr *E =
      C.tyLam(R, C.repKind(), C.tyLam(A, KA, C.lam(X, AT, C.var(X))));
  EXPECT_FALSE(check(E));
  EXPECT_TRUE(Diags.hasError(DiagCode::LevityPolymorphicBinder));
}

// Restriction 2: applying a function to a levity-polymorphic argument is
// rejected, even when no binder is involved.
TEST_F(LevityCheckTest, LevityPolymorphicArgumentRejected) {
  Symbol R = C.sym("r"), A = C.sym("a");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, KA);
  // f :: a -> Int via error; arg :: a via error; f arg.
  const Expr *F = C.errorExpr(C.funTy(AT, C.intTy()), C.liftedRep(),
                              C.litString(C.sym("f")));
  const Expr *Arg = C.errorExpr(AT, C.repVar(R),
                                C.litString(C.sym("x")));
  const Expr *E = C.tyLam(R, C.repKind(),
                          C.tyLam(A, KA, C.app(F, Arg, false)));
  EXPECT_FALSE(check(E));
  EXPECT_TRUE(Diags.hasError(DiagCode::LevityPolymorphicArgument));
}

// error itself may be *instantiated* at a levity-polymorphic type: its
// result is never moved or stored (Section 3.3). This is myError.
TEST_F(LevityCheckTest, MyErrorAccepted) {
  Symbol R = C.sym("r"), A = C.sym("a"), S = C.sym("s");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, KA);
  // myError = /\r. /\(a::TYPE r). \(s::String). error @r @a s.
  const Expr *E = C.tyLam(
      R, C.repKind(),
      C.tyLam(A, KA,
              C.lam(S, C.stringTy(),
                    C.errorExpr(AT, C.repVar(R), C.var(S)))));
  EXPECT_TRUE(check(E)) << Diags.str();
}

// ($) :: forall r a (b :: TYPE r). (a -> b) -> a -> b — the Section 7.2
// generalization: only the *result* is levity-polymorphic, so both
// binders (f and x) have concrete-kinded types, and the application f x
// passes a lifted argument. Accepted.
TEST_F(LevityCheckTest, DollarGeneralizationAccepted) {
  Symbol R = C.sym("r"), A = C.sym("a"), B = C.sym("b"), F = C.sym("f"),
         X = C.sym("x");
  const Kind *KB = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, C.typeKind());
  const Type *BT = C.varTy(B, KB);
  const Expr *E = C.tyLam(
      R, C.repKind(),
      C.tyLam(A, C.typeKind(),
              C.tyLam(B, KB,
                      C.lam(F, C.funTy(AT, BT),
                            C.lam(X, AT,
                                  C.app(C.var(F), C.var(X), false))))));
  EXPECT_TRUE(check(E)) << Diags.str();
}

// (.) :: forall r a b (c :: TYPE r). (b -> c) -> (a -> b) -> a -> c —
// Section 7.2's composition generalization. Accepted for the same reason.
TEST_F(LevityCheckTest, ComposeGeneralizationAccepted) {
  Symbol R = C.sym("r"), A = C.sym("a"), B = C.sym("b"), Cv = C.sym("c"),
         F = C.sym("f"), G = C.sym("g"), X = C.sym("x");
  const Kind *KC = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, C.typeKind());
  const Type *BT = C.varTy(B, C.typeKind());
  const Type *CT = C.varTy(Cv, KC);
  const Expr *Body = C.app(
      C.var(F), C.app(C.var(G), C.var(X), false), false);
  const Expr *E = C.tyLam(
      R, C.repKind(),
      C.tyLam(A, C.typeKind(),
              C.tyLam(B, C.typeKind(),
                      C.tyLam(Cv, KC,
                              C.lam(F, C.funTy(BT, CT),
                                    C.lam(G, C.funTy(AT, BT),
                                          C.lam(X, AT, Body)))))));
  EXPECT_TRUE(check(E)) << Diags.str();
}

// But generalizing the *argument* of ($) — kind b for x :: b :: TYPE r —
// trips restriction 1.
TEST_F(LevityCheckTest, DollarArgumentGeneralizationRejected) {
  Symbol R = C.sym("r"), B = C.sym("b"), F = C.sym("f"), X = C.sym("x");
  const Kind *KB = C.kindTYPE(C.repVar(R));
  const Type *BT = C.varTy(B, KB);
  const Expr *E = C.tyLam(
      R, C.repKind(),
      C.tyLam(B, KB,
              C.lam(F, C.funTy(BT, C.intTy()),
                    C.lam(X, BT, C.app(C.var(F), C.var(X), false)))));
  EXPECT_FALSE(check(E));
  EXPECT_TRUE(Diags.hasError(DiagCode::LevityPolymorphicBinder));
}

// Section 7.3's abs1/abs2: abs1 = abs (selector applied to a dictionary;
// arity 1; fine) versus abs2 x = abs x (η-expansion binds the
// levity-polymorphic x; rejected). Here the "dictionary" is modeled as a
// lifted value carrying the method, which is what dictionaries are.
TEST_F(LevityCheckTest, Abs1AcceptedAbs2Rejected) {
  Symbol R = C.sym("r"), A = C.sym("a"), D = C.sym("dict"),
         X = C.sym("x");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, KA);
  // The dictionary type: a lifted box whose field is the method a -> a.
  // We model the selector as dict -> (a -> a) via error (its body does
  // not matter for the levity check).
  const Type *DictTy = C.intTy(); // any lifted stand-in
  const Expr *Selector = C.errorExpr(
      C.funTy(DictTy, C.funTy(AT, AT)), C.liftedRep(),
      C.litString(C.sym("select")));

  // abs1 = /\r a. \dict. select dict  — arity 1, accepted.
  const Expr *Abs1 = C.tyLam(
      R, C.repKind(),
      C.tyLam(A, KA,
              C.lam(D, DictTy, C.app(Selector, C.var(D), false))));
  EXPECT_TRUE(check(Abs1)) << Diags.str();

  // abs2 = /\r a. \dict. \x. select dict x — η-expanded, arity 2: binds
  // the levity-polymorphic x. Rejected.
  const Expr *Abs2 = C.tyLam(
      R, C.repKind(),
      C.tyLam(A, KA,
              C.lam(D, DictTy,
                    C.lam(X, AT,
                          C.app(C.app(Selector, C.var(D), false),
                                C.var(X), false)))));
  EXPECT_FALSE(check(Abs2));
  EXPECT_TRUE(Diags.hasError(DiagCode::LevityPolymorphicBinder));
}

// All violations are reported, not just the first.
TEST_F(LevityCheckTest, ReportsAllViolations) {
  Symbol R = C.sym("r"), A = C.sym("a"), X = C.sym("x"), Y = C.sym("y");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, KA);
  const Expr *E = C.tyLam(
      R, C.repKind(),
      C.tyLam(A, KA,
              C.lam(X, AT, C.lam(Y, AT, C.var(X)))));
  EXPECT_FALSE(check(E));
  EXPECT_EQ(Diags.numErrors(), 2u);
}

// A binder whose kind involves a rep *metavariable* is also rejected
// (this is the post-inference zonked-kind check of Section 8.2).
TEST_F(LevityCheckTest, UnsolvedRepMetaRejected) {
  Symbol X = C.sym("x");
  const Type *AT = C.freshTypeMeta(C.kindTYPE(C.freshRepMeta()));
  const Expr *E = C.lam(X, AT, C.var(X));
  EXPECT_FALSE(check(E));
  EXPECT_TRUE(Diags.hasError(DiagCode::LevityPolymorphicBinder));
}

// ...but once the rep meta is solved to a concrete rep, the same term
// passes — zonking is what makes the check possible.
TEST_F(LevityCheckTest, SolvedRepMetaAccepted) {
  Symbol X = C.sym("x");
  const RepTy *Nu = C.freshRepMeta();
  const Type *AT = C.freshTypeMeta(C.kindTYPE(Nu));
  C.repMetaCell(Nu->metaId()).Solution = C.liftedRep();
  C.typeMetaCell(cast<MetaType>(AT)->id()).Solution = C.intTy();
  const Expr *E = C.lam(X, AT, C.var(X));
  EXPECT_TRUE(check(E)) << Diags.str();
}

//===----------------------------------------------------------------------===//
// Pinned emission: every violation of a binding, in pre-order
//===----------------------------------------------------------------------===//
//
// A binding with several violations reports each once, in the order of a
// pre-order walk: a node's own binder or argument before anything inside
// it, siblings left to right. Each test pins the whole Diags.str().

/// One binder line of Diags.str(), for a binder of type a :: TYPE r.
std::string binderLine(const std::string &Var) {
  return "error [levity-polymorphic-binder]: levity-polymorphic binder: " +
         Var + " :: a has kind TYPE r, which does not determine a "
               "representation\n";
}

/// One argument line of Diags.str(), for an argument of type a :: TYPE r.
std::string argumentLine(const std::string &Arg) {
  return "error [levity-polymorphic-argument]: levity-polymorphic function "
         "argument: " +
         Arg + " :: a has kind TYPE r, which does not determine a calling "
               "convention\n";
}

TEST_F(LevityCheckTest, PinnedLambdaBinders) {
  Symbol X = C.sym("x"), Y = C.sym("y"), Z = C.sym("z");
  const Expr *E = overPoly(C.lam(
      X, PolyTy, C.lam(Y, C.intTy(), C.lam(Z, PolyTy, C.var(X)))));
  EXPECT_FALSE(check(E));
  EXPECT_EQ(Diags.str(), binderLine("x") + binderLine("z"));
}

TEST_F(LevityCheckTest, PinnedLetAndLetrecBinders) {
  Symbol X = C.sym("x"), Y = C.sym("y"), F = C.sym("f"), G = C.sym("g"),
         H = C.sym("h");
  const RecBinding Rec[] = {{F, PolyTy, C.var(F)},
                            {G, C.intTy(), C.var(G)},
                            {H, PolyTy, C.var(H)}};
  const Expr *E = overPoly(C.lam(
      X, PolyTy,
      C.let(Y, PolyTy, C.var(X), C.letRec(Rec, C.var(Y)), false)));
  EXPECT_FALSE(check(E));
  EXPECT_EQ(Diags.str(), binderLine("x") + binderLine("y") +
                             binderLine("f") + binderLine("h"));
}

// The con-pattern binder, then the scrutinee tuple's argument, then the
// tuple-pattern binder.
TEST_F(LevityCheckTest, PinnedConAndTuplePatternBinders) {
  const DataCon *MkBox = boxCon();
  Symbol S = C.sym("s"), Y = C.sym("y"), P = C.sym("p"), Q = C.sym("q");
  const Expr *Pair[] = {polyValue("u"), C.litInt(1)};
  Alt TupleAlt;
  TupleAlt.Kind = Alt::AltKind::TuplePat;
  TupleAlt.Binders = C.arena().copyArray({P, Q});
  TupleAlt.Rhs = C.var(Q);
  const Expr *Inner =
      C.caseOf(C.unboxedTuple(Pair), C.intHashTy(), {&TupleAlt, 1});
  Alt BoxAlt = conAlt(MkBox, {Y}, Inner);
  const Type *BoxA = C.appTy(C.conTy(const_cast<TyCon *>(MkBox->parent())),
                             PolyTy);
  const Expr *E = overPoly(
      C.lam(S, BoxA, C.caseOf(C.var(S), C.intHashTy(), {&BoxAlt, 1})));
  EXPECT_FALSE(check(E));
  EXPECT_EQ(Diags.str(), binderLine("y") +
                             argumentLine("error @r @(a) \"u\"") +
                             binderLine("p"));
}

// A primop's parameters are concrete, so a well-typed primop argument
// cannot violate Section 5.1 itself; the Prim here holds a violation
// inside its argument, reported after its tuple siblings'.
TEST_F(LevityCheckTest, PinnedAppConPrimAndTupleArguments) {
  const DataCon *MkBox = boxCon();
  Symbol N = C.sym("n");
  const Expr *F = lifted(C.funTy(PolyTy, C.intTy()), "f");
  const Type *BoxArgs[] = {PolyTy};
  const Expr *BoxField[] = {polyValue("q")};
  Alt IHash = conAlt(C.iHashCon(), {N}, C.var(N));
  const Expr *Unbox = C.caseOf(C.app(F, polyValue("t"), false),
                               C.intHashTy(), {&IHash, 1});
  const Expr *Elems[] = {
      C.app(F, polyValue("p"), false),
      C.conApp(MkBox, BoxArgs, BoxField),
      polyValue("s"),
      C.primOp(PrimOp::AddI, {Unbox, C.litInt(1)}),
  };
  const Expr *E = overPoly(C.unboxedTuple(Elems));
  EXPECT_FALSE(check(E));
  EXPECT_EQ(Diags.str(), argumentLine("error @r @(a) \"p\"") +
                             argumentLine("error @r @(a) \"q\"") +
                             argumentLine("error @r @(a) \"s\"") +
                             argumentLine("error @r @(a) \"t\""));
}

// An argument that is itself levity-polymorphic and holds another: the
// outer one is reported first, although its kind is known last.
TEST_F(LevityCheckTest, PinnedNestedArguments) {
  const Expr *F = lifted(C.funTy(PolyTy, C.intTy()), "f");
  const Expr *G = lifted(C.funTy(PolyTy, PolyTy), "g");
  const Expr *E = overPoly(C.app(
      F, C.app(G, C.app(G, polyValue("x"), false), false), false));
  EXPECT_FALSE(check(E));
  const std::string G2 = "error @LiftedRep @(a -> a) \"g\" (error "
                         "@LiftedRep @(a -> a) \"g\" (error @r @(a) \"x\"))";
  const std::string G1 =
      "error @LiftedRep @(a -> a) \"g\" (error @r @(a) \"x\")";
  EXPECT_EQ(Diags.str(), argumentLine(G2) + argumentLine(G1) +
                             argumentLine("error @r @(a) \"x\""));
}

} // namespace
