//===- core_test.cpp - Core IR: kinds, types, lint -------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The generalized kind system of Section 4: TYPE :: Rep -> Type, kinds of
// base/unboxed/tuple types, rep-polymorphic foralls, kinding of (->), and
// the Core-Lint expression checker.
//
//===----------------------------------------------------------------------===//

#include "core/Prelude.h"
#include "core/TypeCheck.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::core;

namespace {

class CoreKindTest : public ::testing::Test {
protected:
  CoreContext C;
  CoreChecker Checker{C};
  CoreEnv Env;

  const Kind *kindOk(const Type *T) {
    Result<const Kind *> K = Checker.kindOf(Env, T);
    EXPECT_TRUE(K.ok()) << (K.ok() ? "" : K.error()) << " for " << T->str();
    return K.ok() ? *K : nullptr;
  }
};

// Section 4.1's table of examples.
TEST_F(CoreKindTest, KindsOfBaseTypes) {
  EXPECT_EQ(kindOk(C.intTy())->str(), "Type");
  EXPECT_EQ(kindOk(C.boolTy())->str(), "Type");
  EXPECT_EQ(kindOk(C.intHashTy())->str(), "TYPE IntRep");
  EXPECT_EQ(kindOk(C.floatHashTy())->str(), "TYPE FloatRep");
  EXPECT_EQ(kindOk(C.doubleHashTy())->str(), "TYPE DoubleRep");
}

// Type = TYPE LiftedRep, definitionally.
TEST_F(CoreKindTest, TypeIsSynonymForTYPELiftedRep) {
  EXPECT_TRUE(kindEqual(C.typeKind(), C.kindTYPE(C.liftedRep())));
}

// Section 4.2: unboxed tuple kinds.
TEST_F(CoreKindTest, UnboxedTupleKinds) {
  const Type *T1 = C.unboxedTupleTy({C.intTy(), C.boolTy()});
  EXPECT_EQ(kindOk(T1)->str(), "TYPE TupleRep '[LiftedRep, LiftedRep]");
  const Type *T2 = C.unboxedTupleTy({C.intHashTy(), C.boolTy()});
  EXPECT_EQ(kindOk(T2)->str(), "TYPE TupleRep '[IntRep, LiftedRep]");
  const Type *T0 = C.unboxedTupleTy({});
  EXPECT_EQ(kindOk(T0)->str(), "TYPE TupleRep '[]");
}

// Regression: UnboxedTupleType stores only a span, so the construction
// path must arena-intern the element array. Build a tuple type from a
// temporary vector, let the vector die (and scribble over fresh stack),
// then use the type — a non-interning implementation reads freed memory
// here and returns garbage elements.
TEST_F(CoreKindTest, UnboxedTupleElemsSurviveCallerStorage) {
  const Type *T = nullptr;
  {
    std::vector<const Type *> Temp = {C.intHashTy(), C.doubleHashTy(),
                                      C.intTy()};
    T = C.unboxedTupleTy(Temp);
  } // Temp's buffer is freed here.

  // Occupy the freed allocation/stack region with different pointers so a
  // dangling span cannot accidentally still see the old contents.
  std::vector<const Type *> Clobber(64, C.boolTy());
  ASSERT_EQ(Clobber.size(), 64u);

  const auto *U = cast<UnboxedTupleType>(T);
  ASSERT_EQ(U->elems().size(), 3u);
  EXPECT_EQ(U->elems()[0]->str(), "Int#");
  EXPECT_EQ(U->elems()[1]->str(), "Double#");
  EXPECT_EQ(U->elems()[2]->str(), "Int");
  EXPECT_EQ(kindOk(T)->str(),
            "TYPE TupleRep '[IntRep, DoubleRep, LiftedRep]");
}

// Nested tuples have *different kinds* even when conventions match.
TEST_F(CoreKindTest, NestedTupleKindsDiffer) {
  const Type *Nested = C.unboxedTupleTy(
      {C.intTy(), C.unboxedTupleTy({C.boolTy(), C.intTy()})});
  const Type *Flat =
      C.unboxedTupleTy({C.intTy(), C.boolTy(), C.intTy()});
  EXPECT_FALSE(kindEqual(kindOk(Nested), kindOk(Flat)));
}

// (->) accepts any-rep operands and yields Type (Section 4.3).
TEST_F(CoreKindTest, ArrowKinding) {
  const Type *T = C.funTy(C.intHashTy(), C.doubleHashTy());
  EXPECT_EQ(kindOk(T)->str(), "Type");
}

// forall (r :: Rep). forall (a :: TYPE r). String -> a : the type of
// error, kind Type (arrow body).
TEST_F(CoreKindTest, ErrorTypeKinding) {
  EXPECT_EQ(kindOk(C.errorType())->str(), "Type");
}

// A forall whose body kind mentions the bound rep var cannot erase.
TEST_F(CoreKindTest, EscapingRepVarRejected) {
  Symbol R = C.sym("r"), A = C.sym("a");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *Bad =
      C.forAllTy(R, C.repKind(), C.forAllTy(A, KA, C.varTy(A, KA)));
  Result<const Kind *> K = Checker.kindOf(Env, Bad);
  ASSERT_FALSE(K.ok());
  EXPECT_NE(K.error().find("mentions the bound variable"),
            std::string::npos);
}

// Higher kinds: a tycon of kind Type -> Type applied to Int.
TEST_F(CoreKindTest, HigherKindedApplication) {
  TyCon *Maybe = C.makeTyCon(C.sym("Maybe"),
                             C.kindArrow(C.typeKind(), C.typeKind()),
                             C.liftedRep());
  const Type *T = C.appTy(C.conTy(Maybe), C.intTy());
  EXPECT_EQ(kindOk(T)->str(), "Type");
  // Applying at the wrong kind fails.
  const Type *Bad = C.appTy(C.conTy(Maybe), C.intHashTy());
  EXPECT_FALSE(Checker.kindOf(Env, Bad).ok());
}

// Promoted reps are types of kind Rep.
TEST_F(CoreKindTest, RepLiftKinding) {
  EXPECT_EQ(kindOk(C.repLiftTy(C.intRep()))->str(), "Rep");
}

TEST_F(CoreKindTest, IsConcreteValueKind) {
  EXPECT_TRUE(Checker.isConcreteValueKind(C.typeKind()));
  EXPECT_TRUE(Checker.isConcreteValueKind(C.kindTYPE(C.intRep())));
  EXPECT_TRUE(Checker.isConcreteValueKind(
      C.kindTYPE(C.repTuple({C.intRep(), C.liftedRep()}))));
  EXPECT_FALSE(
      Checker.isConcreteValueKind(C.kindTYPE(C.repVar(C.sym("r")))));
  EXPECT_FALSE(
      Checker.isConcreteValueKind(C.kindTYPE(C.freshRepMeta())));
  EXPECT_FALSE(Checker.isConcreteValueKind(C.kindTYPE(
      C.repTuple({C.intRep(), C.repVar(C.sym("r"))}))));
  EXPECT_FALSE(Checker.isConcreteValueKind(C.repKind()));
}

//===--------------------------------------------------------------------===//
// Equality / substitution / zonking
//===--------------------------------------------------------------------===//

TEST_F(CoreKindTest, AlphaEquality) {
  Symbol A = C.sym("a"), B = C.sym("b");
  const Type *TA = C.forAllTy(
      A, C.typeKind(),
      C.funTy(C.varTy(A, C.typeKind()), C.varTy(A, C.typeKind())));
  const Type *TB = C.forAllTy(
      B, C.typeKind(),
      C.funTy(C.varTy(B, C.typeKind()), C.varTy(B, C.typeKind())));
  EXPECT_TRUE(typeEqual(TA, TB));
}

TEST_F(CoreKindTest, RepForallAlphaEquality) {
  Symbol R = C.sym("r"), Q = C.sym("q"), A = C.sym("a");
  auto Mk = [&](Symbol RV) {
    const Kind *KA = C.kindTYPE(C.repVar(RV));
    return C.forAllTy(RV, C.repKind(),
                      C.forAllTy(A, KA,
                                 C.funTy(C.stringTy(), C.varTy(A, KA))));
  };
  EXPECT_TRUE(typeEqual(Mk(R), Mk(Q)));
}

TEST_F(CoreKindTest, AlphaEqualityRespectsShadowing) {
  // forall a. forall a. a  ==  forall b. forall c. c, but not
  // forall b. forall c. b: the inner binder shadows the outer one.
  Symbol A = C.sym("a"), B = C.sym("b"), Cv = C.sym("c");
  const Kind *K = C.typeKind();
  auto Mk = [&](Symbol Outer, Symbol Inner, Symbol Body) {
    return C.forAllTy(Outer, K, C.forAllTy(Inner, K, C.varTy(Body, K)));
  };
  EXPECT_TRUE(typeEqual(Mk(A, A, A), Mk(B, Cv, Cv)));
  EXPECT_FALSE(typeEqual(Mk(A, A, A), Mk(B, Cv, B)));
  EXPECT_TRUE(typeEqual(Mk(A, B, A), Mk(B, A, B)));
  EXPECT_FALSE(typeEqual(Mk(A, B, A), Mk(A, B, B)));
  // A free variable equals only itself, never a bound one.
  EXPECT_FALSE(typeEqual(C.forAllTy(A, K, C.varTy(B, K)),
                         C.forAllTy(B, K, C.varTy(B, K))));
  EXPECT_TRUE(typeEqual(C.forAllTy(A, K, C.varTy(Cv, K)),
                        C.forAllTy(B, K, C.varTy(Cv, K))));
}

TEST_F(CoreKindTest, SubstRepVarThroughKinds) {
  // (forall (a :: TYPE r). a -> a)[IntRep/r] instantiates the kind.
  Symbol R = C.sym("r"), A = C.sym("a");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *T =
      C.forAllTy(A, KA, C.funTy(C.varTy(A, KA), C.varTy(A, KA)));
  const Type *Out = substType(C, T, R, C.repLiftTy(C.intRep()));
  const auto *F = cast<ForAllType>(Out);
  EXPECT_EQ(F->varKind()->str(), "TYPE IntRep");
}

TEST_F(CoreKindTest, ZonkResolvesMetaChains) {
  const Type *M1 = C.freshTypeMeta(C.typeKind());
  const Type *M2 = C.freshTypeMeta(C.typeKind());
  C.typeMetaCell(cast<MetaType>(M1)->id()).Solution = M2;
  C.typeMetaCell(cast<MetaType>(M2)->id()).Solution = C.intTy();
  EXPECT_TRUE(typeEqual(C.zonkType(M1), C.intTy()));
}

TEST_F(CoreKindTest, ZonkRepMetas) {
  const RepTy *M = C.freshRepMeta();
  C.repMetaCell(M->metaId()).Solution = C.intRep();
  const RepTy *T = C.repTuple({M, C.liftedRep()});
  EXPECT_EQ(C.zonkRep(T)->str(), "TupleRep '[IntRep, LiftedRep]");
}

TEST_F(CoreKindTest, ConcreteRepBridge) {
  RepContext RC;
  const RepTy *T = C.repTuple({C.intRep(), C.liftedRep()});
  const Rep *R = C.concreteRep(T, RC);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R, RC.tuple({RC.intRep(), RC.lifted()}));
  EXPECT_EQ(C.concreteRep(C.repVar(C.sym("r")), RC), nullptr);
}

//===--------------------------------------------------------------------===//
// Core lint
//===--------------------------------------------------------------------===//

class CoreLintTest : public ::testing::Test {
protected:
  CoreContext C;
  CoreChecker Checker{C};
  CoreEnv Env;

  const Type *typeOk(const Expr *E) {
    Result<const Type *> T = Checker.typeOf(Env, E);
    EXPECT_TRUE(T.ok()) << (T.ok() ? "" : T.error()) << " for " << E->str();
    return T.ok() ? *T : nullptr;
  }
};

TEST_F(CoreLintTest, Literals) {
  EXPECT_TRUE(typeEqual(typeOk(C.litInt(42)), C.intHashTy()));
  EXPECT_TRUE(typeEqual(typeOk(C.litDouble(3.14)), C.doubleHashTy()));
  EXPECT_TRUE(typeEqual(typeOk(C.litString(C.sym("hi"))), C.stringTy()));
}

TEST_F(CoreLintTest, BoxingViaConApp) {
  const Expr *L = C.litInt(5);
  const Expr *E = C.conApp(C.iHashCon(), {}, {&L, 1});
  EXPECT_TRUE(typeEqual(typeOk(E), C.intTy()));
}

TEST_F(CoreLintTest, ConFieldMismatchRejected) {
  const Expr *L = C.litDouble(5.0);
  const Expr *E = C.conApp(C.iHashCon(), {}, {&L, 1});
  EXPECT_FALSE(Checker.typeOf(Env, E).ok());
}

TEST_F(CoreLintTest, PrimOpTyping) {
  const Expr *E = C.primOp(PrimOp::AddI, {C.litInt(1), C.litInt(2)});
  EXPECT_TRUE(typeEqual(typeOk(E), C.intHashTy()));
  const Expr *Bad = C.primOp(PrimOp::AddI, {C.litInt(1), C.litDouble(2)});
  EXPECT_FALSE(Checker.typeOf(Env, Bad).ok());
}

TEST_F(CoreLintTest, LambdaAndApplication) {
  Symbol X = C.sym("x");
  const Expr *Id = C.lam(X, C.intHashTy(), C.var(X));
  EXPECT_TRUE(
      typeEqual(typeOk(Id), C.funTy(C.intHashTy(), C.intHashTy())));
  const Expr *App = C.app(Id, C.litInt(3), /*StrictArg=*/true);
  EXPECT_TRUE(typeEqual(typeOk(App), C.intHashTy()));
}

// Core Lint sets each App and Let strictness bit from the argument's or
// binder's concrete kind, whichever way the bit was wrong; plain typeOf
// leaves the bits alone.
TEST_F(CoreLintTest, LintSetsStrictnessBits) {
  Symbol X = C.sym("x"), Y = C.sym("y");
  const auto *Strict = cast<AppExpr>(C.app(
      C.lam(X, C.intHashTy(), C.var(X)), C.litInt(3), /*StrictArg=*/false));
  const auto *StrictLet = cast<LetExpr>(
      C.let(Y, C.intHashTy(), Strict, C.var(Y), /*Strict=*/false));
  Symbol Z = C.sym("z"), W = C.sym("w");
  const Expr *Three = C.litInt(3);
  const auto *Lazy = cast<AppExpr>(
      C.app(C.lam(Z, C.intTy(), C.var(Z)),
            C.conApp(C.iHashCon(), {}, {&Three, 1}), /*StrictArg=*/true));
  const auto *LazyLet = cast<LetExpr>(
      C.let(W, C.intTy(), Lazy, C.var(W), /*Strict=*/true));

  ASSERT_NE(typeOk(StrictLet), nullptr);
  ASSERT_NE(typeOk(LazyLet), nullptr);
  EXPECT_FALSE(Strict->strictArg());
  EXPECT_FALSE(StrictLet->strict());
  EXPECT_TRUE(Lazy->strictArg());
  EXPECT_TRUE(LazyLet->strict());

  DiagnosticEngine Diags;
  EXPECT_TRUE(Checker.lint(Env, {C.sym("u"), C.intHashTy(), StrictLet},
                           Diags));
  EXPECT_TRUE(Checker.lint(Env, {C.sym("v"), C.intTy(), LazyLet}, Diags));
  EXPECT_TRUE(Diags.diagnostics().empty()) << Diags.str();
  EXPECT_TRUE(Strict->strictArg());
  EXPECT_TRUE(StrictLet->strict());
  EXPECT_FALSE(Lazy->strictArg());
  EXPECT_FALSE(LazyLet->strict());
}

TEST_F(CoreLintTest, TypeAbstractionAndApplication) {
  // /\(a :: Type) -> \(x :: a) -> x, applied at Int.
  Symbol A = C.sym("a"), X = C.sym("x");
  const Type *AT = C.varTy(A, C.typeKind());
  const Expr *PolyId = C.tyLam(A, C.typeKind(), C.lam(X, AT, C.var(X)));
  const Type *PolyTy = typeOk(PolyId);
  ASSERT_NE(PolyTy, nullptr);
  EXPECT_EQ(PolyTy->str(), "forall (a :: Type). a -> a");
  const Expr *AtInt = C.tyApp(PolyId, C.intTy());
  EXPECT_TRUE(typeEqual(typeOk(AtInt), C.funTy(C.intTy(), C.intTy())));
  // At a wrongly-kinded type: rejected.
  EXPECT_FALSE(Checker.typeOf(Env, C.tyApp(PolyId, C.intHashTy())).ok());
}

// Rep instantiation: id :: forall (r::Rep) (a::TYPE r). a -> a applied
// at 'IntRep then Int# — the Section 4.3 story, expression-level.
TEST_F(CoreLintTest, RepPolymorphicInstantiation) {
  Symbol R = C.sym("r"), A = C.sym("a"), X = C.sym("x");
  const Kind *KA = C.kindTYPE(C.repVar(R));
  const Type *AT = C.varTy(A, KA);
  // The *expression* binds x :: a (levity-polymorphic binder!); typeOf
  // accepts it — Lint's Section 5.1 check is what rejects it
  // (levity_check_test).
  const Expr *E = C.tyLam(
      R, C.repKind(), C.tyLam(A, KA, C.lam(X, AT, C.var(X))));
  const Type *T = typeOk(E);
  ASSERT_NE(T, nullptr);

  const Expr *Inst =
      C.tyApp(C.tyApp(E, C.repLiftTy(C.intRep())), C.intHashTy());
  EXPECT_TRUE(
      typeEqual(typeOk(Inst), C.funTy(C.intHashTy(), C.intHashTy())));
}

TEST_F(CoreLintTest, CaseOverConstructors) {
  // case True of { True -> 1#; False -> 0# }.
  Alt T, F;
  T.Kind = Alt::AltKind::ConPat;
  T.Con = C.trueCon();
  T.Rhs = C.litInt(1);
  F.Kind = Alt::AltKind::ConPat;
  F.Con = C.falseCon();
  F.Rhs = C.litInt(0);
  Alt Alts[2] = {T, F};
  const Expr *E =
      C.caseOf(C.conApp(C.trueCon(), {}, {}), C.intHashTy(), Alts);
  EXPECT_TRUE(typeEqual(typeOk(E), C.intHashTy()));
}

TEST_F(CoreLintTest, CaseAltTypeMismatchRejected) {
  Alt T;
  T.Kind = Alt::AltKind::Default;
  T.Rhs = C.litDouble(1.0);
  const Expr *E =
      C.caseOf(C.conApp(C.trueCon(), {}, {}), C.intHashTy(), {&T, 1});
  EXPECT_FALSE(Checker.typeOf(Env, E).ok());
}

TEST_F(CoreLintTest, UnboxedTupleExprAndPattern) {
  const Expr *Elems[2] = {C.litInt(1), C.litDouble(2.0)};
  const Expr *Tup = C.unboxedTuple(Elems);
  const Type *T = typeOk(Tup);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->str(), "(# Int#, Double# #)");

  Symbol A = C.sym("ta"), B = C.sym("tb");
  Alt TP;
  TP.Kind = Alt::AltKind::TuplePat;
  TP.Binders = C.arena().copyArray({A, B});
  TP.Rhs = C.var(A);
  const Expr *E = C.caseOf(Tup, C.intHashTy(), {&TP, 1});
  EXPECT_TRUE(typeEqual(typeOk(E), C.intHashTy()));
}

TEST_F(CoreLintTest, ErrorNodeTyping) {
  const Expr *E = C.errorExpr(C.intHashTy(), C.intRep(),
                              C.litString(C.sym("boom")));
  EXPECT_TRUE(typeEqual(typeOk(E), C.intHashTy()));
  // Mismatched rep instantiation is rejected.
  const Expr *Bad = C.errorExpr(C.intHashTy(), C.doubleRep(),
                                C.litString(C.sym("boom")));
  EXPECT_FALSE(Checker.typeOf(Env, Bad).ok());
}

TEST_F(CoreLintTest, LetRecRequiresLiftedBinders) {
  Symbol F = C.sym("f");
  RecBinding B{F, C.intHashTy(), C.litInt(1)};
  const Expr *E = C.letRec({&B, 1}, C.var(F));
  Result<const Type *> T = Checker.typeOf(Env, E);
  ASSERT_FALSE(T.ok());
  EXPECT_NE(T.error().find("unlifted"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// The prelude
//===--------------------------------------------------------------------===//

TEST(PreludeTest, BuiltinsPassLintAndTheLevityCheck) {
  const Prelude &P = Prelude::get();
  EXPECT_EQ(P.bindings().size(), 14u);
  EXPECT_TRUE(P.diagnostics().diagnostics().empty())
      << P.diagnostics().str();

  // Checked again from a child context, the builtins stay clean.
  CoreContext C;
  CoreChecker Checker(C);
  CoreEnv Env;
  DiagnosticEngine Diags;
  for (const TopBinding &B : P.bindings())
    Env.addGlobal(B.Name, B.Ty);
  for (const TopBinding &B : P.bindings())
    EXPECT_TRUE(Checker.lint(Env, B, Diags)) << B.Name.str();
  EXPECT_TRUE(Diags.diagnostics().empty()) << Diags.str();
}

TEST(PreludeTest, EveryContextSharesThePreludesNamesAndTycons) {
  const Prelude &P = Prelude::get();
  CoreContext C1, C2;
  EXPECT_EQ(C1.sym("plusInt"), C2.sym("plusInt"));
  EXPECT_EQ(C1.sym("plusInt"), P.lookup("plusInt")->Name);
  EXPECT_EQ(C1.intTyCon(), C2.intTyCon());
  EXPECT_EQ(C1.boolTyCon(), C2.boolTyCon());
  EXPECT_EQ(C1.iHashCon(), C2.iHashCon());
  EXPECT_EQ(C1.lookupTyCon(C1.sym("List")), P.listTyCon());
  EXPECT_EQ(C2.lookupTyCon(C2.sym("Pair")), P.pairTyCon());
  EXPECT_EQ(C1.lookupDataCon(C1.sym("True")), C2.trueCon());

  // Names and tycons a context makes are its own.
  EXPECT_NE(C1.sym("onlyInC1"), C2.sym("onlyInC1"));
  C1.makeTyCon(C1.sym("T"), C1.typeKind(), C1.liftedRep());
  EXPECT_EQ(C2.lookupTyCon(C2.sym("T")), nullptr);

  // A fresh name never collides with a prelude binder's.
  Symbol X = C1.symbols().fresh("x");
  EXPECT_NE(X, C1.sym("x"));
  EXPECT_TRUE(C1.sym("plusInt") < X);
}

} // namespace
