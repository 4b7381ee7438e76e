//===- Prelude.cpp - The builtin environment, built once -----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "core/Prelude.h"
#include "core/TypeCheck.h"

using namespace levity;
using namespace levity::core;

const Prelude &Prelude::get() {
  // Never destroyed: threads may still compile while the process exits.
  static const Prelude *const P = new Prelude();
  return *P;
}

const TopBinding *Prelude::lookup(std::string_view Name) const {
  for (const TopBinding &B : Bindings)
    if (B.Name.str() == Name)
      return &B;
  return nullptr;
}

Prelude::Prelude() : Ctx(nullptr) {
  addBuiltins();

  // The post-inference pass every user binding goes through, run here
  // once: Core Lint sets the strictness bits and checks Section 5.1.
  CoreEnv Env;
  for (const TopBinding &B : Bindings)
    Env.addGlobal(B.Name, B.Ty);
  CoreChecker Checker(Ctx);
  for (const TopBinding &B : Bindings)
    Checker.lint(Env, B, Diags);

  Ctx.Symbols.freeze();
}

void Prelude::addBuiltins() {
  CoreContext &C = Ctx;

  // Type-level: List and Pair for signature sugar.
  ListTC = C.makeTyCon(C.sym("List"),
                       C.kindArrow(C.typeKind(), C.typeKind()),
                       C.liftedRep());
  PairTC = C.makeTyCon(
      C.sym("Pair"),
      C.kindArrow(C.typeKind(), C.kindArrow(C.typeKind(), C.typeKind())),
      C.liftedRep());

  const Type *IntT = C.intTy();

  // A binary boxed-Int function (Section 2.1's plusInt pattern): unbox
  // both arguments, apply Op, rebox the result (or test it, for a Bool
  // result):
  //   \a:Int. \b:Int. case a of I# x -> case b of I# y -> I# (x `Op` y)
  // plusInt and minusInt bind the plain names a, b, x and y; the others
  // bind fresh ones.
  auto BinInt = [&](const char *Name, PrimOp Op, bool BoolResult,
                    bool FreshNames) {
    auto Binder = [&](const char *Base) {
      return FreshNames ? C.symbols().fresh(Base) : C.sym(Base);
    };
    Symbol A = Binder("a"), B = Binder("b"), X = Binder("x"),
           Y = Binder("y");
    const Expr *Raw = C.primOp(Op, {C.var(X), C.var(Y)});
    const Expr *Res;
    const Type *ResTy;
    if (BoolResult) {
      Res = C.primOp(PrimOp::IsTrue, {Raw});
      ResTy = C.boolTy();
    } else {
      Res = C.conApp(C.iHashCon(), {}, {&Raw, 1});
      ResTy = IntT;
    }
    Alt AltY;
    AltY.Kind = Alt::AltKind::ConPat;
    AltY.Con = C.iHashCon();
    AltY.Binders = C.arena().copyArray({Y});
    AltY.Rhs = Res;
    const Expr *InnerCase = C.caseOf(C.var(B), ResTy, {&AltY, 1});
    Alt AltX;
    AltX.Kind = Alt::AltKind::ConPat;
    AltX.Con = C.iHashCon();
    AltX.Binders = C.arena().copyArray({X});
    AltX.Rhs = InnerCase;
    const Expr *OuterCase = C.caseOf(C.var(A), ResTy, {&AltX, 1});
    const Expr *Fn = C.lam(A, IntT, C.lam(B, IntT, OuterCase));
    Bindings.push_back(
        {C.sym(Name), C.funTy(IntT, C.funTy(IntT, ResTy)), Fn});
  };

  BinInt("plusInt", PrimOp::AddI, false, false);
  BinInt("minusInt", PrimOp::SubI, false, false);
  BinInt("timesInt", PrimOp::MulI, false, true);
  BinInt("quotInt", PrimOp::QuotI, false, true);
  BinInt("remInt", PrimOp::RemI, false, true);
  BinInt("eqInt", PrimOp::EqI, true, true);
  BinInt("neInt", PrimOp::NeI, true, true);
  BinInt("ltInt", PrimOp::LtI, true, true);
  BinInt("leInt", PrimOp::LeI, true, true);
  BinInt("gtInt", PrimOp::GtI, true, true);
  BinInt("geInt", PrimOp::GeI, true, true);

  // id :: forall a. a -> a.
  {
    Symbol A = C.sym("a"), X = C.symbols().fresh("x");
    const Type *AT = C.varTy(A, C.typeKind());
    const Type *Ty = C.forAllTy(A, C.typeKind(), C.funTy(AT, AT));
    const Expr *E = C.tyLam(A, C.typeKind(), C.lam(X, AT, C.var(X)));
    Bindings.push_back({C.sym("id"), Ty, E});
  }

  // ($) :: forall (r::Rep) a (b::TYPE r). (a -> b) -> a -> b — the
  // Section 7.2 generalization (result levity-polymorphic; argument
  // lifted).
  {
    Symbol R = C.sym("r$"), A = C.sym("a$"), B = C.sym("b$"),
           F = C.symbols().fresh("f"), X = C.symbols().fresh("x");
    const Kind *KB = C.kindTYPE(C.repVar(R));
    const Type *AT = C.varTy(A, C.typeKind());
    const Type *BT = C.varTy(B, KB);
    const Type *Ty = C.forAllTy(
        R, C.repKind(),
        C.forAllTy(A, C.typeKind(),
                   C.forAllTy(B, KB,
                              C.funTy(C.funTy(AT, BT),
                                      C.funTy(AT, BT)))));
    const Expr *E = C.tyLam(
        R, C.repKind(),
        C.tyLam(A, C.typeKind(),
                C.tyLam(B, KB,
                        C.lam(F, C.funTy(AT, BT),
                              C.lam(X, AT,
                                    C.app(C.var(F), C.var(X),
                                          /*Strict=*/false))))));
    Bindings.push_back({C.sym("$"), Ty, E});
  }

  // (.) :: forall (r::Rep) a b (c::TYPE r).
  //          (b -> c) -> (a -> b) -> a -> c (Section 7.2).
  {
    Symbol R = C.sym("r."), A = C.sym("a."), B = C.sym("b."),
           Cv = C.sym("c."), F = C.symbols().fresh("f"),
           G = C.symbols().fresh("g"), X = C.symbols().fresh("x");
    const Kind *KC = C.kindTYPE(C.repVar(R));
    const Type *AT = C.varTy(A, C.typeKind());
    const Type *BT = C.varTy(B, C.typeKind());
    const Type *CT = C.varTy(Cv, KC);
    const Type *Ty = C.forAllTy(
        R, C.repKind(),
        C.forAllTy(
            A, C.typeKind(),
            C.forAllTy(
                B, C.typeKind(),
                C.forAllTy(Cv, KC,
                           C.funTy(C.funTy(BT, CT),
                                   C.funTy(C.funTy(AT, BT),
                                           C.funTy(AT, CT)))))));
    const Expr *Body =
        C.app(C.var(F), C.app(C.var(G), C.var(X), false), false);
    const Expr *E = C.tyLam(
        R, C.repKind(),
        C.tyLam(A, C.typeKind(),
                C.tyLam(B, C.typeKind(),
                        C.tyLam(Cv, KC,
                                C.lam(F, C.funTy(BT, CT),
                                      C.lam(G, C.funTy(AT, BT),
                                            C.lam(X, AT, Body)))))));
    Bindings.push_back({C.sym("."), Ty, E});
  }
}
