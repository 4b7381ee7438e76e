//===- Samples.cpp - The paper's example programs as core IR --------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "runtime/Samples.h"
#include "core/Prelude.h"

using namespace levity;
using namespace levity::runtime;
using namespace levity::core;

const DataCon *runtime::pairDataCon(CoreContext &C) {
  Symbol Name = C.sym("MkPair");
  if (const DataCon *DC = C.lookupDataCon(Name))
    return DC;
  TyCon *PairTC = C.makeTyCon(C.sym("Pair"), C.typeKind(), C.liftedRep());
  return C.makeDataCon(Name, PairTC, {}, {}, {C.intTy(), C.intTy()});
}

namespace {

/// case <scrut:Int> of { I# <binder> -> <rhs> }, at result type \p ResTy.
const Expr *caseInt(CoreContext &C, const Expr *Scrut, Symbol Binder,
                    const Type *ResTy, const Expr *Rhs) {
  Alt A;
  A.Kind = Alt::AltKind::ConPat;
  A.Con = C.iHashCon();
  A.Binders = C.arena().copyArray({Binder});
  A.Rhs = Rhs;
  return C.caseOf(Scrut, ResTy, {&A, 1});
}

/// I# e (boxing).
const Expr *box(CoreContext &C, const Expr *E) {
  return C.conApp(C.iHashCon(), {}, {&E, 1});
}

} // namespace

TopBinding runtime::buildSumToBoxed(CoreContext &C) {
  // sumTo = \acc:Int. \n:Int. case n of I# n# ->
  //   case n# of { 0# -> acc
  //              ; _  -> sumTo (plusInt acc n) (minusInt n (I# 1#)) }
  Symbol Acc = C.sym("acc"), N = C.sym("n"), NH = C.sym("n#");
  const Type *IntT = C.intTy();

  const Expr *Recurse = C.app(
      C.app(C.var(C.sym("sumTo")),
            C.app(C.app(C.var(C.sym("plusInt")), C.var(Acc), false),
                  C.var(N), false),
            false),
      C.app(C.app(C.var(C.sym("minusInt")), C.var(N), false),
            box(C, C.litInt(1)), false),
      false);

  Alt Zero;
  Zero.Kind = Alt::AltKind::LitPat;
  Zero.Lit = Literal::intHash(0);
  Zero.Rhs = C.var(Acc);
  Alt Other;
  Other.Kind = Alt::AltKind::Default;
  Other.Rhs = Recurse;
  Alt Alts[2] = {Zero, Other};
  const Expr *Inner = C.caseOf(C.var(NH), IntT, Alts);

  const Expr *Body = caseInt(C, C.var(N), NH, IntT, Inner);
  const Expr *Fn = C.lam(Acc, IntT, C.lam(N, IntT, Body));
  return {C.sym("sumTo"), C.funTy(IntT, C.funTy(IntT, IntT)), Fn};
}

TopBinding runtime::buildSumToUnboxed(CoreContext &C) {
  // sumTo# = \acc:Int#. \n:Int#.
  //   case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }
  Symbol Acc = C.sym("acc#"), N = C.sym("nn#");
  const Type *IH = C.intHashTy();

  const Expr *Recurse = C.app(
      C.app(C.var(C.sym("sumTo#")),
            C.primOp(PrimOp::AddI, {C.var(Acc), C.var(N)}), true),
      C.primOp(PrimOp::SubI, {C.var(N), C.litInt(1)}), true);

  Alt Zero;
  Zero.Kind = Alt::AltKind::LitPat;
  Zero.Lit = Literal::intHash(0);
  Zero.Rhs = C.var(Acc);
  Alt Other;
  Other.Kind = Alt::AltKind::Default;
  Other.Rhs = Recurse;
  Alt Alts[2] = {Zero, Other};
  const Expr *Body = C.caseOf(C.var(N), IH, Alts);

  const Expr *Fn = C.lam(Acc, IH, C.lam(N, IH, Body));
  return {C.sym("sumTo#"), C.funTy(IH, C.funTy(IH, IH)), Fn};
}

TopBinding runtime::buildSumToDouble(CoreContext &C) {
  // sumToD# = \acc:Double#. \n:Double#.
  //   case (n ==## 0.0##) of { 1# -> acc
  //                          ; _ -> sumToD# (acc +## n) (n -## 1.0##) }
  Symbol Acc = C.sym("accD#"), N = C.sym("nD#");
  const Type *DH = C.doubleHashTy();

  const Expr *Recurse = C.app(
      C.app(C.var(C.sym("sumToD#")),
            C.primOp(PrimOp::AddD, {C.var(Acc), C.var(N)}), true),
      C.primOp(PrimOp::SubD, {C.var(N), C.litDouble(1.0)}), true);

  Alt IsZero;
  IsZero.Kind = Alt::AltKind::LitPat;
  IsZero.Lit = Literal::intHash(1);
  IsZero.Rhs = C.var(Acc);
  Alt Other;
  Other.Kind = Alt::AltKind::Default;
  Other.Rhs = Recurse;
  Alt Alts[2] = {IsZero, Other};
  const Expr *Body = C.caseOf(
      C.primOp(PrimOp::EqD, {C.var(N), C.litDouble(0.0)}), DH, Alts);

  const Expr *Fn = C.lam(Acc, DH, C.lam(N, DH, Body));
  return {C.sym("sumToD#"), C.funTy(DH, C.funTy(DH, DH)), Fn};
}

TopBinding runtime::buildDivModUnboxed(CoreContext &C) {
  // divMod# = \a:Int#. \b:Int#. (# quotInt# a b, remInt# a b #)
  Symbol A = C.sym("dmA#"), B = C.sym("dmB#");
  const Type *IH = C.intHashTy();
  const Expr *Quot = C.primOp(PrimOp::QuotI, {C.var(A), C.var(B)});
  const Expr *Rem = C.primOp(PrimOp::RemI, {C.var(A), C.var(B)});
  const Expr *Elems[2] = {Quot, Rem};
  const Expr *Tuple = C.unboxedTuple(Elems);
  const Expr *Fn = C.lam(A, IH, C.lam(B, IH, Tuple));
  const Type *TupleTy = C.unboxedTupleTy({IH, IH});
  return {C.sym("divMod#"), C.funTy(IH, C.funTy(IH, TupleTy)), Fn};
}

TopBinding runtime::buildDivModBoxed(CoreContext &C) {
  // divModBoxed = \a:Int. \b:Int. case a of I# x -> case b of I# y ->
  //   MkPair (I# (quotInt# x y)) (I# (remInt# x y))
  const DataCon *MkPair = pairDataCon(C);
  Symbol A = C.sym("dmA"), B = C.sym("dmB"), X = C.sym("dmX"),
         Y = C.sym("dmY");
  const Type *IntT = C.intTy();
  const Type *PairT = C.conTy(MkPair->parent());

  const Expr *Quot =
      box(C, C.primOp(PrimOp::QuotI, {C.var(X), C.var(Y)}));
  const Expr *Rem = box(C, C.primOp(PrimOp::RemI, {C.var(X), C.var(Y)}));
  const Expr *Args[2] = {Quot, Rem};
  const Expr *Mk = C.conApp(MkPair, {}, Args);

  const Expr *Body = caseInt(C, C.var(A), X, PairT,
                             caseInt(C, C.var(B), Y, PairT, Mk));
  const Expr *Fn = C.lam(A, IntT, C.lam(B, IntT, Body));
  return {C.sym("divModBoxed"), C.funTy(IntT, C.funTy(IntT, PairT)), Fn};
}

CoreProgram runtime::buildSampleProgram(CoreContext &C) {
  // plusInt and minusInt are the prelude's (Section 2.1's unbox/rebox).
  CoreProgram P;
  P.Bindings.push_back(*Prelude::get().lookup("plusInt"));
  P.Bindings.push_back(*Prelude::get().lookup("minusInt"));
  P.Bindings.push_back(buildSumToBoxed(C));
  P.Bindings.push_back(buildSumToUnboxed(C));
  P.Bindings.push_back(buildSumToDouble(C));
  P.Bindings.push_back(buildDivModUnboxed(C));
  P.Bindings.push_back(buildDivModBoxed(C));
  return P;
}

const Expr *runtime::callSumToBoxed(CoreContext &C, int64_t N) {
  return C.app(C.app(C.var(C.sym("sumTo")), box(C, C.litInt(0)), false),
               box(C, C.litInt(N)), false);
}

const Expr *runtime::callSumToUnboxed(CoreContext &C, int64_t N) {
  return C.app(C.app(C.var(C.sym("sumTo#")), C.litInt(0), true),
               C.litInt(N), true);
}

const Expr *runtime::callSumToDouble(CoreContext &C, double N) {
  return C.app(C.app(C.var(C.sym("sumToD#")), C.litDouble(0.0), true),
               C.litDouble(N), true);
}

const Expr *runtime::callDivModUnboxed(CoreContext &C, int64_t A,
                                       int64_t B) {
  // case divMod# a b of (# q, r #) -> q *# 1000# +# r
  const Expr *Call =
      C.app(C.app(C.var(C.sym("divMod#")), C.litInt(A), true),
            C.litInt(B), true);
  Symbol Q = C.sym("q#"), R = C.sym("r#");
  Alt TupleAlt;
  TupleAlt.Kind = Alt::AltKind::TuplePat;
  TupleAlt.Binders = C.arena().copyArray({Q, R});
  TupleAlt.Rhs = C.primOp(
      PrimOp::AddI,
      {C.primOp(PrimOp::MulI, {C.var(Q), C.litInt(1000)}), C.var(R)});
  return C.caseOf(Call, C.intHashTy(), {&TupleAlt, 1});
}

const Expr *runtime::callDivModBoxed(CoreContext &C, int64_t A, int64_t B) {
  // case divModBoxed (I# a) (I# b) of MkPair q r ->
  //   case q of I# q# -> case r of I# r# -> q# *# 1000# +# r#
  const DataCon *MkPair = pairDataCon(C);
  const Expr *Call = C.app(
      C.app(C.var(C.sym("divModBoxed")), box(C, C.litInt(A)), false),
      box(C, C.litInt(B)), false);
  Symbol Q = C.sym("q"), R = C.sym("r"), QH = C.sym("qh#"),
         RH = C.sym("rh#");
  const Expr *Sum = C.primOp(
      PrimOp::AddI,
      {C.primOp(PrimOp::MulI, {C.var(QH), C.litInt(1000)}), C.var(RH)});
  const Expr *Inner =
      caseInt(C, C.var(Q), QH, C.intHashTy(),
              caseInt(C, C.var(R), RH, C.intHashTy(), Sum));
  Alt PairAlt;
  PairAlt.Kind = Alt::AltKind::ConPat;
  PairAlt.Con = MkPair;
  PairAlt.Binders = C.arena().copyArray({Q, R});
  PairAlt.Rhs = Inner;
  return C.caseOf(Call, C.intHashTy(), {&PairAlt, 1});
}
