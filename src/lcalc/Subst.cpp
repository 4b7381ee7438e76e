//===- Subst.cpp - Capture-avoiding substitution for L --------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lcalc/Subst.h"

#include <algorithm>

using namespace levity;
using namespace levity::lcalc;

//===----------------------------------------------------------------------===//
// Free variables
//===----------------------------------------------------------------------===//

void lcalc::freeTypeVars(const Type *T, SymbolSet &Out) {
  switch (T->kind()) {
  case Type::TypeKind::Int:
  case Type::TypeKind::IntHash:
  case Type::TypeKind::DoubleHash:
  case Type::TypeKind::Data: // Decl field types are closed.
    return;
  case Type::TypeKind::Var:
    Out.insert(cast<VarType>(T)->name());
    return;
  case Type::TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    freeTypeVars(A->param(), Out);
    freeTypeVars(A->result(), Out);
    return;
  }
  case Type::TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    SymbolSet Body;
    freeTypeVars(F->body(), Body);
    Body.erase(F->var());
    Out.insert(Body.begin(), Body.end());
    return;
  }
  case Type::TypeKind::ForAllRep:
    freeTypeVars(cast<ForAllRepType>(T)->body(), Out);
    return;
  }
}

namespace {

/// The three namespaces of L variables.
enum class VarSpace : uint8_t { Term, Type, Rep };

SymbolSet &in(FreeVars &FV, VarSpace S) {
  switch (S) {
  case VarSpace::Term:
    return FV.Term;
  case VarSpace::Type:
    return FV.Type;
  case VarSpace::Rep:
    return FV.Rep;
  }
  return FV.Term;
}

void freeRepVarsOfRep(RuntimeRep R, SymbolSet &Out) {
  if (R.isVar())
    Out.insert(R.varName());
}

} // namespace

void lcalc::freeRepVars(const Type *T, SymbolSet &Out) {
  switch (T->kind()) {
  case Type::TypeKind::Int:
  case Type::TypeKind::IntHash:
  case Type::TypeKind::DoubleHash:
  case Type::TypeKind::Var:
  case Type::TypeKind::Data:
    return;
  case Type::TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    freeRepVars(A->param(), Out);
    freeRepVars(A->result(), Out);
    return;
  }
  case Type::TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    freeRepVarsOfRep(F->varKind().rep(), Out);
    freeRepVars(F->body(), Out);
    return;
  }
  case Type::TypeKind::ForAllRep: {
    const auto *F = cast<ForAllRepType>(T);
    SymbolSet Body;
    freeRepVars(F->body(), Body);
    Body.erase(F->repVar());
    Out.insert(Body.begin(), Body.end());
    return;
  }
  }
}

void lcalc::freeVars(const Expr *E, FreeVars &Out) {
  // Adds Body's free variables, less Binders in their namespace.
  auto Under = [&](VarSpace S, std::span<const Symbol> Binders,
                   const Expr *Body) {
    FreeVars Inner;
    freeVars(Body, Inner);
    for (Symbol B : Binders)
      in(Inner, S).erase(B);
    Out.Term.insert(Inner.Term.begin(), Inner.Term.end());
    Out.Type.insert(Inner.Type.begin(), Inner.Type.end());
    Out.Rep.insert(Inner.Rep.begin(), Inner.Rep.end());
  };
  auto OfType = [&](const Type *T) {
    freeTypeVars(T, Out.Type);
    freeRepVars(T, Out.Rep);
  };
  switch (E->kind()) {
  case Expr::ExprKind::Var:
    Out.Term.insert(cast<VarExpr>(E)->name());
    return;
  case Expr::ExprKind::IntLit:
  case Expr::ExprKind::DoubleLit:
  case Expr::ExprKind::Error:
    return;
  case Expr::ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    freeVars(A->fn(), Out);
    freeVars(A->arg(), Out);
    return;
  }
  case Expr::ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    Symbol B = L->var();
    OfType(L->varType());
    Under(VarSpace::Term, {&B, 1}, L->body());
    return;
  }
  case Expr::ExprKind::TyLam: {
    const auto *L = cast<TyLamExpr>(E);
    Symbol B = L->var();
    freeRepVarsOfRep(L->varKind().rep(), Out.Rep);
    Under(VarSpace::Type, {&B, 1}, L->body());
    return;
  }
  case Expr::ExprKind::TyApp: {
    const auto *A = cast<TyAppExpr>(E);
    freeVars(A->fn(), Out);
    OfType(A->tyArg());
    return;
  }
  case Expr::ExprKind::RepLam: {
    const auto *L = cast<RepLamExpr>(E);
    Symbol B = L->repVar();
    Under(VarSpace::Rep, {&B, 1}, L->body());
    return;
  }
  case Expr::ExprKind::RepApp: {
    const auto *A = cast<RepAppExpr>(E);
    freeVars(A->fn(), Out);
    freeRepVarsOfRep(A->repArg(), Out.Rep);
    return;
  }
  case Expr::ExprKind::Con:
    for (const Expr *A : cast<ConExpr>(E)->args())
      freeVars(A, Out);
    return;
  case Expr::ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    freeVars(C->scrut(), Out);
    for (const LAlt &A : C->alts())
      Under(VarSpace::Term, A.Binders, A.Rhs);
    if (C->defaultRhs())
      freeVars(C->defaultRhs(), Out);
    return;
  }
  case Expr::ExprKind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    freeVars(P->lhs(), Out);
    freeVars(P->rhs(), Out);
    return;
  }
  case Expr::ExprKind::If0: {
    const auto *I = cast<If0Expr>(E);
    freeVars(I->scrut(), Out);
    freeVars(I->thenBranch(), Out);
    freeVars(I->elseBranch(), Out);
    return;
  }
  case Expr::ExprKind::Fix: {
    const auto *F = cast<FixExpr>(E);
    Symbol B = F->var();
    OfType(F->varType());
    Under(VarSpace::Term, {&B, 1}, F->body());
    return;
  }
  }
}

bool lcalc::isClosed(const Expr *E) {
  FreeVars FV;
  freeVars(E, FV);
  return FV.Term.empty() && FV.Type.empty() && FV.Rep.empty();
}

//===----------------------------------------------------------------------===//
// Substitution into reps/kinds
//===----------------------------------------------------------------------===//

RuntimeRep lcalc::substRep(RuntimeRep R, Symbol RepVar, RuntimeRep Rep) {
  if (R.isVar() && R.varName() == RepVar)
    return Rep;
  return R;
}

LKind lcalc::substRep(LKind K, Symbol RepVar, RuntimeRep Rep) {
  return LKind(substRep(K.rep(), RepVar, Rep));
}

//===----------------------------------------------------------------------===//
// Substitution into types
//===----------------------------------------------------------------------===//

const Type *lcalc::substTypeInType(LContext &Ctx, const Type *T, Symbol Var,
                                   const Type *Replacement) {
  switch (T->kind()) {
  case Type::TypeKind::Int:
  case Type::TypeKind::IntHash:
  case Type::TypeKind::DoubleHash:
  case Type::TypeKind::Data:
    return T;
  case Type::TypeKind::Var:
    return cast<VarType>(T)->name() == Var ? Replacement : T;
  case Type::TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    const Type *P = substTypeInType(Ctx, A->param(), Var, Replacement);
    const Type *R = substTypeInType(Ctx, A->result(), Var, Replacement);
    if (P == A->param() && R == A->result())
      return T;
    return Ctx.arrowTy(P, R);
  }
  case Type::TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    if (F->var() == Var)
      return T; // shadowed
    SymbolSet FV;
    freeTypeVars(Replacement, FV);
    Symbol Bound = F->var();
    const Type *Body = F->body();
    if (FV.count(Bound)) {
      // Freshen the binder to avoid capture.
      Symbol Fresh = Ctx.symbols().fresh(Bound.str());
      Body = substTypeInType(Ctx, Body, Bound, Ctx.varTy(Fresh));
      Bound = Fresh;
    }
    const Type *NewBody = substTypeInType(Ctx, Body, Var, Replacement);
    if (Bound == F->var() && NewBody == F->body())
      return T;
    return Ctx.forAllTy(Bound, F->varKind(), NewBody);
  }
  case Type::TypeKind::ForAllRep: {
    const auto *F = cast<ForAllRepType>(T);
    const Type *NewBody =
        substTypeInType(Ctx, F->body(), Var, Replacement);
    // Rep binders cannot capture type variables; but the replacement may
    // mention the bound rep var free — freshen to keep scoping honest.
    SymbolSet FRV;
    freeRepVars(Replacement, FRV);
    if (FRV.count(F->repVar())) {
      Symbol Fresh = Ctx.symbols().fresh(F->repVar().str());
      const Type *Renamed =
          substRepInType(Ctx, F->body(), F->repVar(), RuntimeRep::var(Fresh));
      NewBody = substTypeInType(Ctx, Renamed, Var, Replacement);
      return Ctx.forAllRepTy(Fresh, NewBody);
    }
    if (NewBody == F->body())
      return T;
    return Ctx.forAllRepTy(F->repVar(), NewBody);
  }
  }
  assert(false && "unknown type kind");
  return T;
}

const Type *lcalc::substRepInType(LContext &Ctx, const Type *T, Symbol RepVar,
                                  RuntimeRep Rep) {
  switch (T->kind()) {
  case Type::TypeKind::Int:
  case Type::TypeKind::IntHash:
  case Type::TypeKind::DoubleHash:
  case Type::TypeKind::Var:
  case Type::TypeKind::Data:
    return T;
  case Type::TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    const Type *P = substRepInType(Ctx, A->param(), RepVar, Rep);
    const Type *R = substRepInType(Ctx, A->result(), RepVar, Rep);
    if (P == A->param() && R == A->result())
      return T;
    return Ctx.arrowTy(P, R);
  }
  case Type::TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    LKind K = substRep(F->varKind(), RepVar, Rep);
    const Type *Body = substRepInType(Ctx, F->body(), RepVar, Rep);
    if (K == F->varKind() && Body == F->body())
      return T;
    return Ctx.forAllTy(F->var(), K, Body);
  }
  case Type::TypeKind::ForAllRep: {
    const auto *F = cast<ForAllRepType>(T);
    if (F->repVar() == RepVar)
      return T; // shadowed
    if (Rep.isVar() && Rep.varName() == F->repVar()) {
      // Capture: freshen the binder.
      Symbol Fresh = Ctx.symbols().fresh(F->repVar().str());
      const Type *Renamed =
          substRepInType(Ctx, F->body(), F->repVar(), RuntimeRep::var(Fresh));
      return Ctx.forAllRepTy(Fresh,
                             substRepInType(Ctx, Renamed, RepVar, Rep));
    }
    const Type *Body = substRepInType(Ctx, F->body(), RepVar, Rep);
    if (Body == F->body())
      return T;
    return Ctx.forAllRepTy(F->repVar(), Body);
  }
  }
  assert(false && "unknown type kind");
  return T;
}


//===----------------------------------------------------------------------===//
// Substitution into expressions
//===----------------------------------------------------------------------===//

namespace {

/// e[By/Var] for a term, type or rep variable: the one walk behind the
/// three `subst` entry points. The replacement is ByExpr, ByType or ByRep
/// as Space, Var's namespace, says.
class ExprSubst {
public:
  ExprSubst(LContext &Ctx, VarSpace Space, Symbol Var,
            const Expr *ByExpr, const Type *ByType, RuntimeRep ByRep)
      : Ctx(Ctx), Space(Space), Var(Var), ByExpr(ByExpr), ByType(ByType),
        ByRep(ByRep) {
    // The replacement's free variables, in all three namespaces, once.
    switch (Space) {
    case VarSpace::Term:
      freeVars(ByExpr, FV);
      break;
    case VarSpace::Type:
      freeTypeVars(ByType, FV.Type);
      freeRepVars(ByType, FV.Rep);
      break;
    case VarSpace::Rep:
      if (ByRep.isVar())
        FV.Rep.insert(ByRep.varName());
      break;
    }
  }

  const Expr *walk(const Expr *E);

private:
  LContext &Ctx;
  VarSpace Space;
  Symbol Var;
  const Expr *ByExpr;
  const Type *ByType;
  RuntimeRep ByRep;
  FreeVars FV;

  /// The substitution applied to a type annotation, a kind, a rep.
  const Type *type(const Type *T) {
    switch (Space) {
    case VarSpace::Term:
      return T;
    case VarSpace::Type:
      return substTypeInType(Ctx, T, Var, ByType);
    case VarSpace::Rep:
      return substRepInType(Ctx, T, Var, ByRep);
    }
    return T;
  }
  LKind kind(LKind K) {
    return Space == VarSpace::Rep ? substRep(K, Var, ByRep) : K;
  }
  RuntimeRep rep(RuntimeRep R) {
    return Space == VarSpace::Rep ? substRep(R, Var, ByRep) : R;
  }

  /// True when binder B of namespace S shadows Var.
  bool shadows(VarSpace S, Symbol B) const { return S == Space && B == Var; }

  /// Renames binder B of namespace S to a fresh name throughout Body when
  /// B is free in the replacement, so that the walk cannot capture it.
  /// \returns true if it renamed.
  bool avoidCapture(VarSpace S, Symbol &B, const Expr *&Body) {
    if (!in(FV, S).count(B))
      return false;
    Symbol Fresh = Ctx.symbols().fresh(B.str());
    switch (S) {
    case VarSpace::Term:
      Body = subst(Ctx, Body, B, Ctx.var(Fresh));
      break;
    case VarSpace::Type:
      Body = subst(Ctx, Body, B, Ctx.varTy(Fresh));
      break;
    case VarSpace::Rep:
      Body = subst(Ctx, Body, B, RuntimeRep::var(Fresh));
      break;
    }
    B = Fresh;
    return true;
  }

  /// Walks Body under binder B of namespace S, renaming B first when it
  /// would capture. Leaves Body alone when B shadows Var.
  const Expr *under(VarSpace S, Symbol &B, const Expr *Body) {
    if (shadows(S, B))
      return Body;
    avoidCapture(S, B, Body);
    return walk(Body);
  }
};

const Expr *ExprSubst::walk(const Expr *E) {
  switch (E->kind()) {
  case Expr::ExprKind::Var:
    if (Space == VarSpace::Term && cast<VarExpr>(E)->name() == Var)
      return ByExpr;
    return E;
  case Expr::ExprKind::IntLit:
  case Expr::ExprKind::DoubleLit:
  case Expr::ExprKind::Error:
    return E;
  case Expr::ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    const Expr *Fn = walk(A->fn());
    const Expr *Arg = walk(A->arg());
    if (Fn == A->fn() && Arg == A->arg())
      return E;
    return Ctx.app(Fn, Arg);
  }
  case Expr::ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    const Type *Ann = type(L->varType());
    Symbol B = L->var();
    const Expr *Body = under(VarSpace::Term, B, L->body());
    if (Ann == L->varType() && B == L->var() && Body == L->body())
      return E;
    return Ctx.lam(B, Ann, Body);
  }
  case Expr::ExprKind::TyLam: {
    const auto *L = cast<TyLamExpr>(E);
    LKind K = kind(L->varKind());
    Symbol B = L->var();
    const Expr *Body = under(VarSpace::Type, B, L->body());
    if (K == L->varKind() && B == L->var() && Body == L->body())
      return E;
    return Ctx.tyLam(B, K, Body);
  }
  case Expr::ExprKind::TyApp: {
    const auto *A = cast<TyAppExpr>(E);
    const Expr *Fn = walk(A->fn());
    const Type *Ty = type(A->tyArg());
    if (Fn == A->fn() && Ty == A->tyArg())
      return E;
    return Ctx.tyApp(Fn, Ty);
  }
  case Expr::ExprKind::RepLam: {
    const auto *L = cast<RepLamExpr>(E);
    Symbol B = L->repVar();
    const Expr *Body = under(VarSpace::Rep, B, L->body());
    if (B == L->repVar() && Body == L->body())
      return E;
    return Ctx.repLam(B, Body);
  }
  case Expr::ExprKind::RepApp: {
    const auto *A = cast<RepAppExpr>(E);
    const Expr *Fn = walk(A->fn());
    RuntimeRep R = rep(A->repArg());
    if (Fn == A->fn() && R == A->repArg())
      return E;
    return Ctx.repApp(Fn, R);
  }
  case Expr::ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    std::vector<const Expr *> Args(C->args().begin(), C->args().end());
    bool Changed = false;
    for (const Expr *&A : Args) {
      const Expr *N = walk(A);
      Changed |= N != A;
      A = N;
    }
    if (!Changed)
      return E;
    return Ctx.conData(C->decl(), C->tag(), Args);
  }
  case Expr::ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    const Expr *Scrut = walk(C->scrut());
    bool Changed = Scrut != C->scrut();
    std::vector<LAlt> Alts(C->alts().begin(), C->alts().end());
    for (LAlt &A : Alts) {
      if (std::any_of(A.Binders.begin(), A.Binders.end(), [&](Symbol B) {
            return shadows(VarSpace::Term, B);
          }))
        continue;
      std::vector<Symbol> Binders(A.Binders.begin(), A.Binders.end());
      const Expr *Rhs = A.Rhs;
      bool Renamed = false;
      for (Symbol &B : Binders)
        Renamed |= avoidCapture(VarSpace::Term, B, Rhs);
      const Expr *NewRhs = walk(Rhs);
      if (!Renamed && NewRhs == A.Rhs)
        continue;
      if (Renamed)
        A.Binders = Ctx.arena().copyArray(Binders);
      A.Rhs = NewRhs;
      Changed = true;
    }
    const Expr *Def = C->defaultRhs();
    if (Def) {
      const Expr *NewDef = walk(Def);
      Changed |= NewDef != Def;
      Def = NewDef;
    }
    if (!Changed)
      return E;
    return Ctx.caseData(Scrut, C->decl(), Alts, Def);
  }
  case Expr::ExprKind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    const Expr *Lhs = walk(P->lhs());
    const Expr *Rhs = walk(P->rhs());
    if (Lhs == P->lhs() && Rhs == P->rhs())
      return E;
    return Ctx.prim(P->op(), Lhs, Rhs);
  }
  case Expr::ExprKind::If0: {
    const auto *I = cast<If0Expr>(E);
    const Expr *Scrut = walk(I->scrut());
    const Expr *Then = walk(I->thenBranch());
    const Expr *Else = walk(I->elseBranch());
    if (Scrut == I->scrut() && Then == I->thenBranch() &&
        Else == I->elseBranch())
      return E;
    return Ctx.if0(Scrut, Then, Else);
  }
  case Expr::ExprKind::Fix: {
    const auto *F = cast<FixExpr>(E);
    const Type *Ann = type(F->varType());
    Symbol B = F->var();
    const Expr *Body = under(VarSpace::Term, B, F->body());
    if (Ann == F->varType() && B == F->var() && Body == F->body())
      return E;
    return Ctx.fix(B, Ann, Body);
  }
  }
  assert(false && "unknown expr kind");
  return E;
}

} // namespace

const Expr *lcalc::subst(LContext &Ctx, const Expr *E, Symbol Var,
                         const Expr *By) {
  return ExprSubst(Ctx, VarSpace::Term, Var, By, nullptr,
                   RuntimeRep::pointer())
      .walk(E);
}

const Expr *lcalc::subst(LContext &Ctx, const Expr *E, Symbol Var,
                         const Type *By) {
  return ExprSubst(Ctx, VarSpace::Type, Var, nullptr, By,
                   RuntimeRep::pointer())
      .walk(E);
}

const Expr *lcalc::subst(LContext &Ctx, const Expr *E, Symbol Var,
                         RuntimeRep By) {
  return ExprSubst(Ctx, VarSpace::Rep, Var, nullptr, nullptr, By).walk(E);
}
