//===- TypeOps.cpp - Equality, substitution, printing for core types ------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "core/CoreContext.h"
#include "support/DoubleText.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace levity;
using namespace levity::core;

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string RepTy::str() const {
  switch (T) {
  case Tag::Var:
    return std::string(Name.str());
  case Tag::Meta:
    return "ν" + std::to_string(Id);
  case Tag::Atom:
    switch (Ctor) {
    case RepCtor::Lifted: return "LiftedRep";
    case RepCtor::Unlifted: return "UnliftedRep";
    case RepCtor::Int: return "IntRep";
    case RepCtor::Int8: return "Int8Rep";
    case RepCtor::Int16: return "Int16Rep";
    case RepCtor::Int32: return "Int32Rep";
    case RepCtor::Int64: return "Int64Rep";
    case RepCtor::Word: return "WordRep";
    case RepCtor::Float: return "FloatRep";
    case RepCtor::Double: return "DoubleRep";
    case RepCtor::Addr: return "AddrRep";
    default: return "?";
    }
  case Tag::Tuple:
  case Tag::Sum: {
    std::ostringstream OS;
    OS << (T == Tag::Tuple ? "TupleRep" : "SumRep") << " '[";
    bool First = true;
    for (const RepTy *E : Elems) {
      if (!First)
        OS << ", ";
      First = false;
      OS << E->str();
    }
    OS << "]";
    return OS.str();
  }
  }
  return "?";
}

std::string Kind::str() const {
  switch (T) {
  case Tag::Rep:
    return "Rep";
  case Tag::TypeOf:
    if (R->tag() == RepTy::Tag::Atom && R->atom() == RepCtor::Lifted)
      return "Type";
    return "TYPE " + R->str();
  case Tag::Arrow: {
    std::string P = Param->str();
    if (Param->isArrow())
      P = "(" + P + ")";
    return P + " -> " + Result->str();
  }
  }
  return "?";
}

namespace {

enum Prec { PrecTop = 0, PrecFun = 1, PrecApp = 2, PrecAtom = 3 };

void printType(std::ostringstream &OS, const Type *T, int P) {
  switch (T->tag()) {
  case Type::Tag::Con:
    OS << cast<ConType>(T)->tycon()->name().str();
    return;
  case Type::Tag::Var:
    OS << cast<VarType>(T)->name().str();
    return;
  case Type::Tag::Meta:
    OS << "μ" << cast<MetaType>(T)->id();
    return;
  case Type::Tag::RepLift:
    OS << "'" << cast<RepLiftType>(T)->rep()->str();
    return;
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    if (P > PrecApp)
      OS << "(";
    printType(OS, A->fn(), PrecApp);
    OS << " ";
    printType(OS, A->arg(), PrecAtom);
    if (P > PrecApp)
      OS << ")";
    return;
  }
  case Type::Tag::Fun: {
    const auto *F = cast<FunType>(T);
    if (P > PrecFun)
      OS << "(";
    printType(OS, F->param(), PrecFun + 1);
    OS << " -> ";
    printType(OS, F->result(), PrecFun);
    if (P > PrecFun)
      OS << ")";
    return;
  }
  case Type::Tag::ForAll: {
    const auto *F = cast<ForAllType>(T);
    if (P > PrecTop)
      OS << "(";
    OS << "forall (" << F->var().str() << " :: " << F->varKind()->str()
       << "). ";
    printType(OS, F->body(), PrecTop);
    if (P > PrecTop)
      OS << ")";
    return;
  }
  case Type::Tag::UnboxedTuple: {
    const auto *U = cast<UnboxedTupleType>(T);
    OS << "(# ";
    bool First = true;
    for (const Type *E : U->elems()) {
      if (!First)
        OS << ", ";
      First = false;
      printType(OS, E, PrecTop);
    }
    OS << " #)";
    return;
  }
  }
}

} // namespace

std::string Type::str() const {
  std::ostringstream OS;
  printType(OS, this, PrecTop);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Equality (alpha-aware; call on zonked structures)
//===----------------------------------------------------------------------===//

namespace {

/// The binder pairs of the foralls entered so far, outermost first. A
/// variable pair is equal when both name the same binder level: the
/// innermost pair binding either side must bind both. Two free variables
/// are equal when they are the same name.
struct TyAlphaEnv {
  std::vector<std::pair<Symbol, Symbol>> Bound;

  bool varsEqual(Symbol A, Symbol B) const {
    for (auto It = Bound.rbegin(), E = Bound.rend(); It != E; ++It)
      if (It->first == A || It->second == B)
        return It->first == A && It->second == B;
    return A == B;
  }
};

bool repEqualIn(const RepTy *A, const RepTy *B, const TyAlphaEnv &Env) {
  if (A->tag() != B->tag())
    return false;
  switch (A->tag()) {
  case RepTy::Tag::Var:
    return Env.varsEqual(A->varName(), B->varName());
  case RepTy::Tag::Meta:
    return A->metaId() == B->metaId();
  case RepTy::Tag::Atom:
    return A->atom() == B->atom();
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum: {
    if (A->elems().size() != B->elems().size())
      return false;
    for (size_t I = 0; I != A->elems().size(); ++I)
      if (!repEqualIn(A->elems()[I], B->elems()[I], Env))
        return false;
    return true;
  }
  }
  return false;
}

bool kindEqualIn(const Kind *A, const Kind *B, const TyAlphaEnv &Env) {
  if (A->tag() != B->tag())
    return false;
  switch (A->tag()) {
  case Kind::Tag::Rep:
    return true;
  case Kind::Tag::TypeOf:
    return repEqualIn(A->rep(), B->rep(), Env);
  case Kind::Tag::Arrow:
    return kindEqualIn(A->param(), B->param(), Env) &&
           kindEqualIn(A->result(), B->result(), Env);
  }
  return false;
}

bool typeEqualIn(const Type *A, const Type *B, TyAlphaEnv &Env) {
  if (A->tag() != B->tag())
    return false;
  switch (A->tag()) {
  case Type::Tag::Con:
    return cast<ConType>(A)->tycon() == cast<ConType>(B)->tycon();
  case Type::Tag::Var:
    return Env.varsEqual(cast<VarType>(A)->name(),
                         cast<VarType>(B)->name());
  case Type::Tag::Meta:
    return cast<MetaType>(A)->id() == cast<MetaType>(B)->id();
  case Type::Tag::RepLift:
    return repEqualIn(cast<RepLiftType>(A)->rep(),
                      cast<RepLiftType>(B)->rep(), Env);
  case Type::Tag::App: {
    const auto *AA = cast<AppType>(A);
    const auto *BA = cast<AppType>(B);
    return typeEqualIn(AA->fn(), BA->fn(), Env) &&
           typeEqualIn(AA->arg(), BA->arg(), Env);
  }
  case Type::Tag::Fun: {
    const auto *AF = cast<FunType>(A);
    const auto *BF = cast<FunType>(B);
    return typeEqualIn(AF->param(), BF->param(), Env) &&
           typeEqualIn(AF->result(), BF->result(), Env);
  }
  case Type::Tag::ForAll: {
    const auto *AF = cast<ForAllType>(A);
    const auto *BF = cast<ForAllType>(B);
    if (!kindEqualIn(AF->varKind(), BF->varKind(), Env))
      return false;
    Env.Bound.push_back({AF->var(), BF->var()});
    bool Equal = typeEqualIn(AF->body(), BF->body(), Env);
    Env.Bound.pop_back();
    return Equal;
  }
  case Type::Tag::UnboxedTuple: {
    const auto *AU = cast<UnboxedTupleType>(A);
    const auto *BU = cast<UnboxedTupleType>(B);
    if (AU->elems().size() != BU->elems().size())
      return false;
    for (size_t I = 0; I != AU->elems().size(); ++I)
      if (!typeEqualIn(AU->elems()[I], BU->elems()[I], Env))
        return false;
    return true;
  }
  }
  return false;
}

} // namespace

bool core::repEqual(const RepTy *A, const RepTy *B) {
  TyAlphaEnv Env;
  return repEqualIn(A, B, Env);
}

bool core::kindEqual(const Kind *A, const Kind *B) {
  TyAlphaEnv Env;
  return kindEqualIn(A, B, Env);
}

bool core::typeEqual(const Type *A, const Type *B) {
  if (A == B)
    return true;
  TyAlphaEnv Env;
  return typeEqualIn(A, B, Env);
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

const RepTy *core::substRepInRep(CoreContext &C, const RepTy *R, Symbol Var,
                                 const RepTy *Replacement) {
  switch (R->tag()) {
  case RepTy::Tag::Var:
    return R->varName() == Var ? Replacement : R;
  case RepTy::Tag::Meta:
  case RepTy::Tag::Atom:
    return R;
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum: {
    std::vector<const RepTy *> Elems;
    bool Changed = false;
    for (const RepTy *E : R->elems()) {
      const RepTy *S = substRepInRep(C, E, Var, Replacement);
      Changed |= (S != E);
      Elems.push_back(S);
    }
    if (!Changed)
      return R;
    return R->tag() == RepTy::Tag::Tuple ? C.repTuple(Elems)
                                         : C.repSum(Elems);
  }
  }
  assert(false && "unknown rep tag");
  return R;
}

namespace {

const Kind *substRepInKind(CoreContext &C, const Kind *K, Symbol Var,
                           const RepTy *Replacement) {
  switch (K->tag()) {
  case Kind::Tag::Rep:
    return K;
  case Kind::Tag::TypeOf: {
    const RepTy *R = substRepInRep(C, K->rep(), Var, Replacement);
    return R == K->rep() ? K : C.kindTYPE(R);
  }
  case Kind::Tag::Arrow: {
    const Kind *P = substRepInKind(C, K->param(), Var, Replacement);
    const Kind *R = substRepInKind(C, K->result(), Var, Replacement);
    if (P == K->param() && R == K->result())
      return K;
    return C.kindArrow(P, R);
  }
  }
  assert(false && "unknown kind tag");
  return K;
}

} // namespace

const RepTy *core::typeAsRep(CoreContext &C, const Type *T) {
  T = C.zonkType(T);
  switch (T->tag()) {
  case Type::Tag::RepLift:
    return cast<RepLiftType>(T)->rep();
  case Type::Tag::Var: {
    const auto *V = cast<VarType>(T);
    if (V->kind()->isRep())
      return C.repVar(V->name());
    return nullptr;
  }
  default:
    return nullptr;
  }
}

const Type *core::substType(CoreContext &C, const Type *T, Symbol Var,
                            const Type *Replacement) {
  // When the variable stands for a rep (kind Rep), occurrences live inside
  // kinds; compute the rep view of the replacement once.
  const RepTy *RepReplacement = typeAsRep(C, Replacement);

  switch (T->tag()) {
  case Type::Tag::Con:
  case Type::Tag::Meta:
    return T;
  case Type::Tag::Var: {
    const auto *V = cast<VarType>(T);
    if (V->name() == Var)
      return Replacement;
    if (RepReplacement) {
      const Kind *K = substRepInKind(C, V->kind(), Var, RepReplacement);
      if (K != V->kind())
        return C.varTy(V->name(), K);
    }
    return T;
  }
  case Type::Tag::RepLift: {
    if (!RepReplacement)
      return T;
    const auto *R = cast<RepLiftType>(T);
    const RepTy *S = substRepInRep(C, R->rep(), Var, RepReplacement);
    return S == R->rep() ? T : C.repLiftTy(S);
  }
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    const Type *F = substType(C, A->fn(), Var, Replacement);
    const Type *X = substType(C, A->arg(), Var, Replacement);
    if (F == A->fn() && X == A->arg())
      return T;
    return C.appTy(F, X);
  }
  case Type::Tag::Fun: {
    const auto *F = cast<FunType>(T);
    const Type *P = substType(C, F->param(), Var, Replacement);
    const Type *R = substType(C, F->result(), Var, Replacement);
    if (P == F->param() && R == F->result())
      return T;
    return C.funTy(P, R);
  }
  case Type::Tag::UnboxedTuple: {
    const auto *U = cast<UnboxedTupleType>(T);
    std::vector<const Type *> Elems;
    bool Changed = false;
    for (const Type *E : U->elems()) {
      const Type *S = substType(C, E, Var, Replacement);
      Changed |= (S != E);
      Elems.push_back(S);
    }
    if (!Changed)
      return T;
    return C.unboxedTupleTy(Elems);
  }
  case Type::Tag::ForAll: {
    const auto *F = cast<ForAllType>(T);
    const Kind *K =
        RepReplacement
            ? substRepInKind(C, F->varKind(), Var, RepReplacement)
            : F->varKind();
    if (F->var() == Var)
      return K == F->varKind() ? T : C.forAllTy(F->var(), K, F->body());
    // Capture check: if the binder occurs free in the replacement,
    // freshen it.
    std::vector<std::pair<Symbol, const Kind *>> FV;
    freeTypeVars(Replacement, FV);
    Symbol Bound = F->var();
    const Type *Body = F->body();
    for (const auto &[Name, VK] : FV) {
      if (Name != Bound)
        continue;
      Symbol Fresh = C.symbols().fresh(Bound.str());
      Body = substType(C, Body, Bound, C.varTy(Fresh, K));
      Bound = Fresh;
      break;
    }
    const Type *NewBody = substType(C, Body, Var, Replacement);
    if (Bound == F->var() && K == F->varKind() && NewBody == F->body())
      return T;
    return C.forAllTy(Bound, K, NewBody);
  }
  }
  assert(false && "unknown type tag");
  return T;
}

//===----------------------------------------------------------------------===//
// Free variables and metas
//===----------------------------------------------------------------------===//

namespace {

void freeVarsRep(const RepTy *R, std::unordered_set<Symbol, SymbolHash>
                 &Bound, std::vector<std::pair<Symbol, const Kind *>> &Out,
                 CoreContext *C);

void freeVarsKind(const Kind *K, std::unordered_set<Symbol, SymbolHash>
                  &Bound, std::vector<std::pair<Symbol, const Kind *>> &Out,
                  CoreContext *C) {
  switch (K->tag()) {
  case Kind::Tag::Rep:
    return;
  case Kind::Tag::TypeOf:
    freeVarsRep(K->rep(), Bound, Out, C);
    return;
  case Kind::Tag::Arrow:
    freeVarsKind(K->param(), Bound, Out, C);
    freeVarsKind(K->result(), Bound, Out, C);
    return;
  }
}

void freeVarsRep(const RepTy *R, std::unordered_set<Symbol, SymbolHash>
                 &Bound, std::vector<std::pair<Symbol, const Kind *>> &Out,
                 CoreContext *C) {
  switch (R->tag()) {
  case RepTy::Tag::Var:
    if (!Bound.count(R->varName()))
      Out.push_back({R->varName(), nullptr});
    return;
  case RepTy::Tag::Meta:
  case RepTy::Tag::Atom:
    return;
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum:
    for (const RepTy *E : R->elems())
      freeVarsRep(E, Bound, Out, C);
    return;
  }
}

void freeVarsType(const Type *T, std::unordered_set<Symbol, SymbolHash>
                  &Bound, std::vector<std::pair<Symbol, const Kind *>> &Out,
                  CoreContext *C) {
  switch (T->tag()) {
  case Type::Tag::Con:
  case Type::Tag::Meta:
    return;
  case Type::Tag::Var: {
    const auto *V = cast<VarType>(T);
    freeVarsKind(V->kind(), Bound, Out, C);
    if (!Bound.count(V->name()))
      Out.push_back({V->name(), V->kind()});
    return;
  }
  case Type::Tag::RepLift:
    freeVarsRep(cast<RepLiftType>(T)->rep(), Bound, Out, C);
    return;
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    freeVarsType(A->fn(), Bound, Out, C);
    freeVarsType(A->arg(), Bound, Out, C);
    return;
  }
  case Type::Tag::Fun: {
    const auto *F = cast<FunType>(T);
    freeVarsType(F->param(), Bound, Out, C);
    freeVarsType(F->result(), Bound, Out, C);
    return;
  }
  case Type::Tag::ForAll: {
    const auto *F = cast<ForAllType>(T);
    freeVarsKind(F->varKind(), Bound, Out, C);
    bool Inserted = Bound.insert(F->var()).second;
    freeVarsType(F->body(), Bound, Out, C);
    if (Inserted)
      Bound.erase(F->var());
    return;
  }
  case Type::Tag::UnboxedTuple:
    for (const Type *E : cast<UnboxedTupleType>(T)->elems())
      freeVarsType(E, Bound, Out, C);
    return;
  }
}

void collectMetasRep(CoreContext &C, const RepTy *R, MetaSet &Out) {
  R = C.zonkRep(R);
  switch (R->tag()) {
  case RepTy::Tag::Meta:
    Out.RepMetaIds.push_back(R->metaId());
    return;
  case RepTy::Tag::Var:
  case RepTy::Tag::Atom:
    return;
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum:
    for (const RepTy *E : R->elems())
      collectMetasRep(C, E, Out);
    return;
  }
}

void collectMetasKind(CoreContext &C, const Kind *K, MetaSet &Out) {
  switch (K->tag()) {
  case Kind::Tag::Rep:
    return;
  case Kind::Tag::TypeOf:
    collectMetasRep(C, K->rep(), Out);
    return;
  case Kind::Tag::Arrow:
    collectMetasKind(C, K->param(), Out);
    collectMetasKind(C, K->result(), Out);
    return;
  }
}

} // namespace

void core::freeTypeVars(const Type *T,
                        std::vector<std::pair<Symbol, const Kind *>> &Out) {
  std::unordered_set<Symbol, SymbolHash> Bound;
  freeVarsType(T, Bound, Out, nullptr);
}

void core::collectMetas(CoreContext &C, const Type *T, MetaSet &Out) {
  T = C.zonkType(T);
  switch (T->tag()) {
  case Type::Tag::Con:
    return;
  case Type::Tag::Meta: {
    const auto *M = cast<MetaType>(T);
    Out.TypeMetaIds.push_back(M->id());
    if (const Kind *K = C.typeMetaCell(M->id()).MetaKind)
      collectMetasKind(C, K, Out);
    return;
  }
  case Type::Tag::Var:
    collectMetasKind(C, cast<VarType>(T)->kind(), Out);
    return;
  case Type::Tag::RepLift:
    collectMetasRep(C, cast<RepLiftType>(T)->rep(), Out);
    return;
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    collectMetas(C, A->fn(), Out);
    collectMetas(C, A->arg(), Out);
    return;
  }
  case Type::Tag::Fun: {
    const auto *F = cast<FunType>(T);
    collectMetas(C, F->param(), Out);
    collectMetas(C, F->result(), Out);
    return;
  }
  case Type::Tag::ForAll: {
    const auto *F = cast<ForAllType>(T);
    collectMetasKind(C, F->varKind(), Out);
    collectMetas(C, F->body(), Out);
    return;
  }
  case Type::Tag::UnboxedTuple:
    for (const Type *E : cast<UnboxedTupleType>(T)->elems())
      collectMetas(C, E, Out);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Literal / expression printing
//===----------------------------------------------------------------------===//

std::string Literal::str() const {
  switch (T) {
  case Tag::IntHash:
    return std::to_string(I) + "#";
  case Tag::DoubleHash:
    return support::doubleText(D) + "##";
  case Tag::String:
    return "\"" + std::string(S.str()) + "\"";
  }
  return "?";
}

namespace {

void printExpr(std::ostringstream &OS, const Expr *E, int P) {
  switch (E->tag()) {
  case Expr::Tag::Var:
    OS << cast<VarExpr>(E)->name().str();
    return;
  case Expr::Tag::Lit:
    OS << cast<LitExpr>(E)->lit().str();
    return;
  case Expr::Tag::App: {
    const auto *A = cast<AppExpr>(E);
    if (P > PrecApp)
      OS << "(";
    printExpr(OS, A->fn(), PrecApp);
    OS << " ";
    printExpr(OS, A->arg(), PrecAtom);
    if (P > PrecApp)
      OS << ")";
    return;
  }
  case Expr::Tag::TyApp: {
    const auto *A = cast<TyAppExpr>(E);
    if (P > PrecApp)
      OS << "(";
    printExpr(OS, A->fn(), PrecApp);
    OS << " @(" << A->tyArg()->str() << ")";
    if (P > PrecApp)
      OS << ")";
    return;
  }
  case Expr::Tag::Lam: {
    const auto *L = cast<LamExpr>(E);
    if (P > PrecTop)
      OS << "(";
    OS << "\\(" << L->var().str() << " :: " << L->varType()->str()
       << ") -> ";
    printExpr(OS, L->body(), PrecTop);
    if (P > PrecTop)
      OS << ")";
    return;
  }
  case Expr::Tag::TyLam: {
    const auto *L = cast<TyLamExpr>(E);
    if (P > PrecTop)
      OS << "(";
    OS << "/\\(" << L->var().str() << " :: " << L->varKind()->str()
       << ") -> ";
    printExpr(OS, L->body(), PrecTop);
    if (P > PrecTop)
      OS << ")";
    return;
  }
  case Expr::Tag::Let: {
    const auto *L = cast<LetExpr>(E);
    if (P > PrecTop)
      OS << "(";
    OS << (L->strict() ? "let! " : "let ") << L->var().str() << " = ";
    printExpr(OS, L->rhs(), PrecApp);
    OS << " in ";
    printExpr(OS, L->body(), PrecTop);
    if (P > PrecTop)
      OS << ")";
    return;
  }
  case Expr::Tag::LetRec: {
    const auto *L = cast<LetRecExpr>(E);
    if (P > PrecTop)
      OS << "(";
    OS << "letrec ";
    bool First = true;
    for (const RecBinding &B : L->bindings()) {
      if (!First)
        OS << "; ";
      First = false;
      OS << B.Var.str() << " = ";
      printExpr(OS, B.Rhs, PrecApp);
    }
    OS << " in ";
    printExpr(OS, L->body(), PrecTop);
    if (P > PrecTop)
      OS << ")";
    return;
  }
  case Expr::Tag::Case: {
    const auto *C = cast<CaseExpr>(E);
    if (P > PrecTop)
      OS << "(";
    OS << "case ";
    printExpr(OS, C->scrut(), PrecTop);
    OS << " of {";
    bool First = true;
    for (const Alt &A : C->alts()) {
      if (!First)
        OS << ";";
      First = false;
      OS << " ";
      switch (A.Kind) {
      case Alt::AltKind::ConPat:
        OS << A.Con->name().str();
        for (Symbol B : A.Binders)
          OS << " " << B.str();
        break;
      case Alt::AltKind::LitPat:
        OS << A.Lit.str();
        break;
      case Alt::AltKind::TuplePat: {
        OS << "(#";
        bool F2 = true;
        for (Symbol B : A.Binders) {
          if (!F2)
            OS << ",";
          F2 = false;
          OS << " " << B.str();
        }
        OS << " #)";
        break;
      }
      case Alt::AltKind::Default:
        OS << "_";
        break;
      }
      OS << " -> ";
      printExpr(OS, A.Rhs, PrecTop);
    }
    OS << " }";
    if (P > PrecTop)
      OS << ")";
    return;
  }
  case Expr::Tag::Con: {
    const auto *C = cast<ConExpr>(E);
    if (P > PrecApp && (!C->args().empty() || !C->tyArgs().empty()))
      OS << "(";
    OS << C->dataCon()->name().str();
    for (const Expr *A : C->args()) {
      OS << " ";
      printExpr(OS, A, PrecAtom);
    }
    if (P > PrecApp && (!C->args().empty() || !C->tyArgs().empty()))
      OS << ")";
    return;
  }
  case Expr::Tag::Prim: {
    const auto *Pr = cast<PrimOpExpr>(E);
    if (P > PrecApp)
      OS << "(";
    OS << primOpName(Pr->op());
    for (const Expr *A : Pr->args()) {
      OS << " ";
      printExpr(OS, A, PrecAtom);
    }
    if (P > PrecApp)
      OS << ")";
    return;
  }
  case Expr::Tag::UnboxedTuple: {
    const auto *U = cast<UnboxedTupleExpr>(E);
    OS << "(# ";
    bool First = true;
    for (const Expr *El : U->elems()) {
      if (!First)
        OS << ", ";
      First = false;
      printExpr(OS, El, PrecTop);
    }
    OS << " #)";
    return;
  }
  case Expr::Tag::Error: {
    const auto *Err = cast<ErrorExpr>(E);
    if (P > PrecApp)
      OS << "(";
    OS << "error @" << Err->atRep()->str() << " @(" << Err->atType()->str()
       << ") ";
    printExpr(OS, Err->message(), PrecAtom);
    if (P > PrecApp)
      OS << ")";
    return;
  }
  }
}

} // namespace

std::string Expr::str() const {
  std::ostringstream OS;
  printExpr(OS, this, PrecTop);
  return OS.str();
}
