//===- LowerToL.cpp - Lowering core IR into the L calculus ----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "driver/LowerToL.h"
#include "anf/Compile.h"
#include "core/TypeCheck.h"
#include "surface/Parser.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace levity;
using namespace levity::driver;

namespace {

/// Lowers the globals of one program into L and then M, each once.
class CoreToL {
public:
  CoreToL(core::CoreContext &C, lcalc::LContext &L,
          const core::CoreProgram &P)
      : C(C), L(L) {
    for (const core::TopBinding &B : P.Bindings) {
      // First binding of a name wins, as in CoreProgram::find.
      Bindings.try_emplace(B.Name, &B);
      // scrutType types scrutinees that mention globals.
      CoreScope.addGlobal(B.Name, B.Ty);
    }
  }

  std::vector<LoweredGlobal> lowerProgram(std::span<const Symbol> Roots,
                                          mcalc::MContext &MC);

private:
  Result<lcalc::LKind> lowerKind(const core::Kind *K);
  Result<lcalc::RuntimeRep> lowerRep(const core::RepTy *R);
  Result<const lcalc::Type *> lowerType(const core::Type *T);
  /// Refuses core nested deeper than surface::MaxCoreNestingDepth, then
  /// lowers one node (lowerNode).
  Result<const lcalc::Expr *> lowerExpr(const core::Expr *E);
  Result<const lcalc::Expr *> lowerNode(const core::Expr *E);

  /// Lowers every core case shape — constructor alternatives, literal
  /// alternatives, and default-only — through the one L tag-dispatch
  /// case (which ANF compiles to the M switch).
  Result<const lcalc::Expr *> lowerCase(const core::CaseExpr *Case);

  /// The L data declaration for the saturated application of \p TC to
  /// \p TyArgs, instantiating every constructor's field types. Each
  /// distinct instantiation is declared once, named by its display name
  /// (e.g. "Maybe Int").
  Result<const lcalc::LDataDecl *>
  dataDeclFor(const core::TyCon *TC,
              std::span<const core::Type *const> TyArgs);

  /// Splits a zonked type into a tycon head and its argument spine.
  /// Null head when the type is not a (possibly applied) tycon.
  const core::TyCon *typeHead(const core::Type *T,
                              std::vector<const core::Type *> &Args);

  /// Computes (and zonks) the core type of \p E under the binders
  /// currently in scope — used to recover the scrutinee's type-argument
  /// instantiation for polymorphic constructor cases.
  Result<const core::Type *> scrutType(const core::Expr *E);

  core::CoreContext &C;
  lcalc::LContext &L;

  /// The index of the global named \p Name, queuing it on first use;
  /// none when the program binds no such name.
  std::optional<uint32_t> global(Symbol Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    auto B = Bindings.find(Name);
    if (B == Bindings.end())
      return std::nullopt;
    Queue.push_back(B->second);
    return Index[Name] = static_cast<uint32_t>(Queue.size() - 1);
  }

  Symbol reintern(Symbol S) { return L.sym(S.str()); }

  std::unordered_map<Symbol, const core::TopBinding *, SymbolHash> Bindings;
  std::unordered_map<Symbol, uint32_t, SymbolHash> Index; ///< Into Queue.
  std::vector<const core::TopBinding *> Queue; ///< By global index.
  std::vector<uint32_t> Used; ///< Globals the current one refers to.
  unsigned Depth = 0;         ///< lowerExpr nesting.

  /// String-typed binders currently in scope and the literal bound to
  /// them — elaboration's administrative `error "msg"` redex is the one
  /// producer; the error node's message is the one consumer.
  std::unordered_map<Symbol, Symbol, SymbolHash> StringEnv;

  /// Core-level typing state mirrored alongside the lowering: binders
  /// are pushed/popped in lockstep with lowerExpr so scrutType can ask
  /// the core checker for a scrutinee's type mid-lowering.
  core::CoreChecker Checker{C};
  core::CoreEnv CoreScope;

  /// Data-decl instantiations this lowering has produced, keyed by
  /// (tycon identity, zonked type-argument spine), in-progress recursive
  /// decls (e.g. cons lists) included.
  std::unordered_map<std::string, const lcalc::LDataDecl *> DeclCache;
};

} // namespace

//===----------------------------------------------------------------------===//
// Reps, kinds, types
//===----------------------------------------------------------------------===//

Result<lcalc::RuntimeRep> CoreToL::lowerRep(const core::RepTy *R) {
  R = C.zonkRep(R);
  switch (R->tag()) {
  case core::RepTy::Tag::Var:
    return lcalc::RuntimeRep::var(reintern(R->varName()));
  case core::RepTy::Tag::Atom:
    switch (R->atom()) {
    case RepCtor::Lifted:
      return lcalc::RuntimeRep::pointer();
    case RepCtor::Int:
      return lcalc::RuntimeRep::integer();
    case RepCtor::Double:
      return lcalc::RuntimeRep::dbl();
    default:
      break;
    }
    return err("not expressible in L: representation " + R->str() +
               " (L has only P, I, and D)");
  case core::RepTy::Tag::Meta:
    return err("not expressible in L: unsolved rep metavariable");
  case core::RepTy::Tag::Tuple:
  case core::RepTy::Tag::Sum:
    return err("not expressible in L: compound representation " + R->str());
  }
  return err("unknown rep");
}

Result<lcalc::LKind> CoreToL::lowerKind(const core::Kind *K) {
  K = C.zonkKind(K);
  if (!K->isTypeOf())
    return err("not expressible in L: kind " + K->str());
  Result<lcalc::RuntimeRep> R = lowerRep(K->rep());
  if (!R)
    return err(R.error());
  return lcalc::LKind(*R);
}

Result<const lcalc::Type *> CoreToL::lowerType(const core::Type *T) {
  T = C.zonkType(T);
  switch (T->tag()) {
  case core::Type::Tag::Con: {
    const core::TyCon *TC = core::cast<core::ConType>(T)->tycon();
    if (TC == C.intTyCon())
      return L.intTy();
    if (TC == C.intHashTyCon())
      return L.intHashTy();
    if (TC == C.doubleHashTyCon())
      return L.doubleHashTy();
    // Any other algebraic tycon (Bool, boxed Double, user data) lowers
    // to a declared L data type; non-algebraic builtins (String, the
    // remaining unboxed sorts) stay outside the fragment.
    Result<const lcalc::LDataDecl *> D = dataDeclFor(TC, {});
    if (!D)
      return err(D.error());
    return (*D)->type();
  }
  case core::Type::Tag::Fun: {
    const auto *F = core::cast<core::FunType>(T);
    Result<const lcalc::Type *> P = lowerType(F->param());
    if (!P)
      return P;
    Result<const lcalc::Type *> R = lowerType(F->result());
    if (!R)
      return R;
    return L.arrowTy(*P, *R);
  }
  case core::Type::Tag::Var:
    return L.varTy(reintern(core::cast<core::VarType>(T)->name()));
  case core::Type::Tag::ForAll: {
    const auto *F = core::cast<core::ForAllType>(T);
    const core::Kind *VK = C.zonkKind(F->varKind());
    if (VK->isRep()) {
      Result<const lcalc::Type *> Body = lowerType(F->body());
      if (!Body)
        return Body;
      return L.forAllRepTy(reintern(F->var()), *Body);
    }
    Result<lcalc::LKind> K = lowerKind(VK);
    if (!K)
      return err(K.error());
    Result<const lcalc::Type *> Body = lowerType(F->body());
    if (!Body)
      return Body;
    return L.forAllTy(reintern(F->var()), *K, *Body);
  }
  case core::Type::Tag::App: {
    // A saturated data-type application (Maybe Int, List Int, …)
    // lowers to the per-instantiation L data declaration.
    std::vector<const core::Type *> Args;
    const core::TyCon *TC = typeHead(T, Args);
    if (!TC)
      return err("not expressible in L: type application " + T->str());
    Result<const lcalc::LDataDecl *> D = dataDeclFor(TC, Args);
    if (!D)
      return err(D.error());
    return (*D)->type();
  }
  case core::Type::Tag::Meta:
    return err("not expressible in L: unsolved type metavariable");
  case core::Type::Tag::UnboxedTuple:
    return err("not expressible in L: unboxed tuple type " + T->str());
  case core::Type::Tag::RepLift:
    return err("not expressible in L: promoted representation " + T->str());
  }
  return err("unknown type");
}

//===----------------------------------------------------------------------===//
// Data declarations
//===----------------------------------------------------------------------===//

const core::TyCon *CoreToL::typeHead(const core::Type *T,
                                     std::vector<const core::Type *> &Args) {
  T = C.zonkType(T);
  while (const auto *App = core::dyn_cast<core::AppType>(T)) {
    Args.insert(Args.begin(), App->arg());
    T = C.zonkType(App->fn());
  }
  const auto *Con = core::dyn_cast<core::ConType>(T);
  return Con ? Con->tycon() : nullptr;
}

Result<const core::Type *> CoreToL::scrutType(const core::Expr *E) {
  Result<const core::Type *> T = Checker.typeOf(CoreScope, E);
  if (!T)
    return err("not expressible in L: cannot type case scrutinee (" +
               T.error() + ")");
  return C.zonkType(*T);
}

Result<const lcalc::LDataDecl *>
CoreToL::dataDeclFor(const core::TyCon *TC,
                     std::span<const core::Type *const> TyArgs) {
  // Identity key: the tycon plus its zonked argument spine.
  std::string Key =
      std::to_string(reinterpret_cast<uintptr_t>(TC));
  std::vector<const core::Type *> Zonked;
  for (const core::Type *A : TyArgs) {
    Zonked.push_back(C.zonkType(A));
    Key += "|" + Zonked.back()->str();
  }
  if (auto It = DeclCache.find(Key); It != DeclCache.end())
    return It->second;

  if (TC == C.intTyCon())
    return L.intDataDecl();
  if (!TC->isAlgebraic())
    return err("not expressible in L: type constructor " +
               std::string(TC->name().str()));
  for (const core::DataCon *DC : TC->dataCons())
    if (DC->univs().size() != Zonked.size())
      return err("not expressible in L: unsaturated data type " +
                 std::string(TC->name().str()));

  // Display name: the saturated type as written ("Maybe Int").
  std::string Display(TC->name().str());
  for (const core::Type *A : Zonked) {
    std::string S = A->str();
    Display += S.find(' ') == std::string::npos ? " " + S
                                                : " (" + S + ")";
  }

  // A distinct tycon may share the display name: uniquify.
  std::string Name = Display;
  for (unsigned Suffix = 2; L.lookupData(L.sym(Name)); ++Suffix)
    Name = Display + "#" + std::to_string(Suffix);

  lcalc::LDataDecl *Decl = L.declareData(L.sym(Name));
  // Register before lowering fields so recursive data types (cons
  // lists) resolve their self-references to the in-progress decl.
  DeclCache.emplace(Key, Decl);
  for (const core::DataCon *DC : TC->dataCons()) {
    std::vector<const lcalc::Type *> Fields;
    for (const core::Type *F : DC->fields()) {
      const core::Type *Inst = F;
      for (size_t U = 0; U != DC->univs().size(); ++U)
        Inst = core::substType(C, Inst, DC->univs()[U], Zonked[U]);
      Result<const lcalc::Type *> LF = lowerType(Inst);
      if (!LF) {
        DeclCache.erase(Key);
        return err(LF.error());
      }
      Fields.push_back(*LF);
    }
    if (!L.addDataCon(Decl, L.sym(DC->name().str()), Fields)) {
      DeclCache.erase(Key);
      return err("not expressible in L: constructor " +
                 std::string(DC->name().str()) +
                 " has a field without a concrete representation");
    }
  }
  return Decl;
}

//===----------------------------------------------------------------------===//
// Case lowering — the one tag-dispatch path
//===----------------------------------------------------------------------===//

Result<const lcalc::Expr *> CoreToL::lowerCase(const core::CaseExpr *Case) {
  const core::Expr *DefaultRhs = nullptr;
  std::vector<const core::Alt *> ConAlts, LitAlts;
  for (const core::Alt &A : Case->alts()) {
    switch (A.Kind) {
    case core::Alt::AltKind::Default:
      if (!DefaultRhs)
        DefaultRhs = A.Rhs;
      break;
    case core::Alt::AltKind::ConPat:
      ConAlts.push_back(&A);
      break;
    case core::Alt::AltKind::LitPat:
      LitAlts.push_back(&A);
      break;
    case core::Alt::AltKind::TuplePat:
      return err("not expressible in L: unboxed tuple pattern");
    }
  }
  if (!ConAlts.empty() && !LitAlts.empty())
    return err("not expressible in L: mixed literal and constructor "
               "case");

  Result<const lcalc::Expr *> Scrut = lowerExpr(Case->scrut());
  if (!Scrut)
    return Scrut;

  if (!ConAlts.empty()) {
    const core::TyCon *TC = ConAlts[0]->Con->parent();
    for (const core::Alt *A : ConAlts)
      if (A->Con->parent() != TC)
        return err("not expressible in L: case alternatives mix data "
                   "types");

    // Polymorphic data needs the scrutinee's instantiation to fix the
    // field types (Maybe Int vs Maybe Bool are distinct L decls).
    std::vector<const core::Type *> TyArgs;
    bool Polymorphic = false;
    for (const core::DataCon *DC : TC->dataCons())
      Polymorphic |= !DC->univs().empty();
    if (Polymorphic) {
      Result<const core::Type *> ST = scrutType(Case->scrut());
      if (!ST)
        return err(ST.error());
      std::vector<const core::Type *> Args;
      if (typeHead(*ST, Args) != TC)
        return err("not expressible in L: scrutinee type " +
                   (*ST)->str() + " does not match the case "
                   "alternatives");
      TyArgs = std::move(Args);
    }
    Result<const lcalc::LDataDecl *> D = dataDeclFor(TC, TyArgs);
    if (!D)
      return err(D.error());

    std::vector<lcalc::LAlt> Alts;
    std::vector<std::vector<Symbol>> BinderStore;
    std::vector<bool> Covered((*D)->numCons(), false);
    for (const core::Alt *A : ConAlts) {
      unsigned Tag = A->Con->tag();
      if (Tag >= (*D)->numCons() || A->Binders.size() != A->Con->arity())
        return err("not expressible in L: malformed constructor pattern "
                   "for " + std::string(A->Con->name().str()));
      Covered[Tag] = true;
      lcalc::LAlt LA;
      LA.Pat = lcalc::LAlt::PatKind::Con;
      LA.Tag = Tag;
      BinderStore.emplace_back();
      for (Symbol B : A->Binders)
        BinderStore.back().push_back(reintern(B));
      LA.Binders = std::span<const Symbol>(BinderStore.back().data(),
                                           BinderStore.back().size());
      size_t Pushed = 0;
      for (size_t I = 0; I != A->Binders.size(); ++I) {
        const core::Type *FieldTy = A->Con->fields()[I];
        for (size_t U = 0;
             U != A->Con->univs().size() && U != TyArgs.size(); ++U)
          FieldTy =
              core::substType(C, FieldTy, A->Con->univs()[U], TyArgs[U]);
        CoreScope.pushTerm(A->Binders[I], FieldTy);
        ++Pushed;
      }
      Result<const lcalc::Expr *> Rhs = lowerExpr(A->Rhs);
      CoreScope.popTerms(Pushed);
      if (!Rhs)
        return Rhs;
      LA.Rhs = *Rhs;
      Alts.push_back(LA);
    }
    const lcalc::Expr *Def = nullptr;
    if (DefaultRhs) {
      Result<const lcalc::Expr *> DefE = lowerExpr(DefaultRhs);
      if (!DefE)
        return DefE;
      Def = *DefE;
    } else {
      for (size_t Tag = 0; Tag != Covered.size(); ++Tag)
        if (!Covered[Tag])
          return err("not expressible in L: non-exhaustive constructor "
                     "case without a default alternative");
    }
    return L.caseData(*Scrut, *D, Alts, Def);
  }

  if (!LitAlts.empty()) {
    if (!DefaultRhs)
      return err("not expressible in L: literal case without a default "
                 "alternative");
    bool ScrutIsDouble =
        LitAlts[0]->Lit.tag() == core::Literal::Tag::DoubleHash;
    std::vector<lcalc::LAlt> Alts;
    for (const core::Alt *A : LitAlts) {
      core::Literal::Tag Tag = A->Lit.tag();
      if (Tag == core::Literal::Tag::String ||
          (Tag == core::Literal::Tag::DoubleHash) != ScrutIsDouble)
        return err("not expressible in L: literal case over " +
                   A->Lit.str());
      lcalc::LAlt LA;
      if (ScrutIsDouble) {
        LA.Pat = lcalc::LAlt::PatKind::Dbl;
        LA.DblVal = A->Lit.doubleValue();
      } else {
        LA.Pat = lcalc::LAlt::PatKind::Int;
        LA.IntVal = A->Lit.intValue();
      }
      Result<const lcalc::Expr *> Rhs = lowerExpr(A->Rhs);
      if (!Rhs)
        return Rhs;
      LA.Rhs = *Rhs;
      Alts.push_back(LA);
    }
    Result<const lcalc::Expr *> Def = lowerExpr(DefaultRhs);
    if (!Def)
      return Def;
    return L.caseData(*Scrut, nullptr, Alts, *Def);
  }

  // Default-only: force the scrutinee (whatever its sort — an
  // already-evaluated variable included), then take the default.
  if (!DefaultRhs)
    return err("not expressible in L: case with no alternatives");
  Result<const lcalc::Expr *> Def = lowerExpr(DefaultRhs);
  if (!Def)
    return Def;
  return L.caseData(*Scrut, nullptr, {}, *Def);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Result<const lcalc::Expr *> CoreToL::lowerExpr(const core::Expr *E) {
  if (Depth == surface::MaxCoreNestingDepth)
    return err("nesting too deep: the program nests deeper than " +
               std::to_string(surface::MaxCoreNestingDepth) + " core levels");
  ++Depth;
  Result<const lcalc::Expr *> Out = lowerNode(E);
  --Depth;
  return Out;
}

Result<const lcalc::Expr *> CoreToL::lowerNode(const core::Expr *E) {
  switch (E->tag()) {
  case core::Expr::Tag::Var: {
    Symbol Name = core::cast<core::VarExpr>(E)->name();
    if (!CoreScope.lookupTerm(Name))
      if (std::optional<uint32_t> K = global(Name))
        Used.push_back(*K); // A free variable of L: the global's cell.
    return L.var(reintern(Name));
  }

  case core::Expr::Tag::Lit: {
    const core::Literal &Lit = core::cast<core::LitExpr>(E)->lit();
    if (Lit.tag() == core::Literal::Tag::IntHash)
      return L.intLit(Lit.intValue());
    if (Lit.tag() == core::Literal::Tag::DoubleHash)
      return L.doubleLit(Lit.doubleValue());
    return err("not expressible in L: literal " + Lit.str());
  }

  case core::Expr::Tag::App: {
    const auto *A = core::cast<core::AppExpr>(E);

    // Elaboration wraps `error "msg"` as (λm:String. error @ρ @τ m) "msg".
    // L has no strings, but the redex is administrative: record the
    // message under the binder and lower the body directly, so the
    // error node keeps its diagnostic.
    if (const auto *Lam = core::dyn_cast<core::LamExpr>(A->fn())) {
      const core::Type *BinderTy = C.zonkType(Lam->varType());
      const auto *Con = core::dyn_cast<core::ConType>(BinderTy);
      if (Con && Con->tycon() == C.stringTyCon()) {
        const auto *Lit = core::dyn_cast<core::LitExpr>(A->arg());
        if (!Lit || Lit->lit().tag() != core::Literal::Tag::String)
          return err("not expressible in L: string-typed binding");
        auto Saved = StringEnv.find(Lam->var());
        std::optional<Symbol> Shadowed;
        if (Saved != StringEnv.end())
          Shadowed = Saved->second;
        StringEnv[Lam->var()] = Lit->lit().stringValue();
        CoreScope.pushTerm(Lam->var(), BinderTy);
        Result<const lcalc::Expr *> Body = lowerExpr(Lam->body());
        CoreScope.popTerm();
        if (Shadowed)
          StringEnv[Lam->var()] = *Shadowed;
        else
          StringEnv.erase(Lam->var());
        return Body;
      }
    }

    Result<const lcalc::Expr *> Fn = lowerExpr(A->fn());
    if (!Fn)
      return Fn;
    Result<const lcalc::Expr *> Arg = lowerExpr(A->arg());
    if (!Arg)
      return Arg;
    // L re-derives the evaluation order from the argument type's kind;
    // the strictness bit needs no separate translation.
    return L.app(*Fn, *Arg);
  }

  case core::Expr::Tag::TyApp: {
    const auto *A = core::cast<core::TyAppExpr>(E);
    Result<const lcalc::Expr *> Fn = lowerExpr(A->fn());
    if (!Fn)
      return Fn;
    const core::Type *Arg = C.zonkType(A->tyArg());
    // Rep-kinded type arguments are L rep applications (e ρ); all other
    // instantiations are ordinary type applications (e τ).
    if (const core::RepTy *R = core::typeAsRep(C, Arg)) {
      Result<lcalc::RuntimeRep> LR = lowerRep(R);
      if (!LR)
        return err(LR.error());
      return L.repApp(*Fn, *LR);
    }
    Result<const lcalc::Type *> Ty = lowerType(Arg);
    if (!Ty)
      return err(Ty.error());
    return L.tyApp(*Fn, *Ty);
  }

  case core::Expr::Tag::Lam: {
    const auto *Lam = core::cast<core::LamExpr>(E);
    Result<const lcalc::Type *> Ty = lowerType(Lam->varType());
    if (!Ty)
      return err(Ty.error());
    CoreScope.pushTerm(Lam->var(), Lam->varType());
    Result<const lcalc::Expr *> Body = lowerExpr(Lam->body());
    CoreScope.popTerm();
    if (!Body)
      return Body;
    return L.lam(reintern(Lam->var()), *Ty, *Body);
  }

  case core::Expr::Tag::TyLam: {
    const auto *Lam = core::cast<core::TyLamExpr>(E);
    const core::Kind *VK = C.zonkKind(Lam->varKind());
    CoreScope.pushTypeVar(Lam->var(), VK);
    Result<const lcalc::Expr *> Body = lowerExpr(Lam->body());
    CoreScope.popTypeVar();
    if (!Body)
      return Body;
    if (VK->isRep())
      return L.repLam(reintern(Lam->var()), *Body);
    Result<lcalc::LKind> K = lowerKind(VK);
    if (!K)
      return err(K.error());
    return L.tyLam(reintern(Lam->var()), *K, *Body);
  }

  case core::Expr::Tag::Let: {
    // let x:τ = rhs in body  ⟶  (λx:τ. body) rhs — E_APP's kind-directed
    // evaluation order coincides with the core strictness bit, which was
    // itself derived from τ's kind.
    const auto *Let = core::cast<core::LetExpr>(E);
    Result<const lcalc::Type *> Ty = lowerType(Let->varType());
    if (!Ty)
      return err(Ty.error());
    Result<const lcalc::Expr *> Rhs = lowerExpr(Let->rhs());
    if (!Rhs)
      return Rhs;
    CoreScope.pushTerm(Let->var(), Let->varType());
    Result<const lcalc::Expr *> Body = lowerExpr(Let->body());
    CoreScope.popTerm();
    if (!Body)
      return Body;
    return L.app(L.lam(reintern(Let->var()), *Ty, *Body), *Rhs);
  }

  case core::Expr::Tag::LetRec: {
    // A single recursive binding lowers through fix:
    //   letrec x:τ = rhs in body ⟶ (λx:τ. body) (fix x:τ. rhs).
    // Mutual recursion stays outside the fragment.
    const auto *LR = core::cast<core::LetRecExpr>(E);
    if (LR->bindings().size() != 1)
      return err("not expressible in L: mutually recursive let");
    const core::RecBinding &B = LR->bindings()[0];
    Result<const lcalc::Type *> Ty = lowerType(B.VarTy);
    if (!Ty)
      return err(Ty.error());
    CoreScope.pushTerm(B.Var, B.VarTy);
    Result<const lcalc::Expr *> Rhs = lowerExpr(B.Rhs);
    Result<const lcalc::Expr *> Body =
        Rhs ? lowerExpr(LR->body()) : Rhs;
    CoreScope.popTerm();
    if (!Rhs)
      return Rhs;
    if (!Body)
      return Body;
    Symbol X = reintern(B.Var);
    return L.app(L.lam(X, *Ty, *Body), L.fix(X, *Ty, *Rhs));
  }

  case core::Expr::Tag::Case:
    // Every case shape — constructor, literal, default-only — routes
    // through the one tag-dispatch lowering.
    return lowerCase(core::cast<core::CaseExpr>(E));

  case core::Expr::Tag::Con: {
    const auto *Con = core::cast<core::ConExpr>(E);
    const core::DataCon *DC = Con->dataCon();
    // The paper's boxed Int keeps its special I#[e] form.
    if (DC == C.iHashCon()) {
      Result<const lcalc::Expr *> Payload = lowerExpr(Con->args()[0]);
      if (!Payload)
        return Payload;
      return L.con(*Payload);
    }
    Result<const lcalc::LDataDecl *> D =
        dataDeclFor(DC->parent(), Con->tyArgs());
    if (!D)
      return err(D.error());
    std::vector<const lcalc::Expr *> Args;
    for (const core::Expr *A : Con->args()) {
      Result<const lcalc::Expr *> LA = lowerExpr(A);
      if (!LA)
        return LA;
      Args.push_back(*LA);
    }
    return L.conData(*D, DC->tag(), Args);
  }

  case core::Expr::Tag::Prim: {
    const auto *P = core::cast<core::PrimOpExpr>(E);

    // Unary negation lowers through subtraction. The double case
    // subtracts from *negative* zero: IEEE gives -0.0 - x == -x exactly
    // (including -0.0 - 0.0 == -0.0), whereas 0.0 - 0.0 == +0.0 would
    // silently diverge from the tree interpreter on signed zeros.
    if (P->op() == core::PrimOp::NegI || P->op() == core::PrimOp::NegD) {
      Result<const lcalc::Expr *> Arg = lowerExpr(P->args()[0]);
      if (!Arg)
        return Arg;
      if (P->op() == core::PrimOp::NegI)
        return L.prim(lcalc::LPrim::Sub, L.intLit(0), *Arg);
      return L.prim(lcalc::LPrim::DSub, L.doubleLit(-0.0), *Arg);
    }

    // isTrue# e lowers to a literal case producing Bool's constructors:
    //   case e of { 0 -> False ; _ -> True }.
    if (P->op() == core::PrimOp::IsTrue) {
      Result<const lcalc::Expr *> Arg = lowerExpr(P->args()[0]);
      if (!Arg)
        return Arg;
      Result<const lcalc::LDataDecl *> Bool =
          dataDeclFor(C.boolTyCon(), {});
      if (!Bool)
        return err(Bool.error());
      lcalc::LAlt Zero;
      Zero.Pat = lcalc::LAlt::PatKind::Int;
      Zero.IntVal = 0;
      Zero.Rhs = L.conData(*Bool, C.falseCon()->tag(), {});
      return L.caseData(*Arg, nullptr, {&Zero, 1},
                        L.conData(*Bool, C.trueCon()->tag(), {}));
    }

    lcalc::LPrim Op;
    switch (P->op()) {
    case core::PrimOp::AddI:
      Op = lcalc::LPrim::Add;
      break;
    case core::PrimOp::SubI:
      Op = lcalc::LPrim::Sub;
      break;
    case core::PrimOp::MulI:
      Op = lcalc::LPrim::Mul;
      break;
    case core::PrimOp::QuotI:
      Op = lcalc::LPrim::Quot;
      break;
    case core::PrimOp::RemI:
      Op = lcalc::LPrim::Rem;
      break;
    case core::PrimOp::LtI:
      Op = lcalc::LPrim::Lt;
      break;
    case core::PrimOp::LeI:
      Op = lcalc::LPrim::Le;
      break;
    case core::PrimOp::GtI:
      Op = lcalc::LPrim::Gt;
      break;
    case core::PrimOp::GeI:
      Op = lcalc::LPrim::Ge;
      break;
    case core::PrimOp::EqI:
      Op = lcalc::LPrim::Eq;
      break;
    case core::PrimOp::NeI:
      Op = lcalc::LPrim::Ne;
      break;
    case core::PrimOp::AddD:
      Op = lcalc::LPrim::DAdd;
      break;
    case core::PrimOp::SubD:
      Op = lcalc::LPrim::DSub;
      break;
    case core::PrimOp::MulD:
      Op = lcalc::LPrim::DMul;
      break;
    case core::PrimOp::DivD:
      Op = lcalc::LPrim::DDiv;
      break;
    case core::PrimOp::LtD:
      Op = lcalc::LPrim::DLt;
      break;
    case core::PrimOp::EqD:
      Op = lcalc::LPrim::DEq;
      break;
    default:
      // Int2Double / Double2Int / IsTrue have no L image yet.
      return err("not expressible in L: primop " +
                 std::string(core::primOpName(P->op())));
    }
    Result<const lcalc::Expr *> Lhs = lowerExpr(P->args()[0]);
    if (!Lhs)
      return Lhs;
    Result<const lcalc::Expr *> Rhs = lowerExpr(P->args()[1]);
    if (!Rhs)
      return Rhs;
    return L.prim(Op, *Lhs, *Rhs);
  }

  case core::Expr::Tag::UnboxedTuple:
    return err("not expressible in L: unboxed tuple expression");

  case core::Expr::Tag::Error: {
    // error @ρ @τ msg ⟶ error ρ τ I#[0]. The term-level argument is a
    // unit-like boxed zero (L has no string values), but the message
    // itself rides the error node so the machine backend can surface it
    // through MachineResult/RunResult on ⊥.
    const auto *Err = core::cast<core::ErrorExpr>(E);
    Result<lcalc::RuntimeRep> R = lowerRep(Err->atRep());
    if (!R)
      return err(R.error());
    Result<const lcalc::Type *> Ty = lowerType(Err->atType());
    if (!Ty)
      return err(Ty.error());
    Symbol Msg;
    if (const auto *Lit = core::dyn_cast<core::LitExpr>(Err->message())) {
      if (Lit->lit().tag() == core::Literal::Tag::String)
        Msg = reintern(Lit->lit().stringValue());
    } else if (const auto *Var =
                   core::dyn_cast<core::VarExpr>(Err->message())) {
      auto It = StringEnv.find(Var->name());
      if (It != StringEnv.end())
        Msg = reintern(It->second);
    }
    return L.app(
        L.tyApp(L.repApp(Msg.valid() ? L.error(Msg) : L.error(), *R), *Ty),
        L.con(L.intLit(0)));
  }
  }
  return err("unknown expression");
}

//===----------------------------------------------------------------------===//
// Globals
//===----------------------------------------------------------------------===//

std::vector<LoweredGlobal> CoreToL::lowerProgram(std::span<const Symbol> Roots,
                                                 mcalc::MContext &MC) {
  for (Symbol R : Roots)
    global(R);
  // Out[K] is global K; the queue grows as lowering meets new globals.
  std::vector<LoweredGlobal> Out;
  std::vector<std::vector<uint32_t>> Users;
  anf::Compiler ToM(L, MC);
  std::vector<anf::Compiler::FreeVar> Free;
  for (uint32_t K = 0; K != Queue.size(); ++K) {
    Used.clear();
    Result<const lcalc::Expr *> E = lowerExpr(Queue[K]->Rhs);
    for (; Out.size() != Queue.size(); Users.emplace_back()) {
      LoweredGlobal &G = Out.emplace_back();
      G.Name = std::string(Queue[Out.size() - 1]->Name.str());
      // '@' starts no M binder, so a cell variable is never shadowed.
      G.Var = {MC.symbols().intern("@" + G.Name), mcalc::VarSort::Ptr};
    }
    std::sort(Used.begin(), Used.end());
    Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
    Free.clear();
    for (uint32_t R : Used) {
      Users[R].push_back(K);
      Result<const lcalc::Type *> Ty = lowerType(Queue[R]->Ty);
      if (E && !Ty)
        E = err(Ty.error());
      if (Ty)
        Free.push_back({reintern(Queue[R]->Name), *Ty, Out[R].Var});
    }
    Out[K].Value = E ? ToM.compileOpen(Free, *E) : err(E.error());
  }

  // A global that uses a failed global fails with its diagnostic.
  std::vector<uint32_t> Failed;
  for (uint32_t K = 0; K != Out.size(); ++K)
    if (!Out[K].Value)
      Failed.push_back(K);
  while (!Failed.empty()) {
    const uint32_t F = Failed.back();
    Failed.pop_back();
    for (uint32_t U : Users[F])
      if (Out[U].Value) {
        Out[U].Value = err(Out[F].Value.error());
        Failed.push_back(U);
      }
  }
  return Out;
}

std::vector<LoweredGlobal> driver::lowerProgram(core::CoreContext &C,
                                                const core::CoreProgram &P,
                                                std::span<const Symbol> Roots,
                                                lcalc::LContext &L,
                                                mcalc::MContext &MC) {
  return CoreToL(C, L, P).lowerProgram(Roots, MC);
}
