//===- TypeCheck.cpp - Kinding and linting for core IR --------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "core/TypeCheck.h"

using namespace levity;
using namespace levity::core;

bool CoreChecker::isConcreteValueKind(const Kind *K) {
  K = C.zonkKind(K);
  if (!K->isTypeOf())
    return false;
  // Concrete = no rep variables or metas anywhere in the rep tree.
  struct {
    CoreContext &C;
    bool concrete(const RepTy *R) {
      switch (R->tag()) {
      case RepTy::Tag::Var:
      case RepTy::Tag::Meta:
        return false;
      case RepTy::Tag::Atom:
        return true;
      case RepTy::Tag::Tuple:
      case RepTy::Tag::Sum:
        for (const RepTy *E : R->elems())
          if (!concrete(E))
            return false;
        return true;
      }
      return false;
    }
  } Walk{C};
  return Walk.concrete(K->rep());
}

Result<const Kind *> CoreChecker::kindOf(CoreEnv &Env, const Type *T) {
  return kindOfZonked(Env, C.zonkType(T));
}

Result<const Kind *> CoreChecker::kindOfZonked(CoreEnv &Env, const Type *T) {
  switch (T->tag()) {
  case Type::Tag::Con:
    return cast<ConType>(T)->tycon()->kind();
  case Type::Tag::Var: {
    const auto *V = cast<VarType>(T);
    // Bound occurrences carry their kinds inline; when an environment
    // binding exists it must agree (catches ill-scoped construction).
    if (const Kind *K = Env.lookupTypeVar(V->name())) {
      if (!kindEqual(C.zonkKind(K), C.zonkKind(V->kind())))
        return err("kind mismatch for type variable " +
                   std::string(V->name().str()) + ": bound at " +
                   K->str() + ", used at " + V->kind()->str());
    }
    return V->kind();
  }
  case Type::Tag::Meta:
    return C.typeMetaCell(cast<MetaType>(T)->id()).MetaKind;
  case Type::Tag::RepLift:
    return C.repKind();
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    Result<const Kind *> FnK = kindOfZonked(Env, A->fn());
    if (!FnK)
      return FnK;
    const Kind *K = C.zonkKind(*FnK);
    if (!K->isArrow())
      return err("applying type of non-arrow kind " + K->str() + ": " +
                 A->fn()->str());
    Result<const Kind *> ArgK = kindOfZonked(Env, A->arg());
    if (!ArgK)
      return ArgK;
    if (!kindEqual(C.zonkKind(K->param()), C.zonkKind(*ArgK)))
      return err("kind mismatch in type application " + T->str() +
                 ": expected " + K->param()->str() + ", got " +
                 (*ArgK)->str());
    return K->result();
  }
  case Type::Tag::Fun: {
    // (->) :: ∀r1 r2. TYPE r1 -> TYPE r2 -> Type (Section 4.3): both
    // sides must classify values, at *any* rep; the arrow is lifted.
    const auto *F = cast<FunType>(T);
    Result<const Kind *> PK = kindOfZonked(Env, F->param());
    if (!PK)
      return PK;
    if (!C.zonkKind(*PK)->isTypeOf())
      return err("function parameter has non-value kind " + (*PK)->str() +
                 ": " + F->param()->str());
    Result<const Kind *> RK = kindOfZonked(Env, F->result());
    if (!RK)
      return RK;
    if (!C.zonkKind(*RK)->isTypeOf())
      return err("function result has non-value kind " + (*RK)->str() +
                 ": " + F->result()->str());
    return C.typeKind();
  }
  case Type::Tag::ForAll: {
    // Kind of the body (erasure), with the T_ALLREP-style escape check:
    // the bound variable must not occur in the body's kind.
    const auto *F = cast<ForAllType>(T);
    Env.pushTypeVar(F->var(), F->varKind());
    Result<const Kind *> BK = kindOfZonked(Env, F->body());
    Env.popTypeVar();
    if (!BK)
      return BK;
    const Kind *K = C.zonkKind(*BK);
    struct {
      Symbol Var;
      bool mentions(const RepTy *R) {
        switch (R->tag()) {
        case RepTy::Tag::Var:
          return R->varName() == Var;
        case RepTy::Tag::Meta:
        case RepTy::Tag::Atom:
          return false;
        case RepTy::Tag::Tuple:
        case RepTy::Tag::Sum:
          for (const RepTy *E : R->elems())
            if (mentions(E))
              return true;
          return false;
        }
        return false;
      }
      bool mentionsKind(const Kind *K) {
        switch (K->tag()) {
        case Kind::Tag::Rep:
          return false;
        case Kind::Tag::TypeOf:
          return mentions(K->rep());
        case Kind::Tag::Arrow:
          return mentionsKind(K->param()) || mentionsKind(K->result());
        }
        return false;
      }
    } Esc{F->var()};
    if (Esc.mentionsKind(K))
      return err("kind of forall body mentions the bound variable " +
                 std::string(F->var().str()) + " (cannot erase): " +
                 K->str());
    return K;
  }
  case Type::Tag::UnboxedTuple: {
    // (# τ₁, …, τₙ #) :: TYPE (TupleRep '[ρ₁, …, ρₙ]) (Section 4.2).
    const auto *U = cast<UnboxedTupleType>(T);
    std::vector<const RepTy *> Reps;
    for (const Type *E : U->elems()) {
      Result<const Kind *> EK = kindOfZonked(Env, E);
      if (!EK)
        return EK;
      const Kind *K = C.zonkKind(*EK);
      if (!K->isTypeOf())
        return err("unboxed tuple field has non-value kind " + K->str() +
                   ": " + E->str());
      Reps.push_back(K->rep());
    }
    return C.kindTYPE(C.repTuple(Reps));
  }
  }
  assert(false && "unknown type tag");
  return err("unknown type tag");
}

Result<const Type *> CoreChecker::typeOf(CoreEnv &Env, const Expr *E) {
  ++Visits;
  switch (E->tag()) {
  case Expr::Tag::Var: {
    const auto *V = cast<VarExpr>(E);
    if (const Type *T = Env.lookupTerm(V->name()))
      return C.zonkType(T);
    if (const Type *T = Env.lookupGlobal(V->name()))
      return C.zonkType(T);
    return err("variable not in scope: " + std::string(V->name().str()));
  }
  case Expr::Tag::Lit: {
    const Literal &L = cast<LitExpr>(E)->lit();
    switch (L.tag()) {
    case Literal::Tag::IntHash:
      return C.intHashTy();
    case Literal::Tag::DoubleHash:
      return C.doubleHashTy();
    case Literal::Tag::String:
      return C.stringTy();
    }
    return err("unknown literal");
  }
  case Expr::Tag::App: {
    const auto *A = cast<AppExpr>(E);
    Result<const Type *> FnTy = typeOf(Env, A->fn());
    if (!FnTy)
      return FnTy;
    const auto *F = dyn_cast<FunType>(C.zonkType(*FnTy));
    if (!F)
      return err("applying non-function of type " + (*FnTy)->str());
    size_t Mark = lintMark();
    Result<const Type *> ArgTy = typeOf(Env, A->arg());
    if (!ArgTy)
      return ArgTy;
    if (!typeEqual(C.zonkType(F->param()), C.zonkType(*ArgTy)))
      return err("argument type mismatch: expected " + F->param()->str() +
                 ", got " + (*ArgTy)->str());
    if (Violations)
      lintArgument(Env, Mark, A->arg(), *ArgTy, A);
    return F->result();
  }
  case Expr::Tag::TyApp: {
    const auto *A = cast<TyAppExpr>(E);
    Result<const Type *> FnTy = typeOf(Env, A->fn());
    if (!FnTy)
      return FnTy;
    const auto *F = dyn_cast<ForAllType>(C.zonkType(*FnTy));
    if (!F)
      return err("type-applying non-polymorphic expression of type " +
                 (*FnTy)->str());
    Result<const Kind *> AK = kindOf(Env, A->tyArg());
    if (!AK)
      return err(AK.error());
    if (!kindEqual(C.zonkKind(F->varKind()), C.zonkKind(*AK)))
      return err("kind mismatch in type application: expected " +
                 F->varKind()->str() + ", got " + (*AK)->str());
    return substType(C, F->body(), F->var(), C.zonkType(A->tyArg()));
  }
  case Expr::Tag::Lam: {
    const auto *L = cast<LamExpr>(E);
    Result<const Kind *> BK = kindOf(Env, L->varType());
    if (!BK)
      return err(BK.error());
    if (!C.zonkKind(*BK)->isTypeOf())
      return err("lambda binder has non-value kind " + (*BK)->str());
    if (Violations && !isConcreteValueKind(*BK))
      reportLevityBinder(L->var(), L->varType(), *BK);
    Env.pushTerm(L->var(), L->varType());
    Result<const Type *> BodyTy = typeOf(Env, L->body());
    Env.popTerm();
    if (!BodyTy)
      return BodyTy;
    return C.funTy(C.zonkType(L->varType()), *BodyTy);
  }
  case Expr::Tag::TyLam: {
    const auto *L = cast<TyLamExpr>(E);
    Env.pushTypeVar(L->var(), L->varKind());
    Result<const Type *> BodyTy = typeOf(Env, L->body());
    Env.popTypeVar();
    if (!BodyTy)
      return BodyTy;
    return C.forAllTy(L->var(), L->varKind(), *BodyTy);
  }
  case Expr::Tag::Let: {
    const auto *L = cast<LetExpr>(E);
    if (Violations) {
      if (const Kind *K = lintBinder(Env, L->var(), L->varType())) {
        bool Strict = !isLiftedKind(K);
        if (L->strict() != Strict)
          L->setStrict(Strict);
      }
    }
    Result<const Type *> RhsTy = typeOf(Env, L->rhs());
    if (!RhsTy)
      return RhsTy;
    if (!typeEqual(C.zonkType(L->varType()), C.zonkType(*RhsTy)))
      return err("let annotation mismatch: " + L->varType()->str() +
                 " vs " + (*RhsTy)->str());
    Env.pushTerm(L->var(), L->varType());
    Result<const Type *> BodyTy = typeOf(Env, L->body());
    Env.popTerm();
    return BodyTy;
  }
  case Expr::Tag::LetRec: {
    const auto *L = cast<LetRecExpr>(E);
    for (const RecBinding &B : L->bindings()) {
      if (Violations)
        lintBinder(Env, B.Var, B.VarTy);
      Env.pushTerm(B.Var, B.VarTy);
    }
    for (const RecBinding &B : L->bindings()) {
      Result<const Type *> RhsTy = typeOf(Env, B.Rhs);
      if (!RhsTy) {
        Env.popTerms(L->bindings().size());
        return RhsTy;
      }
      if (!typeEqual(C.zonkType(B.VarTy), C.zonkType(*RhsTy))) {
        Env.popTerms(L->bindings().size());
        return err("letrec annotation mismatch for " +
                   std::string(B.Var.str()));
      }
      // Recursive binders must be lifted (a thunk ties the knot). A
      // levity-polymorphic one is a Section 5.1 violation instead.
      CoreEnv KEnv;
      Result<const Kind *> BK = kindOf(KEnv, B.VarTy);
      if (BK && isConcreteValueKind(*BK) && !isLiftedKind(*BK)) {
        Env.popTerms(L->bindings().size());
        return err("recursive binder " + std::string(B.Var.str()) +
                   " has unlifted type " + B.VarTy->str());
      }
    }
    Result<const Type *> BodyTy = typeOf(Env, L->body());
    Env.popTerms(L->bindings().size());
    return BodyTy;
  }
  case Expr::Tag::Case: {
    const auto *Cs = cast<CaseExpr>(E);
    Result<const Type *> ScrutTy = typeOf(Env, Cs->scrut());
    if (!ScrutTy)
      return ScrutTy;
    const Type *ST = C.zonkType(*ScrutTy);
    if (Cs->alts().empty())
      return err("case with no alternatives");

    for (const Alt &A : Cs->alts()) {
      size_t Pushed = 0;
      switch (A.Kind) {
      case Alt::AltKind::ConPat: {
        // Scrutinee must be the constructor's parent applied to args.
        const Type *Head = ST;
        std::vector<const Type *> TyArgs;
        while (const auto *App = dyn_cast<AppType>(Head)) {
          TyArgs.insert(TyArgs.begin(), App->arg());
          Head = App->fn();
        }
        const auto *Con = dyn_cast<ConType>(Head);
        if (!Con || Con->tycon() != A.Con->parent())
          return err("constructor " + std::string(A.Con->name().str()) +
                     " does not match scrutinee type " + ST->str());
        if (A.Binders.size() != A.Con->arity())
          return err("constructor pattern arity mismatch for " +
                     std::string(A.Con->name().str()));
        // Instantiate field types with the scrutinee's type arguments.
        for (size_t I = 0; I != A.Binders.size(); ++I) {
          const Type *FieldTy = A.Con->fields()[I];
          for (size_t U = 0; U != A.Con->univs().size() &&
                             U != TyArgs.size();
               ++U)
            FieldTy = substType(C, FieldTy, A.Con->univs()[U], TyArgs[U]);
          if (Violations)
            lintBinder(Env, A.Binders[I], FieldTy);
          Env.pushTerm(A.Binders[I], FieldTy);
          ++Pushed;
        }
        break;
      }
      case Alt::AltKind::LitPat:
        break;
      case Alt::AltKind::TuplePat: {
        const auto *UT = dyn_cast<UnboxedTupleType>(ST);
        if (!UT)
          return err("unboxed tuple pattern against type " + ST->str());
        if (A.Binders.size() != UT->elems().size())
          return err("unboxed tuple pattern arity mismatch");
        for (size_t I = 0; I != A.Binders.size(); ++I) {
          if (Violations)
            lintBinder(Env, A.Binders[I], UT->elems()[I]);
          Env.pushTerm(A.Binders[I], UT->elems()[I]);
          ++Pushed;
        }
        break;
      }
      case Alt::AltKind::Default:
        break;
      }
      Result<const Type *> RhsTy = typeOf(Env, A.Rhs);
      Env.popTerms(Pushed);
      if (!RhsTy)
        return RhsTy;
      if (!typeEqual(C.zonkType(Cs->resultType()), C.zonkType(*RhsTy)))
        return err("case alternative type mismatch: annotated " +
                   Cs->resultType()->str() + ", alt has " +
                   (*RhsTy)->str());
    }
    return Cs->resultType();
  }
  case Expr::Tag::Con: {
    const auto *Con = cast<ConExpr>(E);
    const DataCon *DC = Con->dataCon();
    if (Con->tyArgs().size() != DC->univs().size())
      return err("constructor type-argument arity mismatch for " +
                 std::string(DC->name().str()));
    if (Con->args().size() != DC->arity())
      return err("constructor argument arity mismatch for " +
                 std::string(DC->name().str()));
    for (size_t I = 0; I != Con->args().size(); ++I) {
      const Type *FieldTy = DC->fields()[I];
      for (size_t U = 0; U != DC->univs().size(); ++U)
        FieldTy = substType(C, FieldTy, DC->univs()[U], Con->tyArgs()[U]);
      size_t Mark = lintMark();
      Result<const Type *> ArgTy = typeOf(Env, Con->args()[I]);
      if (!ArgTy)
        return ArgTy;
      if (!typeEqual(C.zonkType(FieldTy), C.zonkType(*ArgTy)))
        return err("constructor field type mismatch in " +
                   std::string(DC->name().str()) + ": expected " +
                   FieldTy->str() + ", got " + (*ArgTy)->str());
      if (Violations)
        lintArgument(Env, Mark, Con->args()[I], *ArgTy);
    }
    const Type *T = C.conTy(const_cast<TyCon *>(DC->parent()));
    return C.appTys(T, Con->tyArgs());
  }
  case Expr::Tag::Prim: {
    const auto *P = cast<PrimOpExpr>(E);
    const Type *OpTy = C.primOpType(P->op());
    if (P->args().size() != primOpArity(P->op()))
      return err("primop arity mismatch for " +
                 std::string(primOpName(P->op())));
    for (const Expr *A : P->args()) {
      const auto *F = cast<FunType>(OpTy);
      size_t Mark = lintMark();
      Result<const Type *> ArgTy = typeOf(Env, A);
      if (!ArgTy)
        return ArgTy;
      if (!typeEqual(C.zonkType(F->param()), C.zonkType(*ArgTy)))
        return err("primop argument type mismatch for " +
                   std::string(primOpName(P->op())) + ": expected " +
                   F->param()->str() + ", got " + (*ArgTy)->str());
      if (Violations)
        lintArgument(Env, Mark, A, *ArgTy);
      OpTy = F->result();
    }
    return OpTy;
  }
  case Expr::Tag::UnboxedTuple: {
    const auto *U = cast<UnboxedTupleExpr>(E);
    std::vector<const Type *> Elems;
    for (const Expr *El : U->elems()) {
      size_t Mark = lintMark();
      Result<const Type *> T = typeOf(Env, El);
      if (!T)
        return T;
      if (Violations)
        lintArgument(Env, Mark, El, *T);
      Elems.push_back(C.zonkType(*T));
    }
    return C.unboxedTupleTy(Elems);
  }
  case Expr::Tag::Error: {
    const auto *Err = cast<ErrorExpr>(E);
    Result<const Type *> MsgTy = typeOf(Env, Err->message());
    if (!MsgTy)
      return MsgTy;
    if (!typeEqual(C.zonkType(*MsgTy), C.stringTy()))
      return err("error message must be a String, got " + (*MsgTy)->str());
    // The node must be instantiated consistently: atType :: TYPE atRep.
    Result<const Kind *> AK = kindOf(Env, Err->atType());
    if (!AK)
      return err(AK.error());
    const Kind *K = C.zonkKind(*AK);
    if (!K->isTypeOf() || !repEqual(C.zonkRep(K->rep()),
                                    C.zonkRep(Err->atRep())))
      return err("error instantiation mismatch: type " +
                 Err->atType()->str() + " :: " + K->str() +
                 " but rep argument is " + Err->atRep()->str());
    return Err->atType();
  }
  }
  assert(false && "unknown expr tag");
  return err("unknown expr tag");
}

//===----------------------------------------------------------------------===//
// Linting a top-level binding
//===----------------------------------------------------------------------===//

bool CoreChecker::isLiftedKind(const Kind *K) {
  const RepTy *R = C.zonkRep(C.zonkKind(K)->rep());
  return R->tag() == RepTy::Tag::Atom && R->atom() == RepCtor::Lifted;
}

const Kind *CoreChecker::lintBinder(CoreEnv &Env, Symbol Var,
                                    const Type *VarTy) {
  Result<const Kind *> K = kindOf(Env, VarTy);
  if (!K) {
    Violations->push_back({Severity::Error, DiagCode::Internal, {},
                           "cannot kind binder type: " + K.error()});
    return nullptr;
  }
  if (isConcreteValueKind(*K))
    return *K;
  reportLevityBinder(Var, VarTy, *K);
  return nullptr;
}

void CoreChecker::reportLevityBinder(Symbol Var, const Type *VarTy,
                                     const Kind *K) {
  Violations->push_back(
      {Severity::Error, DiagCode::LevityPolymorphicBinder, {},
       "levity-polymorphic binder: " + std::string(Var.str()) + " :: " +
           C.zonkType(VarTy)->str() + " has kind " + C.zonkKind(K)->str() +
           ", which does not determine a representation"});
}

void CoreChecker::lintArgument(CoreEnv &Env, size_t Mark, const Expr *Arg,
                               const Type *ArgTy, const AppExpr *App) {
  auto At = Violations->begin() + std::ptrdiff_t(Mark);
  Result<const Kind *> K = kindOf(Env, ArgTy);
  if (!K) {
    Violations->insert(At, {Severity::Error, DiagCode::Internal, {},
                            "cannot kind argument type: " + K.error()});
    return;
  }
  if (!isConcreteValueKind(*K)) {
    Violations->insert(
        At, {Severity::Error, DiagCode::LevityPolymorphicArgument, {},
             "levity-polymorphic function argument: " + Arg->str() +
                 " :: " + C.zonkType(ArgTy)->str() + " has kind " +
                 C.zonkKind(*K)->str() +
                 ", which does not determine a calling convention"});
    return;
  }
  bool Strict = !isLiftedKind(*K);
  if (App && App->strictArg() != Strict)
    App->setStrictArg(Strict);
}

bool CoreChecker::lint(CoreEnv &Env, const TopBinding &B,
                       DiagnosticEngine &Diags) {
  std::vector<Diagnostic> Found;
  Violations = &Found;
  Result<const Type *> T = typeOf(Env, B.Rhs);
  Violations = nullptr;
  for (Diagnostic &D : Found)
    Diags.error(D.Code, std::move(D.Message));
  if (!T) {
    Diags.error(DiagCode::Internal, "core lint failed for '" +
                                        std::string(B.Name.str()) +
                                        "': " + T.error());
    return false;
  }
  if (typeEqual(C.zonkType(*T), C.zonkType(B.Ty)))
    return Found.empty();
  Diags.error(DiagCode::Internal,
              "core lint type mismatch for '" + std::string(B.Name.str()) +
                  "': " + C.zonkType(*T)->str() + " vs " +
                  C.zonkType(B.Ty)->str());
  return false;
}
