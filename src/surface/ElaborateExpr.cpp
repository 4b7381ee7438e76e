//===- ElaborateExpr.cpp - Expression elaboration and driver --------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "surface/Elaborate.h"

using namespace levity;
using namespace levity::surface;
using namespace levity::core;

//===----------------------------------------------------------------------===//
// Variable and operator resolution
//===----------------------------------------------------------------------===//

namespace {

/// Primops reachable from surface syntax, by name.
const std::pair<const char *, PrimOp> PrimOpTable[] = {
    {"+#", PrimOp::AddI},        {"-#", PrimOp::SubI},
    {"*#", PrimOp::MulI},        {"quotInt#", PrimOp::QuotI},
    {"remInt#", PrimOp::RemI},   {"negateInt#", PrimOp::NegI},
    {"<#", PrimOp::LtI},         {"<=#", PrimOp::LeI},
    {">#", PrimOp::GtI},         {">=#", PrimOp::GeI},
    {"==#", PrimOp::EqI},        {"/=#", PrimOp::NeI},
    {"+##", PrimOp::AddD},       {"-##", PrimOp::SubD},
    {"*##", PrimOp::MulD},       {"/##", PrimOp::DivD},
    {"negateDouble#", PrimOp::NegD}, {"<##", PrimOp::LtD},
    {"==##", PrimOp::EqD},       {"int2Double#", PrimOp::Int2Double},
    {"double2Int#", PrimOp::Double2Int}, {"isTrue#", PrimOp::IsTrue},
};

bool lookupPrimOp(const std::string &Name, PrimOp &Out) {
  for (const auto &[N, Op] : PrimOpTable)
    if (Name == N) {
      Out = Op;
      return true;
    }
  return false;
}

/// Builtin boxed operators, mapped to prelude globals.
const std::pair<const char *, const char *> BuiltinOpTable[] = {
    {"+", "plusInt"},  {"-", "minusInt"}, {"*", "timesInt"},
    {"==", "eqInt"},   {"/=", "neInt"},   {"<", "ltInt"},
    {"<=", "leInt"},   {">", "gtInt"},    {">=", "geInt"},
    {"$", "$"},        {".", "."},
};

const char *lookupBuiltinOp(const std::string &Name) {
  for (const auto &[N, G] : BuiltinOpTable)
    if (Name == N)
      return G;
  return nullptr;
}

} // namespace

Elaborator::Typed Elaborator::instantiate(const core::Expr *E,
                                          const Type *Ty) {
  Ty = C.zonkType(Ty);
  while (const auto *F = dyn_cast<ForAllType>(Ty)) {
    const Type *Arg;
    if (C.zonkKind(F->varKind())->isRep())
      Arg = C.repLiftTy(C.freshRepMeta());
    else
      Arg = C.freshTypeMeta(C.zonkKind(F->varKind()));
    E = C.tyApp(E, Arg);
    Ty = C.zonkType(substType(C, F->body(), F->var(), Arg));
  }
  return {E, Ty};
}

Elaborator::Typed Elaborator::instantiateGlobal(Symbol Name,
                                                SourceLoc Loc) {
  const GlobalInfo &Info = Globals[Name];
  const core::Expr *E = C.var(Name);
  const Type *Ty = C.zonkType(Info.Ty);

  // Peel foralls, remembering the binder instantiation.
  std::vector<std::pair<Symbol, const Type *>> Subst;
  while (const auto *F = dyn_cast<ForAllType>(Ty)) {
    const Type *Arg;
    if (C.zonkKind(F->varKind())->isRep())
      Arg = C.repLiftTy(C.freshRepMeta());
    else
      Arg = C.freshTypeMeta(C.zonkKind(F->varKind()));
    E = C.tyApp(E, Arg);
    Subst.push_back({F->var(), Arg});
    Ty = C.zonkType(substType(C, F->body(), F->var(), Arg));
  }

  // Emit wanted constraints and consume the leading dictionary-method
  // arrows, applying placeholder variables.
  for (const auto &[Cls, ConArg] : Info.Constraints) {
    const Type *At = ConArg;
    for (const auto &[Var, Arg] : Subst)
      At = substType(C, At, Var, Arg);
    for (const ClassInfo::Method &M : Cls->Methods) {
      const auto *F = dyn_cast<FunType>(C.zonkType(Ty));
      if (!F) {
        errorAt(Loc, DiagCode::Internal,
                "constraint arity mismatch instantiating '" +
                    std::string(Name.str()) + "'");
        return {};
      }
      Symbol Placeholder = C.symbols().fresh(
          "$w" + std::string(M.Name.str()));
      Wanteds.push_back({Cls, At, Placeholder, F->param(), M.Name, Loc});
      E = C.app(E, C.var(Placeholder), /*Strict=*/false);
      Ty = F->result();
    }
  }
  return {E, Ty};
}

Elaborator::Typed Elaborator::methodUse(const ClassInfo &Cls, int MethodIdx,
                                        SourceLoc Loc) {
  // Instantiate the class: fresh rep metas for class-level rep vars and
  // a fresh type meta for the class variable at the instantiated kind.
  const Kind *VarKind = Cls.VarKind;
  for (Symbol R : Cls.RepVars) {
    const RepTy *Nu = C.freshRepMeta();
    const Type *Lift = C.repLiftTy(Nu);
    // Substitute into the kind via a throwaway var type.
    const Type *Probe = C.varTy(Cls.Var, VarKind);
    Probe = substType(C, Probe, R, Lift);
    VarKind = cast<VarType>(Probe)->kind();
  }
  const Type *Alpha = C.freshTypeMeta(VarKind);
  const Type *MethodTy = methodTypeAt(Cls, MethodIdx, Alpha);
  if (!MethodTy)
    return {};
  Symbol Placeholder = C.symbols().fresh(
      "$w" + std::string(Cls.Methods[MethodIdx].Name.str()));
  Wanteds.push_back({&Cls, Alpha, Placeholder, MethodTy,
                     Cls.Methods[MethodIdx].Name, Loc});
  return {C.var(Placeholder), MethodTy};
}

Elaborator::Typed Elaborator::inferVar(const std::string &Name,
                                       SourceLoc Loc) {
  Symbol S = C.sym(Name);
  // Locals shadow everything.
  for (auto It = Locals.rbegin(); It != Locals.rend(); ++It)
    if (It->SurfaceName == S)
      return {C.var(It->CoreName), It->Ty};

  // `error` is special: a levity-polymorphic builtin (Section 4.3).
  if (Name == "error") {
    const RepTy *Nu = C.freshRepMeta();
    const Type *Alpha = C.freshTypeMeta(C.kindTYPE(Nu));
    Symbol Msg = C.symbols().fresh("msg");
    const core::Expr *E =
        C.lam(Msg, C.stringTy(), C.errorExpr(Alpha, Nu, C.var(Msg)));
    return {E, C.funTy(C.stringTy(), Alpha)};
  }

  // Class methods.
  auto MIt = MethodIndex.find(S);
  if (MIt != MethodIndex.end())
    return methodUse(Classes[MIt->second.first], MIt->second.second, Loc);

  // Globals (builtins, instance methods, user bindings).
  if (Globals.count(S))
    return instantiateGlobal(S, Loc);

  // Operator spelled as a variable: resolve builtins ((+), ($), (.)).
  PrimOp Op;
  if (lookupPrimOp(Name, Op)) {
    // η-expand the primop into a function value.
    const Type *Ty = C.primOpType(Op);
    std::vector<Symbol> Params;
    std::vector<const Type *> ParamTys;
    const Type *Walk = Ty;
    for (unsigned I = 0; I != primOpArity(Op); ++I) {
      const auto *F = cast<FunType>(Walk);
      Symbol P = C.symbols().fresh("p");
      Params.push_back(P);
      ParamTys.push_back(F->param());
      Walk = F->result();
    }
    std::vector<const core::Expr *> Args;
    for (Symbol P : Params)
      Args.push_back(C.var(P));
    const core::Expr *Body = C.primOp(Op, Args);
    for (size_t I = Params.size(); I != 0; --I)
      Body = C.lam(Params[I - 1], ParamTys[I - 1], Body);
    return {Body, Ty};
  }
  if (const char *Builtin = lookupBuiltinOp(Name)) {
    Symbol BS = C.sym(Builtin);
    if (Globals.count(BS))
      return instantiateGlobal(BS, Loc);
  }

  errorAt(Loc, DiagCode::ScopeError,
          "variable '" + Name + "' is not in scope");
  return {};
}

//===----------------------------------------------------------------------===//
// Application
//===----------------------------------------------------------------------===//

Elaborator::Typed Elaborator::applyOne(Typed Fn, const SExpr &Arg,
                                       SourceLoc Loc) {
  if (!Fn)
    return {};
  const Type *FnTy = C.zonkType(Fn.Ty);
  const FunType *F = dyn_cast<FunType>(FnTy);
  if (!F) {
    // Maybe a metavariable: refine to an arrow of fresh metas.
    if (isa<MetaType>(FnTy)) {
      const Type *P = Unify.freshOpenMeta();
      const Type *R = Unify.freshOpenMeta();
      if (!Unify.unify(FnTy, C.funTy(P, R)))
        return {};
      F = cast<FunType>(C.zonkType(FnTy));
    } else {
      errorAt(Loc, DiagCode::TypeError,
              "applying a non-function of type " + FnTy->str());
      return {};
    }
  }
  Typed A = checkExpr(Arg, F->param());
  if (!A)
    return {};
  // Provisional strictness: Core Lint sets it once metas solve.
  bool Strict = false;
  const Kind *PK = C.zonkKind(kindOfUnify(F->param()));
  if (PK->isTypeOf()) {
    const RepTy *R = C.zonkRep(PK->rep());
    if (R->tag() == RepTy::Tag::Atom)
      Strict = R->atom() != RepCtor::Lifted;
    else if (R->tag() == RepTy::Tag::Tuple || R->tag() == RepTy::Tag::Sum)
      Strict = true;
  }
  return {C.app(Fn.E, A.E, Strict), F->result()};
}

//===----------------------------------------------------------------------===//
// Case expressions
//===----------------------------------------------------------------------===//

Elaborator::Typed Elaborator::elabCase(const SExpr &E) {
  Typed Scrut = inferExpr(*E.Scrut);
  if (!Scrut)
    return {};
  const Type *ResTy = Unify.freshOpenMeta();

  bool NeedsPrebind = false;
  bool HasBoxedIntLit = false;
  for (const SAlt &A : E.Alts) {
    if (A.Pat.T == SPattern::Tag::Var)
      NeedsPrebind = true;
    if (A.Pat.T == SPattern::Tag::IntLit)
      HasBoxedIntLit = true;
  }

  Symbol ScrutVar = C.symbols().fresh("scrut");
  const core::Expr *ScrutRef =
      NeedsPrebind || HasBoxedIntLit ? C.var(ScrutVar) : Scrut.E;

  std::vector<Alt> Alts;
  std::vector<Alt> InnerLits; // for boxed-Int literal desugaring
  const Alt *DefaultAlt = nullptr;
  std::vector<Alt> Storage;
  Storage.reserve(E.Alts.size() + 2);

  Symbol Unpacked = C.symbols().fresh("n");
  if (HasBoxedIntLit) {
    // Desugar: case s of I# n -> case n of { lits ; _ -> fallthrough }.
    if (!Unify.unify(Scrut.Ty, C.intTy()))
      return {};
  }

  for (const SAlt &A : E.Alts) {
    Alt Out;
    Out.Rhs = nullptr;
    switch (A.Pat.T) {
    case SPattern::Tag::Con: {
      const DataCon *DC = C.lookupDataCon(C.sym(A.Pat.Name));
      if (!DC) {
        errorAt(A.Pat.Loc, DiagCode::ScopeError,
                "data constructor '" + A.Pat.Name + "' is not in scope");
        return {};
      }
      // Unify scrutinee with the parent applied to fresh metas.
      std::vector<const Type *> TyArgs;
      const Type *Applied = C.conTy(const_cast<TyCon *>(DC->parent()));
      for (size_t U = 0; U != DC->univs().size(); ++U) {
        const Type *M = C.freshTypeMeta(DC->univKinds()[U]);
        TyArgs.push_back(M);
        Applied = C.appTy(Applied, M);
      }
      if (!Unify.unify(Scrut.Ty, Applied))
        return {};
      if (A.Pat.Args.size() != DC->arity()) {
        errorAt(A.Pat.Loc, DiagCode::ArityError,
                "constructor pattern arity mismatch for '" + A.Pat.Name +
                    "'");
        return {};
      }
      std::vector<Symbol> Binders;
      size_t LocalMark = Locals.size();
      for (size_t I = 0; I != A.Pat.Args.size(); ++I) {
        const Type *FieldTy = DC->fields()[I];
        for (size_t U = 0; U != DC->univs().size(); ++U)
          FieldTy = substType(C, FieldTy, DC->univs()[U], TyArgs[U]);
        Symbol B = C.symbols().fresh(
            A.Pat.Args[I] == "_" ? "wild" : A.Pat.Args[I]);
        Binders.push_back(B);
        if (A.Pat.Args[I] != "_")
          Locals.push_back({C.sym(A.Pat.Args[I]), B, FieldTy});
      }
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      Locals.resize(LocalMark);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::ConPat;
      Out.Con = DC;
      Out.Binders = C.arena().copyArray(Binders);
      Out.Rhs = Rhs.E;
      Alts.push_back(Out);
      break;
    }
    case SPattern::Tag::IntHashLit: {
      if (!Unify.unify(Scrut.Ty, C.intHashTy()))
        return {};
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::LitPat;
      Out.Lit = Literal::intHash(A.Pat.IntValue);
      Out.Rhs = Rhs.E;
      Alts.push_back(Out);
      break;
    }
    case SPattern::Tag::DoubleHashLit: {
      if (!Unify.unify(Scrut.Ty, C.doubleHashTy()))
        return {};
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::LitPat;
      Out.Lit = Literal::doubleHash(A.Pat.DoubleValue);
      Out.Rhs = Rhs.E;
      Alts.push_back(Out);
      break;
    }
    case SPattern::Tag::IntLit: {
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::LitPat;
      Out.Lit = Literal::intHash(A.Pat.IntValue);
      Out.Rhs = Rhs.E;
      InnerLits.push_back(Out);
      break;
    }
    case SPattern::Tag::UnboxedTuple: {
      std::vector<const Type *> ElemTys;
      for (size_t I = 0; I != A.Pat.Args.size(); ++I)
        ElemTys.push_back(Unify.freshOpenMeta());
      if (!Unify.unify(Scrut.Ty, C.unboxedTupleTy(ElemTys)))
        return {};
      std::vector<Symbol> Binders;
      size_t LocalMark = Locals.size();
      for (size_t I = 0; I != A.Pat.Args.size(); ++I) {
        Symbol B = C.symbols().fresh(
            A.Pat.Args[I] == "_" ? "wild" : A.Pat.Args[I]);
        Binders.push_back(B);
        if (A.Pat.Args[I] != "_")
          Locals.push_back({C.sym(A.Pat.Args[I]), B, ElemTys[I]});
      }
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      Locals.resize(LocalMark);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::TuplePat;
      Out.Binders = C.arena().copyArray(Binders);
      Out.Rhs = Rhs.E;
      Alts.push_back(Out);
      break;
    }
    case SPattern::Tag::Var: {
      size_t LocalMark = Locals.size();
      Locals.push_back({C.sym(A.Pat.Name), ScrutVar, Scrut.Ty});
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      Locals.resize(LocalMark);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::Default;
      Out.Rhs = Rhs.E;
      Alts.push_back(Out);
      break;
    }
    case SPattern::Tag::Wild: {
      Typed Rhs = checkExpr(*A.Rhs, ResTy);
      if (!Rhs)
        return {};
      Out.Kind = Alt::AltKind::Default;
      Out.Rhs = Rhs.E;
      Alts.push_back(Out);
      break;
    }
    }
    (void)DefaultAlt;
  }

  const core::Expr *CaseE;
  if (HasBoxedIntLit) {
    // case s of I# n -> case n of { lits; default-alts lowered }.
    // Remaining alts become the inner default.
    const core::Expr *InnerDefault = nullptr;
    for (const Alt &A : Alts)
      if (A.Kind == Alt::AltKind::Default)
        InnerDefault = A.Rhs;
    if (!InnerDefault) {
      errorAt(E.Loc, DiagCode::TypeError,
              "integer-literal patterns need a default alternative");
      return {};
    }
    std::vector<Alt> Inner = InnerLits;
    Alt Def;
    Def.Kind = Alt::AltKind::Default;
    Def.Rhs = InnerDefault;
    Inner.push_back(Def);
    const core::Expr *InnerCase =
        C.caseOf(C.var(Unpacked), ResTy, Inner);
    Alt Unbox;
    Unbox.Kind = Alt::AltKind::ConPat;
    Unbox.Con = C.iHashCon();
    Unbox.Binders = C.arena().copyArray({Unpacked});
    Unbox.Rhs = InnerCase;
    CaseE = C.caseOf(ScrutRef, ResTy, {&Unbox, 1});
  } else {
    if (Alts.empty()) {
      errorAt(E.Loc, DiagCode::TypeError, "case with no alternatives");
      return {};
    }
    CaseE = C.caseOf(ScrutRef, ResTy, Alts);
  }

  if (NeedsPrebind || HasBoxedIntLit)
    CaseE = C.let(ScrutVar, Scrut.Ty, Scrut.E, CaseE, /*Strict=*/false);
  return {CaseE, ResTy};
}

//===----------------------------------------------------------------------===//
// Main expression inference
//===----------------------------------------------------------------------===//

Elaborator::Typed Elaborator::checkExpr(const SExpr &E,
                                        const Type *Expected) {
  Typed T = inferExpr(E);
  if (!T)
    return {};
  if (!Unify.unify(T.Ty, Expected))
    return {};
  return {T.E, C.zonkType(Expected)};
}

Elaborator::Typed Elaborator::inferExpr(const SExpr &E) {
  switch (E.T) {
  case SExpr::Tag::Var:
    return inferVar(E.Name, E.Loc);
  case SExpr::Tag::Con: {
    const DataCon *DC = C.lookupDataCon(C.sym(E.Name));
    if (!DC) {
      errorAt(E.Loc, DiagCode::ScopeError,
              "data constructor '" + E.Name + "' is not in scope");
      return {};
    }
    // Instantiate universals with metas; saturate by η-expansion.
    std::vector<const Type *> TyArgs;
    const Type *ResultTy = C.conTy(const_cast<TyCon *>(DC->parent()));
    for (size_t U = 0; U != DC->univs().size(); ++U) {
      const Type *M = C.freshTypeMeta(DC->univKinds()[U]);
      TyArgs.push_back(M);
      ResultTy = C.appTy(ResultTy, M);
    }
    std::vector<const Type *> FieldTys;
    for (const Type *F : DC->fields()) {
      const Type *FT = F;
      for (size_t U = 0; U != DC->univs().size(); ++U)
        FT = substType(C, FT, DC->univs()[U], TyArgs[U]);
      FieldTys.push_back(FT);
    }
    std::vector<Symbol> Params;
    std::vector<const core::Expr *> Args;
    for (const Type *FT : FieldTys) {
      Symbol P = C.symbols().fresh("fld");
      (void)FT;
      Params.push_back(P);
      Args.push_back(C.var(P));
    }
    const core::Expr *Body = C.conApp(DC, TyArgs, Args);
    const Type *Ty = ResultTy;
    for (size_t I = Params.size(); I != 0; --I) {
      Body = C.lam(Params[I - 1], FieldTys[I - 1], Body);
      Ty = C.funTy(FieldTys[I - 1], Ty);
    }
    return {Body, Ty};
  }
  case SExpr::Tag::IntLit: {
    const core::Expr *L = C.litInt(E.IntValue);
    return {C.conApp(C.iHashCon(), {}, {&L, 1}), C.intTy()};
  }
  case SExpr::Tag::IntHashLit:
    return {C.litInt(E.IntValue), C.intHashTy()};
  case SExpr::Tag::DoubleLit: {
    const core::Expr *L = C.litDouble(E.DoubleValue);
    return {C.conApp(C.dHashCon(), {}, {&L, 1}), C.doubleTy()};
  }
  case SExpr::Tag::DoubleHashLit:
    return {C.litDouble(E.DoubleValue), C.doubleHashTy()};
  case SExpr::Tag::StringLit:
    return {C.litString(C.sym(E.StringValue)), C.stringTy()};

  case SExpr::Tag::App: {
    Typed Fn = inferExpr(*E.Fn);
    return applyOne(Fn, *E.Arg, E.Loc);
  }

  case SExpr::Tag::BinOp: {
    // Primop?
    PrimOp Op;
    if (lookupPrimOp(E.Name, Op)) {
      const Type *OpTy = C.primOpType(Op);
      const auto *F1 = cast<FunType>(OpTy);
      const auto *F2 = cast<FunType>(F1->result());
      Typed L = checkExpr(*E.Fn, F1->param());
      Typed R = checkExpr(*E.Arg, F2->param());
      if (!L || !R)
        return {};
      return {C.primOp(Op, {L.E, R.E}), F2->result()};
    }
    // Class method?
    auto MIt = MethodIndex.find(C.sym(E.Name));
    Typed Head;
    if (MIt != MethodIndex.end()) {
      Head = methodUse(Classes[MIt->second.first], MIt->second.second,
                       E.Loc);
    } else if (const char *Builtin = lookupBuiltinOp(E.Name)) {
      Symbol BS = C.sym(Builtin);
      if (!Globals.count(BS)) {
        errorAt(E.Loc, DiagCode::Internal,
                "builtin '" + std::string(Builtin) + "' missing");
        return {};
      }
      Head = instantiateGlobal(BS, E.Loc);
    } else {
      errorAt(E.Loc, DiagCode::ScopeError,
              "operator '" + E.Name + "' is not defined");
      return {};
    }
    Typed WithL = applyOne(Head, *E.Fn, E.Loc);
    return applyOne(WithL, *E.Arg, E.Loc);
  }

  case SExpr::Tag::Lam: {
    size_t LocalMark = Locals.size();
    std::vector<std::pair<Symbol, const Type *>> Params;
    for (const SBinder &B : E.Binders) {
      const Type *Ty =
          B.Ann ? convertType(*B.Ann) : Unify.freshOpenMeta();
      if (!Ty) {
        Locals.resize(LocalMark);
        return {};
      }
      Symbol CoreName =
          C.symbols().fresh(B.Name == "_" ? "wild" : B.Name);
      if (B.Name != "_")
        Locals.push_back({C.sym(B.Name), CoreName, Ty});
      Params.push_back({CoreName, Ty});
    }
    Typed Body = inferExpr(*E.Body);
    Locals.resize(LocalMark);
    if (!Body)
      return {};
    const core::Expr *Out = Body.E;
    const Type *Ty = Body.Ty;
    for (size_t I = Params.size(); I != 0; --I) {
      Out = C.lam(Params[I - 1].first, Params[I - 1].second, Out);
      Ty = C.funTy(Params[I - 1].second, Ty);
    }
    return {Out, Ty};
  }

  case SExpr::Tag::Let: {
    // Local bindings, possibly recursive (functions). Monomorphic.
    size_t LocalMark = Locals.size();
    std::vector<std::pair<Symbol, const Type *>> Assigned;
    for (const SLocalBind &B : E.Binds) {
      const Type *Ty = Unify.freshOpenMeta();
      Symbol CoreName = C.symbols().fresh(B.Name);
      Locals.push_back({C.sym(B.Name), CoreName, Ty});
      Assigned.push_back({CoreName, Ty});
    }
    std::vector<const core::Expr *> Rhss;
    for (size_t I = 0; I != E.Binds.size(); ++I) {
      const SLocalBind &B = E.Binds[I];
      size_t InnerMark = Locals.size();
      std::vector<std::pair<Symbol, const Type *>> Params;
      for (const SBinder &P : B.Params) {
        const Type *PTy =
            P.Ann ? convertType(*P.Ann) : Unify.freshOpenMeta();
        if (!PTy)
          return {};
        Symbol CoreName =
            C.symbols().fresh(P.Name == "_" ? "wild" : P.Name);
        if (P.Name != "_")
          Locals.push_back({C.sym(P.Name), CoreName, PTy});
        Params.push_back({CoreName, PTy});
      }
      Typed Rhs = inferExpr(*B.Rhs);
      Locals.resize(InnerMark);
      if (!Rhs)
        return {};
      const core::Expr *RhsE = Rhs.E;
      const Type *RhsTy = Rhs.Ty;
      for (size_t P = Params.size(); P != 0; --P) {
        RhsE = C.lam(Params[P - 1].first, Params[P - 1].second, RhsE);
        RhsTy = C.funTy(Params[P - 1].second, RhsTy);
      }
      if (!Unify.unify(Assigned[I].second, RhsTy))
        return {};
      Rhss.push_back(RhsE);
    }
    Typed Body = inferExpr(*E.Body);
    Locals.resize(LocalMark);
    if (!Body)
      return {};
    // One binding: plain let (strictness fixed later); several or
    // self-referencing functions: letrec.
    if (E.Binds.size() == 1) {
      // Conservatively use letrec only when the rhs mentions the binder.
      // (A cheap textual check on the surface tree would be fragile;
      // instead always use letrec for parameterized bindings, which are
      // functions and therefore lifted.)
      if (!E.Binds[0].Params.empty()) {
        RecBinding RB{Assigned[0].first, Assigned[0].second, Rhss[0]};
        return {C.letRec({&RB, 1}, Body.E), Body.Ty};
      }
      return {C.let(Assigned[0].first, Assigned[0].second, Rhss[0],
                    Body.E, /*Strict=*/false),
              Body.Ty};
    }
    std::vector<RecBinding> RBs;
    for (size_t I = 0; I != Rhss.size(); ++I)
      RBs.push_back({Assigned[I].first, Assigned[I].second, Rhss[I]});
    return {C.letRec(RBs, Body.E), Body.Ty};
  }

  case SExpr::Tag::If: {
    Typed Cond = checkExpr(*E.Cond, C.boolTy());
    if (!Cond)
      return {};
    const Type *ResTy = Unify.freshOpenMeta();
    Typed Then = checkExpr(*E.Then, ResTy);
    Typed Else = checkExpr(*E.Else, ResTy);
    if (!Then || !Else)
      return {};
    Alt T, F;
    T.Kind = Alt::AltKind::ConPat;
    T.Con = C.trueCon();
    T.Rhs = Then.E;
    F.Kind = Alt::AltKind::ConPat;
    F.Con = C.falseCon();
    F.Rhs = Else.E;
    Alt Alts[2] = {T, F};
    return {C.caseOf(Cond.E, ResTy, Alts), ResTy};
  }

  case SExpr::Tag::Case:
    return elabCase(E);

  case SExpr::Tag::UnboxedTuple: {
    std::vector<const core::Expr *> Elems;
    std::vector<const Type *> Tys;
    for (const SExprPtr &El : E.Elems) {
      Typed T = inferExpr(*El);
      if (!T)
        return {};
      Elems.push_back(T.E);
      Tys.push_back(T.Ty);
    }
    return {C.unboxedTuple(Elems), C.unboxedTupleTy(Tys)};
  }

  case SExpr::Tag::Ann: {
    const Type *Ty = convertType(*E.Ann_);
    if (!Ty)
      return {};
    return checkExpr(*E.Body, Ty);
  }
  }
  return {};
}

//===----------------------------------------------------------------------===//
// Constraint solving
//===----------------------------------------------------------------------===//

const core::Expr *Elaborator::solveWanteds(const core::Expr *Body,
                                           size_t FirstWanted) {
  for (size_t I = Wanteds.size(); I != FirstWanted; --I) {
    const Wanted &W = Wanteds[I - 1];
    const Type *At = C.zonkType(W.At);

    const core::Expr *Resolved = nullptr;
    // Givens first: a constraint on a rigid variable refers to the
    // enclosing signature's method parameters.
    for (const Given &G : Givens) {
      if (G.Cls != W.Cls || !typeEqual(C.zonkType(G.At), At))
        continue;
      int Idx = G.Cls->methodIndex(W.Method);
      assert(Idx >= 0);
      Resolved = C.var(G.MethodParams[Idx]);
      break;
    }
    if (!Resolved) {
      // Instance lookup by head tycon.
      const Type *Head = At;
      while (const auto *App = dyn_cast<AppType>(Head))
        Head = App->fn();
      if (const auto *Con = dyn_cast<ConType>(Head)) {
        for (const InstanceInfo &Inst : Instances) {
          if (Inst.ClassName != W.Cls->Name ||
              Inst.HeadCon != Con->tycon())
            continue;
          auto It = Inst.Impls.find(W.Method);
          if (It != Inst.Impls.end())
            Resolved = C.var(It->second);
          break;
        }
        if (!Resolved) {
          errorAt(W.Loc, DiagCode::MissingInstance,
                  "no instance " + std::string(W.Cls->Name.str()) + " " +
                      At->str() + " for method '" +
                      std::string(W.Method.str()) + "'");
          continue;
        }
      } else if (isa<MetaType>(Head)) {
        errorAt(W.Loc, DiagCode::AmbiguousType,
                "ambiguous use of method '" + std::string(W.Method.str())
                    + "': cannot determine the class instantiation");
        continue;
      } else {
        errorAt(W.Loc, DiagCode::MissingInstance,
                "no instance " + std::string(W.Cls->Name.str()) + " " +
                    At->str());
        continue;
      }
    }
    Body = C.let(W.Placeholder, C.zonkType(W.PlaceholderTy), Resolved,
                 Body, /*Strict=*/false);
  }
  Wanteds.resize(FirstWanted);
  return Body;
}
