//===- Elaborate.cpp - Surface-to-core elaboration ------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "surface/Elaborate.h"
#include "core/Prelude.h"

#include <algorithm>
#include <unordered_set>

using namespace levity;
using namespace levity::surface;
using namespace levity::core;

//===----------------------------------------------------------------------===//
// Reps and kinds
//===----------------------------------------------------------------------===//

const RepTy *Elaborator::convertRep(const SRep &R, bool AutoBindRepVars) {
  switch (R.T) {
  case SRep::Tag::Named: {
    if (R.Name == "LiftedRep")
      return C.liftedRep();
    if (R.Name == "UnliftedRep")
      return C.unliftedRep();
    if (R.Name == "IntRep")
      return C.intRep();
    if (R.Name == "WordRep")
      return C.wordRep();
    if (R.Name == "FloatRep")
      return C.floatRep();
    if (R.Name == "DoubleRep")
      return C.doubleRep();
    if (R.Name == "AddrRep")
      return C.addrRep();
    errorAt(R.Loc, DiagCode::KindError,
            "unknown representation '" + R.Name + "'");
    return C.liftedRep();
  }
  case SRep::Tag::Var: {
    Symbol Name = C.sym(R.Name);
    if (TyVars.lookup(Name))
      return C.repVar(Name);
    if (AutoBindRepVars) {
      TyVars.Vars.push_back({Name, C.repKind()});
      return C.repVar(Name);
    }
    errorAt(R.Loc, DiagCode::ScopeError,
            "representation variable '" + R.Name + "' is not in scope");
    return C.liftedRep();
  }
  case SRep::Tag::Tuple: {
    std::vector<const RepTy *> Elems;
    for (const SRep &E : R.Elems)
      Elems.push_back(convertRep(E, AutoBindRepVars));
    return R.Name == "SumRep" ? C.repSum(Elems) : C.repTuple(Elems);
  }
  }
  return C.liftedRep();
}

const Kind *Elaborator::convertKind(const SKind *K, bool AutoBindRepVars) {
  if (!K)
    return C.typeKind();
  switch (K->T) {
  case SKind::Tag::Type:
    return C.typeKind();
  case SKind::Tag::Rep:
    return C.repKind();
  case SKind::Tag::TypeOf:
    return C.kindTYPE(convertRep(K->R, AutoBindRepVars));
  case SKind::Tag::Arrow:
    return C.kindArrow(convertKind(K->Param.get(), AutoBindRepVars),
                       convertKind(K->Result.get(), AutoBindRepVars));
  }
  return C.typeKind();
}

//===----------------------------------------------------------------------===//
// Kind inference over converted types (unification at applications)
//===----------------------------------------------------------------------===//

const Kind *Elaborator::kindOfUnify(const Type *T) {
  T = C.zonkType(T);
  switch (T->tag()) {
  case Type::Tag::Con:
    return cast<ConType>(T)->tycon()->kind();
  case Type::Tag::Var:
    return cast<VarType>(T)->kind();
  case Type::Tag::Meta:
    return C.typeMetaCell(cast<MetaType>(T)->id()).MetaKind;
  case Type::Tag::RepLift:
    return C.repKind();
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    const Kind *FnK = C.zonkKind(kindOfUnify(A->fn()));
    const Kind *ArgK = kindOfUnify(A->arg());
    if (!FnK->isArrow()) {
      Diags.error(DiagCode::KindError,
                  "cannot apply type of kind " + FnK->str());
      return C.typeKind();
    }
    // Inference-mode: *unify* the operand kind (Section 5.2's point —
    // kinds unify, they do not sub-kind).
    Unify.unifyKind(FnK->param(), ArgK);
    return FnK->result();
  }
  case Type::Tag::Fun: {
    const auto *F = cast<FunType>(T);
    const Kind *PK = C.zonkKind(kindOfUnify(F->param()));
    const Kind *RK = C.zonkKind(kindOfUnify(F->result()));
    // Both operands must classify values, at any rep ((->)'s new kind).
    if (!PK->isTypeOf() || !RK->isTypeOf())
      Diags.error(DiagCode::KindError,
                  "function type operands must classify values");
    return C.typeKind();
  }
  case Type::Tag::ForAll: {
    const auto *F = cast<ForAllType>(T);
    return kindOfUnify(F->body());
  }
  case Type::Tag::UnboxedTuple: {
    const auto *U = cast<UnboxedTupleType>(T);
    std::vector<const RepTy *> Reps;
    for (const Type *E : U->elems()) {
      const Kind *K = C.zonkKind(kindOfUnify(E));
      if (!K->isTypeOf()) {
        Diags.error(DiagCode::KindError,
                    "unboxed tuple field must classify values");
        Reps.push_back(C.liftedRep());
        continue;
      }
      Reps.push_back(K->rep());
    }
    return C.kindTYPE(C.repTuple(Reps));
  }
  }
  return C.typeKind();
}

//===----------------------------------------------------------------------===//
// Type conversion
//===----------------------------------------------------------------------===//

namespace {

/// Collects names used as rep variables anywhere below \p T (to give
/// un-annotated forall binders like `forall r.` the kind Rep when they
/// are used as reps).
void collectRepVarUses(const SType &T,
                       std::unordered_set<std::string> &Out);

void collectRepVarUsesRep(const SRep &R,
                          std::unordered_set<std::string> &Out) {
  if (R.T == SRep::Tag::Var)
    Out.insert(R.Name);
  for (const SRep &E : R.Elems)
    collectRepVarUsesRep(E, Out);
}

void collectRepVarUsesKind(const SKind *K,
                           std::unordered_set<std::string> &Out) {
  if (!K)
    return;
  if (K->T == SKind::Tag::TypeOf)
    collectRepVarUsesRep(K->R, Out);
  collectRepVarUsesKind(K->Param.get(), Out);
  collectRepVarUsesKind(K->Result.get(), Out);
}

void collectRepVarUses(const SType &T,
                       std::unordered_set<std::string> &Out) {
  switch (T.T) {
  case SType::Tag::Con:
  case SType::Tag::Var:
    return;
  case SType::Tag::App:
  case SType::Tag::Fun:
  case SType::Tag::Tuple2:
    if (T.Fn)
      collectRepVarUses(*T.Fn, Out);
    if (T.Arg)
      collectRepVarUses(*T.Arg, Out);
    return;
  case SType::Tag::ForAll:
    for (const STyBinder &B : T.Binders)
      collectRepVarUsesKind(B.Kind.get(), Out);
    for (const SConstraint &Ct : T.Context)
      if (Ct.Arg)
        collectRepVarUses(*Ct.Arg, Out);
    if (T.Body)
      collectRepVarUses(*T.Body, Out);
    return;
  case SType::Tag::List:
    if (T.Body)
      collectRepVarUses(*T.Body, Out);
    return;
  case SType::Tag::UnboxedTuple:
    for (const STypePtr &E : T.Elems)
      if (E)
        collectRepVarUses(*E, Out);
    return;
  }
}

} // namespace

const Type *Elaborator::convertType(const SType &T) {
  switch (T.T) {
  case SType::Tag::Con: {
    Symbol Name = C.sym(T.Name);
    if (const TyCon *TC = C.lookupTyCon(Name))
      return C.conTy(TC);
    errorAt(T.Loc, DiagCode::ScopeError,
            "type constructor '" + T.Name + "' is not in scope");
    return nullptr;
  }
  case SType::Tag::Var: {
    Symbol Name = C.sym(T.Name);
    if (const Kind *K = TyVars.lookup(Name))
      return C.varTy(Name, K);
    if (AutoBindTypeVars) {
      const Kind *K = C.kindTYPE(C.freshRepMeta());
      TyVars.Vars.push_back({Name, K});
      return C.varTy(Name, K);
    }
    errorAt(T.Loc, DiagCode::ScopeError,
            "type variable '" + T.Name + "' is not in scope");
    return nullptr;
  }
  case SType::Tag::App: {
    const Type *Fn = convertType(*T.Fn);
    const Type *Arg = convertType(*T.Arg);
    if (!Fn || !Arg)
      return nullptr;
    const Type *App = C.appTy(Fn, Arg);
    kindOfUnify(App); // unify operand kinds
    return App;
  }
  case SType::Tag::Fun: {
    const Type *P = convertType(*T.Fn);
    const Type *R = convertType(*T.Arg);
    if (!P || !R)
      return nullptr;
    const Type *F = C.funTy(P, R);
    kindOfUnify(F);
    return F;
  }
  case SType::Tag::List: {
    const Type *E = convertType(*T.Body);
    if (!E)
      return nullptr;
    const Type *App = C.appTy(C.conTy(Prelude::get().listTyCon()), E);
    kindOfUnify(App);
    return App;
  }
  case SType::Tag::Tuple2: {
    const Type *A = convertType(*T.Fn);
    const Type *B = convertType(*T.Arg);
    if (!A || !B)
      return nullptr;
    const Type *Pair = C.conTy(Prelude::get().pairTyCon());
    const Type *App = C.appTy(C.appTy(Pair, A), B);
    kindOfUnify(App);
    return App;
  }
  case SType::Tag::UnboxedTuple: {
    std::vector<const Type *> Elems;
    for (const STypePtr &E : T.Elems) {
      const Type *CE = convertType(*E);
      if (!CE)
        return nullptr;
      Elems.push_back(CE);
    }
    return C.unboxedTupleTy(Elems);
  }
  case SType::Tag::ForAll: {
    // Nested foralls in argument positions are beyond this fragment;
    // convertSignature handles the top-level one. Treat inner foralls
    // structurally (no constraints).
    std::unordered_set<std::string> RepUses;
    collectRepVarUses(T, RepUses);
    size_t Mark = TyVars.Vars.size();
    std::vector<std::pair<Symbol, const Kind *>> Bs;
    for (const STyBinder &B : T.Binders) {
      const Kind *K = B.Kind ? convertKind(B.Kind.get(), false)
                             : (RepUses.count(B.Name) ? C.repKind()
                                                      : C.typeKind());
      Symbol Name = C.sym(B.Name);
      TyVars.Vars.push_back({Name, K});
      Bs.push_back({Name, K});
    }
    if (!T.Context.empty() && !IgnoreContexts)
      errorAt(T.Loc, DiagCode::TypeError,
              "constraints are only supported on top-level signatures");
    const Type *Body = T.Body ? convertType(*T.Body) : nullptr;
    TyVars.Vars.resize(Mark);
    if (!Body)
      return nullptr;
    for (size_t I = Bs.size(); I != 0; --I)
      Body = C.forAllTy(Bs[I - 1].first, Bs[I - 1].second, Body);
    return Body;
  }
  }
  return nullptr;
}

const Type *Elaborator::convertTypeForTest(const SType &T) {
  return convertType(T);
}

std::optional<Elaborator::SigInfo>
Elaborator::convertSignature(const SType &T) {
  SigInfo Info;
  const SType *Body = &T;
  size_t Mark = TyVars.Vars.size();

  std::unordered_set<std::string> RepUses;
  collectRepVarUses(T, RepUses);

  const std::vector<STyBinder> *Binders = nullptr;
  const std::vector<SConstraint> *Ctx = nullptr;
  if (T.T == SType::Tag::ForAll) {
    Binders = &T.Binders;
    Ctx = &T.Context;
    Body = T.Body.get();
  }

  if (Binders) {
    for (const STyBinder &B : *Binders) {
      const Kind *K = B.Kind ? convertKind(B.Kind.get(), false)
                             : (RepUses.count(B.Name) ? C.repKind()
                                                      : C.typeKind());
      Symbol Name = C.sym(B.Name);
      TyVars.Vars.push_back({Name, K});
      Info.Binders.push_back({Name, K});
    }
  }

  // Implicit quantification: free lowercase type variables not already
  // in scope become ∀-bound at kind Type (the levity-monomorphic
  // default; declared levity polymorphism needs explicit binders).
  {
    std::vector<std::string> Implicit;
    std::function<void(const SType &)> Scan = [&](const SType &S) {
      switch (S.T) {
      case SType::Tag::Var:
        if (!TyVars.lookup(C.sym(S.Name)) &&
            std::find(Implicit.begin(), Implicit.end(), S.Name) ==
                Implicit.end())
          Implicit.push_back(S.Name);
        return;
      case SType::Tag::Con:
        return;
      case SType::Tag::App:
      case SType::Tag::Fun:
      case SType::Tag::Tuple2:
        if (S.Fn)
          Scan(*S.Fn);
        if (S.Arg)
          Scan(*S.Arg);
        return;
      case SType::Tag::List:
        if (S.Body)
          Scan(*S.Body);
        return;
      case SType::Tag::UnboxedTuple:
        for (const STypePtr &E : S.Elems)
          if (E)
            Scan(*E);
        return;
      case SType::Tag::ForAll: {
        // Inner binders shadow; conservatively skip their names.
        for (const STyBinder &B : S.Binders)
          (void)B;
        if (S.Body)
          Scan(*S.Body);
        return;
      }
      }
    };
    if (Body)
      Scan(*Body);
    if (Ctx)
      for (const SConstraint &Con : *Ctx)
        if (Con.Arg)
          Scan(*Con.Arg);
    for (const std::string &Name : Implicit) {
      Symbol S = C.sym(Name);
      TyVars.Vars.push_back({S, C.typeKind()});
      Info.Binders.push_back({S, C.typeKind()});
    }
  }

  if (Ctx) {
    for (const SConstraint &Con : *Ctx) {
      const ClassInfo *Cls = nullptr;
      for (const ClassInfo &CI : Classes)
        if (CI.Name == C.sym(Con.ClassName))
          Cls = &CI;
      if (!Cls) {
        errorAt(Con.Loc, DiagCode::ScopeError,
                "class '" + Con.ClassName + "' is not in scope");
        TyVars.Vars.resize(Mark);
        return std::nullopt;
      }
      const Type *Arg = convertType(*Con.Arg);
      if (!Arg) {
        TyVars.Vars.resize(Mark);
        return std::nullopt;
      }
      Info.Constraints.push_back({Cls, Arg});
    }
  }

  Info.Body = Body ? convertType(*Body) : nullptr;
  TyVars.Vars.resize(Mark);
  if (!Info.Body)
    return std::nullopt;

  // The dictionary-expanded core type: constraints become one function
  // parameter per class method (unpacked dictionaries, Section 7.3).
  const Type *Full = Info.Body;
  for (size_t I = Info.Constraints.size(); I != 0; --I) {
    const auto &[Cls, At] = Info.Constraints[I - 1];
    for (size_t M = Cls->Methods.size(); M != 0; --M) {
      const Type *MT = methodTypeAt(*Cls, int(M - 1), At);
      if (!MT)
        return std::nullopt;
      Full = C.funTy(MT, Full);
    }
  }
  for (size_t I = Info.Binders.size(); I != 0; --I)
    Full = C.forAllTy(Info.Binders[I - 1].first,
                      Info.Binders[I - 1].second, Full);
  Info.FullType = Full;
  return Info;
}

//===----------------------------------------------------------------------===//
// Class instantiation helpers
//===----------------------------------------------------------------------===//

namespace {

bool matchRepAgainst(const RepTy *Pattern, const RepTy *Actual,
                     std::unordered_map<Symbol, const RepTy *, SymbolHash>
                         &Subst) {
  switch (Pattern->tag()) {
  case RepTy::Tag::Var: {
    auto It = Subst.find(Pattern->varName());
    if (It != Subst.end())
      return repEqual(It->second, Actual);
    Subst[Pattern->varName()] = Actual;
    return true;
  }
  case RepTy::Tag::Atom:
    return Actual->tag() == RepTy::Tag::Atom &&
           Actual->atom() == Pattern->atom();
  case RepTy::Tag::Meta:
    return false;
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum: {
    if (Actual->tag() != Pattern->tag() ||
        Actual->elems().size() != Pattern->elems().size())
      return false;
    for (size_t I = 0; I != Pattern->elems().size(); ++I)
      if (!matchRepAgainst(Pattern->elems()[I], Actual->elems()[I], Subst))
        return false;
    return true;
  }
  }
  return false;
}

} // namespace

bool Elaborator::matchClassReps(
    const ClassInfo &Cls, const Type *At,
    std::unordered_map<Symbol, const RepTy *, SymbolHash> &Subst) {
  const Kind *AtKind = C.zonkKind(kindOfUnify(At));
  const Kind *VarKind = C.zonkKind(Cls.VarKind);
  if (!VarKind->isTypeOf() || !AtKind->isTypeOf())
    return kindEqual(VarKind, AtKind);
  return matchRepAgainst(VarKind->rep(), C.zonkRep(AtKind->rep()), Subst);
}

const Type *Elaborator::methodTypeAt(const ClassInfo &Cls, int MethodIdx,
                                     const Type *At) {
  std::unordered_map<Symbol, const RepTy *, SymbolHash> Subst;
  if (!matchClassReps(Cls, At, Subst)) {
    Diags.error(DiagCode::KindError,
                "constraint argument " + At->str() +
                    " does not fit the kind of class variable of " +
                    std::string(Cls.Name.str()));
    return nullptr;
  }
  const Type *Sig = Cls.Methods[MethodIdx].Sig;
  // Substitute the rep variables first (they occur in the class var's
  // kind inside Sig), then the class variable itself.
  for (const auto &[RepVar, Rep] : Subst)
    Sig = substType(C, Sig, RepVar, C.repLiftTy(Rep));
  Sig = substType(C, Sig, Cls.Var, At);
  return Sig;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

void Elaborator::elabDataDecl(const SDataDecl &D) {
  Symbol Name = C.sym(D.Name);
  if (C.lookupTyCon(Name)) {
    errorAt(D.Loc, DiagCode::DuplicateDefinition,
            "type '" + D.Name + "' is already defined");
    return;
  }
  size_t Mark = TyVars.Vars.size();
  std::vector<Symbol> Params;
  std::vector<const Kind *> ParamKinds;
  const Kind *K = C.typeKind();
  for (size_t I = D.Params.size(); I != 0; --I) {
    const Kind *PK = convertKind(D.Params[I - 1].Kind.get(), false);
    K = C.kindArrow(PK, K);
  }
  for (const STyBinder &B : D.Params) {
    Symbol P = C.sym(B.Name);
    const Kind *PK = convertKind(B.Kind.get(), false);
    Params.push_back(P);
    ParamKinds.push_back(PK);
    TyVars.Vars.push_back({P, PK});
  }
  TyCon *TC = C.makeTyCon(Name, K, C.liftedRep());
  for (const SConDecl &Con : D.Cons) {
    std::vector<const Type *> Fields;
    bool Ok = true;
    for (const STypePtr &F : Con.Fields) {
      const Type *FT = convertType(*F);
      if (!FT) {
        Ok = false;
        break;
      }
      Fields.push_back(FT);
    }
    if (!Ok)
      continue;
    C.makeDataCon(C.sym(Con.Name), TC, Params, ParamKinds, Fields);
  }
  TyVars.Vars.resize(Mark);
}

void Elaborator::elabClassDecl(const SClassDecl &D) {
  ClassInfo Info;
  Info.Name = C.sym(D.Name);
  Info.Var = C.sym(D.Var.Name.empty() ? "a" : D.Var.Name);

  size_t Mark = TyVars.Vars.size();
  // The class variable's kind may introduce class-level rep variables:
  // class Num (a :: TYPE r).
  size_t Before = TyVars.Vars.size();
  Info.VarKind = convertKind(D.Var.Kind.get(), /*AutoBindRepVars=*/true);
  for (size_t I = Before; I != TyVars.Vars.size(); ++I)
    Info.RepVars.push_back(TyVars.Vars[I].first);

  TyVars.Vars.push_back({Info.Var, Info.VarKind});
  // Method signatures may have their own (simple) foralls, method-local
  // type variables, and contexts we record-and-skip.
  IgnoreContexts = true;
  AutoBindTypeVars = true;
  for (const SSigDecl &M : D.Methods) {
    const Type *Sig = nullptr;
    if (M.Ty) {
      Sig = convertType(*M.Ty);
    }
    if (!Sig) {
      errorAt(M.Loc, DiagCode::TypeError,
              "cannot elaborate method signature for '" + M.Name + "'");
      continue;
    }
    Info.Methods.push_back({C.sym(M.Name), Sig});
  }
  IgnoreContexts = false;
  AutoBindTypeVars = false;
  TyVars.Vars.resize(Mark);

  for (const ClassInfo &Existing : Classes)
    if (Existing.Name == Info.Name) {
      errorAt(D.Loc, DiagCode::DuplicateDefinition,
              "class '" + D.Name + "' is already defined");
      return;
    }
  Classes.push_back(std::move(Info));
  int ClsIdx = int(Classes.size() - 1);
  for (size_t M = 0; M != Classes.back().Methods.size(); ++M)
    MethodIndex[Classes.back().Methods[M].Name] = {ClsIdx, int(M)};
}

void Elaborator::elabInstanceDecl(const SInstanceDecl &D, CoreProgram &P) {
  const ClassInfo *Cls = nullptr;
  for (const ClassInfo &CI : Classes)
    if (CI.Name == C.sym(D.ClassName))
      Cls = &CI;
  if (!Cls) {
    errorAt(D.Loc, DiagCode::ScopeError,
            "class '" + D.ClassName + "' is not in scope");
    return;
  }
  const Type *Head = D.Head ? convertType(*D.Head) : nullptr;
  if (!Head)
    return;
  const auto *HeadCon = dyn_cast<ConType>(C.zonkType(Head));
  if (!HeadCon) {
    errorAt(D.Loc, DiagCode::TypeError,
            "instance heads must be bare type constructors");
    return;
  }

  InstanceInfo Inst;
  Inst.ClassName = Cls->Name;
  Inst.HeadCon = HeadCon->tycon();
  Inst.HeadTy = Head;

  for (const SBindDecl &M : D.Methods) {
    int Idx = Cls->methodIndex(C.sym(M.Name));
    if (Idx < 0) {
      errorAt(M.Loc, DiagCode::ScopeError,
              "'" + M.Name + "' is not a method of class " + D.ClassName);
      continue;
    }
    const Type *Expected = methodTypeAt(*Cls, Idx, Head);
    if (!Expected)
      continue;

    // Elaborate like a signature-checked binding at the monomorphic
    // expected type.
    std::string GlobalName = "$c" + M.Name + "_" +
                             std::string(HeadCon->tycon()->name().str());
    Symbol Global = C.sym(GlobalName);

    size_t WantedMark = Wanteds.size();
    size_t LocalMark = Locals.size();
    const Type *Remaining = Expected;
    std::vector<std::pair<Symbol, const Type *>> Params;
    bool Ok = true;
    for (const SBinder &B : M.Params) {
      const auto *F = dyn_cast<FunType>(C.zonkType(Remaining));
      if (!F) {
        errorAt(B.Loc, DiagCode::ArityError,
                "too many parameters for method '" + M.Name + "'");
        Ok = false;
        break;
      }
      Symbol CoreName = C.symbols().fresh(B.Name == "_" ? "wild" : B.Name);
      Locals.push_back({C.sym(B.Name), CoreName, F->param()});
      Params.push_back({CoreName, F->param()});
      Remaining = F->result();
    }
    if (!Ok) {
      Locals.resize(LocalMark);
      continue;
    }
    Typed Rhs = checkExpr(*M.Rhs, Remaining);
    Locals.resize(LocalMark);
    if (!Rhs)
      continue;
    const core::Expr *Body = solveWanteds(Rhs.E, WantedMark);
    for (size_t I = Params.size(); I != 0; --I)
      Body = C.lam(Params[I - 1].first, Params[I - 1].second, Body);

    Globals[Global] = {Expected, {}};
    P.Bindings.push_back({Global, Expected, Body});
    Inst.Impls[C.sym(M.Name)] = Global;
  }

  // Every class method must be implemented.
  for (const ClassInfo::Method &M : Cls->Methods)
    if (!Inst.Impls.count(M.Name))
      errorAt(D.Loc, DiagCode::MissingInstance,
              "instance " + D.ClassName + " " +
                  std::string(HeadCon->tycon()->name().str()) +
                  " does not define method '" + std::string(M.Name.str())
                  + "'");

  Instances.push_back(std::move(Inst));
}
