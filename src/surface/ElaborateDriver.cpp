//===- ElaborateDriver.cpp - Module driver and analysis -------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "core/Prelude.h"
#include "surface/Elaborate.h"

using namespace levity;
using namespace levity::surface;
using namespace levity::core;

//===----------------------------------------------------------------------===//
// Top-level bindings
//===----------------------------------------------------------------------===//

void Elaborator::elabBinding(const SBindDecl &B, const SType *Sig,
                             CoreProgram &P) {
  Symbol Name = C.sym(B.Name);

  if (Sig) {
    std::optional<SigInfo> Info = convertSignature(*Sig);
    if (!Info)
      return;
    // Rigid binders in scope for the body.
    size_t TyMark = TyVars.Vars.size();
    for (const auto &[V, K] : Info->Binders)
      TyVars.Vars.push_back({V, K});
    // Givens: per-method parameters for each constraint.
    size_t GivenMark = Givens.size();
    std::vector<std::pair<Symbol, const Type *>> DictParams;
    for (const auto &[Cls, At] : Info->Constraints) {
      Given G;
      G.Cls = Cls;
      G.At = At;
      for (const ClassInfo::Method &M : Cls->Methods) {
        const Type *MT = methodTypeAt(*Cls, Cls->methodIndex(M.Name), At);
        if (!MT) {
          TyVars.Vars.resize(TyMark);
          Givens.resize(GivenMark);
          return;
        }
        Symbol PS = C.symbols().fresh(
            "$d" + std::string(Cls->Name.str()) + "_" +
            std::string(M.Name.str()));
        G.MethodParams.push_back(PS);
        G.MethodTys.push_back(MT);
        DictParams.push_back({PS, MT});
      }
      Givens.push_back(std::move(G));
    }

    // Equation parameters against the signature's arrows.
    size_t LocalMark = Locals.size();
    size_t WantedMark = Wanteds.size();
    const Type *Remaining = Info->Body;
    std::vector<std::pair<Symbol, const Type *>> Params;
    for (const SBinder &Binder : B.Params) {
      const auto *F = dyn_cast<FunType>(C.zonkType(Remaining));
      if (!F) {
        errorAt(Binder.Loc, DiagCode::ArityError,
                "binding '" + B.Name +
                    "' has more parameters than its signature");
        Locals.resize(LocalMark);
        Givens.resize(GivenMark);
        TyVars.Vars.resize(TyMark);
        return;
      }
      Symbol CoreName =
          C.symbols().fresh(Binder.Name == "_" ? "wild" : Binder.Name);
      if (Binder.Name != "_")
        Locals.push_back({C.sym(Binder.Name), CoreName, F->param()});
      Params.push_back({CoreName, F->param()});
      Remaining = F->result();
    }

    Typed Rhs = checkExpr(*B.Rhs, Remaining);
    Locals.resize(LocalMark);
    if (!Rhs) {
      Givens.resize(GivenMark);
      TyVars.Vars.resize(TyMark);
      return;
    }
    const core::Expr *Body = solveWanteds(Rhs.E, WantedMark);
    for (size_t I = Params.size(); I != 0; --I)
      Body = C.lam(Params[I - 1].first, Params[I - 1].second, Body);
    for (size_t I = DictParams.size(); I != 0; --I)
      Body =
          C.lam(DictParams[I - 1].first, DictParams[I - 1].second, Body);
    for (size_t I = Info->Binders.size(); I != 0; --I)
      Body = C.tyLam(Info->Binders[I - 1].first,
                     Info->Binders[I - 1].second, Body);
    Givens.resize(GivenMark);
    TyVars.Vars.resize(TyMark);

    P.Bindings.push_back({Name, Info->FullType, Body});
    return;
  }

  // Inference mode: the global already has an assigned metavariable type
  // (for recursion); infer, unify, default reps, generalize.
  const Type *Assigned = Globals[Name].Ty;
  size_t LocalMark = Locals.size();
  size_t WantedMark = Wanteds.size();
  std::vector<std::pair<Symbol, const Type *>> Params;
  for (const SBinder &Binder : B.Params) {
    const Type *PTy =
        Binder.Ann ? convertType(*Binder.Ann) : Unify.freshOpenMeta();
    if (!PTy) {
      Locals.resize(LocalMark);
      return;
    }
    Symbol CoreName =
        C.symbols().fresh(Binder.Name == "_" ? "wild" : Binder.Name);
    if (Binder.Name != "_")
      Locals.push_back({C.sym(Binder.Name), CoreName, PTy});
    Params.push_back({CoreName, PTy});
  }
  Typed Rhs = inferExpr(*B.Rhs);
  Locals.resize(LocalMark);
  if (!Rhs)
    return;
  const Type *FnTy = Rhs.Ty;
  for (size_t I = Params.size(); I != 0; --I)
    FnTy = C.funTy(Params[I - 1].second, FnTy);
  if (!Unify.unify(Assigned, FnTy))
    return;

  const core::Expr *Body = solveWanteds(Rhs.E, WantedMark);
  for (size_t I = Params.size(); I != 0; --I)
    Body = C.lam(Params[I - 1].first, Params[I - 1].second, Body);

  // Section 5.2: never generalize rep metas; default them to LiftedRep.
  const Type *Gen = infer::generalize(C, Assigned);
  Globals[Name] = {Gen, {}};
  // Wrap type lambdas matching the new quantifiers.
  std::vector<std::pair<Symbol, const Kind *>> Quants;
  const Type *Walk = Gen;
  while (const auto *F = dyn_cast<ForAllType>(Walk)) {
    Quants.push_back({F->var(), F->varKind()});
    Walk = F->body();
  }
  for (size_t I = Quants.size(); I != 0; --I)
    Body = C.tyLam(Quants[I - 1].first, Quants[I - 1].second, Body);

  P.Bindings.push_back({Name, Gen, Body});
}

//===----------------------------------------------------------------------===//
// Module driver
//===----------------------------------------------------------------------===//

std::optional<ElabOutput> Elaborator::run(const SModule &M) {
  std::optional<ElabOutput> Out = elaborate(M);
  if (!Out || !lint(*Out))
    return std::nullopt;
  return Out;
}

std::optional<ElabOutput> Elaborator::elaborate(const SModule &M) {
  ElabOutput Out;
  CoreProgram &P = Out.Program;
  size_t Before = Diags.numErrors();

  // The prelude's builtin globals, shared by every compile.
  std::span<const TopBinding> Builtins = Prelude::get().bindings();
  for (const TopBinding &B : Builtins)
    Globals[B.Name] = {B.Ty, {}};

  // Pass 1: data types.
  for (const SDecl &D : M.Decls)
    if (D.T == SDecl::Tag::Data)
      elabDataDecl(D.Data);

  // Pass 2: classes.
  for (const SDecl &D : M.Decls)
    if (D.T == SDecl::Tag::Class)
      elabClassDecl(D.Class);

  // Pass 3: collect signatures; pre-assign global types (signature or
  // fresh metavariable) so recursion and forward references work.
  std::unordered_map<Symbol, const SType *, SymbolHash> Sigs;
  for (const SDecl &D : M.Decls)
    if (D.T == SDecl::Tag::Sig)
      Sigs[C.sym(D.Sig.Name)] = D.Sig.Ty.get();

  for (const SDecl &D : M.Decls) {
    if (D.T != SDecl::Tag::Bind)
      continue;
    Symbol Name = C.sym(D.Bind.Name);
    auto It = Sigs.find(Name);
    if (It != Sigs.end()) {
      std::optional<SigInfo> Info = convertSignature(*It->second);
      if (!Info)
        return std::nullopt;
      Globals[Name] = {Info->FullType, Info->Constraints};
    } else {
      Globals[Name] = {Unify.freshOpenMeta(), {}};
    }
    Out.UserBindings.push_back(Name);
  }

  // A module's own binding of a builtin's name, with or without a
  // signature, shadows the builtin: pass 3 rebound its global, and the
  // program keeps only the module's binding, so that every backend runs
  // the same one.
  for (const TopBinding &B : Builtins)
    if (Globals[B.Name].Ty == B.Ty)
      P.Bindings.push_back(B);
  Out.NumPreludeBindings = P.Bindings.size();

  // Pass 4: instances (may reference user bindings).
  for (const SDecl &D : M.Decls)
    if (D.T == SDecl::Tag::Instance)
      elabInstanceDecl(D.Instance, P);

  // Pass 5: bindings in order.
  for (const SDecl &D : M.Decls) {
    if (D.T != SDecl::Tag::Bind)
      continue;
    auto It = Sigs.find(C.sym(D.Bind.Name));
    elabBinding(D.Bind, It == Sigs.end() ? nullptr : It->second, P);
  }

  if (Diags.numErrors() != Before)
    return std::nullopt;

  // The globals lint() types the module's bindings against.
  TopEnv = CoreEnv();
  for (const TopBinding &B : P.Bindings)
    TopEnv.addGlobal(B.Name, B.Ty);
  return Out;
}

bool Elaborator::lint(const ElabOutput &Out) {
  std::span<const TopBinding> Bs = Out.Program.Bindings;
  bool Clean = true;
  for (const TopBinding &B : Bs.subspan(Out.NumPreludeBindings))
    Clean &= Checker.lint(TopEnv, B, Diags);
  return Clean;
}

const Type *Elaborator::globalType(std::string_view Name) const {
  auto It = Globals.find(const_cast<CoreContext &>(C).sym(Name));
  return It == Globals.end()
             ? nullptr
             : const_cast<CoreContext &>(C).zonkType(It->second.Ty);
}

//===----------------------------------------------------------------------===//
// Section 8.1 analysis
//===----------------------------------------------------------------------===//

Elaborator::GeneralizabilityResult
Elaborator::analyzeClass(const SClassDecl &D) {
  GeneralizabilityResult R;

  // Constructor classes (Functor, Monad, ...) have arrow-kinded class
  // variables: they are not candidates for *levity* generalization of
  // the class variable itself.
  if (D.Var.Kind && D.Var.Kind->T == SKind::Tag::Arrow) {
    R.ValueKinded = false;
    R.Reason = "constructor class (class variable has an arrow kind)";
    return R;
  }
  R.ValueKinded = true;

  size_t Mark = TyVars.Vars.size();
  size_t ErrsBefore = Diags.numErrors();

  // The experiment: give the class variable kind TYPE ν with ν fresh and
  // re-kind every method signature. Methods that demand a lifted `a`
  // (e.g. [a], or `a` as an argument of a Type->Type constructor) will
  // unify ν := LiftedRep; methods that only pass `a` through arrows
  // leave ν free.
  const RepTy *Nu = C.freshRepMeta();
  Symbol Var = C.sym(D.Var.Name.empty() ? "a" : D.Var.Name);
  TyVars.Vars.push_back({Var, C.kindTYPE(Nu)});
  IgnoreContexts = true;
  AutoBindTypeVars = true;

  for (const SSigDecl &M : D.Methods) {
    if (!M.Ty)
      continue;
    const Type *T = convertType(*M.Ty);
    if (T)
      kindOfUnify(T);
    if (Diags.numErrors() != ErrsBefore) {
      TyVars.Vars.resize(Mark);
      IgnoreContexts = false;
      AutoBindTypeVars = false;
      R.Generalizable = false;
      R.Reason = "method '" + M.Name + "' is ill-kinded at TYPE r";
      return R;
    }
  }
  TyVars.Vars.resize(Mark);
  IgnoreContexts = false;
  AutoBindTypeVars = false;

  const RepTy *Solved = C.zonkRep(Nu);
  if (Solved->tag() == RepTy::Tag::Meta) {
    R.Generalizable = true;
    return R;
  }
  R.Generalizable = false;
  R.Reason = "a method forces the class variable to TYPE " + Solved->str();
  return R;
}
