//===- Elaborate.h - Surface-to-core elaboration ----------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Elaboration of surface programs into core IR, implementing the
/// pipeline the paper describes for GHC:
///
///   * type inference with type metavariables α :: TYPE ν and rep
///     metavariables ν (Section 5.2) — kind checking *unifies*, it never
///     sub-kinds;
///   * levity defaulting: unconstrained ν default to LiftedRep at
///     generalization; levity polymorphism is only ever *declared* via a
///     signature (∀(r::Rep) binders), then checked;
///   * type classes by dictionary translation (Section 7.3). Dictionaries
///     are passed *unpacked*: one lifted function parameter per method —
///     isomorphic to GHC's record dictionaries for our class fragment,
///     and exhibiting the same levity behavior (each method parameter has
///     a function type, hence kind Type, hence is a legal binder even
///     when the class variable is rep-polymorphic). Instance methods
///     become ordinary monomorphic top-level bindings ($c<method>_<Head>)
///     exactly as in the paper's $d story;
///   * Core Lint (core/TypeCheck.h) is the one pass over the produced
///     core: it types it, sets the strictness bits from the solved kinds
///     and checks the two Section 5.1 restrictions (GHC's desugarer
///     check, Section 8.2), all in one walk.
///
/// The elaborator also exposes the kind-inference entry point used by the
/// Section 8.1 class-generalizability analysis (classlib).
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SURFACE_ELABORATE_H
#define LEVITY_SURFACE_ELABORATE_H

#include "core/Program.h"
#include "core/TypeCheck.h"
#include "infer/Unify.h"
#include "surface/Ast.h"

#include <optional>
#include <unordered_map>

namespace levity {
namespace surface {

/// An elaborated class: variable, kind, method signatures (mentioning the
/// class variable free).
struct ClassInfo {
  Symbol Name;
  Symbol Var;
  const core::Kind *VarKind;
  std::vector<Symbol> RepVars; ///< Class-level rep binders in VarKind.
  struct Method {
    Symbol Name;
    const core::Type *Sig; ///< With the class variable free.
  };
  std::vector<Method> Methods;

  int methodIndex(Symbol M) const {
    for (size_t I = 0; I != Methods.size(); ++I)
      if (Methods[I].Name == M)
        return int(I);
    return -1;
  }
};

/// An elaborated instance: head tycon and per-method implementation
/// globals.
struct InstanceInfo {
  Symbol ClassName;
  const core::TyCon *HeadCon;
  const core::Type *HeadTy;
  std::unordered_map<Symbol, Symbol, SymbolHash> Impls;
};

/// The result of elaborating a module.
struct ElabOutput {
  /// The prelude's shared builtin globals, then the module's instance
  /// methods and bindings.
  core::CoreProgram Program;
  size_t NumPreludeBindings = 0; ///< Length of that prelude prefix.
  std::vector<Symbol> UserBindings; ///< Names defined by the module.
};

class Elaborator {
public:
  Elaborator(core::CoreContext &C, DiagnosticEngine &Diags)
      : C(C), Diags(Diags), Checker(C), Unify(C, Diags) {}

  /// Elaborates a whole module: elaborate(), then lint(). Returns
  /// nullopt if any error was reported (diagnostics carry the details).
  std::optional<ElabOutput> run(const SModule &M);

  /// The two stages run() chains, for callers that time them apart.
  /// elaborate() infers and translates the module (passes 1-5). lint()
  /// runs Core Lint over the module's bindings, the one post-inference
  /// walk: it sets their strictness bits and checks Section 5.1 (GHC's
  /// desugarer-time check, Section 8.2). The prelude's bindings were
  /// linted once, when it was built. lint() takes the last elaborate()'s
  /// output and returns false on an error.
  std::optional<ElabOutput> elaborate(const SModule &M);
  bool lint(const ElabOutput &Out);

  /// CoreChecker::typeOf node visits so far (lint's walk).
  uint64_t typeOfVisits() const { return Checker.typeOfVisits(); }

  /// The classes declared by the last run (plus none built in).
  const std::vector<ClassInfo> &classes() const { return Classes; }
  const std::vector<InstanceInfo> &instances() const { return Instances; }

  /// Looks up the elaborated (dictionary-expanded) core type of a
  /// top-level name after run().
  const core::Type *globalType(std::string_view Name) const;

  //===------------------------------------------------------------------===//
  // Section 8.1 analysis hook (used by classlib)
  //===------------------------------------------------------------------===//

  struct GeneralizabilityResult {
    bool ValueKinded = false;   ///< Class var has kind TYPE ρ (not ->).
    bool Generalizable = false; ///< Rep meta unconstrained by methods.
    std::string Reason;         ///< Why not, when not.
  };

  /// Re-kinds the class's method signatures with the class variable at
  /// TYPE ν (ν fresh) and reports whether ν stays unconstrained.
  /// Superclass and method contexts are ignored (assumes simultaneous
  /// generalization of constraint classes). Requires the data types the
  /// signatures mention to have been declared by a prior run().
  GeneralizabilityResult analyzeClass(const SClassDecl &D);

  /// Converts a surface type in the current global scope (for tests).
  const core::Type *convertTypeForTest(const SType &T);

private:
  //===------------------------------------------------------------------===//
  // Scopes
  //===------------------------------------------------------------------===//

  struct TyVarScope {
    std::vector<std::pair<Symbol, const core::Kind *>> Vars;
    const core::Kind *lookup(Symbol Name) const {
      for (auto It = Vars.rbegin(); It != Vars.rend(); ++It)
        if (It->first == Name)
          return It->second;
      return nullptr;
    }
  };

  struct LocalVar {
    Symbol SurfaceName;
    Symbol CoreName;
    const core::Type *Ty;
  };

  struct Given {
    const ClassInfo *Cls;
    const core::Type *At;
    std::vector<Symbol> MethodParams;       ///< One per class method.
    std::vector<const core::Type *> MethodTys;
  };

  struct Wanted {
    const ClassInfo *Cls;
    const core::Type *At;       ///< Usually a metavariable.
    Symbol Placeholder;         ///< Core variable standing for the method.
    const core::Type *PlaceholderTy;
    Symbol Method;
    SourceLoc Loc;
  };

  //===------------------------------------------------------------------===//
  // Types and kinds
  //===------------------------------------------------------------------===//

  const core::RepTy *convertRep(const SRep &R, bool AutoBindRepVars);
  const core::Kind *convertKind(const SKind *K, bool AutoBindRepVars);
  /// Converts a type, unifying kinds as required (Section 5.2 style).
  /// \returns null on error.
  const core::Type *convertType(const SType &T);
  /// Computes the kind of a converted type with unification at
  /// applications (the inference-mode kind judgment).
  const core::Kind *kindOfUnify(const core::Type *T);

  struct SigInfo {
    std::vector<std::pair<Symbol, const core::Kind *>> Binders;
    std::vector<std::pair<const ClassInfo *, const core::Type *>>
        Constraints;
    const core::Type *Body = nullptr;
    const core::Type *FullType = nullptr; ///< Dictionary-expanded.
  };
  std::optional<SigInfo> convertSignature(const SType &T);

  /// Matches a class variable's kind against the kind of an instantiation
  /// and returns the rep substitution for the class's rep variables.
  bool matchClassReps(const ClassInfo &Cls, const core::Type *At,
                      std::unordered_map<Symbol, const core::RepTy *,
                                         SymbolHash> &Subst);
  const core::Type *methodTypeAt(const ClassInfo &Cls, int MethodIdx,
                                 const core::Type *At);

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  void elabDataDecl(const SDataDecl &D);
  void elabClassDecl(const SClassDecl &D);
  void elabInstanceDecl(const SInstanceDecl &D, core::CoreProgram &P);
  void elabBinding(const SBindDecl &B, const SType *Sig,
                   core::CoreProgram &P);

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  struct Typed {
    const core::Expr *E = nullptr;
    const core::Type *Ty = nullptr;
    explicit operator bool() const { return E != nullptr; }
  };

  Typed inferExpr(const SExpr &E);
  Typed checkExpr(const SExpr &E, const core::Type *Expected);
  Typed inferVar(const std::string &Name, SourceLoc Loc);
  Typed instantiate(const core::Expr *E, const core::Type *Ty);
  /// Instantiates a global: peels foralls with fresh metas AND emits
  /// wanted constraints / dictionary-method arguments for the global's
  /// declared class constraints.
  Typed instantiateGlobal(Symbol Name, SourceLoc Loc);
  Typed methodUse(const ClassInfo &Cls, int MethodIdx, SourceLoc Loc);
  Typed applyOne(Typed Fn, const SExpr &Arg, SourceLoc Loc);
  Typed elabCase(const SExpr &E);
  const core::Expr *solveWanteds(const core::Expr *Body, size_t FirstWanted);

  bool errorAt(SourceLoc Loc, DiagCode Code, std::string Msg) {
    Diags.error(Code, std::move(Msg), Loc);
    return false;
  }

  core::CoreContext &C;
  DiagnosticEngine &Diags;
  core::CoreChecker Checker;
  infer::Unifier Unify;

  TyVarScope TyVars;
  std::vector<LocalVar> Locals;
  std::vector<Given> Givens;
  std::vector<Wanted> Wanteds;

  std::vector<ClassInfo> Classes;
  std::vector<InstanceInfo> Instances;

  /// A top-level binding's elaborated type plus its surface constraints
  /// (mentioning the type's own forall binders), used to synthesize
  /// dictionary arguments at call sites.
  struct GlobalInfo {
    const core::Type *Ty = nullptr;
    std::vector<std::pair<const ClassInfo *, const core::Type *>>
        Constraints;
  };
  std::unordered_map<Symbol, GlobalInfo, SymbolHash> Globals;
  std::unordered_map<Symbol, std::pair<int, int>, SymbolHash>
      MethodIndex; ///< method name -> (class idx, method idx).
  /// Every global's type, for the checks after elaborate().
  core::CoreEnv TopEnv;

  /// Tolerant conversion for class-method signatures and the Section 8.1
  /// analysis: constraints inside method types are skipped (assumed to
  /// generalize simultaneously) and unbound method-local type variables
  /// are auto-bound at TYPE ν.
  bool IgnoreContexts = false;
  bool AutoBindTypeVars = false;
};

} // namespace surface
} // namespace levity

#endif // LEVITY_SURFACE_ELABORATE_H
