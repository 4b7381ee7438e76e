//===- TypeCheck.h - Kinding and linting for core IR ------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kind computation for core types (the generalized Figure 3 type-validity
/// judgment) and Core Lint, the one post-inference pass over core. Its
/// single bottom-up walk types every node, sets each application's and
/// let's strictness bit from the now-solved kind, and checks the two
/// levity restrictions of Section 5.1:
///
///   1. *No levity-polymorphic binders.* Every bound term variable must
///      have a type whose kind is TYPE ρ with ρ fully concrete.
///   2. *No levity-polymorphic function arguments.* Every argument of an
///      application, constructor, primop or unboxed tuple likewise.
///
/// GHC checks these in the desugarer, after type inference has solved
/// every unification variable (Section 8.2: the checks need zonked
/// types), on the binder and argument types it already holds; Lint has
/// those types at hand in the same way. A violation is reported with its
/// own DiagCode and does not stop the walk; a typing error does.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_CORE_TYPECHECK_H
#define LEVITY_CORE_TYPECHECK_H

#include "core/CoreContext.h"
#include "core/Program.h"
#include "support/Diagnostics.h"
#include "support/Result.h"

#include <unordered_map>

namespace levity {
namespace core {

/// Scoped environments for kinding/typing.
class CoreEnv {
public:
  void pushTypeVar(Symbol Name, const Kind *K) {
    TypeVars.push_back({Name, K});
  }
  void popTypeVar() { TypeVars.pop_back(); }

  const Kind *lookupTypeVar(Symbol Name) const {
    for (auto It = TypeVars.rbegin(), E = TypeVars.rend(); It != E; ++It)
      if (It->first == Name)
        return It->second;
    return nullptr;
  }

  void pushTerm(Symbol Name, const Type *Ty) { Terms.push_back({Name, Ty}); }
  void popTerm() { Terms.pop_back(); }
  void popTerms(size_t N) { Terms.resize(Terms.size() - N); }

  const Type *lookupTerm(Symbol Name) const {
    for (auto It = Terms.rbegin(), E = Terms.rend(); It != E; ++It)
      if (It->first == Name)
        return It->second;
    return nullptr;
  }

  /// Top-level globals (error handled specially; user program bindings).
  void addGlobal(Symbol Name, const Type *Ty) { Globals[Name] = Ty; }
  const Type *lookupGlobal(Symbol Name) const {
    auto It = Globals.find(Name);
    return It == Globals.end() ? nullptr : It->second;
  }

private:
  std::vector<std::pair<Symbol, const Kind *>> TypeVars;
  std::vector<std::pair<Symbol, const Type *>> Terms;
  std::unordered_map<Symbol, const Type *, SymbolHash> Globals;
};

/// Kinding, typing and Core Lint.
class CoreChecker {
public:
  explicit CoreChecker(CoreContext &C) : C(C) {}

  /// Computes the kind of \p T. Types are zonked on the way in, so
  /// solved metas never leak.
  Result<const Kind *> kindOf(CoreEnv &Env, const Type *T);

  /// Type-checks \p E, returning its type. Var lookups consult locals,
  /// then globals. Read-only: it writes no strictness bit and checks no
  /// Section 5.1 restriction, so concurrent callers may share the
  /// expressions (the frozen prelude's among them).
  Result<const Type *> typeOf(CoreEnv &Env, const Expr *E);

  /// \returns true when \p K is TYPE ρ with ρ fully concrete — the
  /// "kind is fixed and free of any type variables" condition of
  /// Section 5.1 (note 9: arrow kinds etc. are fine; this predicate is
  /// for binder/argument kinds specifically).
  bool isConcreteValueKind(const Kind *K);

  /// Core Lint over top-level binding \p B, in one typeOf walk: its
  /// right-hand side must type-check at its declared type; each App and
  /// Let whose argument or binder kind is concrete gets its strictness
  /// bit from that kind; each Section 5.1 violation is reported into
  /// \p Diags as LevityPolymorphicBinder or LevityPolymorphicArgument, in
  /// pre-order (a node's own binder or argument before anything inside
  /// it). A typing failure ends the walk and is reported as an internal
  /// error after them. \returns true if clean.
  bool lint(CoreEnv &Env, const TopBinding &B, DiagnosticEngine &Diags);

  /// typeOf node visits so far, lint's included: a deterministic count
  /// of typing work.
  uint64_t typeOfVisits() const { return Visits; }

private:
  /// kindOf over an already-zonked \p T, whose children are zonked too.
  Result<const Kind *> kindOfZonked(CoreEnv &Env, const Type *T);

  /// Whether concrete value kind \p K is TYPE LiftedRep.
  bool isLiftedKind(const Kind *K);

  /// Lint's check of binder \p Var :: \p VarTy. \returns its kind when
  /// that is concrete, else null after reporting it.
  const Kind *lintBinder(CoreEnv &Env, Symbol Var, const Type *VarTy);
  /// Reports binder \p Var :: \p VarTy, whose kind \p K is not concrete.
  void reportLevityBinder(Symbol Var, const Type *VarTy, const Kind *K);

  /// Lint's check of argument \p Arg :: \p ArgTy, made after the
  /// argument's own walk but reported at \p Mark, the number of
  /// violations found before that walk, so the report keeps pre-order.
  /// An application \p App gets its strictness bit from a concrete kind.
  /// Lint writes a bit only to change it, so linting core whose bits are
  /// already right (the frozen prelude's) writes nothing.
  void lintArgument(CoreEnv &Env, size_t Mark, const Expr *Arg,
                    const Type *ArgTy, const AppExpr *App = nullptr);
  /// The number of violations lint has found so far (0 outside lint).
  size_t lintMark() const { return Violations ? Violations->size() : 0; }

  CoreContext &C;
  /// Set only while lint() runs: the violations it has found, in
  /// pre-order. Null keeps typeOf read-only.
  std::vector<Diagnostic> *Violations = nullptr;
  uint64_t Visits = 0;
};

} // namespace core
} // namespace levity

#endif // LEVITY_CORE_TYPECHECK_H
