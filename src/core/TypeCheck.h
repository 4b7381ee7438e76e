//===- TypeCheck.h - Kinding and linting for core IR ------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kind computation for core types (the generalized Figure 3 type-validity
/// judgment) and a Core-Lint-style expression checker. Lint verifies
/// *typing* only; the two levity restrictions of Section 5.1 are a
/// separate pass (LevityCheck.h), mirroring GHC's desugarer-time check
/// (Section 8.2) so tests can build levity-polymorphic core and watch the
/// right pass reject it.
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

/// Kinding and expression linting.
class CoreChecker {
public:
  explicit CoreChecker(CoreContext &C) : C(C) {}

  /// Computes the kind of \p T. Types are zonked on the way in, so
  /// solved metas never leak.
  Result<const Kind *> kindOf(CoreEnv &Env, const Type *T);

  /// Lints \p E, returning its type. Var lookups consult locals, then
  /// globals.
  Result<const Type *> typeOf(CoreEnv &Env, const Expr *E);

  /// \returns true when \p K is TYPE ρ with ρ fully concrete — the
  /// "kind is fixed and free of any type variables" condition of
  /// Section 5.1 (note 9: arrow kinds etc. are fine; this predicate is
  /// for binder/argument kinds specifically).
  bool isConcreteValueKind(const Kind *K);

  /// Lints top-level binding \p B: its right-hand side must type-check
  /// at its declared type. Reports a failure into \p Diags as an
  /// internal error. \returns true if clean.
  bool lint(CoreEnv &Env, const TopBinding &B, DiagnosticEngine &Diags);

  /// The post-inference fix-up: sets each App/Let strictness bit from
  /// the zonked kind of the argument or bound variable. Provisional bits
  /// are not checked while it runs.
  void fixStrictness(CoreEnv &Env, const Expr *E);

private:
  /// kindOf over an already-zonked \p T, whose children are zonked too.
  Result<const Kind *> kindOfZonked(CoreEnv &Env, const Type *T);

  CoreContext &C;
  bool CheckStrictnessBits = true;
};

} // namespace core
} // namespace levity

#endif // LEVITY_CORE_TYPECHECK_H
