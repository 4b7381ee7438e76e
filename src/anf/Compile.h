//===- Compile.h - Compilation of L into M (Figure 7) -----------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type-directed, type-erasing compilation ⟦e⟧ᵥΓ ⇝ t of Figure 7.
/// Applications compile to lazy `let` or strict `let!` depending on the
/// *kind* of the argument type (C_APPLAZY vs C_APPINT); lambdas pick their
/// parameter's register sort the same way (C_LAMPTR vs C_LAMINT); type and
/// rep abstractions/applications erase (C_TLAM, C_TAPP, C_RLAM, C_RAPP).
///
/// Compilation is *partial*: it fails exactly on levity-polymorphic
/// binders or arguments, whose kinds do not determine a register sort.
/// The Compilation Theorem (Section 6.3, property-tested in
/// tests/anf_compile_test.cpp) states that it is total on well-typed
/// terms — the L type system's E_APP/E_LAM premises rule the bad cases
/// out before the compiler ever sees them.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_ANF_COMPILE_H
#define LEVITY_ANF_COMPILE_H

#include "lcalc/Syntax.h"
#include "lcalc/TypeCheck.h"
#include "mcalc/Syntax.h"
#include "support/Result.h"

#include <span>
#include <unordered_map>

namespace levity {
namespace anf {

/// Compiles L expressions into M terms per Figure 7.
class Compiler {
public:
  Compiler(lcalc::LContext &LC, mcalc::MContext &MC)
      : LC(LC), MC(MC), TC(LC) {}

  /// ⟦E⟧ under typing context \p Env (restored on exit) and variable
  /// environment \p V. Fails (never asserts) on levity-polymorphic
  /// binders/arguments so the Compilation theorem is testable.
  Result<const mcalc::Term *> compile(lcalc::TypeEnv &Env,
                                      const lcalc::Expr *E);

  /// A free variable of an open expression, typed by \p Ty and compiled
  /// to \p Var (the driver's program globals: each names its cell).
  struct FreeVar {
    Symbol Name;
    const lcalc::Type *Ty;
    mcalc::MVar Var;
  };

  /// Compiles \p E whose free variables are \p Free.
  Result<const mcalc::Term *> compileOpen(std::span<const FreeVar> Free,
                                          const lcalc::Expr *E) {
    lcalc::TypeEnv Env;
    VarMap.clear();
    for (const FreeVar &F : Free) {
      Env.pushTerm(F.Name, F.Ty);
      VarMap[F.Name] = F.Var;
    }
    return compile(Env, E);
  }

  /// Compiles a closed expression.
  Result<const mcalc::Term *> compileClosed(const lcalc::Expr *E) {
    return compileOpen({}, E);
  }

private:
  /// Figure 7's V: mapping from L term variables to M variables. The
  /// fresh-variable side of V is MC's name supply.
  std::unordered_map<Symbol, mcalc::MVar, SymbolHash> VarMap;

  lcalc::LContext &LC;
  mcalc::MContext &MC;
  lcalc::TypeChecker TC;
};

} // namespace anf
} // namespace levity

#endif // LEVITY_ANF_COMPILE_H
