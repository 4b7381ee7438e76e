//===- Subst.h - Capture-avoiding substitution for L ------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Capture-avoiding substitution over L types and expressions, in all three
/// variable namespaces (term, type, rep), plus free-variable queries. The
/// small-step rules S_FIX, S_BETAPTR, S_BETAUNBOXED, S_TBETA, S_RBETA and
/// S_CASEk are implemented with these. Substitution shares unchanged
/// subtrees.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_LCALC_SUBST_H
#define LEVITY_LCALC_SUBST_H

#include "lcalc/Syntax.h"

#include <unordered_set>

namespace levity {
namespace lcalc {

using SymbolSet = std::unordered_set<Symbol, SymbolHash>;

/// Free variables, one set per namespace: terms x, types α, reps r.
struct FreeVars {
  SymbolSet Term, Type, Rep;
};

/// Free variables of \p E in all three namespaces (kinds and type
/// annotations included), in one walk.
void freeVars(const Expr *E, FreeVars &Out);

/// Free type variables of \p T.
void freeTypeVars(const Type *T, SymbolSet &Out);

/// Free rep variables of \p T (kinds included).
void freeRepVars(const Type *T, SymbolSet &Out);

/// \returns true iff \p E has no free variables of any category.
bool isClosed(const Expr *E);

/// ρ[Rep/RepVar] and κ[Rep/RepVar].
RuntimeRep substRep(RuntimeRep R, Symbol RepVar, RuntimeRep Rep);
LKind substRep(LKind K, Symbol RepVar, RuntimeRep Rep);

/// τ[Replacement/Var] — substitutes a type for a type variable.
const Type *substTypeInType(LContext &Ctx, const Type *T, Symbol Var,
                            const Type *Replacement);

/// τ[Rep/RepVar] — substitutes a rep for a rep variable in a type.
const Type *substRepInType(LContext &Ctx, const Type *T, Symbol RepVar,
                           RuntimeRep Rep);

/// e[By/Var] — capture-avoiding substitution into an expression. The
/// overload picks Var's namespace: an expression replaces a term
/// variable, a type a type variable (annotations included), a rep a rep
/// variable (kinds and types included). All three run one walk, which
/// computes By's free variables once and applies one rule at every
/// binder (λ, fix, case alternative, Λ, rep-Λ): a binder of Var's own
/// namespace equal to Var stops the walk, and a binder free in By, in
/// the binder's namespace, is renamed fresh first.
const Expr *subst(LContext &Ctx, const Expr *E, Symbol Var, const Expr *By);
const Expr *subst(LContext &Ctx, const Expr *E, Symbol Var, const Type *By);
const Expr *subst(LContext &Ctx, const Expr *E, Symbol Var, RuntimeRep By);

} // namespace lcalc
} // namespace levity

#endif // LEVITY_LCALC_SUBST_H
