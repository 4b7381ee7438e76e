//===- LowerToL.h - Lowering core IR into the L calculus --------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers an elaborated core program into L (Figure 2), once, so that
/// surface programs run on the paper's formal backend — L → (Figure 7
/// ANF compilation) → M → the Figure 6 abstract machine — and on the
/// bytecode VM compiled from the same M terms.
///
/// The lowering targets L's executable fragment: Int, Int#, Double#,
/// arrows, ∀, algebraic data (each saturated data-type instantiation
/// the program touches — Bool, Maybe Int, user-declared types, boxed
/// Double — becomes an L data declaration with instantiated field
/// types), the full binary primop set (arithmetic and comparisons over
/// both unboxed sorts; unary negation lowers through subtraction from
/// zero; isTrue# lowers to a literal case producing Bool), every case
/// shape — constructor alternatives, Int#/Double# literal alternatives,
/// and default-only — through the one L tag-dispatch case, single-binding
/// letrec through L's fix (which the M compilation ties through a heap
/// knot), and top-level recursion, mutual recursion included.
///
/// The lowering is still deliberately *partial*: anything outside that
/// fragment (strings, unboxed tuples, mutually recursive let,
/// conversions, non-exhaustive constructor cases without a default)
/// fails with a descriptive "not expressible in L" message, and the
/// driver reports the global as unsupported on that backend rather than
/// guessing. tests/driver_test.cpp pins one test per remaining boundary
/// so fragment growth stays deliberate. Core nested deeper than
/// surface::MaxCoreNestingDepth is refused too, so that no later pass
/// recurses past it.
///
/// Globals are lowered by index, each once per program. lowerProgram
/// lowers the user's bindings and every global they use. A global's
/// right-hand side lowers to an L term whose free variables are the
/// globals it uses, and ANF compiles it to an M term over their *cells*:
/// free pointer variables whose heap cell holds the global's value, a
/// raw Int# or Double# for an unlifted global (ANF evaluates every use
/// of an unlifted value strictly, so such a cell is forced where used).
///
/// The M machine and the VM make a global's cell on first demand, once
/// per run, so every backend evaluates a global at most once per run and
/// only when it is demanded, as the tree interpreter does: an unused ⊥
/// global is never evaluated, and top-level recursion needs no knot. A
/// global outside the fragment fails alone, and every global that uses
/// it fails with the same diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_DRIVER_LOWERTOL_H
#define LEVITY_DRIVER_LOWERTOL_H

#include "core/CoreContext.h"
#include "core/Program.h"
#include "lcalc/Syntax.h"
#include "mcalc/Syntax.h"
#include "support/Result.h"

#include <span>
#include <string>
#include <vector>

namespace levity {
namespace driver {

/// One global of a lowered program.
struct LoweredGlobal {
  std::string Name;
  /// The pointer variable the other globals' M terms name its cell by.
  mcalc::MVar Var;
  /// The M term computing the global's value (what its cell holds), or
  /// why it (or a global it uses) is outside the L fragment.
  Result<const mcalc::Term *> Value = err("not lowered");
};

/// Lowers \p Roots and every global they use, each once, into \p L and
/// \p MC. Lists the roots first (in order, repeats and names \p P does
/// not bind dropped), then the globals they use in discovery order.
std::vector<LoweredGlobal> lowerProgram(core::CoreContext &C,
                                        const core::CoreProgram &P,
                                        std::span<const Symbol> Roots,
                                        lcalc::LContext &L,
                                        mcalc::MContext &MC);

} // namespace driver
} // namespace levity

#endif // LEVITY_DRIVER_LOWERTOL_H
