//===- Machine.h - The M abstract machine (Figure 6) ------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operational semantics of M: machine states ⟨t; S; H⟩ with an
/// explicit stack and heap, "quite close to how a concrete machine would
/// behave". Implements every rule of Figure 6 (PAPP, IAPP, VAL, EVAL, LET,
/// SLET, CASE, ERR, PPOP, IPOP, FCE, ILET, IMAT), including thunk sharing:
/// EVAL black-holes a thunk under evaluation and FCE writes the value back.
/// The widened executable fragment adds the analogous double-register
/// rules (DAPP, DPOP, DLET), the IF0 branch, RECLET — the heap-tied
/// knot that makes recursion (L's fix) runnable: the allocated thunk's
/// stored body references its own fresh heap address — and the
/// tag-dispatch pair SWITCH/SWITCHk: SWITCH pushes the alternative
/// table and evaluates the scrutinee; SWITCHk selects the alternative
/// matching the value's constructor tag (or Int#/Double# literal) and
/// binds the constructor's field atoms, falling back to the default
/// alternative when no pattern matches.
///
/// The machine is instrumented with cost counters (heap allocations, thunk
/// forces/updates, substitution steps) used by the benchmark harnesses to
/// reproduce the paper's boxed-versus-unboxed cost claims (Section 2.1).
///
/// One mechanical liberty: the paper assumes distinct binder names; an
/// executable machine must allocate, so LET freshens its binder into a new
/// heap address (standard heap allocation). All other rules are verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_MCALC_MACHINE_H
#define LEVITY_MCALC_MACHINE_H

#include "mcalc/Syntax.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace levity {
namespace mcalc {

/// S — one stack frame (Figure 5's stack grammar, plus the double and
/// branch frames of the widened fragment).
struct Frame {
  enum class FrameKind : uint8_t {
    Force,  ///< Force(p): update p with the value being computed.
    AppPtr, ///< App(p): pending pointer argument.
    AppLit, ///< App(n): pending integer argument.
    AppDbl, ///< App(d): pending double argument.
    Let,    ///< Let(y, t): strict-let continuation.
    Case,   ///< Case(y, t): case continuation.
    If0,    ///< If0(t2, t3): branch continuation.
    Switch  ///< Switch(alts, def): tag-dispatch continuation.
  };

  FrameKind Kind;
  MVar Var;                   ///< Force/AppPtr/Let/Case variable.
  int64_t Lit = 0;            ///< AppLit payload.
  double DblLit = 0;          ///< AppDbl payload.
  const Term *Body = nullptr; ///< Let/Case/If0-then continuation body.
  const Term *Body2 = nullptr; ///< If0-else continuation body.
  const SwitchTerm *Sw = nullptr; ///< Switch: the alternative table.
};

/// Cost counters. Deterministic for a given program, so benchmarks can
/// report machine-cost shapes independent of wall-clock noise.
struct MachineStats {
  uint64_t Steps = 0;        ///< Total transitions.
  uint64_t Allocations = 0;  ///< LET rule firings (thunks allocated).
  uint64_t ThunkEvals = 0;   ///< EVAL firings (thunks entered).
  uint64_t ThunkUpdates = 0; ///< FCE firings (values written back).
  uint64_t VarLookups = 0;   ///< VAL firings (heap value hits).
  uint64_t StrictLets = 0;   ///< SLET firings.
  uint64_t Cases = 0;        ///< CASE firings.
  uint64_t BetaPtr = 0;      ///< PPOP firings (pointer calls).
  uint64_t BetaInt = 0;      ///< IPOP firings (integer-register calls).
  uint64_t BetaDbl = 0;      ///< DPOP firings (double-register calls).
  uint64_t Prims = 0;        ///< PRIM firings (unboxed arithmetic).
  uint64_t Branches = 0;     ///< IF0 + SWITCHk firings (branches taken).
  uint64_t Knots = 0;        ///< RECLET firings (recursive knots tied).
  uint64_t Switches = 0;     ///< SWITCH firings (scrutinees dispatched).
  uint64_t ConAllocs = 0;    ///< Constructor nodes reaching the heap
                             ///< (LET/RECLET of a CON right-hand side,
                             ///< plus FCE write-backs of CON values).
  size_t MaxStackDepth = 0;
  size_t MaxHeapSize = 0;
  /// Peak term-arena bytes this run allocated in its MContext (the delta
  /// of Arena::bytesUsed across the run — term arenas are monotone
  /// within one run, so the end-of-run delta *is* the peak). Measures
  /// substitution + heap-cell churn in bytes; MaxHeapSize is the same
  /// quantity in cells.
  size_t PeakHeapBytes = 0;
};

/// Final outcome of a run.
enum class MachineOutcome : uint8_t {
  Value,    ///< Reached ⟨w; ∅; H⟩.
  Bottom,   ///< ERR fired.
  Stuck,    ///< No rule applies (ill-sorted program).
  OutOfFuel ///< Step budget exhausted.
};

/// A heap snapshot: pointer-variable name to stored term.
using HeapMap = std::unordered_map<Symbol, const Term *, SymbolHash>;

struct MachineResult {
  MachineOutcome Status;
  const Term *Value = nullptr; ///< Final value when Status == Value.
  std::string StuckReason;
  /// The error term's diagnostic message when Status == Bottom (empty if
  /// the error carried none).
  std::string ErrorMessage;
  MachineStats Stats;
  /// The heap at the end of the run, restricted (on the Value outcome)
  /// to cells transitively reachable from Value — function values may
  /// capture pointers into it, so observational probing must resume
  /// from this heap, but cells the result cannot name are dropped
  /// rather than kept alive by the snapshot. Non-Value outcomes keep
  /// the whole heap (there is no result to trace from, and stuck-state
  /// debugging wants the full picture).
  HeapMap FinalHeap;
};

/// Executes M programs. One Machine may run many programs; each run has
/// fresh stack/heap but shares the MContext's fresh-name supply.
///
/// \p Globals maps a program's globals, free pointer variables of its
/// terms, to what their heap cells hold. A run makes a cell on its first
/// lookup (an allocation, like LET), so it evaluates a global at most
/// once and only when demanded.
class Machine {
public:
  explicit Machine(MContext &Ctx, const HeapMap *Globals = nullptr)
      : Ctx(Ctx), Globals(Globals) {}

  /// Runs ⟨T; ∅; ∅⟩ to completion (or \p MaxSteps).
  MachineResult run(const Term *T, uint64_t MaxSteps = 10000000);

  /// Runs with a pre-populated heap (used by the observational-equivalence
  /// oracle to resume from an earlier run's heap and to pass boxed
  /// arguments to function values).
  MachineResult runWithHeap(const Term *T, HeapMap InitialHeap,
                            uint64_t MaxSteps = 10000000);

private:
  MContext &Ctx;
  const HeapMap *Globals;
};

} // namespace mcalc
} // namespace levity

#endif // LEVITY_MCALC_MACHINE_H
