//===- Interp.h - Instrumented evaluator for core programs ------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A big-step, environment-based evaluator for core programs with an
/// explicit *cost model*: thunk allocations, thunk forces, constructor
/// (box) allocations, closure allocations, and primop executions are all
/// counted. Strictness is driven by the kinds recorded at elaboration
/// time — lifted binders get thunks, unlifted binders are evaluated
/// eagerly — so the counters reproduce the boxed-versus-unboxed cost
/// shapes of Sections 2.1, 2.3 and 7.3 deterministically, independent of
/// wall-clock noise.
///
/// Type and rep abstraction/application are fully erased at runtime, as
/// levity polymorphism requires (Section 4.3: "the compiled code remains
/// the same as it always was").
///
/// The evaluator is fully iterative: an explicit frame stack replaces C++
/// recursion, so not only tail-recursive loops (sumTo#) but also deeply
/// nested thunk chains — the boxed sumTo's 20000-deep accumulator — run
/// in constant C++ stack. Deep programs end in OutOfFuel, never a stack
/// overflow.
///
/// One Interp is single-threaded mutable state (value pool, environments,
/// memoized global thunks, fuel); concurrent execution uses one Interp per
/// thread over a shared immutable program (see driver::Executor).
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_RUNTIME_INTERP_H
#define LEVITY_RUNTIME_INTERP_H

#include "core/CoreContext.h"
#include "core/Program.h"
#include "core/TypeCheck.h"

#include <deque>
#include <string>
#include <unordered_map>

namespace levity {
namespace runtime {

struct EnvNode;

/// A runtime value (or thunk). Pool-allocated by the Interp; never freed
/// individually.
struct Value {
  enum class Tag : uint8_t {
    IntHash,    ///< Unboxed machine integer (an "integer register").
    DoubleHash, ///< Unboxed double (a "float register").
    Str,        ///< String constant.
    Con,        ///< Constructor value (heap box).
    Closure,    ///< Function value (heap closure).
    Tuple,      ///< Unboxed tuple: values in several registers, no box.
    Thunk       ///< Suspended computation (heap thunk).
  };

  Tag T;
  int64_t I = 0;
  double D = 0;
  Symbol S;

  // Con / Tuple.
  const core::DataCon *DC = nullptr;
  std::vector<Value *> Fields;

  // Closure.
  const core::LamExpr *Lam = nullptr;
  const EnvNode *CapturedEnv = nullptr;

  // Thunk.
  const core::Expr *Suspended = nullptr;
  const EnvNode *SuspendedEnv = nullptr;
  Value *Forced = nullptr;
  bool BlackHole = false;

  /// Run epoch this value was allocated in (see Interp::beginRunEpoch).
  /// Values minted outside any epoch — global thunks from loadProgram —
  /// carry epoch 0 and are never reclaimed.
  uint64_t Epoch = 0;
};

/// A persistent environment (closures share tails).
struct EnvNode {
  Symbol Name;
  Value *V;
  const EnvNode *Next;
};

/// Deterministic cost counters (the machine-cost side of every bench).
struct InterpStats {
  uint64_t EvalSteps = 0;     ///< Expression nodes evaluated.
  uint64_t ThunkAllocs = 0;   ///< Lazy bindings allocated.
  uint64_t ThunkForces = 0;   ///< Thunks entered.
  uint64_t BoxAllocs = 0;     ///< Constructor cells allocated.
  uint64_t ClosureAllocs = 0; ///< Function closures allocated.
  uint64_t PrimOps = 0;       ///< Primitive operations executed.
  uint64_t TupleMoves = 0;    ///< Unboxed tuples constructed (register
                              ///< moves, no allocation).
  /// Pool cells (Values + EnvNodes) live at the end of the run — the
  /// retained-memory meter. Under the driver's run epochs this plateaus
  /// once every global the workload touches has been forced; without
  /// epochs it is the interpreter's monotone high-water mark.
  uint64_t PeakHeapCells = 0;
  /// PeakHeapCells in bytes (cells weighted by their C++ object size).
  uint64_t PeakHeapBytes = 0;

  /// Total heap traffic: what a GC would see.
  uint64_t heapAllocations() const {
    return ThunkAllocs + BoxAllocs + ClosureAllocs;
  }
};

enum class InterpStatus : uint8_t {
  Value,
  Bottom,       ///< error was called.
  RuntimeError, ///< <<loop>>, division by zero, pattern-match failure.
  OutOfFuel
};

struct InterpResult {
  InterpStatus Status;
  Value *V = nullptr;
  std::string Message; ///< error/RuntimeError payload.
  InterpStats Stats;
};

/// Evaluates core programs.
class Interp {
public:
  explicit Interp(core::CoreContext &C) : C(C), Checker(C) {}

  /// Installs top-level bindings (mutually recursive: each is a thunk
  /// that can see all the others).
  void loadProgram(const core::CoreProgram &P);

  /// Evaluates an expression to WHNF under the loaded program.
  InterpResult eval(const core::Expr *E, uint64_t MaxSteps = 200000000);

  //===--------------------------------------------------------------------===//
  // Run epochs — the pool-reclamation contract (driver::Executor)
  //===--------------------------------------------------------------------===//
  //
  // The value/env pools are bump regions: nothing is freed individually.
  // A *run epoch* brackets one run so the run's cells can be reclaimed
  // wholesale: beginRunEpoch() marks the pool high-water points, and
  // endRunEpoch() truncates both pools back to the mark — unless the run
  // wrote a pointer from an older value into this epoch's region (a
  // global thunk forced for the first time stores its Forced result),
  // in which case the whole epoch is *promoted* (kept) instead. Steady
  // state — every global the workload touches already forced — promotes
  // nothing, so long-lived Executors plateau instead of growing per run.
  //
  // Safety: the only old→new pointer writes the evaluator performs are
  // thunk updates (Value::Forced); the one update site, the evaluator's
  // Update frame, flags the promotion. Caller contract: the run's answer
  // must be read before endRunEpoch — truncation invalidates the run's
  // Value pointers.

  /// Pool high-water marks at beginRunEpoch time (opaque to callers).
  struct RunEpochMark {
    size_t PoolSize = 0;
    size_t EnvPoolSize = 0;
  };

  /// Starts a run epoch: values allocated from here on belong to it.
  RunEpochMark beginRunEpoch() {
    ++CurEpoch;
    EpochPromoted = false;
    return {Pool.size(), EnvPool.size()};
  }

  /// Ends the epoch begun by the matching beginRunEpoch: reclaims the
  /// run's cells, or keeps them all when the run was promoted.
  void endRunEpoch(RunEpochMark M) {
    if (EpochPromoted)
      return;
    Pool.resize(M.PoolSize);
    EnvPool.resize(M.EnvPoolSize);
  }

  /// Cells (Values + EnvNodes) currently held by the pools.
  size_t liveCells() const { return Pool.size() + EnvPool.size(); }

private:
  Value *newValue() {
    Pool.emplace_back();
    Pool.back().Epoch = CurEpoch;
    return &Pool.back();
  }
  const EnvNode *extend(const EnvNode *Env, Symbol Name, Value *V) {
    EnvPool.push_back({Name, V, Env});
    return &EnvPool.back();
  }
  Value *lookup(const EnvNode *Env, Symbol Name);

  Value *makeThunk(const core::Expr *E, const EnvNode *Env,
                   InterpStats &S) {
    ++S.ThunkAllocs;
    Value *V = newValue();
    V->T = Value::Tag::Thunk;
    V->Suspended = E;
    V->SuspendedEnv = Env;
    return V;
  }

  /// Whether a data-constructor field is unlifted (strict).
  const std::vector<bool> &fieldStrictness(const core::DataCon *DC);

  /// One suspended continuation of the iterative engine (what a recursive
  /// evaluator would keep in a C++ stack frame).
  struct Frame;

  /// The iterative evaluator; returns nullptr on Bottom/RuntimeError with
  /// Fail* set. Constant C++ stack depth regardless of program shape.
  Value *evalIn(const core::Expr *E, const EnvNode *Env, InterpStats &S);
  /// Executes one primop on already-evaluated arguments.
  Value *execPrim(const core::PrimOpExpr *P, Value *A0, Value *A1,
                  InterpStats &S);

  core::CoreContext &C;
  core::CoreChecker Checker;
  std::deque<Value> Pool;
  std::deque<EnvNode> EnvPool;
  std::unordered_map<Symbol, Value *, SymbolHash> Globals;
  std::unordered_map<const core::DataCon *, std::vector<bool>> StrictCache;

  // Failure channel (no exceptions).
  InterpStatus FailStatus = InterpStatus::Value;
  std::string FailMessage;
  uint64_t FuelLeft = 0;

  // Run-epoch state (see beginRunEpoch). Epoch 0 = outside any epoch.
  uint64_t CurEpoch = 0;
  /// Set when this epoch wrote an old→new pointer (first-force thunk
  /// update on a pre-epoch value): endRunEpoch must keep the region.
  bool EpochPromoted = false;
};

} // namespace runtime
} // namespace levity

#endif // LEVITY_RUNTIME_INTERP_H
