//===- Vm.h - Threaded interpreter for bytecode Modules ---------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine executing bytecode::Module code. One Vm is owned
/// per driver::Executor (like the tree interpreter): its stacks and heap
/// are reused across runs but never shared across threads. Modules are
/// immutable and freely shared.
///
/// Values are rep-typed Slots — the paper's three register classes made
/// literal: an Int# payload, a Double# payload, or a pointer into the
/// run's object heap (thunks, closures, CON nodes, the compact I# box).
/// The machine's observable behavior is reproduced exactly: same
/// value/bottom/stuck/out-of-fuel classification, same bottom messages,
/// laziness with black-holing update-on-force, and the same stuck
/// conditions (calling-convention mismatches, let!/case/if0/switch
/// discipline, division guards).
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_BYTECODE_VM_H
#define LEVITY_BYTECODE_VM_H

#include "bytecode/Bytecode.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace levity {
namespace bytecode {

struct Obj;

/// One rep-typed value: the paper's pointer / integer-register /
/// double-register trichotomy. Kind holds a mcalc::VarSort value.
struct Slot {
  uint8_t Kind = static_cast<uint8_t>(mcalc::VarSort::Int);
  union {
    int64_t I;
    double D;
    Obj *P;
  };

  Slot() : I(0) {}
  static Slot ofInt(int64_t V) {
    Slot S;
    S.Kind = static_cast<uint8_t>(mcalc::VarSort::Int);
    S.I = V;
    return S;
  }
  static Slot ofDbl(double V) {
    Slot S;
    S.Kind = static_cast<uint8_t>(mcalc::VarSort::Dbl);
    S.D = V;
    return S;
  }
  static Slot ofPtr(Obj *O) {
    Slot S;
    S.Kind = static_cast<uint8_t>(mcalc::VarSort::Ptr);
    S.P = O;
    return S;
  }
  bool isPtr() const { return Kind == static_cast<uint8_t>(mcalc::VarSort::Ptr); }
  bool isInt() const { return Kind == static_cast<uint8_t>(mcalc::VarSort::Int); }
  bool isDbl() const { return Kind == static_cast<uint8_t>(mcalc::VarSort::Dbl); }
};

/// One heap object. Thunks black-hole while evaluating (a re-entrant
/// force is the machine's dangling-pointer stuck) and become
/// indirections once updated.
struct Obj {
  enum class K : uint8_t {
    Thunk,     ///< Unevaluated: proto + captured environment.
    Blackhole, ///< Thunk currently under evaluation.
    Ind,       ///< Updated thunk: Val holds the result.
    Closure,   ///< λ value: proto + captured environment.
    Con,       ///< CON node (IsBox: the compact I#[n]).
    Pap        ///< Partial application: Val = the closure, Fields = args.
  };
  K Kind = K::Thunk;
  bool IsBox = false;
  uint32_t Tag = 0;
  uint32_t ProtoIdx = 0;
  Slot Val;                 ///< Ind result, or the Pap's closure.
  std::vector<Slot> Fields; ///< Captures, CON fields, or Pap args.
};

/// Ledger counters mirroring mcalc::Machine::Stats, plus VM-specific
/// high-water marks. Allocations counts every heap object (thunks,
/// closures, CON nodes, I# boxes); ConAllocs the CON/box subset.
struct VmStats {
  uint64_t Steps = 0;        ///< Instructions dispatched (the fuel unit).
  uint64_t Allocations = 0;  ///< Heap objects created.
  uint64_t ThunkEvals = 0;   ///< Thunks entered (EVAL).
  uint64_t ThunkUpdates = 0; ///< Thunks overwritten with values (FCE).
  uint64_t VarLookups = 0;   ///< Forced pointer reads hitting a value.
  uint64_t Calls = 0;        ///< Frame-pushing calls (BETA).
  uint64_t TailCalls = 0;    ///< Frame-replacing calls.
  uint64_t Prims = 0;        ///< Primops applied (PRIM).
  uint64_t Branches = 0;     ///< if0 decisions (IF0).
  uint64_t Switches = 0;     ///< switch dispatches (SWITCHk).
  uint64_t ConAllocs = 0;    ///< CON nodes and I# boxes allocated.
  uint64_t Knots = 0;        ///< letrec self-references tied (RECLET).
  uint64_t UncurriedCalls = 0; ///< Multi-arg CallN/TailCallN dispatches.
  uint64_t PapAllocs = 0;      ///< Partial-application objects built.
  uint64_t FusedOps = 0;       ///< Superinstructions executed.
  uint64_t MaxFrameDepth = 0;  ///< Deepest call stack seen.
  uint64_t MaxHeapObjects = 0; ///< Most live heap objects seen.
  /// Peak bytes held by live heap objects (object headers plus their
  /// field/capture slots) — MaxHeapObjects weighted into bytes, sampled
  /// at every allocation.
  uint64_t PeakHeapBytes = 0;
};

/// Outcome of one run, mirroring the machine's observable surface.
struct VmResult {
  enum class Outcome : uint8_t { Value, Bottom, Stuck, OutOfFuel };
  Outcome Out = Outcome::Stuck;
  std::string ErrorMessage; ///< Bottom's message ("" for bare error).
  std::string StuckReason;  ///< Why execution got stuck.
  /// The final value (Outcome::Value). A pointer slot points into this
  /// Vm's heap, so it is valid until the Vm's next run.
  Slot Final;
  VmStats Stats;

  bool ok() const { return Out == Outcome::Value; }
};

/// The interpreter. Not thread-safe: one Vm per Executor, like the tree
/// interpreter. run() expects a Module from compile() or one that passed
/// validate() — the dispatch loop trusts the verifier and does not
/// re-check operands.
class Vm {
public:
  /// Runs proto \p Entry: Protos[0] or a global's run proto. Every
  /// global's cell starts empty each run and is made on first demand, so
  /// each global is evaluated at most once per run.
  VmResult run(const Module &M, uint64_t MaxSteps, uint32_t Entry = 0);

private:
  struct FrameRec {
    const Proto *P = nullptr;
    uint32_t ReturnIP = 0; ///< Caller code index to resume.
    uint32_t LBase = 0;    ///< First frame slot in Locals.
    uint32_t OBase = 0;    ///< Operand-stack floor for this frame.
    Obj *Update = nullptr; ///< Thunk to update on return, if any.
    /// Over-application surplus: this many operand slots directly below
    /// OBase hold arguments the frame's return value must be applied to
    /// (first-applied deepest) before the frame really returns.
    uint32_t PendArgs = 0;
  };

  // Reused across runs to amortize allocation; cleared on entry.
  std::vector<Slot> Opers;
  std::vector<Slot> Locals;
  std::vector<FrameRec> Frames;
  std::vector<Slot> ApBuf; ///< Scratch for tail-apply argument shuffles.
  std::vector<Obj *> GlobalCells; ///< This run's cells, per global.
  /// Reference-stable object storage, recycled as a region: run() rewinds
  /// HeapUsed to 0 instead of clearing the deque, so steady-state runs
  /// reuse already-constructed Objs (and their Fields capacity) with zero
  /// per-object malloc churn. Heap only grows when a run's live-object
  /// count exceeds every previous run's.
  std::deque<Obj> Heap;
  size_t HeapUsed = 0; ///< Objects of Heap in use by the current run.
};

} // namespace bytecode
} // namespace levity

#endif // LEVITY_BYTECODE_VM_H
