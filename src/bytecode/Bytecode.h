//===- Bytecode.h - Flat bytecode for M terms -------------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat bytecode format Backend::Bytecode executes. The paper's
/// central invariant — levity polymorphism pins every binder to one
/// concrete runtime representation — is what makes this tier possible:
/// because every M variable is exactly a pointer, an Int#, or a Double#
/// (mcalc::VarSort), a term can be compiled once into a contiguous
/// instruction stream whose operand stack and frame slots are rep-typed,
/// instead of being small-stepped as a substitution-based term graph.
///
/// A compiled Module is one flat `std::vector<Instr>` (dense opcodes,
/// inline operands) shared by every proto, plus constant pools
/// (Int#/Double# literals, error strings) and switch dispatch tables.
/// Each lambda body, thunk right-hand side, and the entry term itself is
/// a Proto: a code range, a frame-slot count, and the list of enclosing
/// frame slots its closure captures. Runtime values are tagged Slots —
/// Int#/Double# payloads inline, pointers into a per-run object heap
/// (thunks with black-holing update-on-force, closures, CON nodes, and
/// the compact I# box).
///
/// A program compiles to one Module: each top-level global has a run
/// proto, and code reaches a global through its per-run cell
/// (LoadGlobal), made on first demand. Modules are immutable after compile() and safe to share across any
/// number of VMs/threads. The compiler is total over everything the
/// driver's core→L→ANF→M lowering produces; genuinely out-of-fragment
/// terms (free variables, over-deep nesting) fail with a pinned
/// "bytecode backend: ..." diagnostic, which the driver reports as the
/// run's Unsupported status — never a miscompile.
///
/// validate() re-checks every structural invariant the VM's dispatch
/// loop trusts (code ranges, slot indices, pool indices, jump targets),
/// so Modules decoded from an untrusted `.levc` BCOD section are exactly
/// as safe to run as freshly compiled ones.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_BYTECODE_BYTECODE_H
#define LEVITY_BYTECODE_BYTECODE_H

#include "mcalc/Syntax.h"
#include "support/Result.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace levity {
namespace bytecode {

/// The instruction set. The numeric values are **stable on-disk tags**:
/// they appear verbatim in the `.levc` BCOD section (driver/Serialize.h,
/// docs/ARTIFACT_FORMAT.md). Never renumber an existing opcode; append
/// new ones at the end (NumOps is folded into the artifact pipeline
/// fingerprint, so growth invalidates stale stores).
enum class Op : uint8_t {
  PushInt = 0,      ///< push IntPool[C]
  PushDbl = 1,      ///< push DblPool[C]
  LoadLocal = 2,    ///< push locals[B] (raw — atoms, lazy args, fields)
  LoadForce = 3,    ///< push locals[B] forced to WHNF (pointer reads)
  StoreLocal = 4,   ///< locals[B] = pop() (unchecked let binding)
  StoreStrict = 5,  ///< locals[B] = pop(), checked against sort A (let!)
  MkClosure = 6,    ///< push closure of Protos[C], capturing per its Caps
  MkClosureRec = 7, ///< locals[B] = closure of Protos[C]; captures see B
  MkThunk = 8,      ///< push thunk of Protos[C], capturing per its Caps
  MkThunkRec = 9,   ///< locals[B] = thunk of Protos[C]; captures see B
  Call = 10,        ///< pop arg, pop fn; enter fn's proto
  TailCall = 11,    ///< like Call, but replaces the current frame
  Return = 12,      ///< pop result; update thunk / return to caller
  Prim = 13,        ///< pop rhs, pop lhs; apply MPrim A; push result
  MkBox = 14,       ///< pop Int#; push the I# box
  UnBox = 15,       ///< pop I# box; locals[B] = field (A = binder sort)
  AllocCon = 16,    ///< pop B fields; push CON node with tag C
  Jump = 17,        ///< IP = C
  If0 = 18,         ///< pop Int#; fall through when 0, else IP = C
  Switch = 19,      ///< pop scrutinee; dispatch via Tables[C]
  Error = 20,       ///< bottom with message StrPool[C] (C < 0: no message)
  CallN = 21,       ///< pop B args then fn; apply fn to all B at once
  TailCallN = 22,   ///< like CallN, but replaces the current frame
  PrimLocal = 23,   ///< pop lhs; apply MPrim A with rhs = locals[B]
  PrimInt = 24,     ///< pop lhs; apply MPrim A with rhs = IntPool[C]
  ReturnLocal = 25, ///< return locals[B] (fused LoadLocal+Return)
  LoadGlobal = 26,  ///< push global C's per-run cell (made on first demand);
                    ///< A = 1 forces it to WHNF like LoadForce
};

/// Number of opcodes; folded into the artifact fingerprint so a new
/// instruction invalidates stale stores.
inline constexpr unsigned NumOps = 27;

/// One fixed-width instruction: a dense opcode plus three inline
/// operands (their meaning per opcode is documented on Op).
struct Instr {
  Op Code = Op::Return;
  uint8_t A = 0;  ///< Small operand: primop, expected sort.
  uint16_t B = 0; ///< Frame-slot operand: local index, field count.
  int32_t C = 0;  ///< Wide operand: pool/proto/table index, jump target.
};

/// One captured free variable: the creating frame's slot it is copied
/// from, and its register class (validated when the capture is copied).
struct Capture {
  uint16_t Src = 0;
  uint8_t Sort = 0; ///< mcalc::VarSort value.
};

/// One compilation unit: a lambda body, a thunk right-hand side, or the
/// module's entry term (always proto 0). Code lives in the module-wide
/// stream as the half-open range [Entry, End); frame layout is captures
/// first (slots 0..Caps.size()), then the parameters in order, then the
/// body's binders and scratch slots.
///
/// Protos carry a true arity: a syntactic λx₁…λxₙ run compiles to one
/// proto with N rep-typed parameters, so a saturated call moves every
/// argument into frame slots in one step (eval/apply) — no intermediate
/// closure per argument. Thunk protos have zero parameters; closure
/// protos have at least one; the entry proto is closed (no captures, no
/// parameters).
struct Proto {
  uint32_t Entry = 0;
  uint32_t End = 0;
  uint16_t NumLocals = 0;
  std::vector<uint8_t> ParamSorts; ///< One mcalc::VarSort per parameter.
  std::vector<Capture> Caps;

  uint16_t numParams() const { return static_cast<uint16_t>(ParamSorts.size()); }

  /// Parameter I's frame slot (by convention, right after captures).
  uint16_t paramSlot(uint16_t I = 0) const {
    return static_cast<uint16_t>(Caps.size() + I);
  }
};

/// One alternative of a Switch dispatch table, mirroring mcalc::MAlt:
/// a constructor-tag pattern binding NumBinders consecutive frame slots
/// starting at BindersBase, or an Int#/Double# literal pattern.
struct SwitchAlt {
  uint8_t Pat = 0; ///< mcalc::MAlt::PatKind value.
  uint32_t Tag = 0;
  int64_t IntVal = 0;
  double DblVal = 0;
  uint32_t Target = 0;      ///< Code index of the alternative's body.
  uint16_t BindersBase = 0; ///< First bound frame slot (Con patterns).
  std::vector<uint8_t> BinderSorts; ///< One VarSort per bound field.
};

/// The dispatch table one Switch instruction consults. DefaultTarget is
/// -1 when the alternatives are exhaustive (no match is then stuck,
/// exactly like the machine's SWITCHk rule).
///
/// DenseAltIdx/DenseTagBase are derived dispatch data, rebuilt by
/// buildDispatchTables() after compile() and after BCOD decode — never
/// serialized, never validated. When the alternatives are all
/// constructor-tag patterns over a compact tag range, DenseAltIdx maps
/// `Tag - DenseTagBase` straight to the alternative index (-1: fall to
/// the default/stuck path), replacing the linear pattern scan.
struct SwitchTable {
  std::vector<SwitchAlt> Alts;
  int64_t DefaultTarget = -1;
  uint32_t DenseTagBase = 0;
  std::vector<int32_t> DenseAltIdx; ///< Empty when dense dispatch is off.
};

/// A global of a program module: Run computes its value (a run of the
/// global enters it), and LoadGlobal makes its per-run cell from Cell:
/// Run as a thunk, or for a function its closure proto.
struct Global {
  uint32_t Run = 0;
  uint32_t Cell = 0;
};

/// One compiled program: the flat code stream, its protos, constant
/// pools, switch tables, and globals. Immutable after compile()/decode
/// and safe to share across threads.
struct Module {
  std::vector<Instr> Code;
  std::vector<Proto> Protos; ///< Protos[0] is the entry.
  std::vector<int64_t> IntPool;
  std::vector<double> DblPool;
  std::vector<std::string> StrPool; ///< Error messages.
  std::vector<SwitchTable> Tables;
  std::vector<Global> Globals; ///< Indexed by LoadGlobal's operand.
};

/// The compiler refuses terms nested deeper than this (its recursion
/// depth must stay bounded) and frames
/// needing more slots than a u16 operand can address. Both failures are
/// pinned "bytecode backend: ..." diagnostics; the driver reports them
/// as an Unsupported run.
inline constexpr unsigned MaxCompileDepth = 1u << 11;
inline constexpr unsigned MaxFrameSlots = 65535;

/// Deterministic work counts of one compile() call. Both grow linearly
/// with the term; tests pin that.
struct CompileStats {
  /// Variable occurrences visited while computing the capture lists.
  uint64_t FreeVarVisits = 0;
  /// Instructions emitted, before peephole fusion.
  uint64_t InstrsEmitted = 0;
};

/// A global for compileProgram: the term computing its value, and the
/// pointer variable other terms name its cell by.
struct GlobalTerm {
  Symbol Var;
  const mcalc::Term *Value = nullptr;
};

/// Compiles a program to one Module: Globals[k] becomes Module::Globals[k]
/// (global 0 runs proto 0), and a use of its Var a LoadGlobal. Fails
/// (never miscompiles) on out-of-fragment shapes: other free variables,
/// over-deep nesting, frames over MaxFrameSlots. \p Stats, when given,
/// receives the compile's work counts.
Result<std::shared_ptr<const Module>>
compileProgram(std::span<const GlobalTerm> Globals,
               CompileStats *Stats = nullptr);

/// Compiles a closed M term as a one-global program.
Result<std::shared_ptr<const Module>> compile(const mcalc::Term *T,
                                              CompileStats *Stats = nullptr);

/// Structural validation of everything the VM trusts: proto code ranges
/// partition-safe and terminator-ended, slot/pool/proto/table/global
/// operands in range, closed entry, run and cell protos, jump and switch
/// targets inside the referencing proto, and capture sources inside the
/// creating frame. compile() output always
/// validates; decoded `.levc` payloads must pass this before running.
bool validate(const Module &M);

/// Rebuilds the derived dense-dispatch tables (SwitchTable::DenseAltIdx)
/// for every switch whose alternatives are all constructor tags in a
/// compact range. Called by compile() on its output and by the artifact
/// decoder after validate(); hand-built Modules run fine without it (the
/// VM falls back to the linear pattern scan).
void buildDispatchTables(Module &M);

} // namespace bytecode
} // namespace levity

#endif // LEVITY_BYTECODE_BYTECODE_H
