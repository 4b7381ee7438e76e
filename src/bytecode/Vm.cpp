//===- Vm.cpp - Threaded interpreter for bytecode Modules -----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The dispatch loop. On GCC/Clang it is a threaded interpreter: each
// handler ends by loading the next opcode and jumping straight to its
// label (computed goto), so the branch predictor learns per-opcode
// successor patterns instead of funnelling every instruction through one
// switch. A portable switch fallback compiles everywhere else (or with
// -DLEVITY_VM_NO_COMPUTED_GOTO for differential testing of the two
// loops).
//
// The loop performs no operand bounds checks: validate() proved every
// slot/pool/target operand in range and the stack-effect dataflow exact,
// so the only runtime checks left are the semantic ones the term machine
// itself performs (value shapes, register classes, division guards) —
// each mapping to the machine's stuck conditions.
//
// Frames share one contiguous Slot stack for locals and one for
// operands; a frame is four integers and two pointers. Calls follow the
// eval/apply model: a saturated CallN/TailCallN moves every argument
// into frame slots in one step, under-application builds a PAP object,
// and over-application parks the surplus args below the new frame's
// floor (FrameRec::PendArgs) so the returned value is applied to them.
// A tail call pops the frame and re-enters at the same stack position —
// the iterative sum-to loop runs at constant frame depth — while
// passing along the pending thunk update, so a tail call inside a
// forced thunk still writes the result back (FCE).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Vm.h"

#include <limits>

using namespace levity;
using namespace levity::bytecode;
using mcalc::MPrim;
using mcalc::VarSort;

#if (defined(__GNUC__) || defined(__clang__)) &&                               \
    !defined(LEVITY_VM_NO_COMPUTED_GOTO)
#define LEVITY_VM_COMPUTED_GOTO 1
#else
#define LEVITY_VM_COMPUTED_GOTO 0
#endif

namespace {

/// The machine's APP-against-non-lambda stucks, keyed by the pending
/// argument's register class (mirrors Frame::AppPtr/AppLit/AppDbl).
const char *appStuckMsg(uint8_t ArgKind) {
  switch (static_cast<VarSort>(ArgKind)) {
  case VarSort::Ptr:
    return "App(p) against a non-lambda value";
  case VarSort::Int:
    return "App(n) against a non-lambda value";
  case VarSort::Dbl:
    return "App(d) against a non-lambda value";
  }
  return "App against a non-lambda value";
}

/// The machine's calling-convention stucks, keyed the same way.
const char *ccMismatchMsg(uint8_t ArgKind) {
  switch (static_cast<VarSort>(ArgKind)) {
  case VarSort::Ptr:
    return "calling-convention mismatch: pointer argument for an "
           "integer-register parameter";
  case VarSort::Int:
    return "calling-convention mismatch: integer argument for a "
           "non-integer-register parameter";
  case VarSort::Dbl:
    return "calling-convention mismatch: double argument for a "
           "non-double-register parameter";
  }
  return "calling-convention mismatch";
}

} // namespace

VmResult Vm::run(const Module &M, uint64_t MaxSteps, uint32_t EntryIdx) {
  VmResult R;
  VmStats S;

  Opers.clear();
  Locals.clear();
  Frames.clear();
  // Region-recycle the heap: rewind the cursor instead of destroying the
  // deque, so steady-state runs reuse prior runs' Objs (and their Fields
  // capacity) with no per-object allocator traffic.
  HeapUsed = 0;
  GlobalCells.assign(M.Globals.size(), nullptr);
  Opers.reserve(256);
  Locals.reserve(1024);
  Frames.reserve(128);

  const Instr *Code = M.Code.data();
  const Proto *Entry = &M.Protos[EntryIdx];
  Frames.push_back({Entry, 0, 0, 0, nullptr});
  S.MaxFrameDepth = 1;
  Locals.resize(Entry->NumLocals);
  uint32_t IP = Entry->Entry;
  uint32_t LBase = 0;
  const Instr *I = nullptr;

  // Registers of the shared apply/return/prim paths (declared up front:
  // the handlers reach those paths by goto, which must not jump over
  // initializations).
  Slot ApFn;            ///< The applied value.
  uint32_t ApN = 0;     ///< Argument count; args are Opers' top ApN slots.
  uint32_t ApFloor = 0; ///< Operand floor the application's value lands on.
  uint32_t ApRetIP = 0; ///< Continuation code index.
  Obj *ApUpd = nullptr; ///< Thunk the application's value updates, if any.
  bool ApTail = false;  ///< Ledger: TailCalls vs Calls.
  Slot RetV;            ///< Value being returned.
  Slot PrLhs, PrRhs;    ///< Primop operands.
  Slot FV;              ///< Value being forced to WHNF.

  auto deref = [](Slot V) {
    while (V.isPtr() && V.P->Kind == Obj::K::Ind)
      V = V.P->Val;
    return V;
  };

  // Hands out the next region slot, reinitializing a recycled Obj to the
  // same state emplace_back() would give a fresh one (Fields keeps its
  // capacity — that is the point).
  auto AllocObj = [&]() -> Obj & {
    if (HeapUsed == Heap.size()) {
      ++HeapUsed;
      return Heap.emplace_back();
    }
    Obj &O = Heap[HeapUsed++];
    O.Kind = Obj::K::Thunk;
    O.IsBox = false;
    O.Tag = 0;
    O.ProtoIdx = 0;
    O.Val = Slot();
    O.Fields.clear();
    return O;
  };

  // Live field/capture slots across all heap objects, for the byte-level
  // peak meter (updated at every alloc, released on thunk update).
  size_t FieldSlots = 0;
  auto NoteAlloc = [&](size_t NewFields) {
    FieldSlots += NewFields;
    if (HeapUsed > S.MaxHeapObjects)
      S.MaxHeapObjects = HeapUsed;
    size_t LiveBytes = HeapUsed * sizeof(Obj) + FieldSlots * sizeof(Slot);
    if (LiveBytes > S.PeakHeapBytes)
      S.PeakHeapBytes = LiveBytes;
  };

#define VM_STUCK(Msg)                                                          \
  do {                                                                         \
    R.Out = VmResult::Outcome::Stuck;                                          \
    R.StuckReason = (Msg);                                                     \
    goto Done;                                                                 \
  } while (0)

#if LEVITY_VM_COMPUTED_GOTO
  static const void *JumpTable[NumOps] = {
      &&Lb_PushInt,  &&Lb_PushDbl,     &&Lb_LoadLocal, &&Lb_LoadForce,
      &&Lb_StoreLocal, &&Lb_StoreStrict, &&Lb_MkClosure, &&Lb_MkClosureRec,
      &&Lb_MkThunk,  &&Lb_MkThunkRec,  &&Lb_Call,      &&Lb_TailCall,
      &&Lb_Return,   &&Lb_Prim,        &&Lb_MkBox,     &&Lb_UnBox,
      &&Lb_AllocCon, &&Lb_Jump,        &&Lb_If0,       &&Lb_Switch,
      &&Lb_Error,    &&Lb_CallN,       &&Lb_TailCallN, &&Lb_PrimLocal,
      &&Lb_PrimInt,  &&Lb_ReturnLocal, &&Lb_LoadGlobal};
#define VM_CASE(Name) Lb_##Name
#define VM_NEXT()                                                              \
  do {                                                                         \
    if (S.Steps == MaxSteps)                                                   \
      goto FuelOut;                                                            \
    ++S.Steps;                                                                 \
    I = &Code[IP++];                                                           \
    goto *JumpTable[static_cast<uint8_t>(I->Code)];                            \
  } while (0)
  VM_NEXT();
#else
#define VM_CASE(Name) case Op::Name
#define VM_NEXT() goto Dispatch
Dispatch:
  if (S.Steps == MaxSteps)
    goto FuelOut;
  ++S.Steps;
  I = &Code[IP++];
  switch (I->Code) {
#endif

  VM_CASE(PushInt) : {
    Opers.push_back(Slot::ofInt(M.IntPool[static_cast<uint32_t>(I->C)]));
  }
  VM_NEXT();

  VM_CASE(PushDbl) : {
    Opers.push_back(Slot::ofDbl(M.DblPool[static_cast<uint32_t>(I->C)]));
  }
  VM_NEXT();

  VM_CASE(LoadLocal) : { Opers.push_back(Locals[LBase + I->B]); }
  VM_NEXT();

  VM_CASE(LoadForce) : {
    FV = Locals[LBase + I->B];
    goto DoForce;
  }

  VM_CASE(LoadGlobal) : {
    Obj *&Cell = GlobalCells[static_cast<uint32_t>(I->C)];
    if (!Cell) {
      // First demand this run: make the global's cell, a thunk of its
      // cell proto or, for a function, its closure.
      const uint32_t Q = M.Globals[static_cast<uint32_t>(I->C)].Cell;
      Obj &O = AllocObj();
      O.Kind = M.Protos[Q].numParams() ? Obj::K::Closure : Obj::K::Thunk;
      O.ProtoIdx = Q;
      ++S.Allocations;
      NoteAlloc(0);
      Cell = &O;
    }
    FV = Slot::ofPtr(Cell);
    if (I->A)
      goto DoForce;
    Opers.push_back(FV);
  }
  VM_NEXT();

  DoForce : {
    Slot V = FV;
    for (;;) {
      if (!V.isPtr()) {
        // A heap cell can hold a raw unboxed value (rule VAL on a
        // literal right-hand side); it is already WHNF.
        ++S.VarLookups;
        Opers.push_back(V);
        break;
      }
      Obj *O = V.P;
      if (O->Kind == Obj::K::Ind) {
        V = O->Val;
        continue;
      }
      if (O->Kind == Obj::K::Closure || O->Kind == Obj::K::Con ||
          O->Kind == Obj::K::Pap) {
        ++S.VarLookups;
        Opers.push_back(V);
        break;
      }
      if (O->Kind == Obj::K::Blackhole)
        VM_STUCK("dangling heap pointer (thunk forced while evaluating)");
      // Thunk: black-hole the cell and enter its proto (rule EVAL). The
      // frame remembers the cell so Return writes the value back (FCE).
      const Proto *Q = &M.Protos[O->ProtoIdx];
      O->Kind = Obj::K::Blackhole;
      ++S.ThunkEvals;
      uint32_t NewLBase = static_cast<uint32_t>(Locals.size());
      Frames.push_back({Q, IP, NewLBase,
                        static_cast<uint32_t>(Opers.size()), O});
      if (Frames.size() > S.MaxFrameDepth)
        S.MaxFrameDepth = Frames.size();
      Locals.resize(NewLBase + Q->NumLocals);
      for (size_t J = 0; J != O->Fields.size(); ++J)
        Locals[NewLBase + J] = O->Fields[J];
      // Keep the captures while blackholed: an aborted run (fuel, stuck,
      // error) reverts the cell to Thunk at Done, and that is only sound
      // if the thunk's environment is still intact. The slots are
      // released on update instead (Return).
      LBase = NewLBase;
      IP = Q->Entry;
      break;
    }
  }
  VM_NEXT();

  VM_CASE(StoreLocal) : {
    Locals[LBase + I->B] = Opers.back();
    Opers.pop_back();
  }
  VM_NEXT();

  VM_CASE(StoreStrict) : {
    Slot V = Opers.back();
    Opers.pop_back();
    switch (static_cast<VarSort>(I->A)) {
    case VarSort::Ptr:
      VM_STUCK("let! continuation over a pointer binder");
    case VarSort::Int:
      if (!V.isInt())
        VM_STUCK("let! continuation expects an integer literal");
      break;
    case VarSort::Dbl:
      if (!V.isDbl())
        VM_STUCK("let! continuation expects a double literal");
      break;
    }
    Locals[LBase + I->B] = V;
  }
  VM_NEXT();

  VM_CASE(MkClosure) : {
    const Proto &Q = M.Protos[static_cast<uint32_t>(I->C)];
    Obj &O = AllocObj();
    O.Kind = Obj::K::Closure;
    O.ProtoIdx = static_cast<uint32_t>(I->C);
    O.Fields.resize(Q.Caps.size());
    for (size_t J = 0; J != Q.Caps.size(); ++J)
      O.Fields[J] = Locals[LBase + Q.Caps[J].Src];
    ++S.Allocations;
    NoteAlloc(O.Fields.size());
    Opers.push_back(Slot::ofPtr(&O));
  }
  VM_NEXT();

  VM_CASE(MkClosureRec) : {
    // RECLET: the destination slot is written before captures are
    // copied, so a self-capture ties the knot through the fresh cell.
    const Proto &Q = M.Protos[static_cast<uint32_t>(I->C)];
    Obj &O = AllocObj();
    O.Kind = Obj::K::Closure;
    O.ProtoIdx = static_cast<uint32_t>(I->C);
    Locals[LBase + I->B] = Slot::ofPtr(&O);
    O.Fields.resize(Q.Caps.size());
    for (size_t J = 0; J != Q.Caps.size(); ++J)
      O.Fields[J] = Locals[LBase + Q.Caps[J].Src];
    ++S.Allocations;
    ++S.Knots;
    NoteAlloc(O.Fields.size());
  }
  VM_NEXT();

  VM_CASE(MkThunk) : {
    const Proto &Q = M.Protos[static_cast<uint32_t>(I->C)];
    Obj &O = AllocObj();
    O.Kind = Obj::K::Thunk;
    O.ProtoIdx = static_cast<uint32_t>(I->C);
    O.Fields.resize(Q.Caps.size());
    for (size_t J = 0; J != Q.Caps.size(); ++J)
      O.Fields[J] = Locals[LBase + Q.Caps[J].Src];
    ++S.Allocations;
    NoteAlloc(O.Fields.size());
    Opers.push_back(Slot::ofPtr(&O));
  }
  VM_NEXT();

  VM_CASE(MkThunkRec) : {
    const Proto &Q = M.Protos[static_cast<uint32_t>(I->C)];
    Obj &O = AllocObj();
    O.Kind = Obj::K::Thunk;
    O.ProtoIdx = static_cast<uint32_t>(I->C);
    Locals[LBase + I->B] = Slot::ofPtr(&O);
    O.Fields.resize(Q.Caps.size());
    for (size_t J = 0; J != Q.Caps.size(); ++J)
      O.Fields[J] = Locals[LBase + Q.Caps[J].Src];
    ++S.Allocations;
    ++S.Knots;
    NoteAlloc(O.Fields.size());
  }
  VM_NEXT();

  VM_CASE(Call) : {
    // One-argument apply: remove the function (one slot below the arg),
    // shifting the arg down onto the operand floor.
    const size_t FnPos = Opers.size() - 2;
    ApFn = Opers[FnPos];
    Opers[FnPos] = Opers.back();
    Opers.pop_back();
    ApN = 1;
    ApFloor = static_cast<uint32_t>(FnPos);
    ApRetIP = IP;
    ApUpd = nullptr;
    ApTail = false;
    goto DoApply;
  }

  VM_CASE(CallN) : {
    const uint32_t N = I->B;
    const size_t FnPos = Opers.size() - N - 1;
    ApFn = Opers[FnPos];
    Opers.erase(Opers.begin() + static_cast<ptrdiff_t>(FnPos));
    ApN = N;
    ApFloor = static_cast<uint32_t>(FnPos);
    ApRetIP = IP;
    ApUpd = nullptr;
    ApTail = false;
    ++S.UncurriedCalls;
    goto DoApply;
  }

  VM_CASE(TailCall) : {
    ApN = 1;
    goto DoTailCall;
  }

  VM_CASE(TailCallN) : {
    ApN = I->B;
    ++S.UncurriedCalls;
    goto DoTailCall;
  }

  DoTailCall : {
    // Replace the current frame: its continuation (return address, thunk
    // update, operand floor) becomes the application's continuation — a
    // tail call inside a thunk body must still write the eventual value
    // back to the thunk's cell. Any pending over-application args the
    // frame holds (directly below its floor) are appended to this call's
    // args: applying f to [tail-args ++ pend-args] left to right is
    // exactly "apply f to the tail args, then the result to the pending
    // ones".
    const FrameRec F = Frames.back();
    Frames.pop_back();
    const uint32_t X = F.OBase - F.PendArgs;
    const size_t FnPos = Opers.size() - ApN - 1;
    ApFn = Opers[FnPos];
    ApBuf.assign(Opers.begin() + static_cast<ptrdiff_t>(FnPos) + 1,
                 Opers.end());
    // Keep the pending args below the floor, drop everything above it
    // (the function and any leftover operands), then splice this call's
    // args in *below* the pending batch — first-applied deepest.
    Opers.resize(F.OBase);
    Opers.insert(Opers.begin() + X, ApBuf.begin(), ApBuf.end());
    ApN += F.PendArgs;
    ApFloor = X;
    ApRetIP = F.ReturnIP;
    ApUpd = F.Update;
    ApTail = true;
    Locals.resize(F.LBase);
    goto DoApply;
  }

  DoApply : {
    // The eval/apply loop: ApN args sit on top of Opers (first-applied
    // deepest, args base == ApFloor), ApFn is the value being applied.
    // Terminates by entering a proto at saturation, building a PAP on
    // under-application, or sticking — each pass consumes or produces
    // at least one argument, so it is bounded without burning fuel.
    for (;;) {
      ApFn = deref(ApFn);
      const size_t ArgsBase = Opers.size() - ApN;
      if (!ApFn.isPtr() || (ApFn.P->Kind != Obj::K::Closure &&
                            ApFn.P->Kind != Obj::K::Pap))
        VM_STUCK(appStuckMsg(Opers[ArgsBase].Kind));
      Obj *FO = ApFn.P;
      if (FO->Kind == Obj::K::Pap) {
        // Unfold: the PAP's stored args were applied first, so they go
        // below the new batch; retry against the underlying closure.
        Opers.insert(Opers.begin() + static_cast<ptrdiff_t>(ArgsBase),
                     FO->Fields.begin(), FO->Fields.end());
        ApN += static_cast<uint32_t>(FO->Fields.size());
        ApFn = FO->Val;
        continue;
      }
      const Proto *Q = &M.Protos[FO->ProtoIdx];
      const uint32_t A = Q->numParams();
      if (A == 0)
        VM_STUCK(appStuckMsg(Opers[ArgsBase].Kind));
      // Calling conventions are checked in application order, so the
      // first mismatching argument reports — same message the machine's
      // one-arg-at-a-time BETA sequence would pick.
      const uint32_t Use = ApN < A ? ApN : A;
      for (uint32_t J = 0; J != Use; ++J)
        if (Q->ParamSorts[J] != Opers[ArgsBase + J].Kind)
          VM_STUCK(ccMismatchMsg(Opers[ArgsBase + J].Kind));
      if (ApN < A) {
        // Under-application: the value is a PAP — return it to the
        // continuation (updating the pending thunk, if any).
        Obj &O = AllocObj();
        O.Kind = Obj::K::Pap;
        O.Val = ApFn;
        O.Fields.assign(Opers.begin() + static_cast<ptrdiff_t>(ArgsBase),
                        Opers.end());
        ++S.Allocations;
        ++S.PapAllocs;
        NoteAlloc(O.Fields.size());
        RetV = Slot::ofPtr(&O);
        if (ApUpd) {
          ApUpd->Kind = Obj::K::Ind;
          ApUpd->Val = RetV;
          FieldSlots -= ApUpd->Fields.size();
          ApUpd->Fields.clear();
          ++S.ThunkUpdates;
        }
        Opers.resize(ApFloor);
        Opers.push_back(RetV);
        if (Frames.empty())
          goto Finished;
        LBase = Frames.back().LBase;
        IP = ApRetIP;
        break;
      }
      // Saturation: enter the proto with the first A args in frame
      // slots. Surplus args (over-application) slide down to the floor
      // and wait below the new frame as its PendArgs.
      if (ApTail)
        ++S.TailCalls;
      else
        ++S.Calls;
      const uint32_t NewLBase = static_cast<uint32_t>(Locals.size());
      Locals.resize(NewLBase + Q->NumLocals);
      const std::vector<Slot> &Env = FO->Fields;
      for (size_t J = 0; J != Env.size(); ++J)
        Locals[NewLBase + J] = Env[J];
      for (uint32_t J = 0; J != A; ++J)
        Locals[NewLBase + Env.size() + J] = Opers[ArgsBase + J];
      const uint32_t Pend = ApN - A;
      for (uint32_t J = 0; J != Pend; ++J)
        Opers[ApFloor + J] = Opers[ArgsBase + A + J];
      Opers.resize(ApFloor + Pend);
      Frames.push_back({Q, ApRetIP, NewLBase, ApFloor + Pend, ApUpd, Pend});
      if (Frames.size() > S.MaxFrameDepth)
        S.MaxFrameDepth = Frames.size();
      LBase = NewLBase;
      IP = Q->Entry;
      break;
    }
  }
  VM_NEXT();

  VM_CASE(Return) : {
    RetV = Opers.back();
    goto DoReturn;
  }

  VM_CASE(ReturnLocal) : {
    ++S.FusedOps;
    RetV = Locals[LBase + I->B];
    goto DoReturn;
  }

  DoReturn : {
    FrameRec F = Frames.back();
    Frames.pop_back();
    Opers.resize(F.OBase);
    Locals.resize(F.LBase);
    if (F.PendArgs != 0) {
      // Over-application surplus: the returned value is itself applied
      // to the args waiting below the frame's floor, inheriting the
      // frame's continuation (return address and thunk update — the
      // thunk's value is the *full* application's result).
      ApFn = RetV;
      ApN = F.PendArgs;
      ApFloor = F.OBase - F.PendArgs;
      ApRetIP = F.ReturnIP;
      ApUpd = F.Update;
      ApTail = false;
      goto DoApply;
    }
    if (F.Update) {
      F.Update->Kind = Obj::K::Ind;
      F.Update->Val = RetV;
      // The captures are dead once the thunk is an indirection (they
      // were kept through the blackhole phase for abort-retryability).
      FieldSlots -= F.Update->Fields.size();
      F.Update->Fields.clear();
      ++S.ThunkUpdates;
    }
    Opers.push_back(RetV);
    if (Frames.empty())
      goto Finished;
    LBase = Frames.back().LBase;
    IP = F.ReturnIP;
  }
  VM_NEXT();

  VM_CASE(Prim) : {
    PrRhs = Opers.back();
    Opers.pop_back();
    goto DoPrim;
  }

  VM_CASE(PrimLocal) : {
    ++S.FusedOps;
    PrRhs = Locals[LBase + I->B];
    goto DoPrim;
  }

  VM_CASE(PrimInt) : {
    ++S.FusedOps;
    PrRhs = Slot::ofInt(M.IntPool[static_cast<uint32_t>(I->C)]);
    goto DoPrim;
  }

  DoPrim : {
    // Shared primop body: the lhs is the operand-stack top and the
    // result overwrites it in place; the rhs came from the stack (Prim),
    // a frame slot (PrimLocal), or the Int# pool (PrimInt).
    PrLhs = Opers.back();
    const MPrim OpK = static_cast<MPrim>(I->A);
    ++S.Prims;
    if (mcalc::mPrimTakesDouble(OpK)) {
      if (!PrLhs.isDbl() || !PrRhs.isDbl())
        VM_STUCK("integer atom in a double primop");
      if (mcalc::mPrimReturnsDouble(OpK))
        Opers.back() = Slot::ofDbl(mcalc::evalMPrimDD(OpK, PrLhs.D, PrRhs.D));
      else
        Opers.back() = Slot::ofInt(mcalc::evalMPrimDI(OpK, PrLhs.D, PrRhs.D));
    } else {
      if (!PrLhs.isInt() || !PrRhs.isInt())
        VM_STUCK("double atom in an integer primop");
      if (OpK == MPrim::Quot || OpK == MPrim::Rem) {
        if (PrRhs.I == 0)
          VM_STUCK("divide by zero");
        if (PrLhs.I == std::numeric_limits<int64_t>::min() && PrRhs.I == -1)
          VM_STUCK("integer overflow in division");
      }
      Opers.back() = Slot::ofInt(mcalc::evalMPrim(OpK, PrLhs.I, PrRhs.I));
    }
  }
  VM_NEXT();

  VM_CASE(MkBox) : {
    Slot V = Opers.back();
    if (!V.isInt())
      VM_STUCK("I# box over a non-integer atom");
    Obj &O = AllocObj();
    O.Kind = Obj::K::Con;
    O.IsBox = true;
    O.Tag = 0;
    O.Fields.assign(1, V);
    ++S.Allocations;
    ++S.ConAllocs;
    NoteAlloc(O.Fields.size());
    Opers.back() = Slot::ofPtr(&O);
  }
  VM_NEXT();

  VM_CASE(UnBox) : {
    Slot V = deref(Opers.back());
    Opers.pop_back();
    if (static_cast<VarSort>(I->A) != VarSort::Int || !V.isPtr() ||
        V.P->Kind != Obj::K::Con || !V.P->IsBox)
      VM_STUCK("case continuation expects I#[n]");
    Locals[LBase + I->B] = V.P->Fields[0];
  }
  VM_NEXT();

  VM_CASE(AllocCon) : {
    const uint32_t NF = I->B;
    Obj &O = AllocObj();
    O.Kind = Obj::K::Con;
    O.Tag = static_cast<uint32_t>(I->C);
    O.Fields.resize(NF);
    for (uint32_t J = NF; J-- > 0;) {
      O.Fields[J] = Opers.back();
      Opers.pop_back();
    }
    ++S.Allocations;
    ++S.ConAllocs;
    NoteAlloc(O.Fields.size());
    Opers.push_back(Slot::ofPtr(&O));
  }
  VM_NEXT();

  VM_CASE(Jump) : { IP = static_cast<uint32_t>(I->C); }
  VM_NEXT();

  VM_CASE(If0) : {
    Slot V = Opers.back();
    Opers.pop_back();
    if (!V.isInt())
      VM_STUCK("if0 scrutinee is not an integer literal");
    ++S.Branches;
    if (V.I != 0)
      IP = static_cast<uint32_t>(I->C);
  }
  VM_NEXT();

  VM_CASE(Switch) : {
    Slot V = deref(Opers.back());
    Opers.pop_back();
    ++S.Switches;
    const SwitchTable &T = M.Tables[static_cast<uint32_t>(I->C)];
    bool Taken = false;
    if (V.isPtr()) {
      const Obj *O = V.P;
      if (O->Kind == Obj::K::Con && !O->IsBox) {
        const SwitchAlt *Chosen = nullptr;
        if (!T.DenseAltIdx.empty()) {
          // Dense dispatch: all alternatives are constructor tags in a
          // compact range, so the tag indexes the alternative directly
          // (unsigned wrap makes below-base tags fall out of range).
          const uint32_t Off = O->Tag - T.DenseTagBase;
          if (Off < T.DenseAltIdx.size() && T.DenseAltIdx[Off] >= 0)
            Chosen = &T.Alts[static_cast<size_t>(T.DenseAltIdx[Off])];
        } else {
          for (const SwitchAlt &A : T.Alts)
            if (A.Pat == static_cast<uint8_t>(mcalc::MAlt::PatKind::Con) &&
                A.Tag == O->Tag) {
              Chosen = &A;
              break;
            }
        }
        if (Chosen) {
          const SwitchAlt &A = *Chosen;
          if (A.BinderSorts.size() != O->Fields.size())
            VM_STUCK("switch alternative arity mismatch");
          for (size_t J = 0; J != O->Fields.size(); ++J)
            if (A.BinderSorts[J] != O->Fields[J].Kind)
              VM_STUCK("switch binder register-class mismatch");
          for (size_t J = 0; J != O->Fields.size(); ++J)
            Locals[LBase + A.BindersBase + J] = O->Fields[J];
          ++S.Branches;
          IP = A.Target;
          Taken = true;
        }
      } else if (O->Kind == Obj::K::Con) {
        // I#[n]: tag 0 of Int, one strict Int# field (IMAT via SWITCHk).
        for (const SwitchAlt &A : T.Alts) {
          if (A.Pat != static_cast<uint8_t>(mcalc::MAlt::PatKind::Con) ||
              A.Tag != 0)
            continue;
          if (A.BinderSorts.size() != 1 ||
              A.BinderSorts[0] != static_cast<uint8_t>(VarSort::Int))
            VM_STUCK("switch alternative arity mismatch");
          Locals[LBase + A.BindersBase] = O->Fields[0];
          ++S.Branches;
          IP = A.Target;
          Taken = true;
          break;
        }
      } else if (!T.Alts.empty()) {
        VM_STUCK("switch scrutinee value matches no pattern sort");
      }
    } else if (V.isInt()) {
      for (const SwitchAlt &A : T.Alts)
        if (A.Pat == static_cast<uint8_t>(mcalc::MAlt::PatKind::Int) &&
            A.IntVal == V.I) {
          ++S.Branches;
          IP = A.Target;
          Taken = true;
          break;
        }
    } else {
      for (const SwitchAlt &A : T.Alts)
        if (A.Pat == static_cast<uint8_t>(mcalc::MAlt::PatKind::Dbl) &&
            A.DblVal == V.D) {
          ++S.Branches;
          IP = A.Target;
          Taken = true;
          break;
        }
    }
    if (!Taken) {
      if (T.DefaultTarget < 0)
        VM_STUCK("no matching switch alternative");
      ++S.Branches;
      IP = static_cast<uint32_t>(T.DefaultTarget);
    }
  }
  VM_NEXT();

  VM_CASE(Error) : {
    R.Out = VmResult::Outcome::Bottom;
    if (I->C >= 0)
      R.ErrorMessage = M.StrPool[static_cast<uint32_t>(I->C)];
    goto Done;
  }

#if !LEVITY_VM_COMPUTED_GOTO
  }
  VM_STUCK("invalid opcode"); // Unreachable: validate() bounds opcodes.
#endif

FuelOut:
  R.Out = VmResult::Outcome::OutOfFuel;
  goto Done;

Finished:
  R.Out = VmResult::Outcome::Value;
  R.Final = deref(Opers.back());

Done:
  // Abnormal exits (stuck, bottom, out of fuel) abandon the frame stack
  // with every pending update frame's thunk still blackholed. Revert
  // them to runnable thunks — captures were kept while blackholed — so
  // a reused per-Executor Vm can retry the same Compilation: the VM
  // mirror of the tree interpreter's un-blackhole unwind. Value exits
  // emptied the stack, so the loop is a no-op there.
  for (const FrameRec &F : Frames)
    if (F.Update && F.Update->Kind == Obj::K::Blackhole)
      F.Update->Kind = Obj::K::Thunk;
  R.Stats = S;
  return R;

#undef VM_STUCK
#undef VM_CASE
#undef VM_NEXT
}
