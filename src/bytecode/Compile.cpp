//===- Compile.cpp - M terms to flat bytecode -----------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Compiles programs of M terms to the flat Module format of Bytecode.h,
// and validates Modules decoded from untrusted bytes.
//
// The compilation story is the paper's Section 6.2 invariant made
// operational a second time: because every M binder carries exactly one
// VarSort, a term can be frame-allocated — every variable becomes a
// fixed slot of known register class, every atom movement a known-width
// copy — with no runtime tagging decisions left. The term machine
// re-substitutes on every beta step; here each lambda body, thunk
// right-hand side, and each global's term becomes a Proto compiled once.
// A global's variable is never captured: every occurrence loads the
// global's per-run cell (LoadGlobal), so a closure's captures are its
// local free variables only.
//
// Capture lists are computed once, bottom-up, before any code is emitted:
// one walk of the whole term finds every proto's free variables in
// first-occurrence order (see scan()), so cold compile is linear in the
// term — a parent reuses its nested closures' lists and never re-walks
// them. Each proto also records its own switch tables, so peephole fusion
// and linking touch only those.
//
// Laziness is preserved exactly: `let` right-hand sides become thunk
// protos (captures copied at allocation, body run on first force),
// except for syntactic values (λ, CON, I#[n], n, d) which the machine
// itself treats as allocate-a-value (rule VAL on lookup) and a bare
// variable right-hand side, which aliases the existing slot. `letrec`
// writes the destination slot before copying captures, so the knot's
// self-reference sees its own cell — the RECLET rule.
//
// The compiler refuses what it cannot prove: a free variable, nesting
// past MaxCompileDepth, or a frame over MaxFrameSlots yields a pinned
// "bytecode backend: ..." diagnostic, which the driver reports as an
// Unsupported run. It never emits code whose behavior could diverge
// from the machine's.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_map>

using namespace levity;
using namespace levity::bytecode;
using mcalc::MAlt;
using mcalc::MAtom;
using mcalc::MVar;
using mcalc::Term;
using mcalc::VarSort;
using mcalc::cast;

namespace {

constexpr const char *DiagPrefix = "bytecode backend: ";

/// The whole compilation state for one compile() call.
class Compiler {
public:
  Result<std::shared_ptr<const Module>>
  run(std::span<const GlobalTerm> Globals);
  const CompileStats &stats() const { return Stats; }

private:
  /// One name's frame slot and register class.
  struct Binding {
    uint32_t Slot = 0;
    VarSort Sort = VarSort::Ptr;
  };

  /// Build state of one proto: its code (jump targets proto-relative
  /// until link), its frame-slot counter, and the in-scope names.
  struct ProtoCtx {
    std::vector<Instr> Code;
    uint32_t NumLocals = 0;
    std::vector<uint32_t> Tables; ///< The Mod.Tables entries this code owns.
    /// Innermost binding last — shadowing is a push/pop.
    std::unordered_map<Symbol, std::vector<Binding>, SymbolHash> Scope;
  };

  Module Mod;
  std::vector<std::unique_ptr<ProtoCtx>> Ctxs; ///< Parallel to Mod.Protos.
  std::unordered_map<int64_t, uint32_t> IntIdx;
  std::unordered_map<uint64_t, uint32_t> DblIdx;
  std::unordered_map<std::string, uint32_t> StrIdx;
  std::string Diag;
  unsigned Depth = 0;
  /// Global variable → its index in Mod.Globals.
  std::unordered_map<Symbol, uint32_t, SymbolHash> GlobalIdx;

  bool fail(std::string Msg) {
    if (Diag.empty())
      Diag = DiagPrefix + std::move(Msg);
    return false;
  }

  size_t emit(ProtoCtx &P, Op Code, uint8_t A = 0, uint16_t B = 0,
              int32_t C = 0) {
    ++Stats.InstrsEmitted;
    P.Code.push_back({Code, A, B, C});
    return P.Code.size() - 1;
  }

  uint32_t intPool(int64_t V) {
    auto [It, New] = IntIdx.try_emplace(V, Mod.IntPool.size());
    if (New)
      Mod.IntPool.push_back(V);
    return It->second;
  }
  uint32_t dblPool(double V) {
    auto [It, New] =
        DblIdx.try_emplace(std::bit_cast<uint64_t>(V), Mod.DblPool.size());
    if (New)
      Mod.DblPool.push_back(V);
    return It->second;
  }
  uint32_t strPool(std::string V) {
    auto [It, New] = StrIdx.try_emplace(V, Mod.StrPool.size());
    if (New)
      Mod.StrPool.push_back(std::move(V));
    return It->second;
  }

  bool newLocals(ProtoCtx &P, uint32_t Count, uint32_t &Base) {
    if (P.NumLocals + Count > MaxFrameSlots)
      return fail("frame needs more than " + std::to_string(MaxFrameSlots) +
                  " slots");
    Base = P.NumLocals;
    P.NumLocals += Count;
    return true;
  }

  void bind(ProtoCtx &P, MVar V, uint32_t Slot) {
    P.Scope[V.Name].push_back({Slot, V.Sort});
  }
  void unbind(ProtoCtx &P, MVar V) {
    auto It = P.Scope.find(V.Name);
    assert(It != P.Scope.end() && !It->second.empty() && "unbalanced unbind");
    It->second.pop_back();
    if (It->second.empty())
      P.Scope.erase(It);
  }
  bool lookup(ProtoCtx &P, MVar V, Binding &Out) {
    auto It = P.Scope.find(V.Name);
    if (It == P.Scope.end() || It->second.empty())
      return fail("free variable '" + V.str() + "'");
    Out = It->second.back();
    return true;
  }

  /// Pushes \p V: a frame slot (forced to WHNF when \p Force and the slot
  /// holds a pointer), or a global's cell.
  bool load(ProtoCtx &P, MVar V, bool Force) {
    auto G = GlobalIdx.find(V.Name);
    Binding B;
    if (G != GlobalIdx.end() && !P.Scope.count(V.Name))
      emit(P, Op::LoadGlobal, Force, 0, static_cast<int32_t>(G->second));
    else if (!lookup(P, V, B))
      return false;
    else
      emit(P, Force && B.Sort == VarSort::Ptr ? Op::LoadForce : Op::LoadLocal,
           0, static_cast<uint16_t>(B.Slot));
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Capture lists: one bottom-up pass over the whole term
  //===--------------------------------------------------------------------===//
  //
  // A proto captures the free variables of its closure term (the entry,
  // a λ spine, a thunk or letrec right-hand side) in first-occurrence
  // order. scan() finds every closure's list in one walk, opening the
  // closures in the order compileTerm() creates their protos. An
  // occurrence is free in each open closure between it and its binder:
  // it is appended to those, innermost first, stopping at the first one
  // that already holds that binder — every closure further out holds it
  // too. So a parent reuses what its nested closures found instead of
  // walking them again: each node is visited once per compile and each
  // capture appended once.

  /// A binding site seen by scan(). Names free in the whole term get one
  /// at level 0, outside the entry closure.
  struct ScanBinder {
    MVar Var;       ///< The binder (or the first free occurrence).
    uint32_t Level; ///< Open closures around the binding site.
    /// Deepest open closure holding this binder; exactly the levels in
    /// (Level, Held] do.
    uint32_t Held;
  };

  /// One closure term and its captures (ScanBinders indices), in order.
  struct Closure {
    const Term *At;
    std::vector<uint32_t> Caps;
  };

  std::vector<ScanBinder> ScanBinders;
  /// Name → ScanBinders indices in scope, innermost last.
  std::unordered_map<Symbol, std::vector<uint32_t>, SymbolHash> ScanScope;
  std::vector<Closure> Closures; ///< Index i is the capture list of proto i.
  std::vector<uint32_t> Open;    ///< Closures index per open level.
  CompileStats Stats;

  void scanBind(MVar V) {
    const auto Level = static_cast<uint32_t>(Open.size());
    ScanScope[V.Name].push_back(static_cast<uint32_t>(ScanBinders.size()));
    ScanBinders.push_back({V, Level, Level});
  }
  void scanUnbind(MVar V) { ScanScope[V.Name].pop_back(); }

  void scanUse(MVar V) {
    ++Stats.FreeVarVisits;
    std::vector<uint32_t> &InScope = ScanScope[V.Name];
    if (InScope.empty() && GlobalIdx.count(V.Name))
      return; // Loaded from its cell, never captured.
    if (InScope.empty()) {
      InScope.push_back(static_cast<uint32_t>(ScanBinders.size()));
      ScanBinders.push_back({V, 0, 0});
    }
    const uint32_t B = InScope.back();
    const auto Level = static_cast<uint32_t>(Open.size());
    for (uint32_t L = Level; L > ScanBinders[B].Held; --L)
      Closures[Open[L - 1]].Caps.push_back(B);
    ScanBinders[B].Held = std::max(ScanBinders[B].Held, Level);
  }

  void openClosure(const Term *At) {
    Open.push_back(static_cast<uint32_t>(Closures.size()));
    Closures.push_back({At, {}});
  }
  void closeClosure() {
    const auto Outer = static_cast<uint32_t>(Open.size() - 1);
    for (uint32_t B : Closures[Open.back()].Caps)
      ScanBinders[B].Held = Outer;
    Open.pop_back();
  }

  /// Scans the body of a thunk or entry proto: a term compiled as its
  /// own proto. (A λ opens its closure in scan().)
  bool scanProto(const Term *T, unsigned D) {
    openClosure(T);
    if (!scan(T, D))
      return false;
    closeClosure();
    return true;
  }

  /// Scans \p Body with \p B in scope.
  bool scanUnder(MVar B, const Term *Body, unsigned D) {
    scanBind(B);
    if (!scan(Body, D))
      return false;
    scanUnbind(B);
    return true;
  }

  /// The scan of \p T at nesting depth \p D. On failure the compile is
  /// abandoned, so scopes are not unwound.
  bool scan(const Term *T, unsigned D) {
    if (D > MaxCompileDepth)
      return fail("term nests deeper than the bytecode compiler supports");
    using K = Term::TermKind;
    switch (T->kind()) {
    case K::AppVar: {
      const auto *A = cast<mcalc::AppVarTerm>(T);
      if (!scan(A->fn(), D + 1))
        return false;
      scanUse(A->arg());
      return true;
    }
    case K::AppLit:
      return scan(cast<mcalc::AppLitTerm>(T)->fn(), D + 1);
    case K::AppDbl:
      return scan(cast<mcalc::AppDblTerm>(T)->fn(), D + 1);
    case K::Lam: {
      // One closure per λ spine, like collectLamSpine.
      openClosure(T);
      const Term *Body = T;
      for (; const auto *L = mcalc::dyn_cast<mcalc::LamTerm>(Body);
           Body = L->body(), ++D)
        scanBind(L->param());
      if (!scan(Body, D))
        return false;
      for (const Term *L = T; L != Body; L = cast<mcalc::LamTerm>(L)->body())
        scanUnbind(cast<mcalc::LamTerm>(L)->param());
      closeClosure();
      return true;
    }
    case K::Var:
      scanUse(cast<mcalc::VarTerm>(T)->var());
      return true;
    case K::Let: {
      const auto *L = cast<mcalc::LetTerm>(T);
      const Term *R = L->rhs();
      return (isThunkRhs(R) ? scanProto(R, D + 1) : scan(R, D + 1)) &&
             scanUnder(L->binder(), L->body(), D + 1);
    }
    case K::LetBang: {
      const auto *L = cast<mcalc::LetBangTerm>(T);
      return scan(L->rhs(), D + 1) && scanUnder(L->binder(), L->body(), D + 1);
    }
    case K::LetRec: {
      // RECLET: the right-hand side sees (and captures) its own binder.
      const auto *L = cast<mcalc::LetRecTerm>(T);
      const Term *R = L->rhs();
      scanBind(L->binder());
      if (!(R->kind() == K::Lam ? scan(R, D + 1) : scanProto(R, D + 1)) ||
          !scan(L->body(), D + 1))
        return false;
      scanUnbind(L->binder());
      return true;
    }
    case K::Case: {
      const auto *C = cast<mcalc::CaseTerm>(T);
      return scan(C->scrut(), D + 1) &&
             scanUnder(C->binder(), C->body(), D + 1);
    }
    case K::If0: {
      const auto *I = cast<mcalc::If0Term>(T);
      return scan(I->scrut(), D + 1) && scan(I->thenBranch(), D + 1) &&
             scan(I->elseBranch(), D + 1);
    }
    case K::Error:
    case K::ConLit:
    case K::Lit:
    case K::DLit:
      return true;
    case K::ConVar:
      scanUse(cast<mcalc::ConVarTerm>(T)->var());
      return true;
    case K::Prim: {
      const auto *P = cast<mcalc::PrimTerm>(T);
      if (!P->lhs().IsLit)
        scanUse(P->lhs().Var);
      if (!P->rhs().IsLit)
        scanUse(P->rhs().Var);
      return true;
    }
    case K::Con: {
      for (const MAtom &A : cast<mcalc::ConTerm>(T)->args())
        if (!A.IsLit)
          scanUse(A.Var);
      return true;
    }
    case K::Switch: {
      const auto *S = cast<mcalc::SwitchTerm>(T);
      if (!scan(S->scrut(), D + 1))
        return false;
      for (const MAlt &A : S->alts()) {
        for (MVar B : A.Binders)
          scanBind(B);
        if (!scan(A.Body, D + 1))
          return false;
        for (MVar B : A.Binders)
          scanUnbind(B);
      }
      return !S->defaultBody() || scan(S->defaultBody(), D + 1);
    }
    }
    return fail("unknown term kind");
  }

  //===--------------------------------------------------------------------===//
  // Term compilation
  //===--------------------------------------------------------------------===//

  /// Collapses a syntactic λx₁…λxₙ run into its parameter list and
  /// innermost body — one proto per run, not one per λ, so a saturated
  /// call binds every argument in one step.
  static const Term *collectLamSpine(const Term *T, std::vector<MVar> &Params) {
    while (const auto *L = mcalc::dyn_cast<mcalc::LamTerm>(T)) {
      Params.push_back(L->param());
      T = L->body();
    }
    return T;
  }

  /// Creates a new proto compiling \p Body (in tail position), capturing
  /// the free variables of \p CapTerm from \p Parent's frame. \p Params
  /// are the lambda parameters in order (slots right after captures);
  /// empty for thunk and entry protos.
  bool makeProto(ProtoCtx &Parent, const Term *CapTerm, const Term *Body,
                 const std::vector<MVar> &Params, uint32_t &OutIdx) {
    OutIdx = static_cast<uint32_t>(Mod.Protos.size());
    if (OutIdx >= Closures.size() || Closures[OutIdx].At != CapTerm)
      return fail("capture lists out of step with the protos");
    const std::vector<uint32_t> &Caps = Closures[OutIdx].Caps;
    if (Caps.size() + Params.size() > MaxFrameSlots)
      return fail("closure captures more than " +
                  std::to_string(MaxFrameSlots) + " variables");
    Proto P;
    auto Ctx = std::make_unique<ProtoCtx>();
    for (uint32_t B : Caps) {
      const MVar V = ScanBinders[B].Var;
      Binding Src;
      if (!lookup(Parent, V, Src))
        return false;
      P.Caps.push_back({static_cast<uint16_t>(Src.Slot),
                        static_cast<uint8_t>(Src.Sort)});
      // The capture's slot in the new frame is its capture index; record
      // the *defining* sort so loads pick the right access mode.
      bind(*Ctx, MVar{V.Name, Src.Sort}, Ctx->NumLocals);
      ++Ctx->NumLocals;
    }
    for (const MVar &V : Params) {
      P.ParamSorts.push_back(static_cast<uint8_t>(V.Sort));
      // Later parameters shadow earlier same-named ones (λx.λx.body),
      // exactly like nested single-parameter protos would.
      bind(*Ctx, V, Ctx->NumLocals);
      ++Ctx->NumLocals;
    }
    Mod.Protos.push_back(std::move(P));
    Ctxs.push_back(std::move(Ctx));
    ProtoCtx &C = *Ctxs[OutIdx];
    if (!compileTerm(C, Body, /*Tail=*/true))
      return false;
    emit(C, Op::Return);
    peephole(C);
    if (C.NumLocals > MaxFrameSlots)
      return fail("frame needs more than " + std::to_string(MaxFrameSlots) +
                  " slots");
    Mod.Protos[OutIdx].NumLocals = static_cast<uint16_t>(C.NumLocals);
    return true;
  }

  /// Peephole fusion over one proto's finished (proto-relative) code:
  /// LoadLocal+Prim → PrimLocal, PushInt+Prim → PrimInt, and
  /// LoadLocal+Return → ReturnLocal. A pair is only fused when no jump
  /// or switch target lands on its second instruction; all targets are
  /// remapped through the old→new index table afterwards.
  void peephole(ProtoCtx &P) {
    std::vector<uint8_t> IsTarget(P.Code.size() + 1, 0);
    auto Mark = [&](int64_t T) {
      if (T >= 0 && T <= static_cast<int64_t>(P.Code.size()))
        IsTarget[static_cast<size_t>(T)] = 1;
    };
    for (const Instr &I : P.Code)
      if (I.Code == Op::Jump || I.Code == Op::If0)
        Mark(I.C);
    for (uint32_t T : P.Tables) {
      for (const SwitchAlt &A : Mod.Tables[T].Alts)
        Mark(A.Target);
      if (Mod.Tables[T].DefaultTarget >= 0)
        Mark(Mod.Tables[T].DefaultTarget);
    }
    std::vector<Instr> NewCode;
    NewCode.reserve(P.Code.size());
    std::vector<int32_t> OldToNew(P.Code.size() + 1, 0);
    for (size_t I = 0; I != P.Code.size();) {
      OldToNew[I] = static_cast<int32_t>(NewCode.size());
      const Instr &A = P.Code[I];
      if (I + 1 != P.Code.size() && !IsTarget[I + 1]) {
        const Instr &B = P.Code[I + 1];
        bool Fused = true;
        if (A.Code == Op::LoadLocal && B.Code == Op::Prim)
          NewCode.push_back({Op::PrimLocal, B.A, A.B, 0});
        else if (A.Code == Op::PushInt && B.Code == Op::Prim)
          NewCode.push_back({Op::PrimInt, B.A, 0, A.C});
        else if (A.Code == Op::LoadLocal && B.Code == Op::Return)
          NewCode.push_back({Op::ReturnLocal, 0, A.B, 0});
        else
          Fused = false;
        if (Fused) {
          OldToNew[I + 1] = static_cast<int32_t>(NewCode.size()) - 1;
          I += 2;
          continue;
        }
      }
      NewCode.push_back(A);
      ++I;
    }
    OldToNew[P.Code.size()] = static_cast<int32_t>(NewCode.size());
    for (Instr &In : NewCode)
      if (In.Code == Op::Jump || In.Code == Op::If0)
        In.C = OldToNew[In.C];
    for (uint32_t T : P.Tables) {
      SwitchTable &Tbl = Mod.Tables[T];
      for (SwitchAlt &A : Tbl.Alts)
        A.Target = static_cast<uint32_t>(OldToNew[A.Target]);
      if (Tbl.DefaultTarget >= 0)
        Tbl.DefaultTarget = OldToNew[static_cast<size_t>(Tbl.DefaultTarget)];
    }
    P.Code = std::move(NewCode);
  }

  /// Pushes one atom: a pooled literal, or a raw load of the variable's
  /// slot (atoms are never forced — constructor fields stay lazy and
  /// primop atoms are unboxed).
  bool compileAtom(ProtoCtx &P, const MAtom &A) {
    if (A.IsLit) {
      if (A.IsDbl)
        emit(P, Op::PushDbl, 0, 0, static_cast<int32_t>(dblPool(A.DblLit)));
      else
        emit(P, Op::PushInt, 0, 0, static_cast<int32_t>(intPool(A.Lit)));
      return true;
    }
    return load(P, A.Var, /*Force=*/false);
  }

  /// True when a lazy `let` right-hand side becomes a thunk proto: it is
  /// neither a variable (an alias of its slot) nor a syntactic value (λ,
  /// CON, I#[n], n, d — built eagerly).
  static bool isThunkRhs(const Term *R) {
    using K = Term::TermKind;
    switch (R->kind()) {
    case K::Var:
    case K::Lam:
    case K::Con:
    case K::ConLit:
    case K::Lit:
    case K::DLit:
      return false;
    default:
      return true;
    }
  }

  /// The binder a Let/LetBang/LetRec wrapper introduces.
  static MVar letBinder(const Term *T) {
    using K = Term::TermKind;
    switch (T->kind()) {
    case K::Let:
      return cast<mcalc::LetTerm>(T)->binder();
    case K::LetBang:
      return cast<mcalc::LetBangTerm>(T)->binder();
    default:
      return cast<mcalc::LetRecTerm>(T)->binder();
    }
  }

  /// The body a Let/LetBang/LetRec wrapper scopes over.
  static const Term *letBody(const Term *T) {
    using K = Term::TermKind;
    switch (T->kind()) {
    case K::Let:
      return cast<mcalc::LetTerm>(T)->body();
    case K::LetBang:
      return cast<mcalc::LetBangTerm>(T)->body();
    default:
      return cast<mcalc::LetRecTerm>(T)->body();
    }
  }

  /// Emits just the *binding* of a Let/LetBang/LetRec wrapper and pushes
  /// the binder into P's scope; the caller compiles whatever the binder
  /// scopes over and must unbind(P, letBinder(T)) afterwards. Shared by
  /// the plain let cases and the application-spine walk, which floats
  /// binding wrappers out of function position so curried chains
  /// collapse into one saturated CallN — the ANF lowering wraps every
  /// argument in a let/let! (C_APPLAZY/C_APPINT/C_APPDBL), so multi-arg
  /// spines are never syntactically bare.
  bool compileLetBinding(ProtoCtx &P, const Term *T) {
    using K = Term::TermKind;
    switch (T->kind()) {
    case K::Let: {
      const auto *L = cast<mcalc::LetTerm>(T);
      const Term *R = L->rhs();
      if (isThunkRhs(R)) {
        uint32_t Pr;
        if (!makeProto(P, R, R, /*Params=*/{}, Pr))
          return false;
        emit(P, Op::MkThunk, 0, 0, static_cast<int32_t>(Pr));
      } else if (R->kind() == K::Var) {
        // Alias: the machine would allocate a one-variable thunk whose
        // force delegates; sharing the slot is observationally the same
        // and strictly lazier than a fresh cell.
        if (!load(P, cast<mcalc::VarTerm>(R)->var(), /*Force=*/false))
          return false;
      } else if (!compileTerm(P, R, /*Tail=*/false)) {
        // Syntactic values: the machine's VAL rule yields them on first
        // lookup without a thunk step; building them eagerly cannot
        // error or diverge.
        return false;
      }
      uint32_t Slot;
      if (!newLocals(P, 1, Slot))
        return false;
      emit(P, Op::StoreLocal, 0, static_cast<uint16_t>(Slot));
      bind(P, L->binder(), Slot);
      return true;
    }
    case K::LetBang: {
      const auto *L = cast<mcalc::LetBangTerm>(T);
      if (!compileTerm(P, L->rhs(), /*Tail=*/false))
        return false;
      uint32_t Slot;
      if (!newLocals(P, 1, Slot))
        return false;
      emit(P, Op::StoreStrict, static_cast<uint8_t>(L->binder().Sort),
           static_cast<uint16_t>(Slot));
      bind(P, L->binder(), Slot);
      return true;
    }
    default: {
      const auto *L = cast<mcalc::LetRecTerm>(T);
      uint32_t Slot;
      if (!newLocals(P, 1, Slot))
        return false;
      // RECLET: the right-hand side sees its own cell. The destination
      // slot is bound (and written by MkClosureRec/MkThunkRec) before
      // captures are copied, so a self-capture reads the fresh cell.
      bind(P, L->binder(), Slot);
      const Term *R = L->rhs();
      bool Ok;
      uint32_t Pr;
      if (mcalc::dyn_cast<mcalc::LamTerm>(R)) {
        std::vector<MVar> Params;
        const Term *Body = collectLamSpine(R, Params);
        Ok = makeProto(P, R, Body, Params, Pr);
        if (Ok)
          emit(P, Op::MkClosureRec, 0, static_cast<uint16_t>(Slot),
               static_cast<int32_t>(Pr));
      } else {
        Ok = makeProto(P, R, R, /*Params=*/{}, Pr);
        if (Ok)
          emit(P, Op::MkThunkRec, 0, static_cast<uint16_t>(Slot),
               static_cast<int32_t>(Pr));
      }
      if (!Ok)
        unbind(P, L->binder());
      return Ok;
    }
    }
  }

  bool compileTerm(ProtoCtx &P, const Term *T, bool Tail) {
    if (Depth >= MaxCompileDepth)
      return fail("term nests deeper than the bytecode compiler supports");
    ++Depth;
    bool Ok = compileTermInner(P, T, Tail);
    --Depth;
    return Ok;
  }

  bool compileTermInner(ProtoCtx &P, const Term *T, bool Tail) {
    using K = Term::TermKind;
    switch (T->kind()) {
    case K::Var:
      // Pointer reads in evaluation position force to WHNF (rules
      // EVAL/VAL); unboxed registers already hold values.
      return load(P, cast<mcalc::VarTerm>(T)->var(), /*Force=*/true);
    case K::Lit:
      emit(P, Op::PushInt, 0, 0,
           static_cast<int32_t>(intPool(cast<mcalc::LitTerm>(T)->value())));
      return true;
    case K::DLit:
      emit(P, Op::PushDbl, 0, 0,
           static_cast<int32_t>(dblPool(cast<mcalc::DLitTerm>(T)->value())));
      return true;
    case K::ConLit:
      emit(P, Op::PushInt, 0, 0,
           static_cast<int32_t>(intPool(cast<mcalc::ConLitTerm>(T)->value())));
      emit(P, Op::MkBox);
      return true;
    case K::ConVar:
      if (!load(P, cast<mcalc::ConVarTerm>(T)->var(), /*Force=*/false))
        return false;
      emit(P, Op::MkBox);
      return true;
    case K::Lam: {
      std::vector<MVar> Params;
      const Term *Body = collectLamSpine(T, Params);
      uint32_t Pr;
      if (!makeProto(P, T, Body, Params, Pr))
        return false;
      emit(P, Op::MkClosure, 0, 0, static_cast<int32_t>(Pr));
      return true;
    }
    case K::AppVar:
    case K::AppLit:
    case K::AppDbl: {
      // Collapse the curried application spine f a₁ … aₙ: compile the
      // head once, push every argument atom (first-applied deepest), and
      // apply them all in one CallN/TailCallN. Argument atoms are
      // effect-free pushes, so batching them cannot change evaluation
      // order — the head still evaluates first, exactly like n nested
      // one-argument calls.
      //
      // The ANF lowering never produces a bare spine: each argument
      // arrives as a binding wrapper in function position,
      // ⟦e1 e2⟧ = let[!] y = t2 in t1 y. The walk floats those wrappers
      // out — ((let x = r in f) y ≡ let x = r in (f y)) whenever the
      // binder cannot capture an argument collected outside it — so the
      // whole chain still becomes one saturated call. Wrapper bindings
      // are emitted outermost-first, exactly the order the machine
      // evaluates their right-hand sides.
      struct SpineArg {
        Term::TermKind Kind;
        MVar V;
        int64_t I = 0;
        double D = 0;
      };
      std::vector<SpineArg> Args;
      std::vector<const Term *> Floated; ///< Binding wrappers, outermost first.
      const Term *Fn = T;
      for (;;) {
        if (const auto *A = mcalc::dyn_cast<mcalc::AppVarTerm>(Fn)) {
          Args.push_back({K::AppVar, A->arg(), 0, 0});
          Fn = A->fn();
        } else if (const auto *A = mcalc::dyn_cast<mcalc::AppLitTerm>(Fn)) {
          Args.push_back({K::AppLit, MVar{}, A->lit(), 0});
          Fn = A->fn();
        } else if (const auto *A = mcalc::dyn_cast<mcalc::AppDblTerm>(Fn)) {
          Args.push_back({K::AppDbl, MVar{}, 0, A->lit()});
          Fn = A->fn();
        } else if (Fn->kind() == K::Let || Fn->kind() == K::LetBang ||
                   Fn->kind() == K::LetRec) {
          // Scope lookup is by name, so floating is blocked if the
          // binder shadows an argument collected *outside* this wrapper
          // (arguments inside it see the binder legitimately).
          const MVar B = letBinder(Fn);
          bool Captures = false;
          for (const SpineArg &A : Args)
            if (A.Kind == K::AppVar && A.V.Name == B.Name) {
              Captures = true;
              break;
            }
          if (Captures)
            break;
          Floated.push_back(Fn);
          Fn = letBody(Fn);
        } else {
          break;
        }
      }
      if (Args.size() > MaxFrameSlots)
        return fail("application spine longer than " +
                    std::to_string(MaxFrameSlots) + " arguments");
      for (const Term *W : Floated)
        if (!compileLetBinding(P, W))
          return false;
      if (!compileTerm(P, Fn, /*Tail=*/false))
        return false;
      for (size_t I = Args.size(); I-- > 0;) {
        const SpineArg &A = Args[I];
        switch (A.Kind) {
        case K::AppVar:
          if (!load(P, A.V, /*Force=*/false))
            return false;
          break;
        case K::AppLit:
          emit(P, Op::PushInt, 0, 0, static_cast<int32_t>(intPool(A.I)));
          break;
        default:
          emit(P, Op::PushDbl, 0, 0, static_cast<int32_t>(dblPool(A.D)));
          break;
        }
      }
      if (Args.size() == 1)
        emit(P, Tail ? Op::TailCall : Op::Call);
      else
        emit(P, Tail ? Op::TailCallN : Op::CallN, 0,
             static_cast<uint16_t>(Args.size()));
      for (size_t I = Floated.size(); I-- > 0;)
        unbind(P, letBinder(Floated[I]));
      return true;
    }
    case K::Let:
    case K::LetBang:
    case K::LetRec: {
      if (!compileLetBinding(P, T))
        return false;
      bool Ok = compileTerm(P, letBody(T), Tail);
      unbind(P, letBinder(T));
      return Ok;
    }
    case K::Case: {
      const auto *C = cast<mcalc::CaseTerm>(T);
      if (!compileTerm(P, C->scrut(), /*Tail=*/false))
        return false;
      uint32_t Slot;
      if (!newLocals(P, 1, Slot))
        return false;
      // A non-Int# binder is the machine's IMAT stuck; the check rides
      // on the instruction so the scrutinee still evaluates first.
      emit(P, Op::UnBox, static_cast<uint8_t>(C->binder().Sort),
           static_cast<uint16_t>(Slot));
      bind(P, C->binder(), Slot);
      bool Ok = compileTerm(P, C->body(), Tail);
      unbind(P, C->binder());
      return Ok;
    }
    case K::If0: {
      const auto *I = cast<mcalc::If0Term>(T);
      if (!compileTerm(P, I->scrut(), /*Tail=*/false))
        return false;
      size_t IfIdx = emit(P, Op::If0);
      if (!compileTerm(P, I->thenBranch(), Tail))
        return false;
      size_t JmpIdx = emit(P, Op::Jump);
      P.Code[IfIdx].C = static_cast<int32_t>(P.Code.size());
      if (!compileTerm(P, I->elseBranch(), Tail))
        return false;
      P.Code[JmpIdx].C = static_cast<int32_t>(P.Code.size());
      return true;
    }
    case K::Switch: {
      const auto *S = cast<mcalc::SwitchTerm>(T);
      if (!compileTerm(P, S->scrut(), /*Tail=*/false))
        return false;
      uint32_t Tbl = static_cast<uint32_t>(Mod.Tables.size());
      Mod.Tables.emplace_back();
      P.Tables.push_back(Tbl);
      emit(P, Op::Switch, 0, 0, static_cast<int32_t>(Tbl));
      std::vector<size_t> EndJumps;
      for (const MAlt &A : S->alts()) {
        SwitchAlt SA;
        SA.Pat = static_cast<uint8_t>(A.Pat);
        SA.Tag = A.Tag;
        SA.IntVal = A.IntVal;
        SA.DblVal = A.DblVal;
        SA.Target = static_cast<uint32_t>(P.Code.size());
        uint32_t NB = static_cast<uint32_t>(A.Binders.size());
        if (NB) {
          uint32_t Base;
          if (!newLocals(P, NB, Base))
            return false;
          SA.BindersBase = static_cast<uint16_t>(Base);
          for (uint32_t J = 0; J != NB; ++J) {
            SA.BinderSorts.push_back(
                static_cast<uint8_t>(A.Binders[J].Sort));
            bind(P, A.Binders[J], Base + J);
          }
        }
        bool Ok = compileTerm(P, A.Body, Tail);
        for (uint32_t J = NB; J-- > 0;)
          unbind(P, A.Binders[J]);
        if (!Ok)
          return false;
        EndJumps.push_back(emit(P, Op::Jump));
        Mod.Tables[Tbl].Alts.push_back(std::move(SA));
      }
      if (S->defaultBody()) {
        Mod.Tables[Tbl].DefaultTarget =
            static_cast<int64_t>(P.Code.size());
        if (!compileTerm(P, S->defaultBody(), Tail))
          return false;
      }
      for (size_t J : EndJumps)
        P.Code[J].C = static_cast<int32_t>(P.Code.size());
      return true;
    }
    case K::Prim: {
      const auto *Pr = cast<mcalc::PrimTerm>(T);
      if (!compileAtom(P, Pr->lhs()) || !compileAtom(P, Pr->rhs()))
        return false;
      emit(P, Op::Prim, static_cast<uint8_t>(Pr->op()));
      return true;
    }
    case K::Con: {
      const auto *C = cast<mcalc::ConTerm>(T);
      if (C->args().size() > MaxFrameSlots)
        return fail("constructor wider than " +
                    std::to_string(MaxFrameSlots) + " fields");
      if (C->tag() >
          static_cast<uint32_t>(std::numeric_limits<int32_t>::max()))
        return fail("constructor tag out of the bytecode operand range");
      for (const MAtom &A : C->args())
        if (!compileAtom(P, A))
          return false;
      emit(P, Op::AllocCon, 0, static_cast<uint16_t>(C->args().size()),
           static_cast<int32_t>(C->tag()));
      return true;
    }
    case K::Error: {
      const Symbol Msg = cast<mcalc::ErrorTerm>(T)->message();
      int32_t C = -1;
      if (Msg.valid())
        C = static_cast<int32_t>(strPool(std::string(Msg.str())));
      emit(P, Op::Error, 0, 0, C);
      return true;
    }
    }
    return fail("unknown term kind");
  }
};

Result<std::shared_ptr<const Module>>
Compiler::run(std::span<const GlobalTerm> Globals) {
  Mod.Globals.resize(Globals.size());
  for (uint32_t K = 0; K != Globals.size(); ++K)
    if (Globals[K].Var.valid())
      GlobalIdx.emplace(Globals[K].Var, K);

  // Each global's term is compiled like any proto with an empty capture
  // scope; a variable that is neither bound nor a global is a free
  // variable of the whole program (refused, never guessed).
  ProtoCtx Root;
  for (size_t K = 0; K != Globals.size(); ++K) {
    const Term *T = Globals[K].Value;
    Global &G = Mod.Globals[K];
    if (!(T ? scanProto(T, 0) && makeProto(Root, T, T, /*Params=*/{}, G.Run)
            : fail("no term to compile")))
      return err(Diag);
    // A function's cell is its closure, the run proto's one child; any
    // other global's cell is a thunk of its run proto.
    G.Cell = G.Run + (T->kind() == Term::TermKind::Lam ? 1 : 0);
  }

  // Link: concatenate per-proto code, rebasing proto-relative jump and
  // switch targets onto the flat stream.
  auto M = std::make_shared<Module>();
  M->IntPool = std::move(Mod.IntPool);
  M->DblPool = std::move(Mod.DblPool);
  M->StrPool = std::move(Mod.StrPool);
  M->Tables = std::move(Mod.Tables);
  M->Protos = std::move(Mod.Protos);
  M->Globals = std::move(Mod.Globals);
  size_t Total = 0;
  for (const auto &C : Ctxs)
    Total += C->Code.size();
  if (Total > (size_t{1} << 30))
    return err(std::string(DiagPrefix) + "program too large for bytecode");
  M->Code.reserve(Total);
  for (size_t I = 0; I != Ctxs.size(); ++I) {
    Proto &P = M->Protos[I];
    P.Entry = static_cast<uint32_t>(M->Code.size());
    for (Instr In : Ctxs[I]->Code) {
      if (In.Code == Op::Jump || In.Code == Op::If0)
        In.C += static_cast<int32_t>(P.Entry);
      M->Code.push_back(In);
    }
    P.End = static_cast<uint32_t>(M->Code.size());
  }
  for (size_t I = 0; I != Ctxs.size(); ++I) {
    const uint32_t Base = M->Protos[I].Entry;
    for (uint32_t T : Ctxs[I]->Tables) {
      for (SwitchAlt &A : M->Tables[T].Alts)
        A.Target += Base;
      if (M->Tables[T].DefaultTarget >= 0)
        M->Tables[T].DefaultTarget += Base;
    }
  }
  buildDispatchTables(*M);
  assert(validate(*M) && "compiler emitted an invalid module");
  return Result<std::shared_ptr<const Module>>(
      std::shared_ptr<const Module>(std::move(M)));
}

} // namespace

namespace levity {
namespace bytecode {

Result<std::shared_ptr<const Module>>
compileProgram(std::span<const GlobalTerm> Globals, CompileStats *Stats) {
  Compiler C;
  Result<std::shared_ptr<const Module>> M = C.run(Globals);
  if (Stats)
    *Stats = C.stats();
  return M;
}

Result<std::shared_ptr<const Module>> compile(const mcalc::Term *T,
                                              CompileStats *Stats) {
  const GlobalTerm Entry{Symbol(), T};
  return compileProgram({&Entry, 1}, Stats);
}

void buildDispatchTables(Module &M) {
  for (SwitchTable &T : M.Tables) {
    T.DenseAltIdx.clear();
    T.DenseTagBase = 0;
    if (T.Alts.size() < 2)
      continue;
    uint32_t Lo = std::numeric_limits<uint32_t>::max(), Hi = 0;
    bool AllCon = true;
    for (const SwitchAlt &A : T.Alts) {
      if (A.Pat != static_cast<uint8_t>(MAlt::PatKind::Con)) {
        AllCon = false;
        break;
      }
      Lo = std::min(Lo, A.Tag);
      Hi = std::max(Hi, A.Tag);
    }
    if (!AllCon)
      continue;
    // Only densify compact tag ranges: the table is O(span), and a
    // sparse one would trade a short scan for a cache-hostile array.
    uint64_t Span = static_cast<uint64_t>(Hi) - Lo + 1;
    if (Span > 64)
      continue;
    T.DenseAltIdx.assign(static_cast<size_t>(Span), -1);
    for (size_t I = 0; I != T.Alts.size(); ++I) {
      size_t Off = T.Alts[I].Tag - Lo;
      if (T.DenseAltIdx[Off] < 0) // First match wins, like the scan.
        T.DenseAltIdx[Off] = static_cast<int32_t>(I);
    }
    T.DenseTagBase = Lo;
  }
}

//===----------------------------------------------------------------------===//
// Validation — everything the VM's unchecked dispatch loop relies on.
//===----------------------------------------------------------------------===//

namespace {

/// Pops/pushes for the stack-effect verifier. Call transfers control but
/// its net frame-local effect is "pop fn and arg, a value comes back".
struct StackEffect {
  uint32_t Pops;
  uint32_t Pushes;
  bool Ends; ///< No fall-through successor.
};

StackEffect effectOf(const Instr &I) {
  switch (I.Code) {
  case Op::PushInt:
  case Op::PushDbl:
  case Op::LoadLocal:
  case Op::LoadForce:
  case Op::LoadGlobal:
  case Op::MkClosure:
  case Op::MkThunk:
    return {0, 1, false};
  case Op::MkClosureRec:
  case Op::MkThunkRec:
  case Op::Jump:
    return {0, 0, false};
  case Op::StoreLocal:
  case Op::StoreStrict:
  case Op::UnBox:
  case Op::If0:
  case Op::Switch:
    return {1, 0, false};
  case Op::Call:
  case Op::Prim:
    return {2, 1, false};
  case Op::MkBox:
  case Op::PrimLocal:
  case Op::PrimInt:
    return {1, 1, false};
  case Op::AllocCon:
    return {I.B, 1, false};
  case Op::CallN:
    return {static_cast<uint32_t>(I.B) + 1, 1, false};
  case Op::TailCall:
    return {2, 0, true};
  case Op::TailCallN:
    return {static_cast<uint32_t>(I.B) + 1, 0, true};
  case Op::Return:
    return {1, 0, true};
  case Op::ReturnLocal:
    return {0, 0, true};
  case Op::Error:
    return {0, 0, true};
  }
  return {0, 0, true};
}

} // namespace

bool validate(const Module &M) {
  const size_t N = M.Code.size();
  if (M.Protos.empty() || N == 0 ||
      N > static_cast<size_t>(std::numeric_limits<int32_t>::max()))
    return false;

  // Vm::run enters Protos[0] with no captures and no argument. An entry
  // that expects either would read default-initialized slots and compute
  // wrong answers instead of failing, so it must be rejected here.
  if (!M.Protos[0].Caps.empty() || M.Protos[0].numParams() != 0)
    return false;

  // Protos must exactly partition [0, Code.size()) in order — what
  // compile() always emits. Disjointness is load-bearing for the shared
  // depth map in the stack-effect pass below: an instruction reachable
  // under two overlapping protos would be verified against only the
  // first proto's frame bounds, then run under the second's.
  if (M.Protos.front().Entry != 0 || M.Protos.back().End != N)
    return false;
  for (size_t I = 1; I != M.Protos.size(); ++I)
    if (M.Protos[I].Entry != M.Protos[I - 1].End)
      return false;

  for (const Proto &P : M.Protos) {
    if (P.Entry >= P.End || P.End > N)
      return false;
    size_t Fixed = P.Caps.size() + P.ParamSorts.size();
    if (Fixed > P.NumLocals)
      return false;
    for (uint8_t S : P.ParamSorts)
      if (S >= mcalc::NumVarSorts)
        return false;
    for (const Capture &C : P.Caps)
      if (C.Sort >= mcalc::NumVarSorts)
        return false;
  }

  // A run enters a global's run proto like Protos[0]; a cell is made
  // with no captures (a thunk or a closure, by its parameter count).
  for (const Global &G : M.Globals)
    if (G.Run >= M.Protos.size() || G.Cell >= M.Protos.size() ||
        !M.Protos[G.Run].Caps.empty() || M.Protos[G.Run].numParams() != 0 ||
        !M.Protos[G.Cell].Caps.empty())
      return false;

  for (const Proto &P : M.Protos) {
    for (uint32_t Ip = P.Entry; Ip != P.End; ++Ip) {
      const Instr &I = M.Code[Ip];
      if (static_cast<uint8_t>(I.Code) >= NumOps)
        return false;
      auto InRange = [&](int64_t T) {
        return T >= static_cast<int64_t>(P.Entry) &&
               T < static_cast<int64_t>(P.End);
      };
      switch (I.Code) {
      case Op::PushInt:
        if (I.C < 0 || static_cast<size_t>(I.C) >= M.IntPool.size())
          return false;
        break;
      case Op::PushDbl:
        if (I.C < 0 || static_cast<size_t>(I.C) >= M.DblPool.size())
          return false;
        break;
      case Op::LoadLocal:
      case Op::LoadForce:
      case Op::StoreLocal:
        if (I.B >= P.NumLocals)
          return false;
        break;
      case Op::StoreStrict:
      case Op::UnBox:
        if (I.B >= P.NumLocals || I.A >= mcalc::NumVarSorts)
          return false;
        break;
      case Op::MkClosure:
      case Op::MkThunk:
      case Op::MkClosureRec:
      case Op::MkThunkRec: {
        if (I.C < 0 || static_cast<size_t>(I.C) >= M.Protos.size())
          return false;
        // Thunk protos are entered by force with no arguments; closure
        // protos are entered by apply, which binds at least one. A
        // mismatch would read default-initialized parameter slots.
        bool IsThunk = I.Code == Op::MkThunk || I.Code == Op::MkThunkRec;
        if (IsThunk != (M.Protos[I.C].numParams() == 0))
          return false;
        // Captures are copied from the *creating* frame.
        for (const Capture &C : M.Protos[I.C].Caps)
          if (C.Src >= P.NumLocals)
            return false;
        if ((I.Code == Op::MkClosureRec || I.Code == Op::MkThunkRec) &&
            I.B >= P.NumLocals)
          return false;
        break;
      }
      case Op::Prim:
        if (I.A >= mcalc::NumMPrims)
          return false;
        break;
      case Op::PrimLocal:
        if (I.A >= mcalc::NumMPrims || I.B >= P.NumLocals)
          return false;
        break;
      case Op::PrimInt:
        if (I.A >= mcalc::NumMPrims || I.C < 0 ||
            static_cast<size_t>(I.C) >= M.IntPool.size())
          return false;
        break;
      case Op::ReturnLocal:
        if (I.B >= P.NumLocals)
          return false;
        break;
      case Op::LoadGlobal:
        if (I.A > 1 || I.C < 0 ||
            static_cast<size_t>(I.C) >= M.Globals.size())
          return false;
        break;
      case Op::CallN:
      case Op::TailCallN:
        // Zero-argument applications don't exist in M; the VM's apply
        // path reads the first argument's register class for its stuck
        // diagnostics, so B ≥ 1 is load-bearing.
        if (I.B == 0)
          return false;
        break;
      case Op::AllocCon:
        if (I.C < 0)
          return false;
        break;
      case Op::Jump:
      case Op::If0:
        if (!InRange(I.C))
          return false;
        break;
      case Op::Switch: {
        if (I.C < 0 || static_cast<size_t>(I.C) >= M.Tables.size())
          return false;
        const SwitchTable &T = M.Tables[I.C];
        if (T.DefaultTarget != -1 && !InRange(T.DefaultTarget))
          return false;
        for (const SwitchAlt &A : T.Alts) {
          if (A.Pat >= MAlt::NumPatKinds || !InRange(A.Target))
            return false;
          if (A.BindersBase + A.BinderSorts.size() > P.NumLocals)
            return false;
          for (uint8_t S : A.BinderSorts)
            if (S >= mcalc::NumVarSorts)
              return false;
        }
        break;
      }
      case Op::Error:
        if (I.C >= 0 && static_cast<size_t>(I.C) >= M.StrPool.size())
          return false;
        break;
      case Op::Call:
      case Op::TailCall:
      case Op::Return:
      case Op::MkBox:
        break;
      }
    }
  }

  // Stack-effect dataflow per proto: depth is exact along every path, no
  // pop can underflow, and control never falls off the end of a proto.
  // This is what lets the VM pop without per-instruction checks. One
  // depth map serves all protos: Flow confines each walk to [Entry, End)
  // and the partition check above makes those ranges disjoint, so no
  // entry is ever shared (or stale-memoized) across protos.
  std::vector<int32_t> DepthAt(N, -1);
  std::vector<uint32_t> Work;
  for (const Proto &P : M.Protos) {
    Work.clear();
    if (DepthAt[P.Entry] == -1)
      DepthAt[P.Entry] = 0;
    else if (DepthAt[P.Entry] != 0)
      return false;
    Work.push_back(P.Entry);
    auto Flow = [&](int64_t To, int32_t D) {
      if (!(To >= P.Entry && To < P.End))
        return false; // Falls off the proto or into another one.
      if (DepthAt[To] == -1) {
        DepthAt[To] = D;
        Work.push_back(static_cast<uint32_t>(To));
        return true;
      }
      return DepthAt[To] == D;
    };
    while (!Work.empty()) {
      uint32_t Ip = Work.back();
      Work.pop_back();
      const Instr &I = M.Code[Ip];
      int32_t D = DepthAt[Ip];
      StackEffect E = effectOf(I);
      if (static_cast<uint32_t>(D) < E.Pops)
        return false;
      int32_t After = D - static_cast<int32_t>(E.Pops) +
                      static_cast<int32_t>(E.Pushes);
      if (E.Ends)
        continue;
      switch (I.Code) {
      case Op::Jump:
        if (!Flow(I.C, After))
          return false;
        break;
      case Op::If0:
        if (!Flow(Ip + 1, After) || !Flow(I.C, After))
          return false;
        break;
      case Op::Switch: {
        const SwitchTable &T = M.Tables[I.C];
        for (const SwitchAlt &A : T.Alts)
          if (!Flow(A.Target, After))
            return false;
        if (T.DefaultTarget != -1 && !Flow(T.DefaultTarget, After))
          return false;
        break;
      }
      default:
        if (!Flow(Ip + 1, After))
          return false;
        break;
      }
    }
  }
  return true;
}

} // namespace bytecode
} // namespace levity
