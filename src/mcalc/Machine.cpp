//===- Machine.cpp - The M abstract machine (Figure 6) --------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "mcalc/Machine.h"

#include <limits>
#include <unordered_set>

using namespace levity;
using namespace levity::mcalc;

namespace {

/// Restricts \p H to the cells transitively reachable from \p Root. A
/// variable *occurrence* anywhere in a term (argument atoms, lambda
/// bodies, constructor fields) counts as a reference — a safe
/// over-approximation of free variables, and exact for heap addresses:
/// the machine mints them fresh, so a heap address is never shadowed by
/// a binder. Symbols that name no heap cell (lambda binders from the
/// compiled program) simply miss the map.
HeapMap pruneToReachable(const Term *Root, HeapMap H) {
  if (H.empty())
    return H;
  HeapMap Kept;
  std::vector<const Term *> Work{Root};
  auto Ref = [&](MVar V) {
    if (!V.isPtr())
      return;
    auto It = H.find(V.Name);
    if (It == H.end())
      return;
    Work.push_back(It->second);
    Kept.emplace(It->first, It->second);
    H.erase(It);
  };
  while (!Work.empty()) {
    const Term *T = Work.back();
    Work.pop_back();
    if (!T)
      continue;
    switch (T->kind()) {
    case Term::TermKind::AppVar: {
      const auto *A = cast<AppVarTerm>(T);
      Ref(A->arg());
      Work.push_back(A->fn());
      break;
    }
    case Term::TermKind::AppLit:
      Work.push_back(cast<AppLitTerm>(T)->fn());
      break;
    case Term::TermKind::AppDbl:
      Work.push_back(cast<AppDblTerm>(T)->fn());
      break;
    case Term::TermKind::Lam:
      Work.push_back(cast<LamTerm>(T)->body());
      break;
    case Term::TermKind::Var:
      Ref(cast<VarTerm>(T)->var());
      break;
    case Term::TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      Work.push_back(L->rhs());
      Work.push_back(L->body());
      break;
    }
    case Term::TermKind::LetBang: {
      const auto *L = cast<LetBangTerm>(T);
      Work.push_back(L->rhs());
      Work.push_back(L->body());
      break;
    }
    case Term::TermKind::LetRec: {
      const auto *L = cast<LetRecTerm>(T);
      Work.push_back(L->rhs());
      Work.push_back(L->body());
      break;
    }
    case Term::TermKind::Case: {
      const auto *C = cast<CaseTerm>(T);
      Work.push_back(C->scrut());
      Work.push_back(C->body());
      break;
    }
    case Term::TermKind::If0: {
      const auto *I = cast<If0Term>(T);
      Work.push_back(I->scrut());
      Work.push_back(I->thenBranch());
      Work.push_back(I->elseBranch());
      break;
    }
    case Term::TermKind::Switch: {
      const auto *Sw = cast<SwitchTerm>(T);
      Work.push_back(Sw->scrut());
      for (const MAlt &A : Sw->alts())
        Work.push_back(A.Body);
      Work.push_back(Sw->defaultBody());
      break;
    }
    case Term::TermKind::Prim: {
      const auto *P = cast<PrimTerm>(T);
      if (!P->lhs().IsLit)
        Ref(P->lhs().Var);
      if (!P->rhs().IsLit)
        Ref(P->rhs().Var);
      break;
    }
    case Term::TermKind::ConVar:
      Ref(cast<ConVarTerm>(T)->var());
      break;
    case Term::TermKind::Con:
      for (const MAtom &A : cast<ConTerm>(T)->args())
        if (!A.IsLit)
          Ref(A.Var);
      break;
    case Term::TermKind::Error:
    case Term::TermKind::ConLit:
    case Term::TermKind::Lit:
    case Term::TermKind::DLit:
      break;
    }
  }
  return Kept;
}

} // namespace

MachineResult Machine::run(const Term *T, uint64_t MaxSteps) {
  return runWithHeap(T, {}, MaxSteps);
}

MachineResult Machine::runWithHeap(const Term *T, HeapMap InitialHeap,
                                   uint64_t MaxSteps) {
  MachineResult R;
  MachineStats &S = R.Stats;

  const Term *Cur = T;
  std::vector<Frame> Stack;
  HeapMap H = std::move(InitialHeap);
  std::unordered_set<Symbol, SymbolHash> GlobalsMade;

  // Substitution and heap cells all come from Ctx's arena, which is
  // monotone between resets — the end-of-run delta of bytesUsed() *is*
  // this run's peak. Exact when the context is not shared by concurrent
  // runs (the driver's per-Executor run context); an upper bound
  // otherwise.
  const size_t ArenaStart = Ctx.arena().bytesUsed();
  auto RecordPeak = [&] {
    size_t Now = Ctx.arena().bytesUsed();
    S.PeakHeapBytes = Now >= ArenaStart ? Now - ArenaStart : 0;
  };

  auto Stuck = [&](std::string Reason) {
    R.Status = MachineOutcome::Stuck;
    R.StuckReason = std::move(Reason);
    R.Value = Cur;
    R.FinalHeap = std::move(H);
    RecordPeak();
    return R;
  };

  // Fuel pays for transitions only: a run that halts (a value on an empty
  // stack, or ERR) after N steps halts with fuel N, like the bytecode VM.
  for (;; ++S.Steps) {
    if (S.Steps == MaxSteps && !(isValue(Cur) && Stack.empty()) &&
        Cur->kind() != Term::TermKind::Error)
      break;
    S.MaxStackDepth = std::max(S.MaxStackDepth, Stack.size());
    S.MaxHeapSize = std::max(S.MaxHeapSize, H.size());

    if (isValue(Cur)) {
      // Lower group of Figure 6: dispatch on the top of the stack.
      if (Stack.empty()) {
        R.Status = MachineOutcome::Value;
        R.Value = Cur;
        // Keep only the cells the result can actually name: the
        // snapshot exists for observational probing (anf/Joinability),
        // not to pin the whole run's heap alive.
        R.FinalHeap = pruneToReachable(Cur, std::move(H));
        RecordPeak();
        return R;
      }
      Frame F = Stack.back();
      Stack.pop_back();
      switch (F.Kind) {
      case Frame::FrameKind::AppPtr: {
        // PPOP: ⟨λp1.t1; App(p2),S; H⟩ → ⟨t1[p2/p1]; S; H⟩.
        const auto *L = dyn_cast<LamTerm>(Cur);
        if (!L)
          return Stuck("App(p) against a non-lambda value");
        if (!L->param().isPtr())
          return Stuck("calling-convention mismatch: pointer argument "
                       "for an integer-register parameter");
        ++S.BetaPtr;
        Cur = subst(Ctx, L->body(), L->param(), MAtom::anyVar(F.Var));
        continue;
      }
      case Frame::FrameKind::AppLit: {
        // IPOP: ⟨λi.t1; App(n),S; H⟩ → ⟨t1[n/i]; S; H⟩.
        const auto *L = dyn_cast<LamTerm>(Cur);
        if (!L)
          return Stuck("App(n) against a non-lambda value");
        if (!L->param().isInt())
          return Stuck("calling-convention mismatch: integer argument "
                       "for a non-integer-register parameter");
        ++S.BetaInt;
        Cur = subst(Ctx, L->body(), L->param(), MAtom::lit(F.Lit));
        continue;
      }
      case Frame::FrameKind::AppDbl: {
        // DPOP: ⟨λf.t1; App(d),S; H⟩ → ⟨t1[d/f]; S; H⟩.
        const auto *L = dyn_cast<LamTerm>(Cur);
        if (!L)
          return Stuck("App(d) against a non-lambda value");
        if (!L->param().isDbl())
          return Stuck("calling-convention mismatch: double argument "
                       "for a non-double-register parameter");
        ++S.BetaDbl;
        Cur = subst(Ctx, L->body(), L->param(), MAtom::dlit(F.DblLit));
        continue;
      }
      case Frame::FrameKind::Force:
        // FCE: ⟨w; Force(p),S; H⟩ → ⟨w; S; p↦w,H⟩ — thunk update.
        ++S.ThunkUpdates;
        if (Cur->kind() == Term::TermKind::Con)
          ++S.ConAllocs;
        H[F.Var.Name] = Cur;
        continue;
      case Frame::FrameKind::Let: {
        // ILET: ⟨n; Let(i,t),S; H⟩ → ⟨t[n/i]; S; H⟩, and its double
        // counterpart DLET: ⟨d; Let(f,t),S; H⟩ → ⟨t[d/f]; S; H⟩.
        if (F.Var.isInt()) {
          const auto *Lit = dyn_cast<LitTerm>(Cur);
          if (!Lit)
            return Stuck("let! continuation expects an integer literal");
          Cur = subst(Ctx, F.Body, F.Var, MAtom::lit(Lit->value()));
          continue;
        }
        if (F.Var.isDbl()) {
          const auto *Lit = dyn_cast<DLitTerm>(Cur);
          if (!Lit)
            return Stuck("let! continuation expects a double literal");
          Cur = subst(Ctx, F.Body, F.Var, MAtom::dlit(Lit->value()));
          continue;
        }
        return Stuck("let! continuation over a pointer binder");
      }
      case Frame::FrameKind::Case: {
        // IMAT: ⟨I#[n]; Case(i,t),S; H⟩ → ⟨t[n/i]; S; H⟩.
        const auto *Con = dyn_cast<ConLitTerm>(Cur);
        if (!Con || !F.Var.isInt())
          return Stuck("case continuation expects I#[n]");
        Cur = subst(Ctx, F.Body, F.Var, MAtom::lit(Con->value()));
        continue;
      }
      case Frame::FrameKind::If0: {
        // IF0: ⟨n; If0(t2,t3),S; H⟩ → ⟨t2; S; H⟩ when n = 0, ⟨t3; S; H⟩
        // otherwise.
        const auto *Lit = dyn_cast<LitTerm>(Cur);
        if (!Lit)
          return Stuck("if0 scrutinee is not an integer literal");
        ++S.Branches;
        Cur = Lit->value() == 0 ? F.Body : F.Body2;
        continue;
      }
      case Frame::FrameKind::Switch: {
        // SWITCHk: ⟨w; Switch(alts,def),S; H⟩ → the matching
        // alternative's body with the constructor's fields bound, or the
        // default. Dispatches on CON tags (I#[n] counts as tag 0 of the
        // built-in Int), Int# literals, and Double# literals.
        const SwitchTerm *Sw = F.Sw;
        const MAlt *Hit = nullptr;
        if (const auto *Con = dyn_cast<ConTerm>(Cur)) {
          for (const MAlt &A : Sw->alts())
            if (A.Pat == MAlt::PatKind::Con && A.Tag == Con->tag()) {
              Hit = &A;
              break;
            }
          if (Hit) {
            if (Hit->Binders.size() != Con->args().size())
              return Stuck("switch alternative arity mismatch");
            ++S.Branches;
            const Term *Body = Hit->Body;
            for (size_t I = 0; I != Hit->Binders.size(); ++I) {
              const MAtom &A = Con->args()[I];
              MVar B = Hit->Binders[I];
              if (A.sort() != B.Sort)
                return Stuck("switch binder register-class mismatch");
              Body = subst(Ctx, Body, B, A);
            }
            Cur = Body;
            continue;
          }
        } else if (const auto *Box = dyn_cast<ConLitTerm>(Cur)) {
          // I#[n]: tag 0 of Int, one strict Int# field.
          for (const MAlt &A : Sw->alts())
            if (A.Pat == MAlt::PatKind::Con && A.Tag == 0) {
              Hit = &A;
              break;
            }
          if (Hit) {
            if (Hit->Binders.size() != 1 || !Hit->Binders[0].isInt())
              return Stuck("switch alternative arity mismatch");
            ++S.Branches;
            Cur = subst(Ctx, Hit->Body, Hit->Binders[0],
                        MAtom::lit(Box->value()));
            continue;
          }
        } else if (const auto *Lit = dyn_cast<LitTerm>(Cur)) {
          for (const MAlt &A : Sw->alts())
            if (A.Pat == MAlt::PatKind::Int && A.IntVal == Lit->value()) {
              Hit = &A;
              break;
            }
          if (Hit) {
            ++S.Branches;
            Cur = Hit->Body;
            continue;
          }
        } else if (const auto *DLit = dyn_cast<DLitTerm>(Cur)) {
          for (const MAlt &A : Sw->alts())
            if (A.Pat == MAlt::PatKind::Dbl && A.DblVal == DLit->value()) {
              Hit = &A;
              break;
            }
          if (Hit) {
            ++S.Branches;
            Cur = Hit->Body;
            continue;
          }
        } else if (!Sw->alts().empty()) {
          return Stuck("switch scrutinee value matches no pattern sort");
        }
        if (Sw->defaultBody()) {
          ++S.Branches;
          Cur = Sw->defaultBody();
          continue;
        }
        return Stuck("no matching switch alternative");
      }
      }
      return Stuck("unknown frame");
    }

    // Upper group of Figure 6: dispatch on the expression.
    switch (Cur->kind()) {
    case Term::TermKind::AppVar: {
      const auto *A = cast<AppVarTerm>(Cur);
      // PAPP: push the (pointer) argument; lazy — it is not evaluated.
      if (!A->arg().isPtr())
        return Stuck("application to an unresolved unboxed variable");
      Stack.push_back(
          {Frame::FrameKind::AppPtr, A->arg(), 0, 0, nullptr, nullptr});
      Cur = A->fn();
      continue;
    }
    case Term::TermKind::AppLit: {
      // IAPP: push the literal argument (already a value).
      const auto *A = cast<AppLitTerm>(Cur);
      Stack.push_back(
          {Frame::FrameKind::AppLit, MVar(), A->lit(), 0, nullptr, nullptr});
      Cur = A->fn();
      continue;
    }
    case Term::TermKind::AppDbl: {
      // DAPP: push the double-literal argument (already a value).
      const auto *A = cast<AppDblTerm>(Cur);
      Stack.push_back(
          {Frame::FrameKind::AppDbl, MVar(), 0, A->lit(), nullptr, nullptr});
      Cur = A->fn();
      continue;
    }
    case Term::TermKind::Var: {
      const auto *V = cast<VarTerm>(Cur);
      if (!V->var().isPtr())
        return Stuck("unresolved unboxed variable " + V->var().str());
      auto It = H.find(V->var().Name);
      if (It == H.end()) {
        // A global's cell is made on first demand; a later miss is a
        // black-holed cell, like any thunk's.
        const HeapMap::const_iterator G =
            Globals ? Globals->find(V->var().Name) : HeapMap::const_iterator();
        if (!Globals || G == Globals->end() ||
            !GlobalsMade.insert(G->first).second)
          return Stuck("dangling heap pointer " + V->var().str());
        ++S.Allocations;
        if (G->second->kind() == Term::TermKind::Con)
          ++S.ConAllocs;
        It = H.emplace(G->first, G->second).first;
      }
      if (isValue(It->second)) {
        // VAL: simple lookup.
        ++S.VarLookups;
        Cur = It->second;
        continue;
      }
      // EVAL: black-hole the thunk and evaluate it; FCE writes back.
      ++S.ThunkEvals;
      Cur = It->second;
      H.erase(It);
      Stack.push_back(
          {Frame::FrameKind::Force, V->var(), 0, 0, nullptr, nullptr});
      continue;
    }
    case Term::TermKind::Let: {
      // LET: allocate a thunk. The binder is freshened into a new heap
      // address so that re-entrant code allocates distinct cells.
      const auto *L = cast<LetTerm>(Cur);
      ++S.Allocations;
      if (L->rhs()->kind() == Term::TermKind::Con)
        ++S.ConAllocs;
      MVar Addr = Ctx.freshPtr();
      H.emplace(Addr.Name, L->rhs());
      Cur = subst(Ctx, L->body(), L->binder(), MAtom::anyVar(Addr));
      continue;
    }
    case Term::TermKind::LetBang: {
      // SLET: evaluate the right-hand side now.
      const auto *L = cast<LetBangTerm>(Cur);
      ++S.StrictLets;
      Stack.push_back(
          {Frame::FrameKind::Let, L->binder(), 0, 0, L->body(), nullptr});
      Cur = L->rhs();
      continue;
    }
    case Term::TermKind::LetRec: {
      // RECLET: allocate the knot. The binder is freshened into a new
      // heap address which is substituted into *both* the stored thunk
      // and the body, so the thunk can reach itself.
      const auto *L = cast<LetRecTerm>(Cur);
      ++S.Allocations;
      ++S.Knots;
      if (L->rhs()->kind() == Term::TermKind::Con)
        ++S.ConAllocs;
      MVar Addr = Ctx.freshPtr();
      H.emplace(Addr.Name,
                subst(Ctx, L->rhs(), L->binder(), MAtom::anyVar(Addr)));
      Cur = subst(Ctx, L->body(), L->binder(), MAtom::anyVar(Addr));
      continue;
    }
    case Term::TermKind::Case: {
      // CASE.
      const auto *C = cast<CaseTerm>(Cur);
      ++S.Cases;
      Stack.push_back(
          {Frame::FrameKind::Case, C->binder(), 0, 0, C->body(), nullptr});
      Cur = C->scrut();
      continue;
    }
    case Term::TermKind::If0: {
      // IF0: evaluate the integer scrutinee, then branch.
      const auto *I = cast<If0Term>(Cur);
      Stack.push_back({Frame::FrameKind::If0, MVar(), 0, 0,
                       I->thenBranch(), I->elseBranch()});
      Cur = I->scrut();
      continue;
    }
    case Term::TermKind::Switch: {
      // SWITCH: evaluate the scrutinee, then dispatch (SWITCHk).
      const auto *Sw = cast<SwitchTerm>(Cur);
      ++S.Switches;
      Stack.push_back(
          {Frame::FrameKind::Switch, MVar(), 0, 0, nullptr, nullptr, Sw});
      Cur = Sw->scrut();
      continue;
    }
    case Term::TermKind::Prim: {
      // PRIM: ⟨a1 ⊕# a2; S; H⟩ → ⟨w; S; H⟩ — both operands must have
      // been resolved to literals by ILET/IPOP (or DLET/DPOP)
      // substitution.
      const auto *P = cast<PrimTerm>(Cur);
      if (!P->lhs().IsLit || !P->rhs().IsLit)
        return Stuck("unresolved unboxed variable in primop");
      ++S.Prims;
      if (mPrimTakesDouble(P->op())) {
        if (!P->lhs().IsDbl || !P->rhs().IsDbl)
          return Stuck("integer atom in a double primop");
        if (mPrimReturnsDouble(P->op()))
          Cur = Ctx.dlit(
              evalMPrimDD(P->op(), P->lhs().DblLit, P->rhs().DblLit));
        else
          Cur = Ctx.lit(
              evalMPrimDI(P->op(), P->lhs().DblLit, P->rhs().DblLit));
        continue;
      }
      if (P->lhs().IsDbl || P->rhs().IsDbl)
        return Stuck("double atom in an integer primop");
      if (P->op() == MPrim::Quot || P->op() == MPrim::Rem) {
        if (P->rhs().Lit == 0)
          return Stuck("divide by zero");
        // INT64_MIN / -1 overflows (and traps on x86); reject it like a
        // zero divisor instead of crashing the process.
        if (P->lhs().Lit == std::numeric_limits<int64_t>::min() &&
            P->rhs().Lit == -1)
          return Stuck("integer overflow in division");
      }
      Cur = Ctx.lit(evalMPrim(P->op(), P->lhs().Lit, P->rhs().Lit));
      continue;
    }
    case Term::TermKind::Error:
      // ERR: abort the machine, surfacing the error's message.
      R.Status = MachineOutcome::Bottom;
      if (Symbol Msg = cast<ErrorTerm>(Cur)->message(); Msg.valid())
        R.ErrorMessage = std::string(Msg.str());
      R.FinalHeap = std::move(H);
      RecordPeak();
      return R;
    case Term::TermKind::ConVar:
      return Stuck("I#[y] with unresolved variable " +
                   cast<ConVarTerm>(Cur)->var().str());
    case Term::TermKind::Con:
      // A non-value CON still has an unresolved unboxed field atom.
      return Stuck("CON with an unresolved unboxed field atom");
    case Term::TermKind::Lam:
    case Term::TermKind::ConLit:
    case Term::TermKind::Lit:
    case Term::TermKind::DLit:
      assert(false && "values handled above");
      return Stuck("internal: value fell through");
    }
  }

  R.Status = MachineOutcome::OutOfFuel;
  R.Value = Cur;
  R.FinalHeap = std::move(H);
  RecordPeak();
  return R;
}
