//===- Interp.cpp - Instrumented evaluator for core programs --------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"

#include <limits>

using namespace levity;
using namespace levity::runtime;
using namespace levity::core;

void Interp::loadProgram(const CoreProgram &P) {
  // Mutually recursive top level: every binding is a lazy global thunk
  // evaluated in the global scope (lookup falls back to Globals).
  for (const TopBinding &B : P.Bindings) {
    Value *V = newValue();
    V->T = Value::Tag::Thunk;
    V->Suspended = B.Rhs;
    V->SuspendedEnv = nullptr;
    Globals[B.Name] = V;
  }
}

Value *Interp::lookup(const EnvNode *Env, Symbol Name) {
  for (const EnvNode *N = Env; N; N = N->Next)
    if (N->Name == Name)
      return N->V;
  auto It = Globals.find(Name);
  return It == Globals.end() ? nullptr : It->second;
}

const std::vector<bool> &Interp::fieldStrictness(const DataCon *DC) {
  auto It = StrictCache.find(DC);
  if (It != StrictCache.end())
    return It->second;
  std::vector<bool> Strict;
  CoreEnv Env;
  for (size_t I = 0; I != DC->univs().size(); ++I)
    Env.pushTypeVar(DC->univs()[I], DC->univKinds()[I]);
  for (const Type *F : DC->fields()) {
    Result<const Kind *> K = Checker.kindOf(Env, F);
    bool Unlifted = false;
    if (K && (*K)->isTypeOf()) {
      const RepTy *R = C.zonkRep((*K)->rep());
      Unlifted = !(R->tag() == RepTy::Tag::Atom &&
                   R->atom() == RepCtor::Lifted);
    }
    Strict.push_back(Unlifted);
  }
  return StrictCache.emplace(DC, std::move(Strict)).first->second;
}

InterpResult Interp::eval(const Expr *E, uint64_t MaxSteps) {
  InterpResult R;
  FailStatus = InterpStatus::Value;
  FailMessage.clear();
  FuelLeft = MaxSteps;
  Value *V = evalIn(E, nullptr, R.Stats);
  // Retained cells at end of run — see InterpStats::PeakHeapCells. Both
  // pools are monotone within one run, so this is also the run's peak.
  R.Stats.PeakHeapCells = Pool.size() + EnvPool.size();
  R.Stats.PeakHeapBytes =
      Pool.size() * sizeof(Value) + EnvPool.size() * sizeof(EnvNode);
  if (!V) {
    R.Status = FailStatus == InterpStatus::Value ? InterpStatus::RuntimeError
                                                 : FailStatus;
    R.Message = FailMessage;
    return R;
  }
  R.Status = InterpStatus::Value;
  R.V = V;
  return R;
}

/// One suspended continuation of the iterative engine — what a recursive
/// evaluator would keep in a C++ stack frame. The engine alternates
/// between Eval mode (walk an expression) and Return mode (feed the
/// produced value to the innermost frame), so evaluation depth lives in a
/// heap-allocated vector instead of the C++ stack.
struct Interp::Frame {
  enum class K : uint8_t {
    Update,    ///< Write the produced value back into a forced thunk (V).
    AppFn,     ///< Have the function value; evaluate or thunk E's arg.
    AppArg,    ///< Have the strict argument; enter the saved function (V).
    AppEnter,  ///< Have the forced function; enter it on the saved arg (V).
    LetStrict, ///< Have the strict let's rhs; bind it and run E's body.
    CaseScrut, ///< Have the scrutinee; select one of E's alternatives.
    ConField,  ///< Have strict field Idx; keep building the box (V).
    PrimArg,   ///< Have primop argument Idx (arg 0 saved in V).
    TupleElem, ///< Have tuple element Idx; keep building the tuple (V).
    ErrorMsg   ///< Have the error message; abort with Bottom.
  };

  K Kind;
  const core::Expr *E = nullptr; ///< The node being continued.
  const EnvNode *Env = nullptr;  ///< Its environment.
  Value *V = nullptr;            ///< Frame-specific value slot.
  uint32_t Idx = 0;              ///< Next field/argument index.
};

Value *Interp::evalIn(const Expr *E, const EnvNode *Env, InterpStats &S) {
  std::vector<Frame> Stack;
  enum class Mode : uint8_t { Eval, Return };
  Mode M = Mode::Eval;
  Value *Ret = nullptr;

  // Failure unwinding. An error's message is evaluated under an ErrorMsg
  // frame; any failure (or inner bottom) propagating through one is
  // rewritten to the enclosing error's own bottom, exactly as the
  // recursive evaluator's unwinding did. Thunks that were black-holed by
  // abandoned Update frames are reset to unforced, so a long-lived
  // Executor can retry (e.g. with more fuel) without a spurious
  // "<<loop>>"; genuine loops still trip the black hole while their
  // frames are live.
  auto failed = [&]() -> Value * {
    bool UnderError = false;
    for (const Frame &F : Stack) {
      if (F.Kind == Frame::K::ErrorMsg)
        UnderError = true;
      else if (F.Kind == Frame::K::Update)
        F.V->BlackHole = false;
    }
    if (UnderError) {
      FailStatus = InterpStatus::Bottom;
      FailMessage = "error";
    }
    return nullptr;
  };
  auto fail = [&](InterpStatus St, std::string Msg) -> Value * {
    FailStatus = St;
    FailMessage = std::move(Msg);
    return failed();
  };

  // Enters a function value: forces it if it is a thunk (resuming the
  // application afterwards via AppEnter), then binds the argument and
  // tail-jumps into the body. Returns false on a non-function.
  auto enter = [&](Value *Fn, Value *Arg) -> bool {
    while (Fn->T == Value::Tag::Thunk && Fn->Forced)
      Fn = Fn->Forced;
    if (Fn->T == Value::Tag::Thunk) {
      if (Fn->BlackHole) {
        FailStatus = InterpStatus::RuntimeError;
        FailMessage = "<<loop>>";
        return false;
      }
      Fn->BlackHole = true;
      ++S.ThunkForces;
      Stack.push_back({Frame::K::AppEnter, nullptr, nullptr, Arg, 0});
      Stack.push_back({Frame::K::Update, nullptr, nullptr, Fn, 0});
      E = Fn->Suspended;
      Env = Fn->SuspendedEnv;
      M = Mode::Eval;
      return true;
    }
    if (Fn->T != Value::Tag::Closure) {
      FailStatus = InterpStatus::RuntimeError;
      FailMessage = "applying a non-function value";
      return false;
    }
    Env = extend(Fn->CapturedEnv, Fn->Lam->var(), Arg);
    E = Fn->Lam->body();
    M = Mode::Eval;
    return true;
  };

  // Builds a constructor box from field Idx on: thunks lazy fields
  // in-place, descends (via a ConField frame) into the next strict one,
  // and completes the box once every field is filled.
  auto buildCon = [&](const ConExpr *Con, const EnvNode *CEnv, Value *Box,
                      size_t I) {
    const std::vector<bool> &Strict = fieldStrictness(Con->dataCon());
    for (; I != Con->args().size(); ++I) {
      if (Strict[I]) {
        Stack.push_back({Frame::K::ConField, Con, CEnv, Box,
                         static_cast<uint32_t>(I)});
        E = Con->args()[I];
        Env = CEnv;
        M = Mode::Eval;
        return;
      }
      Box->Fields.push_back(makeThunk(Con->args()[I], CEnv, S));
    }
    ++S.BoxAllocs;
    Ret = Box;
    M = Mode::Return;
  };

  auto buildTuple = [&](const UnboxedTupleExpr *U, const EnvNode *UEnv,
                        Value *Tup, size_t I) {
    if (I != U->elems().size()) {
      Stack.push_back({Frame::K::TupleElem, U, UEnv, Tup,
                       static_cast<uint32_t>(I)});
      E = U->elems()[I];
      Env = UEnv;
      M = Mode::Eval;
      return;
    }
    ++S.TupleMoves;
    Ret = Tup;
    M = Mode::Return;
  };

  for (;;) {
    if (M == Mode::Return) {
      if (Stack.empty())
        return Ret;
      Frame F = Stack.back();
      Stack.pop_back();
      switch (F.Kind) {
      case Frame::K::Update:
        // An old→new pointer write promotes the epoch (beginRunEpoch).
        EpochPromoted |= F.V->Epoch != CurEpoch && Ret->Epoch == CurEpoch;
        F.V->Forced = Ret;
        F.V->BlackHole = false;
        continue; // Keep returning the same value.

      case Frame::K::AppFn: {
        const auto *A = cast<AppExpr>(F.E);
        if (A->strictArg()) {
          // Unlifted argument: call-by-value (an "integer register").
          Stack.push_back({Frame::K::AppArg, nullptr, nullptr, Ret, 0});
          E = A->arg();
          Env = F.Env;
          M = Mode::Eval;
          continue;
        }
        // Lifted argument: pass a pointer to a heap thunk.
        Value *Arg = makeThunk(A->arg(), F.Env, S);
        if (!enter(Ret, Arg))
          return failed();
        continue;
      }
      case Frame::K::AppArg:
        if (!enter(F.V, Ret))
          return failed();
        continue;
      case Frame::K::AppEnter:
        if (!enter(Ret, F.V))
          return failed();
        continue;

      case Frame::K::LetStrict: {
        const auto *L = cast<LetExpr>(F.E);
        Env = extend(F.Env, L->var(), Ret);
        E = L->body();
        M = Mode::Eval;
        continue;
      }

      case Frame::K::CaseScrut: {
        const auto *Cs = cast<CaseExpr>(F.E);
        Value *Scrut = Ret;
        const Alt *Taken = nullptr;
        const Alt *Default = nullptr;
        for (const Alt &A : Cs->alts()) {
          switch (A.Kind) {
          case Alt::AltKind::Default:
            Default = &A;
            break;
          case Alt::AltKind::ConPat:
            if (Scrut->T == Value::Tag::Con && Scrut->DC == A.Con)
              Taken = &A;
            break;
          case Alt::AltKind::LitPat:
            if (Scrut->T == Value::Tag::IntHash &&
                A.Lit.tag() == Literal::Tag::IntHash &&
                Scrut->I == A.Lit.intValue())
              Taken = &A;
            else if (Scrut->T == Value::Tag::DoubleHash &&
                     A.Lit.tag() == Literal::Tag::DoubleHash &&
                     Scrut->D == A.Lit.doubleValue())
              Taken = &A;
            break;
          case Alt::AltKind::TuplePat:
            if (Scrut->T == Value::Tag::Tuple)
              Taken = &A;
            break;
          }
          if (Taken)
            break;
        }
        if (!Taken)
          Taken = Default;
        if (!Taken)
          return fail(InterpStatus::RuntimeError,
                      "pattern-match failure in case");
        Env = F.Env;
        if (Taken->Kind == Alt::AltKind::ConPat ||
            Taken->Kind == Alt::AltKind::TuplePat) {
          for (size_t I = 0; I != Taken->Binders.size(); ++I)
            Env = extend(Env, Taken->Binders[I], Scrut->Fields[I]);
        }
        E = Taken->Rhs;
        M = Mode::Eval;
        continue;
      }

      case Frame::K::ConField:
        F.V->Fields.push_back(Ret);
        buildCon(cast<ConExpr>(F.E), F.Env, F.V, F.Idx + 1);
        continue;

      case Frame::K::PrimArg: {
        const auto *P = cast<PrimOpExpr>(F.E);
        if (F.Idx + 1 < P->args().size()) {
          Stack.push_back({Frame::K::PrimArg, P, F.Env, Ret, F.Idx + 1});
          E = P->args()[F.Idx + 1];
          Env = F.Env;
          M = Mode::Eval;
          continue;
        }
        Value *A0 = F.Idx == 0 ? Ret : F.V;
        Value *A1 = F.Idx == 0 ? nullptr : Ret;
        Ret = execPrim(P, A0, A1, S);
        if (!Ret)
          return failed();
        M = Mode::Return;
        continue;
      }

      case Frame::K::TupleElem:
        F.V->Fields.push_back(Ret);
        buildTuple(cast<UnboxedTupleExpr>(F.E), F.Env, F.V, F.Idx + 1);
        continue;

      case Frame::K::ErrorMsg:
        FailStatus = InterpStatus::Bottom;
        FailMessage = Ret->T == Value::Tag::Str
                          ? std::string(Ret->S.str())
                          : "error";
        return failed();
      }
      assert(false && "unknown frame kind");
      return nullptr;
    }

    if (FuelLeft == 0)
      return fail(InterpStatus::OutOfFuel, "step budget exhausted");
    --FuelLeft;
    ++S.EvalSteps;

    switch (E->tag()) {
    case Expr::Tag::Var: {
      Value *V = lookup(Env, cast<VarExpr>(E)->name());
      if (!V)
        return fail(InterpStatus::RuntimeError,
                    "unbound variable " +
                        std::string(cast<VarExpr>(E)->name().str()));
      while (V->T == Value::Tag::Thunk && V->Forced)
        V = V->Forced;
      if (V->T == Value::Tag::Thunk) {
        if (V->BlackHole)
          return fail(InterpStatus::RuntimeError, "<<loop>>");
        V->BlackHole = true;
        ++S.ThunkForces;
        Stack.push_back({Frame::K::Update, nullptr, nullptr, V, 0});
        E = V->Suspended;
        Env = V->SuspendedEnv;
        continue;
      }
      Ret = V;
      M = Mode::Return;
      continue;
    }

    case Expr::Tag::Lit: {
      const Literal &L = cast<LitExpr>(E)->lit();
      Value *V = newValue();
      switch (L.tag()) {
      case Literal::Tag::IntHash:
        V->T = Value::Tag::IntHash;
        V->I = L.intValue();
        break;
      case Literal::Tag::DoubleHash:
        V->T = Value::Tag::DoubleHash;
        V->D = L.doubleValue();
        break;
      case Literal::Tag::String:
        V->T = Value::Tag::Str;
        V->S = L.stringValue();
        break;
      }
      Ret = V;
      M = Mode::Return;
      continue;
    }

    case Expr::Tag::App:
      Stack.push_back({Frame::K::AppFn, E, Env, nullptr, 0});
      E = cast<AppExpr>(E)->fn();
      continue;

    case Expr::Tag::TyApp:
      // Erased.
      E = cast<TyAppExpr>(E)->fn();
      continue;
    case Expr::Tag::TyLam:
      // Erased (evaluation proceeds under Λ, as in L).
      E = cast<TyLamExpr>(E)->body();
      continue;

    case Expr::Tag::Lam: {
      const auto *L = cast<LamExpr>(E);
      ++S.ClosureAllocs;
      Value *V = newValue();
      V->T = Value::Tag::Closure;
      V->Lam = L;
      V->CapturedEnv = Env;
      Ret = V;
      M = Mode::Return;
      continue;
    }

    case Expr::Tag::Let: {
      const auto *L = cast<LetExpr>(E);
      if (L->strict()) {
        Stack.push_back({Frame::K::LetStrict, E, Env, nullptr, 0});
        E = L->rhs();
        continue;
      }
      Env = extend(Env, L->var(), makeThunk(L->rhs(), Env, S));
      E = L->body();
      continue;
    }

    case Expr::Tag::LetRec: {
      const auto *L = cast<LetRecExpr>(E);
      // Tie the knot: allocate thunks, extend, then point the thunks at
      // the extended environment.
      std::vector<Value *> Thunks;
      for (const RecBinding &B : L->bindings()) {
        (void)B;
        Thunks.push_back(makeThunk(nullptr, nullptr, S));
      }
      const EnvNode *NewEnv = Env;
      for (size_t I = 0; I != Thunks.size(); ++I)
        NewEnv = extend(NewEnv, L->bindings()[I].Var, Thunks[I]);
      for (size_t I = 0; I != Thunks.size(); ++I) {
        Thunks[I]->Suspended = L->bindings()[I].Rhs;
        Thunks[I]->SuspendedEnv = NewEnv;
      }
      Env = NewEnv;
      E = L->body();
      continue;
    }

    case Expr::Tag::Case:
      Stack.push_back({Frame::K::CaseScrut, E, Env, nullptr, 0});
      E = cast<CaseExpr>(E)->scrut();
      continue;

    case Expr::Tag::Con: {
      const auto *Con = cast<ConExpr>(E);
      Value *V = newValue();
      V->T = Value::Tag::Con;
      V->DC = Con->dataCon();
      V->Fields.reserve(Con->args().size());
      buildCon(Con, Env, V, 0);
      continue;
    }

    case Expr::Tag::Prim: {
      const auto *P = cast<PrimOpExpr>(E);
      if (P->args().empty()) {
        Ret = execPrim(P, nullptr, nullptr, S);
        if (!Ret)
          return failed();
        M = Mode::Return;
        continue;
      }
      Stack.push_back({Frame::K::PrimArg, E, Env, nullptr, 0});
      E = P->args()[0];
      continue;
    }

    case Expr::Tag::UnboxedTuple: {
      // No heap allocation: the fields travel in registers. Fields are
      // evaluated eagerly (see DESIGN.md on this simplification).
      const auto *U = cast<UnboxedTupleExpr>(E);
      Value *V = newValue();
      V->T = Value::Tag::Tuple;
      V->Fields.reserve(U->elems().size());
      buildTuple(U, Env, V, 0);
      continue;
    }

    case Expr::Tag::Error:
      Stack.push_back({Frame::K::ErrorMsg, E, Env, nullptr, 0});
      E = cast<ErrorExpr>(E)->message();
      continue;
    }
    assert(false && "unknown expr tag");
    return nullptr;
  }
}

Value *Interp::execPrim(const core::PrimOpExpr *P, Value *A0, Value *A1,
                        InterpStats &S) {
  ++S.PrimOps;
  Value *V = newValue();
  auto IntResult = [&](int64_t X) {
    V->T = Value::Tag::IntHash;
    V->I = X;
    return V;
  };
  auto DoubleResult = [&](double X) {
    V->T = Value::Tag::DoubleHash;
    V->D = X;
    return V;
  };
  switch (P->op()) {
  case PrimOp::AddI: return IntResult(A0->I + A1->I);
  case PrimOp::SubI: return IntResult(A0->I - A1->I);
  case PrimOp::MulI: return IntResult(A0->I * A1->I);
  case PrimOp::QuotI:
  case PrimOp::RemI:
    if (A1->I == 0) {
      FailStatus = InterpStatus::RuntimeError;
      FailMessage = "divide by zero";
      return nullptr;
    }
    // INT64_MIN / -1 overflows (and traps on x86); reject it like a
    // zero divisor instead of crashing the process.
    if (A0->I == std::numeric_limits<int64_t>::min() && A1->I == -1) {
      FailStatus = InterpStatus::RuntimeError;
      FailMessage = "integer overflow in division";
      return nullptr;
    }
    return IntResult(P->op() == PrimOp::QuotI ? A0->I / A1->I
                                              : A0->I % A1->I);
  case PrimOp::NegI: return IntResult(-A0->I);
  case PrimOp::LtI: return IntResult(A0->I < A1->I ? 1 : 0);
  case PrimOp::LeI: return IntResult(A0->I <= A1->I ? 1 : 0);
  case PrimOp::GtI: return IntResult(A0->I > A1->I ? 1 : 0);
  case PrimOp::GeI: return IntResult(A0->I >= A1->I ? 1 : 0);
  case PrimOp::EqI: return IntResult(A0->I == A1->I ? 1 : 0);
  case PrimOp::NeI: return IntResult(A0->I != A1->I ? 1 : 0);
  case PrimOp::AddD: return DoubleResult(A0->D + A1->D);
  case PrimOp::SubD: return DoubleResult(A0->D - A1->D);
  case PrimOp::MulD: return DoubleResult(A0->D * A1->D);
  case PrimOp::DivD: return DoubleResult(A0->D / A1->D);
  case PrimOp::NegD: return DoubleResult(-A0->D);
  case PrimOp::LtD: return IntResult(A0->D < A1->D ? 1 : 0);
  case PrimOp::EqD: return IntResult(A0->D == A1->D ? 1 : 0);
  case PrimOp::Int2Double:
    return DoubleResult(double(A0->I));
  case PrimOp::Double2Int:
    return IntResult(int64_t(A0->D));
  case PrimOp::IsTrue: {
    V->T = Value::Tag::Con;
    V->DC = A0->I != 0 ? C.trueCon() : C.falseCon();
    ++S.BoxAllocs;
    return V;
  }
  }
  FailStatus = InterpStatus::RuntimeError;
  FailMessage = "unknown primop";
  return nullptr;
}
