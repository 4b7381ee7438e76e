//===- Eval.cpp - Small-step operational semantics for L (Fig 4) ----------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lcalc/Eval.h"
#include "lcalc/Subst.h"

#include <limits>

using namespace levity;
using namespace levity::lcalc;

StepResult Evaluator::step(TypeEnv &Env, const Expr *E) {
  switch (E->kind()) {
  case Expr::ExprKind::Var:
    return {StepStatus::Stuck, nullptr, "free variable"};
  case Expr::ExprKind::IntLit:
  case Expr::ExprKind::DoubleLit:
  case Expr::ExprKind::Lam:
    return {StepStatus::Value};
  case Expr::ExprKind::Error:
    // S_ERROR: error → ⊥.
    return {StepStatus::Bottom, nullptr, "S_ERROR"};
  case Expr::ExprKind::Fix: {
    // S_FIX: fix x:τ. e → e[fix x:τ. e / x].
    const auto *F = cast<FixExpr>(E);
    const Expr *Next = subst(Ctx, F->body(), F->var(), E);
    return {StepStatus::Stepped, Next, "S_FIX"};
  }
  case Expr::ExprKind::If0: {
    // S_IF0: force the Int# scrutinee, then take the branch.
    const auto *I = cast<If0Expr>(E);
    if (const auto *Lit = dyn_cast<IntLitExpr>(I->scrut()))
      return {StepStatus::Stepped,
              Lit->value() == 0 ? I->thenBranch() : I->elseBranch(),
              Lit->value() == 0 ? "S_IF0THEN" : "S_IF0ELSE"};
    StepResult S = step(Env, I->scrut());
    if (S.Status == StepStatus::Stepped)
      return {StepStatus::Stepped,
              Ctx.if0(S.Next, I->thenBranch(), I->elseBranch()),
              "S_IF0SCRUT"};
    if (S.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_IF0SCRUT/⊥"};
    return {StepStatus::Stuck, nullptr, "stuck if0 scrutinee"};
  }

  case Expr::ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    // The application rules are type-directed: fetch the kind of the
    // argument's type (premises Γ ⊢ e2 : τ, Γ ⊢ τ : TYPE υ).
    Result<const Type *> ArgTy = TC.typeOf(Env, A->arg());
    if (!ArgTy)
      return {StepStatus::Stuck, nullptr, "ill-typed argument"};
    Result<LKind> ArgKind = TC.kindOf(Env, *ArgTy);
    if (!ArgKind || !ArgKind->isConcrete())
      return {StepStatus::Stuck, nullptr, "levity-polymorphic argument"};

    if (ArgKind->rep().rep() == ConcreteRep::P) {
      // Lazy application: S_BETAPTR fires as soon as the function is a
      // lambda; the argument is substituted unevaluated (call-by-name —
      // M recovers sharing with its heap).
      if (const auto *L = dyn_cast<LamExpr>(A->fn())) {
        const Expr *Next = subst(Ctx, L->body(), L->var(), A->arg());
        return {StepStatus::Stepped, Next, "S_BETAPTR"};
      }
      StepResult Fn = step(Env, A->fn());
      if (Fn.Status == StepStatus::Stepped)
        return {StepStatus::Stepped, Ctx.app(Fn.Next, A->arg()),
                "S_APPLAZY"};
      if (Fn.Status == StepStatus::Bottom)
        return {StepStatus::Bottom, nullptr, "S_APPLAZY/⊥"};
      return {StepStatus::Stuck, nullptr, "non-function in application"};
    }

    // Strict application (TYPE I): evaluate the argument first
    // (S_APPSTRICT), then the function (S_APPSTRICT2), then β-reduce
    // (S_BETAUNBOXED).
    if (!isValue(A->arg())) {
      StepResult Arg = step(Env, A->arg());
      if (Arg.Status == StepStatus::Stepped)
        return {StepStatus::Stepped, Ctx.app(A->fn(), Arg.Next),
                "S_APPSTRICT"};
      if (Arg.Status == StepStatus::Bottom)
        return {StepStatus::Bottom, nullptr, "S_APPSTRICT/⊥"};
      return {StepStatus::Stuck, nullptr, "stuck strict argument"};
    }
    if (const auto *L = dyn_cast<LamExpr>(A->fn())) {
      const Expr *Next = subst(Ctx, L->body(), L->var(), A->arg());
      return {StepStatus::Stepped, Next, "S_BETAUNBOXED"};
    }
    StepResult Fn = step(Env, A->fn());
    if (Fn.Status == StepStatus::Stepped)
      return {StepStatus::Stepped, Ctx.app(Fn.Next, A->arg()),
              "S_APPSTRICT2"};
    if (Fn.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_APPSTRICT2/⊥"};
    return {StepStatus::Stuck, nullptr, "non-function in application"};
  }

  case Expr::ExprKind::TyLam: {
    // S_TLAM: evaluate under Λ (values are recursive under Λ).
    const auto *L = cast<TyLamExpr>(E);
    if (isValue(L->body()))
      return {StepStatus::Value};
    Env.pushTypeVar(L->var(), L->varKind());
    StepResult Body = step(Env, L->body());
    Env.popTypeVar();
    if (Body.Status == StepStatus::Stepped)
      return {StepStatus::Stepped,
              Ctx.tyLam(L->var(), L->varKind(), Body.Next), "S_TLAM"};
    if (Body.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_TLAM/⊥"};
    return {StepStatus::Stuck, nullptr, "stuck under type lambda"};
  }

  case Expr::ExprKind::TyApp: {
    const auto *A = cast<TyAppExpr>(E);
    // S_TBETA requires the abstraction body to be a value.
    if (const auto *L = dyn_cast<TyLamExpr>(A->fn())) {
      if (isValue(L->body())) {
        const Expr *Next = subst(Ctx, L->body(), L->var(), A->tyArg());
        return {StepStatus::Stepped, Next, "S_TBETA"};
      }
    }
    StepResult Fn = step(Env, A->fn());
    if (Fn.Status == StepStatus::Stepped)
      return {StepStatus::Stepped, Ctx.tyApp(Fn.Next, A->tyArg()),
              "S_TAPP"};
    if (Fn.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_TAPP/⊥"};
    return {StepStatus::Stuck, nullptr, "type-applying a non-Λ"};
  }

  case Expr::ExprKind::RepLam: {
    // S_RLAM.
    const auto *L = cast<RepLamExpr>(E);
    if (isValue(L->body()))
      return {StepStatus::Value};
    Env.pushRepVar(L->repVar());
    StepResult Body = step(Env, L->body());
    Env.popRepVar();
    if (Body.Status == StepStatus::Stepped)
      return {StepStatus::Stepped, Ctx.repLam(L->repVar(), Body.Next),
              "S_RLAM"};
    if (Body.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_RLAM/⊥"};
    return {StepStatus::Stuck, nullptr, "stuck under rep lambda"};
  }

  case Expr::ExprKind::RepApp: {
    const auto *A = cast<RepAppExpr>(E);
    // S_RBETA.
    if (const auto *L = dyn_cast<RepLamExpr>(A->fn())) {
      if (isValue(L->body())) {
        const Expr *Next = subst(Ctx, L->body(), L->repVar(), A->repArg());
        return {StepStatus::Stepped, Next, "S_RBETA"};
      }
    }
    StepResult Fn = step(Env, A->fn());
    if (Fn.Status == StepStatus::Stepped)
      return {StepStatus::Stepped, Ctx.repApp(Fn.Next, A->repArg()),
              "S_RAPP"};
    if (Fn.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_RAPP/⊥"};
    return {StepStatus::Stuck, nullptr, "rep-applying a non-Λ"};
  }

  case Expr::ExprKind::Con: {
    // S_CON: constructors are strict in unboxed fields (evaluated left
    // to right) and lazy in pointer fields, mirroring the kind-directed
    // application rules.
    const auto *C = cast<ConExpr>(E);
    const LDataCon &Con = C->decl()->con(C->tag());
    for (size_t I = 0; I != C->args().size(); ++I) {
      if (Con.FieldReps[I] == ConcreteRep::P || isValue(C->args()[I]))
        continue;
      StepResult P = step(Env, C->args()[I]);
      if (P.Status == StepStatus::Stepped) {
        std::vector<const Expr *> Args(C->args().begin(), C->args().end());
        Args[I] = P.Next;
        return {StepStatus::Stepped, Ctx.conData(C->decl(), C->tag(), Args),
                "S_CON"};
      }
      if (P.Status == StepStatus::Bottom)
        return {StepStatus::Bottom, nullptr, "S_CON/⊥"};
      return {StepStatus::Stuck, nullptr, "stuck constructor payload"};
    }
    return {StepStatus::Value};
  }

  case Expr::ExprKind::Prim: {
    // Both operands are Int# (kind TYPE I), so evaluation is strict,
    // left to right: S_PRIM1, S_PRIM2, then S_PRIMOP combines literals.
    const auto *P = cast<PrimExpr>(E);
    if (!isValue(P->lhs())) {
      StepResult Lhs = step(Env, P->lhs());
      if (Lhs.Status == StepStatus::Stepped)
        return {StepStatus::Stepped, Ctx.prim(P->op(), Lhs.Next, P->rhs()),
                "S_PRIM1"};
      if (Lhs.Status == StepStatus::Bottom)
        return {StepStatus::Bottom, nullptr, "S_PRIM1/⊥"};
      return {StepStatus::Stuck, nullptr, "stuck primop operand"};
    }
    if (!isValue(P->rhs())) {
      StepResult Rhs = step(Env, P->rhs());
      if (Rhs.Status == StepStatus::Stepped)
        return {StepStatus::Stepped, Ctx.prim(P->op(), P->lhs(), Rhs.Next),
                "S_PRIM2"};
      if (Rhs.Status == StepStatus::Bottom)
        return {StepStatus::Bottom, nullptr, "S_PRIM2/⊥"};
      return {StepStatus::Stuck, nullptr, "stuck primop operand"};
    }
    if (lPrimTakesDouble(P->op())) {
      const auto *Lhs = dyn_cast<DoubleLitExpr>(P->lhs());
      const auto *Rhs = dyn_cast<DoubleLitExpr>(P->rhs());
      if (!Lhs || !Rhs)
        return {StepStatus::Stuck, nullptr, "primop on non-double values"};
      if (lPrimReturnsDouble(P->op()))
        return {StepStatus::Stepped,
                Ctx.doubleLit(
                    evalLPrimDD(P->op(), Lhs->value(), Rhs->value())),
                "S_PRIMOP"};
      return {StepStatus::Stepped,
              Ctx.intLit(evalLPrimDI(P->op(), Lhs->value(), Rhs->value())),
              "S_PRIMOP"};
    }
    const auto *Lhs = dyn_cast<IntLitExpr>(P->lhs());
    const auto *Rhs = dyn_cast<IntLitExpr>(P->rhs());
    if (!Lhs || !Rhs)
      return {StepStatus::Stuck, nullptr, "primop on non-integer values"};
    if (P->op() == LPrim::Quot || P->op() == LPrim::Rem) {
      if (Rhs->value() == 0)
        return {StepStatus::Stuck, nullptr, "divide by zero"};
      // INT64_MIN / -1 overflows (and traps on x86); reject it like a
      // zero divisor instead of crashing the process.
      if (Lhs->value() == std::numeric_limits<int64_t>::min() &&
          Rhs->value() == -1)
        return {StepStatus::Stuck, nullptr, "integer overflow in division"};
    }
    return {StepStatus::Stepped,
            Ctx.intLit(evalLPrim(P->op(), Lhs->value(), Rhs->value())),
            "S_PRIMOP"};
  }

  case Expr::ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    if (isValue(C->scrut())) {
      // S_CASEk / S_CASEDEF: dispatch on the scrutinee value.
      if (const auto *Con = dyn_cast<ConExpr>(C->scrut())) {
        for (const LAlt &A : C->alts()) {
          if (A.Pat != LAlt::PatKind::Con || A.Tag != Con->tag())
            continue;
          if (A.Binders.size() != Con->args().size())
            return {StepStatus::Stuck, nullptr,
                    "case alternative arity mismatch"};
          // Bind fields: rename every binder fresh first so the
          // field-by-field substitution below cannot capture a name
          // free in an earlier (lazy, unevaluated) field payload.
          const Expr *Rhs = A.Rhs;
          std::vector<Symbol> Fresh(A.Binders.size());
          for (size_t I = 0; I != A.Binders.size(); ++I) {
            Fresh[I] = Ctx.symbols().fresh(A.Binders[I].str());
            Rhs = subst(Ctx, Rhs, A.Binders[I], Ctx.var(Fresh[I]));
          }
          for (size_t I = 0; I != Fresh.size(); ++I)
            Rhs = subst(Ctx, Rhs, Fresh[I], Con->args()[I]);
          return {StepStatus::Stepped, Rhs, "S_CASEk"};
        }
      } else if (const auto *Lit = dyn_cast<IntLitExpr>(C->scrut())) {
        for (const LAlt &A : C->alts())
          if (A.Pat == LAlt::PatKind::Int && A.IntVal == Lit->value())
            return {StepStatus::Stepped, A.Rhs, "S_CASEk"};
      } else if (const auto *DLit = dyn_cast<DoubleLitExpr>(C->scrut())) {
        for (const LAlt &A : C->alts())
          if (A.Pat == LAlt::PatKind::Dbl && A.DblVal == DLit->value())
            return {StepStatus::Stepped, A.Rhs, "S_CASEk"};
      } else if (!C->alts().empty()) {
        return {StepStatus::Stuck, nullptr,
                "case scrutinee value matches no pattern sort"};
      }
      if (C->defaultRhs())
        return {StepStatus::Stepped, C->defaultRhs(), "S_CASEDEF"};
      return {StepStatus::Stuck, nullptr, "no matching case alternative"};
    }
    // S_CASE: reduce the scrutinee.
    StepResult S = step(Env, C->scrut());
    if (S.Status == StepStatus::Stepped)
      return {StepStatus::Stepped,
              Ctx.caseData(S.Next, C->decl(), C->alts(), C->defaultRhs()),
              "S_CASE"};
    if (S.Status == StepStatus::Bottom)
      return {StepStatus::Bottom, nullptr, "S_CASE/⊥"};
    return {StepStatus::Stuck, nullptr, "stuck case scrutinee"};
  }
  }
  assert(false && "unknown expr kind");
  return {StepStatus::Stuck, nullptr, "unknown expr kind"};
}

RunResult Evaluator::run(TypeEnv &Env, const Expr *E, size_t MaxSteps) {
  // Fuel pays for steps only: a run that ends after N steps ends with
  // fuel N, as on every other engine.
  const Expr *Cur = E;
  for (size_t I = 0;; ++I) {
    StepResult R = step(Env, Cur);
    if (R.Status != StepStatus::Stepped)
      return {R.Status, Cur, I};
    if (I == MaxSteps)
      return {StepStatus::Stepped, Cur, MaxSteps}; // out of fuel
    Cur = R.Next;
  }
}
