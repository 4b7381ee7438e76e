//===- Syntax.cpp - The M language of Section 6.2 -------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "mcalc/Syntax.h"

#include <algorithm>
#include <sstream>

using namespace levity;
using namespace levity::mcalc;

namespace {

enum Prec { PrecTop = 0, PrecApp = 1, PrecAtom = 2 };

void printTerm(std::ostringstream &OS, const Term *T, int Prec) {
  switch (T->kind()) {
  case Term::TermKind::Var:
    OS << cast<VarTerm>(T)->var().str();
    return;
  case Term::TermKind::Lit:
    OS << cast<LitTerm>(T)->value();
    return;
  case Term::TermKind::DLit:
    OS << support::doubleText(cast<DLitTerm>(T)->value()) << "##";
    return;
  case Term::TermKind::Error:
    OS << "error";
    return;
  case Term::TermKind::ConVar:
    OS << "I#[" << cast<ConVarTerm>(T)->var().str() << "]";
    return;
  case Term::TermKind::ConLit:
    OS << "I#[" << cast<ConLitTerm>(T)->value() << "]";
    return;
  case Term::TermKind::AppVar: {
    const auto *A = cast<AppVarTerm>(T);
    if (Prec > PrecApp)
      OS << "(";
    printTerm(OS, A->fn(), PrecApp);
    OS << " " << A->arg().str();
    if (Prec > PrecApp)
      OS << ")";
    return;
  }
  case Term::TermKind::AppLit: {
    const auto *A = cast<AppLitTerm>(T);
    if (Prec > PrecApp)
      OS << "(";
    printTerm(OS, A->fn(), PrecApp);
    OS << " " << A->lit();
    if (Prec > PrecApp)
      OS << ")";
    return;
  }
  case Term::TermKind::AppDbl: {
    const auto *A = cast<AppDblTerm>(T);
    if (Prec > PrecApp)
      OS << "(";
    printTerm(OS, A->fn(), PrecApp);
    OS << " " << support::doubleText(A->lit()) << "##";
    if (Prec > PrecApp)
      OS << ")";
    return;
  }
  case Term::TermKind::Lam: {
    const auto *L = cast<LamTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "\\" << L->param().str() << ". ";
    printTerm(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "let " << L->binder().str() << " = ";
    printTerm(OS, L->rhs(), PrecApp);
    OS << " in ";
    printTerm(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::LetBang: {
    const auto *L = cast<LetBangTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "let! " << L->binder().str() << " = ";
    printTerm(OS, L->rhs(), PrecApp);
    OS << " in ";
    printTerm(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::LetRec: {
    const auto *L = cast<LetRecTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "letrec " << L->binder().str() << " = ";
    printTerm(OS, L->rhs(), PrecApp);
    OS << " in ";
    printTerm(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::Case: {
    const auto *C = cast<CaseTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "case ";
    printTerm(OS, C->scrut(), PrecTop);
    OS << " of I#[" << C->binder().str() << "] -> ";
    printTerm(OS, C->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::If0: {
    const auto *I = cast<If0Term>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "if0 ";
    printTerm(OS, I->scrut(), PrecApp);
    OS << " then ";
    printTerm(OS, I->thenBranch(), PrecTop);
    OS << " else ";
    printTerm(OS, I->elseBranch(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::Prim: {
    const auto *P = cast<PrimTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << P->lhs().str() << " " << mPrimName(P->op()) << " "
       << P->rhs().str();
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Term::TermKind::Con: {
    const auto *C = cast<ConTerm>(T);
    OS << "CON " << C->tag() << " [";
    bool First = true;
    for (const MAtom &A : C->args()) {
      if (!First)
        OS << ", ";
      First = false;
      OS << A.str();
    }
    OS << "]";
    return;
  }
  case Term::TermKind::Switch: {
    const auto *S = cast<SwitchTerm>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "switch ";
    printTerm(OS, S->scrut(), PrecApp);
    OS << " of { ";
    bool First = true;
    for (const MAlt &A : S->alts()) {
      if (!First)
        OS << " ; ";
      First = false;
      switch (A.Pat) {
      case MAlt::PatKind::Con: {
        OS << "CON " << A.Tag;
        OS << " [";
        bool FirstB = true;
        for (MVar B : A.Binders) {
          if (!FirstB)
            OS << ", ";
          FirstB = false;
          OS << B.str();
        }
        OS << "]";
        break;
      }
      case MAlt::PatKind::Int:
        OS << A.IntVal;
        break;
      case MAlt::PatKind::Dbl:
        OS << support::doubleText(A.DblVal) << "##";
        break;
      }
      OS << " -> ";
      printTerm(OS, A.Body, PrecTop);
    }
    if (S->defaultBody()) {
      if (!First)
        OS << " ; ";
      OS << "_ -> ";
      printTerm(OS, S->defaultBody(), PrecTop);
    }
    OS << " }";
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  }
}

} // namespace

std::string Term::str() const {
  std::ostringstream OS;
  printTerm(OS, this, PrecTop);
  return OS.str();
}

std::string_view mcalc::mPrimName(MPrim Op) {
  switch (Op) {
  case MPrim::Add:
    return "+#";
  case MPrim::Sub:
    return "-#";
  case MPrim::Mul:
    return "*#";
  case MPrim::Quot:
    return "quot#";
  case MPrim::Rem:
    return "rem#";
  case MPrim::Lt:
    return "<#";
  case MPrim::Le:
    return "<=#";
  case MPrim::Gt:
    return ">#";
  case MPrim::Ge:
    return ">=#";
  case MPrim::Eq:
    return "==#";
  case MPrim::Ne:
    return "/=#";
  case MPrim::DAdd:
    return "+##";
  case MPrim::DSub:
    return "-##";
  case MPrim::DMul:
    return "*##";
  case MPrim::DDiv:
    return "/##";
  case MPrim::DLt:
    return "<##";
  case MPrim::DLe:
    return "<=##";
  case MPrim::DGt:
    return ">##";
  case MPrim::DGe:
    return ">=##";
  case MPrim::DEq:
    return "==##";
  case MPrim::DNe:
    return "/=##";
  }
  assert(false && "unknown primop");
  return "?#";
}

bool mcalc::mPrimTakesDouble(MPrim Op) {
  switch (Op) {
  case MPrim::DAdd:
  case MPrim::DSub:
  case MPrim::DMul:
  case MPrim::DDiv:
  case MPrim::DLt:
  case MPrim::DLe:
  case MPrim::DGt:
  case MPrim::DGe:
  case MPrim::DEq:
  case MPrim::DNe:
    return true;
  default:
    return false;
  }
}

bool mcalc::mPrimReturnsDouble(MPrim Op) {
  switch (Op) {
  case MPrim::DAdd:
  case MPrim::DSub:
  case MPrim::DMul:
  case MPrim::DDiv:
    return true;
  default:
    return false;
  }
}

int64_t mcalc::evalMPrim(MPrim Op, int64_t Lhs, int64_t Rhs) {
  switch (Op) {
  case MPrim::Add:
    return Lhs + Rhs;
  case MPrim::Sub:
    return Lhs - Rhs;
  case MPrim::Mul:
    return Lhs * Rhs;
  case MPrim::Quot:
    // The machine's PRIM rule goes Stuck on a zero divisor before
    // evaluating; a zero here is a caller bug.
    assert(Rhs != 0 && "quot# by zero must be rejected by the caller");
    return Lhs / Rhs;
  case MPrim::Rem:
    assert(Rhs != 0 && "rem# by zero must be rejected by the caller");
    return Lhs % Rhs;
  case MPrim::Lt:
    return Lhs < Rhs ? 1 : 0;
  case MPrim::Le:
    return Lhs <= Rhs ? 1 : 0;
  case MPrim::Gt:
    return Lhs > Rhs ? 1 : 0;
  case MPrim::Ge:
    return Lhs >= Rhs ? 1 : 0;
  case MPrim::Eq:
    return Lhs == Rhs ? 1 : 0;
  case MPrim::Ne:
    return Lhs != Rhs ? 1 : 0;
  default:
    break;
  }
  assert(false && "not an integer primop");
  return 0;
}

double mcalc::evalMPrimDD(MPrim Op, double Lhs, double Rhs) {
  switch (Op) {
  case MPrim::DAdd:
    return Lhs + Rhs;
  case MPrim::DSub:
    return Lhs - Rhs;
  case MPrim::DMul:
    return Lhs * Rhs;
  case MPrim::DDiv:
    return Lhs / Rhs;
  default:
    break;
  }
  assert(false && "not a double-result primop");
  return 0;
}

int64_t mcalc::evalMPrimDI(MPrim Op, double Lhs, double Rhs) {
  switch (Op) {
  case MPrim::DLt:
    return Lhs < Rhs ? 1 : 0;
  case MPrim::DLe:
    return Lhs <= Rhs ? 1 : 0;
  case MPrim::DGt:
    return Lhs > Rhs ? 1 : 0;
  case MPrim::DGe:
    return Lhs >= Rhs ? 1 : 0;
  case MPrim::DEq:
    return Lhs == Rhs ? 1 : 0;
  case MPrim::DNe:
    return Lhs != Rhs ? 1 : 0;
  default:
    break;
  }
  assert(false && "not a double comparison");
  return 0;
}

bool mcalc::isValue(const Term *T) {
  switch (T->kind()) {
  case Term::TermKind::Lam:
  case Term::TermKind::ConLit:
  case Term::TermKind::Lit:
  case Term::TermKind::DLit:
    return true;
  case Term::TermKind::Con:
    // A constructor is a value once every unboxed field atom has been
    // resolved to a literal; pointer atoms are heap addresses (LET
    // substitution installs them, like lazy application arguments).
    for (const MAtom &A : cast<ConTerm>(T)->args())
      if (!A.IsLit && !A.Var.isPtr())
        return false;
    return true;
  default:
    return false;
  }
}

namespace {

/// The term an atom stands for in variable position: y, n or d.
const Term *atomTerm(MContext &Ctx, MAtom A) {
  if (!A.IsLit)
    return Ctx.var(A.Var);
  return A.IsDbl ? Ctx.dlit(A.DblLit) : Ctx.lit(A.Lit);
}

/// t a: t y, t n or t d by the atom's form.
const Term *appAtom(MContext &Ctx, const Term *Fn, MAtom A) {
  if (!A.IsLit)
    return Ctx.appVar(Fn, A.Var);
  return A.IsDbl ? Ctx.appDbl(Fn, A.DblLit) : Ctx.appLit(Fn, A.Lit);
}

/// Renames binder \p B to a fresh variable of its sort in every term of
/// \p Scope when substituting \p By under it would capture \p By. Only a
/// variable can be captured; literals never are.
void avoidCapture(MContext &Ctx, MVar &B, MAtom By,
                  std::initializer_list<const Term **> Scope) {
  if (By.IsLit || By.Var != B)
    return;
  MVar Fresh = Ctx.freshLike(B);
  for (const Term **T : Scope)
    *T = subst(Ctx, *T, B, MAtom::anyVar(Fresh));
  B = Fresh;
}

} // namespace

const Term *mcalc::subst(MContext &Ctx, const Term *T, MVar Var, MAtom By) {
  assert(By.sort() == Var.Sort && "substitution changes widths");
  auto Hits = [&](MAtom A) { return !A.IsLit && A.Var == Var; };
  switch (T->kind()) {
  case Term::TermKind::Var:
    return cast<VarTerm>(T)->var() == Var ? atomTerm(Ctx, By) : T;
  case Term::TermKind::Lit:
  case Term::TermKind::DLit:
  case Term::TermKind::ConLit:
  case Term::TermKind::Error:
    return T;
  case Term::TermKind::ConVar:
    // I# carries an Int#, so a match means By is an integer atom.
    if (cast<ConVarTerm>(T)->var() != Var)
      return T;
    return By.IsLit ? Ctx.conLit(By.Lit) : Ctx.conVar(By.Var);
  case Term::TermKind::AppVar: {
    const auto *A = cast<AppVarTerm>(T);
    const Term *Fn = subst(Ctx, A->fn(), Var, By);
    if (A->arg() == Var)
      return appAtom(Ctx, Fn, By); // t i becomes t n, t f becomes t d
    return Fn == A->fn() ? T : Ctx.appVar(Fn, A->arg());
  }
  case Term::TermKind::AppLit: {
    const auto *A = cast<AppLitTerm>(T);
    const Term *Fn = subst(Ctx, A->fn(), Var, By);
    return Fn == A->fn() ? T : Ctx.appLit(Fn, A->lit());
  }
  case Term::TermKind::AppDbl: {
    const auto *A = cast<AppDblTerm>(T);
    const Term *Fn = subst(Ctx, A->fn(), Var, By);
    return Fn == A->fn() ? T : Ctx.appDbl(Fn, A->lit());
  }
  case Term::TermKind::Lam: {
    const auto *L = cast<LamTerm>(T);
    MVar Param = L->param();
    if (Param == Var)
      return T; // shadowed
    const Term *Body = L->body();
    avoidCapture(Ctx, Param, By, {&Body});
    Body = subst(Ctx, Body, Var, By);
    if (Param == L->param() && Body == L->body())
      return T;
    return Ctx.lam(Param, Body);
  }
  case Term::TermKind::Let:
  case Term::TermKind::LetBang: {
    // Non-recursive: the binder scopes over the body only.
    bool Strict = T->kind() == Term::TermKind::LetBang;
    MVar Binder = Strict ? cast<LetBangTerm>(T)->binder()
                         : cast<LetTerm>(T)->binder();
    const Term *Rhs =
        Strict ? cast<LetBangTerm>(T)->rhs() : cast<LetTerm>(T)->rhs();
    const Term *Body =
        Strict ? cast<LetBangTerm>(T)->body() : cast<LetTerm>(T)->body();
    const Term *NewRhs = subst(Ctx, Rhs, Var, By);
    const Term *NewBody = Body;
    MVar NewBinder = Binder;
    if (Binder != Var) {
      avoidCapture(Ctx, NewBinder, By, {&NewBody});
      NewBody = subst(Ctx, NewBody, Var, By);
    }
    if (NewBinder == Binder && NewRhs == Rhs && NewBody == Body)
      return T;
    return Strict ? Ctx.letBang(NewBinder, NewRhs, NewBody)
                  : Ctx.let(NewBinder, NewRhs, NewBody);
  }
  case Term::TermKind::LetRec: {
    // The binder scopes over *both* the right-hand side and the body.
    const auto *L = cast<LetRecTerm>(T);
    MVar Binder = L->binder();
    if (Binder == Var)
      return T; // fully shadowed
    const Term *Rhs = L->rhs(), *Body = L->body();
    avoidCapture(Ctx, Binder, By, {&Rhs, &Body});
    Rhs = subst(Ctx, Rhs, Var, By);
    Body = subst(Ctx, Body, Var, By);
    if (Binder == L->binder() && Rhs == L->rhs() && Body == L->body())
      return T;
    return Ctx.letRec(Binder, Rhs, Body);
  }
  case Term::TermKind::If0: {
    const auto *I = cast<If0Term>(T);
    const Term *Scrut = subst(Ctx, I->scrut(), Var, By);
    const Term *Then = subst(Ctx, I->thenBranch(), Var, By);
    const Term *Else = subst(Ctx, I->elseBranch(), Var, By);
    if (Scrut == I->scrut() && Then == I->thenBranch() &&
        Else == I->elseBranch())
      return T;
    return Ctx.if0(Scrut, Then, Else);
  }
  case Term::TermKind::Prim: {
    // i ⊕# j becomes n ⊕# j (ILET/IPOP), f ⊕## g becomes d ⊕## g.
    const auto *P = cast<PrimTerm>(T);
    if (!Hits(P->lhs()) && !Hits(P->rhs()))
      return T;
    return Ctx.prim(P->op(), Hits(P->lhs()) ? By : P->lhs(),
                    Hits(P->rhs()) ? By : P->rhs());
  }
  case Term::TermKind::Case: {
    const auto *C = cast<CaseTerm>(T);
    const Term *Scrut = subst(Ctx, C->scrut(), Var, By);
    MVar Binder = C->binder();
    const Term *Body = C->body();
    if (Binder != Var) {
      avoidCapture(Ctx, Binder, By, {&Body});
      Body = subst(Ctx, Body, Var, By);
    }
    if (Scrut == C->scrut() && Binder == C->binder() && Body == C->body())
      return T;
    return Ctx.caseOf(Scrut, Binder, Body);
  }
  case Term::TermKind::Con: {
    // CON k [.. y ..] becomes CON k [.. a ..].
    const auto *C = cast<ConTerm>(T);
    if (std::none_of(C->args().begin(), C->args().end(), Hits))
      return T;
    std::vector<MAtom> Args(C->args().begin(), C->args().end());
    for (MAtom &A : Args)
      if (Hits(A))
        A = By;
    return Ctx.con(C->tag(), Args);
  }
  case Term::TermKind::Switch: {
    const auto *S = cast<SwitchTerm>(T);
    const Term *Scrut = subst(Ctx, S->scrut(), Var, By);
    bool Changed = Scrut != S->scrut();
    std::vector<MAlt> Alts(S->alts().begin(), S->alts().end());
    // Keeps renamed binder arrays alive until switchOf copies them into
    // the arena.
    std::vector<std::vector<MVar>> Renames;
    for (MAlt &A : Alts) {
      if (std::find(A.Binders.begin(), A.Binders.end(), Var) !=
          A.Binders.end())
        continue; // shadowed
      std::vector<MVar> Binders(A.Binders.begin(), A.Binders.end());
      const Term *Body = A.Body;
      for (MVar &B : Binders)
        avoidCapture(Ctx, B, By, {&Body});
      bool Renamed = !std::equal(Binders.begin(), Binders.end(),
                                 A.Binders.begin());
      Body = subst(Ctx, Body, Var, By);
      if (!Renamed && Body == A.Body)
        continue;
      if (Renamed) {
        Renames.push_back(std::move(Binders));
        A.Binders = Renames.back();
      }
      A.Body = Body;
      Changed = true;
    }
    const Term *Def = S->defaultBody();
    if (Def) {
      const Term *NewDef = subst(Ctx, Def, Var, By);
      Changed |= NewDef != Def;
      Def = NewDef;
    }
    return Changed ? Ctx.switchOf(Scrut, Alts, Def) : T;
  }
  }
  assert(false && "unknown term kind");
  return T;
}
