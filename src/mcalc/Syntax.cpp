//===- Syntax.cpp - The M language of Section 6.2 -------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "mcalc/Syntax.h"

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

const Term *mcalc::substVar(MContext &Ctx, const Term *T, MVar Var,
                            MVar Replacement) {
  assert(Var.Sort == Replacement.Sort && "substitution changes widths");
  switch (T->kind()) {
  case Term::TermKind::Var:
    return cast<VarTerm>(T)->var() == Var ? Ctx.var(Replacement) : T;
  case Term::TermKind::Lit:
  case Term::TermKind::DLit:
  case Term::TermKind::ConLit:
  case Term::TermKind::Error:
    return T;
  case Term::TermKind::ConVar: {
    const auto *C = cast<ConVarTerm>(T);
    return C->var() == Var ? Ctx.conVar(Replacement) : T;
  }
  case Term::TermKind::AppVar: {
    const auto *A = cast<AppVarTerm>(T);
    const Term *Fn = substVar(Ctx, A->fn(), Var, Replacement);
    MVar Arg = A->arg() == Var ? Replacement : A->arg();
    if (Fn == A->fn() && Arg == A->arg())
      return T;
    return Ctx.appVar(Fn, Arg);
  }
  case Term::TermKind::AppLit: {
    const auto *A = cast<AppLitTerm>(T);
    const Term *Fn = substVar(Ctx, A->fn(), Var, Replacement);
    if (Fn == A->fn())
      return T;
    return Ctx.appLit(Fn, A->lit());
  }
  case Term::TermKind::AppDbl: {
    const auto *A = cast<AppDblTerm>(T);
    const Term *Fn = substVar(Ctx, A->fn(), Var, Replacement);
    if (Fn == A->fn())
      return T;
    return Ctx.appDbl(Fn, A->lit());
  }
  case Term::TermKind::Lam: {
    const auto *L = cast<LamTerm>(T);
    if (L->param() == Var)
      return T; // shadowed
    if (L->param() == Replacement) {
      // Freshen to avoid capturing the replacement variable.
      MVar Fresh = Ctx.freshLike(L->param());
      const Term *Renamed = substVar(Ctx, L->body(), L->param(), Fresh);
      return Ctx.lam(Fresh, substVar(Ctx, Renamed, Var, Replacement));
    }
    const Term *Body = substVar(Ctx, L->body(), Var, Replacement);
    if (Body == L->body())
      return T;
    return Ctx.lam(L->param(), Body);
  }
  case Term::TermKind::Let:
  case Term::TermKind::LetBang: {
    bool Strict = T->kind() == Term::TermKind::LetBang;
    MVar Binder = Strict ? cast<LetBangTerm>(T)->binder()
                         : cast<LetTerm>(T)->binder();
    const Term *Rhs =
        Strict ? cast<LetBangTerm>(T)->rhs() : cast<LetTerm>(T)->rhs();
    const Term *Body =
        Strict ? cast<LetBangTerm>(T)->body() : cast<LetTerm>(T)->body();
    const Term *NewRhs = substVar(Ctx, Rhs, Var, Replacement);
    if (Binder == Var) {
      if (NewRhs == Rhs)
        return T;
      return Strict ? Ctx.letBang(Binder, NewRhs, Body)
                    : Ctx.let(Binder, NewRhs, Body);
    }
    if (Binder == Replacement) {
      MVar Fresh = Ctx.freshLike(Binder);
      const Term *Renamed = substVar(Ctx, Body, Binder, Fresh);
      const Term *NewBody = substVar(Ctx, Renamed, Var, Replacement);
      return Strict ? Ctx.letBang(Fresh, NewRhs, NewBody)
                    : Ctx.let(Fresh, NewRhs, NewBody);
    }
    const Term *NewBody = substVar(Ctx, Body, Var, Replacement);
    if (NewRhs == Rhs && NewBody == Body)
      return T;
    return Strict ? Ctx.letBang(Binder, NewRhs, NewBody)
                  : Ctx.let(Binder, NewRhs, NewBody);
  }
  case Term::TermKind::LetRec: {
    // The binder scopes over *both* the right-hand side and the body.
    const auto *L = cast<LetRecTerm>(T);
    if (L->binder() == Var)
      return T; // fully shadowed
    if (L->binder() == Replacement) {
      MVar Fresh = Ctx.freshLike(L->binder());
      const Term *RenRhs = substVar(Ctx, L->rhs(), L->binder(), Fresh);
      const Term *RenBody = substVar(Ctx, L->body(), L->binder(), Fresh);
      return Ctx.letRec(Fresh, substVar(Ctx, RenRhs, Var, Replacement),
                        substVar(Ctx, RenBody, Var, Replacement));
    }
    const Term *NewRhs = substVar(Ctx, L->rhs(), Var, Replacement);
    const Term *NewBody = substVar(Ctx, L->body(), Var, Replacement);
    if (NewRhs == L->rhs() && NewBody == L->body())
      return T;
    return Ctx.letRec(L->binder(), NewRhs, NewBody);
  }
  case Term::TermKind::If0: {
    const auto *I = cast<If0Term>(T);
    const Term *Scrut = substVar(Ctx, I->scrut(), Var, Replacement);
    const Term *Then = substVar(Ctx, I->thenBranch(), Var, Replacement);
    const Term *Else = substVar(Ctx, I->elseBranch(), Var, Replacement);
    if (Scrut == I->scrut() && Then == I->thenBranch() &&
        Else == I->elseBranch())
      return T;
    return Ctx.if0(Scrut, Then, Else);
  }
  case Term::TermKind::Prim: {
    // Primop atoms are unboxed variables; term-variable substitution
    // moves variables of the same sort.
    const auto *P = cast<PrimTerm>(T);
    MAtom Lhs = P->lhs(), Rhs = P->rhs();
    bool Changed = false;
    if (!Lhs.IsLit && Lhs.Var == Var) {
      Lhs = MAtom::var(Replacement);
      Changed = true;
    }
    if (!Rhs.IsLit && Rhs.Var == Var) {
      Rhs = MAtom::var(Replacement);
      Changed = true;
    }
    return Changed ? Ctx.prim(P->op(), Lhs, Rhs) : T;
  }
  case Term::TermKind::Case: {
    const auto *C = cast<CaseTerm>(T);
    const Term *Scrut = substVar(Ctx, C->scrut(), Var, Replacement);
    if (C->binder() == Var) {
      if (Scrut == C->scrut())
        return T;
      return Ctx.caseOf(Scrut, C->binder(), C->body());
    }
    if (C->binder() == Replacement) {
      MVar Fresh = Ctx.freshLike(C->binder());
      const Term *Renamed = substVar(Ctx, C->body(), C->binder(), Fresh);
      return Ctx.caseOf(Scrut, Fresh,
                        substVar(Ctx, Renamed, Var, Replacement));
    }
    const Term *Body = substVar(Ctx, C->body(), Var, Replacement);
    if (Scrut == C->scrut() && Body == C->body())
      return T;
    return Ctx.caseOf(Scrut, C->binder(), Body);
  }
  case Term::TermKind::Con: {
    const auto *C = cast<ConTerm>(T);
    std::vector<MAtom> Args(C->args().begin(), C->args().end());
    bool Changed = false;
    for (MAtom &A : Args) {
      if (!A.IsLit && A.Var == Var) {
        A = MAtom::anyVar(Replacement);
        Changed = true;
      }
    }
    return Changed ? Ctx.con(C->tag(), Args) : T;
  }
  case Term::TermKind::Switch: {
    const auto *S = cast<SwitchTerm>(T);
    const Term *Scrut = substVar(Ctx, S->scrut(), Var, Replacement);
    bool Changed = Scrut != S->scrut();
    std::vector<MAlt> Alts(S->alts().begin(), S->alts().end());
    // Keeps renamed binder arrays alive until switchOf copies them into
    // the arena.
    std::vector<std::vector<MVar>> Renames;
    for (MAlt &A : Alts) {
      bool Shadowed = false;
      for (MVar B : A.Binders)
        Shadowed |= B == Var;
      if (Shadowed)
        continue;
      // Freshen any binder equal to the replacement to avoid capture.
      std::vector<MVar> Binders(A.Binders.begin(), A.Binders.end());
      const Term *Body = A.Body;
      bool Renamed = false;
      for (MVar &B : Binders) {
        if (!(B == Replacement))
          continue;
        MVar Fresh = Ctx.freshLike(B);
        Body = substVar(Ctx, Body, B, Fresh);
        B = Fresh;
        Renamed = true;
      }
      const Term *NewBody = substVar(Ctx, Body, Var, Replacement);
      if (!Renamed && NewBody == A.Body)
        continue;
      if (Renamed) {
        Renames.push_back(std::move(Binders));
        A.Binders = std::span<const MVar>(Renames.back().data(),
                                          Renames.back().size());
      }
      A.Body = NewBody;
      Changed = true;
    }
    const Term *Def = S->defaultBody();
    if (Def) {
      const Term *NewDef = substVar(Ctx, Def, Var, Replacement);
      Changed |= NewDef != Def;
      Def = NewDef;
    }
    if (!Changed)
      return T;
    return Ctx.switchOf(Scrut, Alts, Def);
  }
  }
  assert(false && "unknown term kind");
  return T;
}

const Term *mcalc::substLit(MContext &Ctx, const Term *T, MVar Var,
                            int64_t Lit) {
  assert(Var.isInt() && "only integer variables carry literals");
  switch (T->kind()) {
  case Term::TermKind::Var:
    return cast<VarTerm>(T)->var() == Var ? Ctx.lit(Lit) : T;
  case Term::TermKind::Lit:
  case Term::TermKind::DLit:
  case Term::TermKind::ConLit:
  case Term::TermKind::Error:
    return T;
  case Term::TermKind::ConVar: {
    const auto *C = cast<ConVarTerm>(T);
    return C->var() == Var ? Ctx.conLit(Lit) : T;
  }
  case Term::TermKind::AppVar: {
    const auto *A = cast<AppVarTerm>(T);
    const Term *Fn = substLit(Ctx, A->fn(), Var, Lit);
    if (A->arg() == Var)
      return Ctx.appLit(Fn, Lit); // t i becomes t n
    if (Fn == A->fn())
      return T;
    return Ctx.appVar(Fn, A->arg());
  }
  case Term::TermKind::AppLit: {
    const auto *A = cast<AppLitTerm>(T);
    const Term *Fn = substLit(Ctx, A->fn(), Var, Lit);
    if (Fn == A->fn())
      return T;
    return Ctx.appLit(Fn, A->lit());
  }
  case Term::TermKind::AppDbl: {
    const auto *A = cast<AppDblTerm>(T);
    const Term *Fn = substLit(Ctx, A->fn(), Var, Lit);
    if (Fn == A->fn())
      return T;
    return Ctx.appDbl(Fn, A->lit());
  }
  case Term::TermKind::Lam: {
    const auto *L = cast<LamTerm>(T);
    if (L->param() == Var)
      return T; // shadowed
    const Term *Body = substLit(Ctx, L->body(), Var, Lit);
    if (Body == L->body())
      return T;
    return Ctx.lam(L->param(), Body);
  }
  case Term::TermKind::Let:
  case Term::TermKind::LetBang: {
    bool Strict = T->kind() == Term::TermKind::LetBang;
    MVar Binder = Strict ? cast<LetBangTerm>(T)->binder()
                         : cast<LetTerm>(T)->binder();
    const Term *Rhs =
        Strict ? cast<LetBangTerm>(T)->rhs() : cast<LetTerm>(T)->rhs();
    const Term *Body =
        Strict ? cast<LetBangTerm>(T)->body() : cast<LetTerm>(T)->body();
    const Term *NewRhs = substLit(Ctx, Rhs, Var, Lit);
    const Term *NewBody =
        Binder == Var ? Body : substLit(Ctx, Body, Var, Lit);
    if (NewRhs == Rhs && NewBody == Body)
      return T;
    return Strict ? Ctx.letBang(Binder, NewRhs, NewBody)
                  : Ctx.let(Binder, NewRhs, NewBody);
  }
  case Term::TermKind::LetRec: {
    // A pointer binder never equals an integer variable; recurse freely.
    const auto *L = cast<LetRecTerm>(T);
    const Term *NewRhs = substLit(Ctx, L->rhs(), Var, Lit);
    const Term *NewBody = substLit(Ctx, L->body(), Var, Lit);
    if (NewRhs == L->rhs() && NewBody == L->body())
      return T;
    return Ctx.letRec(L->binder(), NewRhs, NewBody);
  }
  case Term::TermKind::If0: {
    const auto *I = cast<If0Term>(T);
    const Term *Scrut = substLit(Ctx, I->scrut(), Var, Lit);
    const Term *Then = substLit(Ctx, I->thenBranch(), Var, Lit);
    const Term *Else = substLit(Ctx, I->elseBranch(), Var, Lit);
    if (Scrut == I->scrut() && Then == I->thenBranch() &&
        Else == I->elseBranch())
      return T;
    return Ctx.if0(Scrut, Then, Else);
  }
  case Term::TermKind::Case: {
    const auto *C = cast<CaseTerm>(T);
    const Term *Scrut = substLit(Ctx, C->scrut(), Var, Lit);
    const Term *Body =
        C->binder() == Var ? C->body() : substLit(Ctx, C->body(), Var, Lit);
    if (Scrut == C->scrut() && Body == C->body())
      return T;
    return Ctx.caseOf(Scrut, C->binder(), Body);
  }
  case Term::TermKind::Prim: {
    // i ⊕# j becomes n ⊕# j (ILET/IPOP write integer registers).
    const auto *P = cast<PrimTerm>(T);
    MAtom Lhs = P->lhs(), Rhs = P->rhs();
    bool Changed = false;
    if (!Lhs.IsLit && Lhs.Var == Var) {
      Lhs = MAtom::lit(Lit);
      Changed = true;
    }
    if (!Rhs.IsLit && Rhs.Var == Var) {
      Rhs = MAtom::lit(Lit);
      Changed = true;
    }
    return Changed ? Ctx.prim(P->op(), Lhs, Rhs) : T;
  }
  case Term::TermKind::Con: {
    // CON k [.. i ..] becomes CON k [.. n ..].
    const auto *C = cast<ConTerm>(T);
    std::vector<MAtom> Args(C->args().begin(), C->args().end());
    bool Changed = false;
    for (MAtom &A : Args) {
      if (!A.IsLit && A.Var == Var) {
        A = MAtom::lit(Lit);
        Changed = true;
      }
    }
    return Changed ? Ctx.con(C->tag(), Args) : T;
  }
  case Term::TermKind::Switch: {
    const auto *S = cast<SwitchTerm>(T);
    const Term *Scrut = substLit(Ctx, S->scrut(), Var, Lit);
    bool Changed = Scrut != S->scrut();
    std::vector<MAlt> Alts(S->alts().begin(), S->alts().end());
    for (MAlt &A : Alts) {
      bool Shadowed = false;
      for (MVar B : A.Binders)
        Shadowed |= B == Var;
      if (Shadowed)
        continue;
      const Term *NewBody = substLit(Ctx, A.Body, Var, Lit);
      Changed |= NewBody != A.Body;
      A.Body = NewBody;
    }
    const Term *Def = S->defaultBody();
    if (Def) {
      const Term *NewDef = substLit(Ctx, Def, Var, Lit);
      Changed |= NewDef != Def;
      Def = NewDef;
    }
    if (!Changed)
      return T;
    return Ctx.switchOf(Scrut, Alts, Def);
  }
  }
  assert(false && "unknown term kind");
  return T;
}

const Term *mcalc::substDbl(MContext &Ctx, const Term *T, MVar Var,
                            double Lit) {
  assert(Var.isDbl() && "only double variables carry double literals");
  switch (T->kind()) {
  case Term::TermKind::Var:
    return cast<VarTerm>(T)->var() == Var ? Ctx.dlit(Lit) : T;
  case Term::TermKind::Lit:
  case Term::TermKind::DLit:
  case Term::TermKind::ConLit:
  case Term::TermKind::ConVar: // I# payloads are Int#; no double inside.
  case Term::TermKind::Error:
    return T;
  case Term::TermKind::AppVar: {
    const auto *A = cast<AppVarTerm>(T);
    const Term *Fn = substDbl(Ctx, A->fn(), Var, Lit);
    if (A->arg() == Var)
      return Ctx.appDbl(Fn, Lit); // t f becomes t d
    if (Fn == A->fn())
      return T;
    return Ctx.appVar(Fn, A->arg());
  }
  case Term::TermKind::AppLit: {
    const auto *A = cast<AppLitTerm>(T);
    const Term *Fn = substDbl(Ctx, A->fn(), Var, Lit);
    if (Fn == A->fn())
      return T;
    return Ctx.appLit(Fn, A->lit());
  }
  case Term::TermKind::AppDbl: {
    const auto *A = cast<AppDblTerm>(T);
    const Term *Fn = substDbl(Ctx, A->fn(), Var, Lit);
    if (Fn == A->fn())
      return T;
    return Ctx.appDbl(Fn, A->lit());
  }
  case Term::TermKind::Lam: {
    const auto *L = cast<LamTerm>(T);
    if (L->param() == Var)
      return T; // shadowed
    const Term *Body = substDbl(Ctx, L->body(), Var, Lit);
    if (Body == L->body())
      return T;
    return Ctx.lam(L->param(), Body);
  }
  case Term::TermKind::Let:
  case Term::TermKind::LetBang: {
    bool Strict = T->kind() == Term::TermKind::LetBang;
    MVar Binder = Strict ? cast<LetBangTerm>(T)->binder()
                         : cast<LetTerm>(T)->binder();
    const Term *Rhs =
        Strict ? cast<LetBangTerm>(T)->rhs() : cast<LetTerm>(T)->rhs();
    const Term *Body =
        Strict ? cast<LetBangTerm>(T)->body() : cast<LetTerm>(T)->body();
    const Term *NewRhs = substDbl(Ctx, Rhs, Var, Lit);
    const Term *NewBody =
        Binder == Var ? Body : substDbl(Ctx, Body, Var, Lit);
    if (NewRhs == Rhs && NewBody == Body)
      return T;
    return Strict ? Ctx.letBang(Binder, NewRhs, NewBody)
                  : Ctx.let(Binder, NewRhs, NewBody);
  }
  case Term::TermKind::LetRec: {
    const auto *L = cast<LetRecTerm>(T);
    const Term *NewRhs = substDbl(Ctx, L->rhs(), Var, Lit);
    const Term *NewBody = substDbl(Ctx, L->body(), Var, Lit);
    if (NewRhs == L->rhs() && NewBody == L->body())
      return T;
    return Ctx.letRec(L->binder(), NewRhs, NewBody);
  }
  case Term::TermKind::If0: {
    const auto *I = cast<If0Term>(T);
    const Term *Scrut = substDbl(Ctx, I->scrut(), Var, Lit);
    const Term *Then = substDbl(Ctx, I->thenBranch(), Var, Lit);
    const Term *Else = substDbl(Ctx, I->elseBranch(), Var, Lit);
    if (Scrut == I->scrut() && Then == I->thenBranch() &&
        Else == I->elseBranch())
      return T;
    return Ctx.if0(Scrut, Then, Else);
  }
  case Term::TermKind::Case: {
    const auto *C = cast<CaseTerm>(T);
    const Term *Scrut = substDbl(Ctx, C->scrut(), Var, Lit);
    const Term *Body =
        C->binder() == Var ? C->body() : substDbl(Ctx, C->body(), Var, Lit);
    if (Scrut == C->scrut() && Body == C->body())
      return T;
    return Ctx.caseOf(Scrut, C->binder(), Body);
  }
  case Term::TermKind::Prim: {
    // f ⊕## a becomes d ⊕## a (DLET/DPOP write double registers).
    const auto *P = cast<PrimTerm>(T);
    MAtom Lhs = P->lhs(), Rhs = P->rhs();
    bool Changed = false;
    if (!Lhs.IsLit && Lhs.Var == Var) {
      Lhs = MAtom::dlit(Lit);
      Changed = true;
    }
    if (!Rhs.IsLit && Rhs.Var == Var) {
      Rhs = MAtom::dlit(Lit);
      Changed = true;
    }
    return Changed ? Ctx.prim(P->op(), Lhs, Rhs) : T;
  }
  case Term::TermKind::Con: {
    // CON k [.. f ..] becomes CON k [.. d ..].
    const auto *C = cast<ConTerm>(T);
    std::vector<MAtom> Args(C->args().begin(), C->args().end());
    bool Changed = false;
    for (MAtom &A : Args) {
      if (!A.IsLit && A.Var == Var) {
        A = MAtom::dlit(Lit);
        Changed = true;
      }
    }
    return Changed ? Ctx.con(C->tag(), Args) : T;
  }
  case Term::TermKind::Switch: {
    const auto *S = cast<SwitchTerm>(T);
    const Term *Scrut = substDbl(Ctx, S->scrut(), Var, Lit);
    bool Changed = Scrut != S->scrut();
    std::vector<MAlt> Alts(S->alts().begin(), S->alts().end());
    for (MAlt &A : Alts) {
      bool Shadowed = false;
      for (MVar B : A.Binders)
        Shadowed |= B == Var;
      if (Shadowed)
        continue;
      const Term *NewBody = substDbl(Ctx, A.Body, Var, Lit);
      Changed |= NewBody != A.Body;
      A.Body = NewBody;
    }
    const Term *Def = S->defaultBody();
    if (Def) {
      const Term *NewDef = substDbl(Ctx, Def, Var, Lit);
      Changed |= NewDef != Def;
      Def = NewDef;
    }
    if (!Changed)
      return T;
    return Ctx.switchOf(Scrut, Alts, Def);
  }
  }
  assert(false && "unknown term kind");
  return T;
}
