//===- Syntax.cpp - The L language of Section 6 ---------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lcalc/Syntax.h"
#include "support/DoubleText.h"

#include <sstream>
#include <unordered_map>

using namespace levity;
using namespace levity::lcalc;

LContext::LContext() {
  (void)errorType();
  // Seal the built-in Int declaration: constructor I# (tag 0), one
  // strict Int# field, valued at the IntType singleton.
  IntDecl.Name = sym("Int");
  IntDecl.Ty = intTy();
  LDataCon IHash;
  IHash.Name = sym("I#");
  IHash.Fields = {intHashTy()};
  IHash.FieldReps = {ConcreteRep::I};
  IntDecl.Cons.push_back(std::move(IHash));
}

std::optional<ConcreteRep> lcalc::dataFieldRep(const Type *T) {
  switch (T->kind()) {
  case Type::TypeKind::Int:
  case Type::TypeKind::Arrow:
  case Type::TypeKind::Data:
    return ConcreteRep::P;
  case Type::TypeKind::IntHash:
    return ConcreteRep::I;
  case Type::TypeKind::DoubleHash:
    return ConcreteRep::D;
  case Type::TypeKind::ForAll:
    // T_ALLTY: the forall's kind is its body's kind (type erasure).
    return dataFieldRep(cast<ForAllType>(T)->body());
  case Type::TypeKind::ForAllRep:
    return dataFieldRep(cast<ForAllRepType>(T)->body());
  case Type::TypeKind::Var:
    // Field types must be closed; a free variable's rep is unknown.
    return std::nullopt;
  }
  return std::nullopt;
}

LDataDecl *LContext::declareData(Symbol Name) {
  assert(!DataDecls.count(Name) && "data type name already declared");
  DataDeclStorage.push_back(std::make_unique<LDataDecl>(Name));
  LDataDecl *Decl = DataDeclStorage.back().get();
  Decl->Ty = Mem.create<DataType>(Decl);
  DataDecls.emplace(Name, Decl);
  return Decl;
}

bool LContext::addDataCon(LDataDecl *Decl, Symbol ConName,
                          std::span<const Type *const> Fields) {
  LDataCon Con;
  Con.Name = ConName;
  for (const Type *F : Fields) {
    std::optional<ConcreteRep> R = dataFieldRep(F);
    if (!R)
      return false;
    Con.Fields.push_back(F);
    Con.FieldReps.push_back(*R);
  }
  Decl->Cons.push_back(std::move(Con));
  return true;
}

const LDataDecl *LContext::lookupData(Symbol Name) const {
  auto It = DataDecls.find(Name);
  return It == DataDecls.end() ? nullptr : It->second;
}

std::string RuntimeRep::str() const {
  if (isVar())
    return std::string(Var.str());
  switch (Concrete) {
  case ConcreteRep::P:
    return "P";
  case ConcreteRep::I:
    return "I";
  case ConcreteRep::D:
    return "D";
  }
  return "?";
}

std::string LKind::str() const { return "TYPE " + Rep.str(); }

//===----------------------------------------------------------------------===//
// Pretty printing
//===----------------------------------------------------------------------===//

namespace {

/// Precedence levels for parenthesization.
enum Prec { PrecTop = 0, PrecArrow = 1, PrecApp = 2, PrecAtom = 3 };

void printType(std::ostringstream &OS, const Type *T, int Prec) {
  switch (T->kind()) {
  case Type::TypeKind::Int:
    OS << "Int";
    return;
  case Type::TypeKind::IntHash:
    OS << "Int#";
    return;
  case Type::TypeKind::DoubleHash:
    OS << "Double#";
    return;
  case Type::TypeKind::Var:
    OS << cast<VarType>(T)->name().str();
    return;
  case Type::TypeKind::Data:
    OS << cast<DataType>(T)->decl()->name().str();
    return;
  case Type::TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    if (Prec > PrecArrow)
      OS << "(";
    printType(OS, A->param(), PrecArrow + 1);
    OS << " -> ";
    printType(OS, A->result(), PrecArrow);
    if (Prec > PrecArrow)
      OS << ")";
    return;
  }
  case Type::TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "forall " << F->var().str() << ":" << F->varKind().str() << ". ";
    printType(OS, F->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Type::TypeKind::ForAllRep: {
    const auto *F = cast<ForAllRepType>(T);
    if (Prec > PrecTop)
      OS << "(";
    OS << "forall " << F->repVar().str() << ". ";
    printType(OS, F->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  }
}

void printExpr(std::ostringstream &OS, const Expr *E, int Prec) {
  switch (E->kind()) {
  case Expr::ExprKind::Var:
    OS << cast<VarExpr>(E)->name().str();
    return;
  case Expr::ExprKind::IntLit:
    OS << cast<IntLitExpr>(E)->value();
    return;
  case Expr::ExprKind::DoubleLit:
    OS << support::doubleText(cast<DoubleLitExpr>(E)->value()) << "##";
    return;
  case Expr::ExprKind::Error:
    OS << "error";
    return;
  case Expr::ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    if (Prec > PrecApp)
      OS << "(";
    printExpr(OS, A->fn(), PrecApp);
    OS << " ";
    printExpr(OS, A->arg(), PrecApp + 1);
    if (Prec > PrecApp)
      OS << ")";
    return;
  }
  case Expr::ExprKind::TyApp: {
    const auto *A = cast<TyAppExpr>(E);
    if (Prec > PrecApp)
      OS << "(";
    printExpr(OS, A->fn(), PrecApp);
    OS << " @";
    printType(OS, A->tyArg(), PrecAtom);
    if (Prec > PrecApp)
      OS << ")";
    return;
  }
  case Expr::ExprKind::RepApp: {
    const auto *A = cast<RepAppExpr>(E);
    if (Prec > PrecApp)
      OS << "(";
    printExpr(OS, A->fn(), PrecApp);
    OS << " @@" << A->repArg().str();
    if (Prec > PrecApp)
      OS << ")";
    return;
  }
  case Expr::ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    if (Prec > PrecTop)
      OS << "(";
    OS << "\\" << L->var().str() << ":";
    printType(OS, L->varType(), PrecAtom);
    OS << ". ";
    printExpr(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Expr::ExprKind::TyLam: {
    const auto *L = cast<TyLamExpr>(E);
    if (Prec > PrecTop)
      OS << "(";
    OS << "/\\" << L->var().str() << ":" << L->varKind().str() << ". ";
    printExpr(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Expr::ExprKind::RepLam: {
    const auto *L = cast<RepLamExpr>(E);
    if (Prec > PrecTop)
      OS << "(";
    OS << "/\\" << L->repVar().str() << ". ";
    printExpr(OS, L->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Expr::ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    OS << C->decl()->con(C->tag()).Name.str();
    if (!C->args().empty()) {
      OS << "[";
      bool First = true;
      for (const Expr *A : C->args()) {
        if (!First)
          OS << ", ";
        First = false;
        printExpr(OS, A, PrecTop);
      }
      OS << "]";
    }
    return;
  }
  case Expr::ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    if (Prec > PrecTop)
      OS << "(";
    OS << "case ";
    printExpr(OS, C->scrut(), PrecTop);
    OS << " of ";
    // The paper's one-armed unboxing case prints in its Figure 2 shape;
    // everything else gets the braced multi-alternative form.
    if (C->decl() && C->alts().size() == 1 && !C->defaultRhs() &&
        C->alts()[0].Pat == LAlt::PatKind::Con &&
        C->alts()[0].Binders.size() == 1) {
      const LAlt &A = C->alts()[0];
      OS << C->decl()->con(A.Tag).Name.str() << "["
         << A.Binders[0].str() << "] -> ";
      printExpr(OS, A.Rhs, PrecTop);
    } else {
      OS << "{ ";
      bool First = true;
      for (const LAlt &A : C->alts()) {
        if (!First)
          OS << " ; ";
        First = false;
        switch (A.Pat) {
        case LAlt::PatKind::Con: {
          OS << C->decl()->con(A.Tag).Name.str();
          if (!A.Binders.empty()) {
            OS << "[";
            bool FirstB = true;
            for (Symbol B : A.Binders) {
              if (!FirstB)
                OS << ", ";
              FirstB = false;
              OS << B.str();
            }
            OS << "]";
          }
          break;
        }
        case LAlt::PatKind::Int:
          OS << A.IntVal;
          break;
        case LAlt::PatKind::Dbl:
          OS << support::doubleText(A.DblVal) << "##";
          break;
        }
        OS << " -> ";
        printExpr(OS, A.Rhs, PrecTop);
      }
      if (C->defaultRhs()) {
        if (!First)
          OS << " ; ";
        OS << "_ -> ";
        printExpr(OS, C->defaultRhs(), PrecTop);
      }
      OS << " }";
    }
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Expr::ExprKind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    if (Prec > PrecArrow)
      OS << "(";
    printExpr(OS, P->lhs(), PrecApp);
    OS << " " << lPrimName(P->op()) << " ";
    printExpr(OS, P->rhs(), PrecApp);
    if (Prec > PrecArrow)
      OS << ")";
    return;
  }
  case Expr::ExprKind::If0: {
    const auto *I = cast<If0Expr>(E);
    if (Prec > PrecTop)
      OS << "(";
    OS << "if0 ";
    printExpr(OS, I->scrut(), PrecApp);
    OS << " then ";
    printExpr(OS, I->thenBranch(), PrecTop);
    OS << " else ";
    printExpr(OS, I->elseBranch(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  case Expr::ExprKind::Fix: {
    const auto *F = cast<FixExpr>(E);
    if (Prec > PrecTop)
      OS << "(";
    OS << "fix " << F->var().str() << ":";
    printType(OS, F->varType(), PrecAtom);
    OS << ". ";
    printExpr(OS, F->body(), PrecTop);
    if (Prec > PrecTop)
      OS << ")";
    return;
  }
  }
}

} // namespace

std::string Type::str() const {
  std::ostringstream OS;
  printType(OS, this, PrecTop);
  return OS.str();
}

std::string Expr::str() const {
  std::ostringstream OS;
  printExpr(OS, this, PrecTop);
  return OS.str();
}

std::string_view lcalc::lPrimName(LPrim Op) {
  switch (Op) {
  case LPrim::Add:
    return "+#";
  case LPrim::Sub:
    return "-#";
  case LPrim::Mul:
    return "*#";
  case LPrim::Quot:
    return "quot#";
  case LPrim::Rem:
    return "rem#";
  case LPrim::Lt:
    return "<#";
  case LPrim::Le:
    return "<=#";
  case LPrim::Gt:
    return ">#";
  case LPrim::Ge:
    return ">=#";
  case LPrim::Eq:
    return "==#";
  case LPrim::Ne:
    return "/=#";
  case LPrim::DAdd:
    return "+##";
  case LPrim::DSub:
    return "-##";
  case LPrim::DMul:
    return "*##";
  case LPrim::DDiv:
    return "/##";
  case LPrim::DLt:
    return "<##";
  case LPrim::DLe:
    return "<=##";
  case LPrim::DGt:
    return ">##";
  case LPrim::DGe:
    return ">=##";
  case LPrim::DEq:
    return "==##";
  case LPrim::DNe:
    return "/=##";
  }
  assert(false && "unknown primop");
  return "?#";
}

bool lcalc::lPrimTakesDouble(LPrim Op) {
  switch (Op) {
  case LPrim::DAdd:
  case LPrim::DSub:
  case LPrim::DMul:
  case LPrim::DDiv:
  case LPrim::DLt:
  case LPrim::DLe:
  case LPrim::DGt:
  case LPrim::DGe:
  case LPrim::DEq:
  case LPrim::DNe:
    return true;
  default:
    return false;
  }
}

bool lcalc::lPrimReturnsDouble(LPrim Op) {
  switch (Op) {
  case LPrim::DAdd:
  case LPrim::DSub:
  case LPrim::DMul:
  case LPrim::DDiv:
    return true;
  default:
    return false;
  }
}

int64_t lcalc::evalLPrim(LPrim Op, int64_t Lhs, int64_t Rhs) {
  switch (Op) {
  case LPrim::Add:
    return Lhs + Rhs;
  case LPrim::Sub:
    return Lhs - Rhs;
  case LPrim::Mul:
    return Lhs * Rhs;
  case LPrim::Quot:
    // Callers (S_PRIMOP, the machine's PRIM rule) reject zero divisors
    // before evaluating; a zero here is a caller bug, not a semantics.
    assert(Rhs != 0 && "quot# by zero must be rejected by the caller");
    return Lhs / Rhs;
  case LPrim::Rem:
    assert(Rhs != 0 && "rem# by zero must be rejected by the caller");
    return Lhs % Rhs;
  case LPrim::Lt:
    return Lhs < Rhs ? 1 : 0;
  case LPrim::Le:
    return Lhs <= Rhs ? 1 : 0;
  case LPrim::Gt:
    return Lhs > Rhs ? 1 : 0;
  case LPrim::Ge:
    return Lhs >= Rhs ? 1 : 0;
  case LPrim::Eq:
    return Lhs == Rhs ? 1 : 0;
  case LPrim::Ne:
    return Lhs != Rhs ? 1 : 0;
  default:
    break;
  }
  assert(false && "not an Int# primop");
  return 0;
}

double lcalc::evalLPrimDD(LPrim Op, double Lhs, double Rhs) {
  switch (Op) {
  case LPrim::DAdd:
    return Lhs + Rhs;
  case LPrim::DSub:
    return Lhs - Rhs;
  case LPrim::DMul:
    return Lhs * Rhs;
  case LPrim::DDiv:
    return Lhs / Rhs;
  default:
    break;
  }
  assert(false && "not a Double#-result primop");
  return 0;
}

int64_t lcalc::evalLPrimDI(LPrim Op, double Lhs, double Rhs) {
  switch (Op) {
  case LPrim::DLt:
    return Lhs < Rhs ? 1 : 0;
  case LPrim::DLe:
    return Lhs <= Rhs ? 1 : 0;
  case LPrim::DGt:
    return Lhs > Rhs ? 1 : 0;
  case LPrim::DGe:
    return Lhs >= Rhs ? 1 : 0;
  case LPrim::DEq:
    return Lhs == Rhs ? 1 : 0;
  case LPrim::DNe:
    return Lhs != Rhs ? 1 : 0;
  default:
    break;
  }
  assert(false && "not a Double# comparison");
  return 0;
}

const Type *LContext::errorType() {
  if (ErrorTypeCache)
    return ErrorTypeCache;
  Symbol R = sym("r");
  Symbol A = sym("a");
  ErrorTypeCache = forAllRepTy(
      R, forAllTy(A, LKind::typeVar(R), arrowTy(intTy(), varTy(A))));
  return ErrorTypeCache;
}

//===----------------------------------------------------------------------===//
// Alpha-equivalence of types
//===----------------------------------------------------------------------===//

namespace {

/// Maps bound variables of A to those of B (and vice versa implicitly by
/// checking both directions through one map keyed on A's names).
struct AlphaEnv {
  std::unordered_map<Symbol, Symbol, SymbolHash> AtoB;
  std::unordered_map<Symbol, Symbol, SymbolHash> BtoA;

  void bind(Symbol A, Symbol B) {
    AtoB[A] = B;
    BtoA[B] = A;
  }

  bool varsEqual(Symbol A, Symbol B) const {
    auto ItA = AtoB.find(A);
    auto ItB = BtoA.find(B);
    // Both free: names must match. Both bound: must map to each other.
    if (ItA == AtoB.end() && ItB == BtoA.end())
      return A == B;
    if (ItA == AtoB.end() || ItB == BtoA.end())
      return false;
    return ItA->second == B && ItB->second == A;
  }
};

bool repsAlphaEqual(RuntimeRep A, RuntimeRep B, const AlphaEnv &Env) {
  if (A.isConcrete() != B.isConcrete())
    return false;
  if (A.isConcrete())
    return A.rep() == B.rep();
  return Env.varsEqual(A.varName(), B.varName());
}

bool typesAlphaEqual(const Type *A, const Type *B, AlphaEnv &Env) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Type::TypeKind::Int:
  case Type::TypeKind::IntHash:
  case Type::TypeKind::DoubleHash:
    return true;
  case Type::TypeKind::Data:
    // Decls are interned per context; across contexts, names identify.
    return cast<DataType>(A)->decl() == cast<DataType>(B)->decl() ||
           cast<DataType>(A)->decl()->name() ==
               cast<DataType>(B)->decl()->name();
  case Type::TypeKind::Var:
    return Env.varsEqual(cast<VarType>(A)->name(), cast<VarType>(B)->name());
  case Type::TypeKind::Arrow: {
    const auto *AA = cast<ArrowType>(A);
    const auto *BA = cast<ArrowType>(B);
    return typesAlphaEqual(AA->param(), BA->param(), Env) &&
           typesAlphaEqual(AA->result(), BA->result(), Env);
  }
  case Type::TypeKind::ForAll: {
    const auto *AF = cast<ForAllType>(A);
    const auto *BF = cast<ForAllType>(B);
    if (!repsAlphaEqual(AF->varKind().rep(), BF->varKind().rep(), Env))
      return false;
    AlphaEnv Inner = Env;
    Inner.bind(AF->var(), BF->var());
    return typesAlphaEqual(AF->body(), BF->body(), Inner);
  }
  case Type::TypeKind::ForAllRep: {
    const auto *AF = cast<ForAllRepType>(A);
    const auto *BF = cast<ForAllRepType>(B);
    AlphaEnv Inner = Env;
    Inner.bind(AF->repVar(), BF->repVar());
    return typesAlphaEqual(AF->body(), BF->body(), Inner);
  }
  }
  return false;
}

} // namespace

bool lcalc::typeEqual(const Type *A, const Type *B) {
  if (A == B)
    return true;
  AlphaEnv Env;
  return typesAlphaEqual(A, B, Env);
}

bool lcalc::isValue(const Expr *E) {
  switch (E->kind()) {
  case Expr::ExprKind::Lam:
  case Expr::ExprKind::IntLit:
  case Expr::ExprKind::DoubleLit:
    return true;
  case Expr::ExprKind::TyLam:
    return isValue(cast<TyLamExpr>(E)->body());
  case Expr::ExprKind::RepLam:
    return isValue(cast<RepLamExpr>(E)->body());
  case Expr::ExprKind::Con: {
    // Constructors are strict in unboxed fields only; pointer fields are
    // lazy (substituted unevaluated, like S_BETAPTR arguments).
    const auto *C = cast<ConExpr>(E);
    const LDataCon &Con = C->decl()->con(C->tag());
    for (size_t I = 0; I != C->args().size(); ++I)
      if (Con.FieldReps[I] != ConcreteRep::P && !isValue(C->args()[I]))
        return false;
    return true;
  }
  default:
    return false;
  }
}
