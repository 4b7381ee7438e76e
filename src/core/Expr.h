//===- Expr.h - Core expressions --------------------------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression language of the generalized core IR: System F with
/// datatypes, literals of several reps, let/letrec, case, primops,
/// unboxed tuples, and a levity-polymorphic `error`. Applications and
/// lets carry a *strictness bit* derived from the binder/argument kind —
/// provisional during elaboration, set by Core Lint once every kind is
/// solved. This is "kinds are calling conventions" made operational, and
/// Section 5.1's checks, in the same Lint walk, guarantee every such kind
/// is concrete.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_CORE_EXPR_H
#define LEVITY_CORE_EXPR_H

#include "core/Type.h"

#include <cstdint>
#include <span>
#include <string>

namespace levity {
namespace core {

//===----------------------------------------------------------------------===//
// Literals and primops
//===----------------------------------------------------------------------===//

/// An unboxed literal (42# :: Int#, 3.14## :: Double#) or a string
/// constant (the argument of error; String is an opaque lifted builtin).
class Literal {
public:
  enum class Tag : uint8_t { IntHash, DoubleHash, String };

  static Literal intHash(int64_t V) {
    Literal L;
    L.T = Tag::IntHash;
    L.I = V;
    return L;
  }
  static Literal doubleHash(double V) {
    Literal L;
    L.T = Tag::DoubleHash;
    L.D = V;
    return L;
  }
  static Literal string(Symbol S) {
    Literal L;
    L.T = Tag::String;
    L.S = S;
    return L;
  }

  Tag tag() const { return T; }
  int64_t intValue() const {
    assert(T == Tag::IntHash);
    return I;
  }
  double doubleValue() const {
    assert(T == Tag::DoubleHash);
    return D;
  }
  Symbol stringValue() const {
    assert(T == Tag::String);
    return S;
  }

  std::string str() const;

private:
  Tag T = Tag::IntHash;
  int64_t I = 0;
  double D = 0;
  Symbol S;
};

/// Built-in operations over unboxed values. Comparisons return Int#
/// (0 or 1), as in GHC; IsTrue converts to Bool.
enum class PrimOp : uint8_t {
  // Int# arithmetic.
  AddI, SubI, MulI, QuotI, RemI, NegI,
  // Int# comparisons (result Int#).
  LtI, LeI, GtI, GeI, EqI, NeI,
  // Double# arithmetic.
  AddD, SubD, MulD, DivD, NegD,
  // Double# comparisons (result Int#).
  LtD, EqD,
  // Conversions.
  Int2Double, Double2Int,
  // Int# 0/1 to Bool.
  IsTrue
};

std::string_view primOpName(PrimOp Op);
unsigned primOpArity(PrimOp Op);

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Tag : uint8_t {
    Var,
    Lit,
    App,
    TyApp,
    Lam,
    TyLam,
    Let,
    LetRec,
    Case,
    Con,
    Prim,
    UnboxedTuple,
    Error
  };

  Tag tag() const { return T; }
  std::string str() const;

protected:
  explicit Expr(Tag T) : T(T) {}

private:
  Tag T;
};

class VarExpr : public Expr {
public:
  explicit VarExpr(Symbol Name) : Expr(Tag::Var), Name(Name) {}
  Symbol name() const { return Name; }
  static bool classof(const Expr *E) { return E->tag() == Tag::Var; }

private:
  Symbol Name;
};

class LitExpr : public Expr {
public:
  explicit LitExpr(Literal L) : Expr(Tag::Lit), L(L) {}
  const Literal &lit() const { return L; }
  static bool classof(const Expr *E) { return E->tag() == Tag::Lit; }

private:
  Literal L;
};

/// Application. StrictArg records whether the argument's kind is unlifted
/// (call-by-value) — set at construction from the argument type's kind.
class AppExpr : public Expr {
public:
  AppExpr(const Expr *Fn, const Expr *Arg, bool StrictArg)
      : Expr(Tag::App), Fn(Fn), Arg(Arg), StrictArg(StrictArg) {}

  const Expr *fn() const { return Fn; }
  const Expr *arg() const { return Arg; }
  bool strictArg() const { return StrictArg; }
  /// Elaboration may not know the argument kind until metavariables are
  /// solved; Core Lint rewrites the bit in place once they are.
  void setStrictArg(bool Strict) const { StrictArg = Strict; }

  static bool classof(const Expr *E) { return E->tag() == Tag::App; }

private:
  const Expr *Fn;
  const Expr *Arg;
  mutable bool StrictArg;
};

class TyAppExpr : public Expr {
public:
  TyAppExpr(const Expr *Fn, const Type *Arg)
      : Expr(Tag::TyApp), Fn(Fn), TyArg(Arg) {}

  const Expr *fn() const { return Fn; }
  const Type *tyArg() const { return TyArg; }

  static bool classof(const Expr *E) { return E->tag() == Tag::TyApp; }

private:
  const Expr *Fn;
  const Type *TyArg;
};

class LamExpr : public Expr {
public:
  LamExpr(Symbol Var, const Type *VarTy, const Expr *Body)
      : Expr(Tag::Lam), Var(Var), VarTy(VarTy), Body(Body) {}

  Symbol var() const { return Var; }
  const Type *varType() const { return VarTy; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->tag() == Tag::Lam; }

private:
  Symbol Var;
  const Type *VarTy;
  const Expr *Body;
};

class TyLamExpr : public Expr {
public:
  TyLamExpr(Symbol Var, const Kind *K, const Expr *Body)
      : Expr(Tag::TyLam), Var(Var), K(K), Body(Body) {}

  Symbol var() const { return Var; }
  const Kind *varKind() const { return K; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->tag() == Tag::TyLam; }

private:
  Symbol Var;
  const Kind *K;
  const Expr *Body;
};

/// Non-recursive let. Strict mirrors the binder kind (unlifted binders
/// must be strict; a lazy binding of an unlifted value has nowhere to put
/// a thunk).
class LetExpr : public Expr {
public:
  LetExpr(Symbol Var, const Type *VarTy, const Expr *Rhs, const Expr *Body,
          bool Strict)
      : Expr(Tag::Let), Var(Var), VarTy(VarTy), Rhs(Rhs), Body(Body),
        Strict(Strict) {}

  Symbol var() const { return Var; }
  const Type *varType() const { return VarTy; }
  const Expr *rhs() const { return Rhs; }
  const Expr *body() const { return Body; }
  bool strict() const { return Strict; }
  /// See AppExpr::setStrictArg.
  void setStrict(bool S) const { Strict = S; }

  static bool classof(const Expr *E) { return E->tag() == Tag::Let; }

private:
  Symbol Var;
  const Type *VarTy;
  const Expr *Rhs;
  const Expr *Body;
  mutable bool Strict;
};

struct RecBinding {
  Symbol Var;
  const Type *VarTy;
  const Expr *Rhs;
};

/// Recursive let; all binders must be lifted (thunks tie the knot).
class LetRecExpr : public Expr {
public:
  LetRecExpr(std::span<const RecBinding> Binds, const Expr *Body)
      : Expr(Tag::LetRec), Binds(Binds), Body(Body) {}

  std::span<const RecBinding> bindings() const { return Binds; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->tag() == Tag::LetRec; }

private:
  std::span<const RecBinding> Binds;
  const Expr *Body;
};

/// One case alternative.
struct Alt {
  enum class AltKind : uint8_t {
    ConPat,   ///< K x₁ … xₙ →
    LitPat,   ///< n# →
    TuplePat, ///< (# x₁, …, xₙ #) →
    Default   ///< _ →
  };

  AltKind Kind;
  const DataCon *Con = nullptr;        ///< ConPat.
  std::span<const Symbol> Binders;     ///< ConPat / TuplePat.
  Literal Lit;                         ///< LitPat.
  const Expr *Rhs = nullptr;
};

/// Case: forces the scrutinee to WHNF and branches. ResultTy annotates the
/// alternatives' common type (simplifies checking, as in GHC Core).
class CaseExpr : public Expr {
public:
  CaseExpr(const Expr *Scrut, const Type *ResultTy, std::span<const Alt>
           Alts)
      : Expr(Tag::Case), Scrut(Scrut), ResultTy(ResultTy), Alts(Alts) {}

  const Expr *scrut() const { return Scrut; }
  const Type *resultType() const { return ResultTy; }
  std::span<const Alt> alts() const { return Alts; }

  static bool classof(const Expr *E) { return E->tag() == Tag::Case; }

private:
  const Expr *Scrut;
  const Type *ResultTy;
  std::span<const Alt> Alts;
};

/// Saturated data-constructor application K @τ₁…@τₘ e₁…eₙ.
class ConExpr : public Expr {
public:
  ConExpr(const DataCon *DC, std::span<const Type *const> TyArgs,
          std::span<const Expr *const> Args)
      : Expr(Tag::Con), DC(DC), TyArgs(TyArgs), Args(Args) {}

  const DataCon *dataCon() const { return DC; }
  std::span<const Type *const> tyArgs() const { return TyArgs; }
  std::span<const Expr *const> args() const { return Args; }

  static bool classof(const Expr *E) { return E->tag() == Tag::Con; }

private:
  const DataCon *DC;
  std::span<const Type *const> TyArgs;
  std::span<const Expr *const> Args;
};

/// Saturated primop application.
class PrimOpExpr : public Expr {
public:
  PrimOpExpr(PrimOp Op, std::span<const Expr *const> Args)
      : Expr(Tag::Prim), Op(Op), Args(Args) {}

  PrimOp op() const { return Op; }
  std::span<const Expr *const> args() const { return Args; }

  static bool classof(const Expr *E) { return E->tag() == Tag::Prim; }

private:
  PrimOp Op;
  std::span<const Expr *const> Args;
};

/// (# e₁, …, eₙ #) — erased at runtime into n register values.
class UnboxedTupleExpr : public Expr {
public:
  explicit UnboxedTupleExpr(std::span<const Expr *const> Elems)
      : Expr(Tag::UnboxedTuple), Elems(Elems) {}

  std::span<const Expr *const> elems() const { return Elems; }

  static bool classof(const Expr *E) {
    return E->tag() == Tag::UnboxedTuple;
  }

private:
  std::span<const Expr *const> Elems;
};

/// error @ρ @τ msg — instantiated at result type τ :: TYPE ρ. Keeping the
/// instantiation explicit on the node lets Core Lint confirm the
/// *use* is fine even though error's own type is levity-polymorphic
/// (Section 3.3 / 4.3).
class ErrorExpr : public Expr {
public:
  ErrorExpr(const Type *AtTy, const RepTy *AtRep, const Expr *Message)
      : Expr(Tag::Error), AtTy(AtTy), AtRep(AtRep), Message(Message) {}

  const Type *atType() const { return AtTy; }
  const RepTy *atRep() const { return AtRep; }
  const Expr *message() const { return Message; }

  static bool classof(const Expr *E) { return E->tag() == Tag::Error; }

private:
  const Type *AtTy;
  const RepTy *AtRep;
  const Expr *Message;
};

} // namespace core
} // namespace levity

#endif // LEVITY_CORE_EXPR_H
