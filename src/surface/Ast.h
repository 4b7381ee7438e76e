//===- Ast.h - Surface-language abstract syntax -----------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parse trees for the surface language (a curly-brace Haskell subset
/// with the paper's unboxed/levity extensions). Surface nodes are plain
/// owned structs — they live only as long as the elaboration that
/// consumes them.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SURFACE_AST_H
#define LEVITY_SURFACE_AST_H

#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace levity {
namespace surface {

//===----------------------------------------------------------------------===//
// Kinds and reps (surface syntax)
//===----------------------------------------------------------------------===//

struct SKind;
using SKindPtr = std::unique_ptr<SKind>;

/// Surface rep syntax: a named rep constructor (IntRep, ...), a rep
/// variable, or TupleRep [...].
struct SRep {
  enum class Tag { Named, Var, Tuple } T = Tag::Named;
  std::string Name;                ///< Named / Var.
  std::vector<SRep> Elems;         ///< Tuple.
  SourceLoc Loc;
};

/// Surface kind syntax.
struct SKind {
  enum class Tag {
    Type,   ///< Type (= TYPE LiftedRep)
    Rep,    ///< Rep
    TypeOf, ///< TYPE ρ
    Arrow   ///< κ₁ -> κ₂
  } T = Tag::Type;
  SRep R;           ///< TypeOf.
  SKindPtr Param;   ///< Arrow.
  SKindPtr Result;  ///< Arrow.
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

struct SType;
using STypePtr = std::unique_ptr<SType>;

/// One quantified binder: `a` or `(a :: kind)`.
struct STyBinder {
  std::string Name;
  SKindPtr Kind; ///< null = infer (defaults to Type, or Rep by context).
  SourceLoc Loc;
};

/// One constraint, e.g. `Num a`.
struct SConstraint {
  std::string ClassName;
  STypePtr Arg;
  SourceLoc Loc;
};

struct SType {
  enum class Tag {
    Con,          ///< A type constructor name.
    Var,          ///< A type variable name.
    App,          ///< τ₁ τ₂.
    Fun,          ///< τ₁ -> τ₂.
    ForAll,       ///< forall b₁ … bₙ. [ctx =>] τ.
    UnboxedTuple, ///< (# τ, …, τ #).
    List,         ///< [τ] (sugar for List τ).
    Tuple2        ///< (τ, τ) (sugar for Pair τ τ).
  } T = Tag::Con;

  std::string Name;                     ///< Con / Var.
  STypePtr Fn, Arg;                     ///< App / Fun(param,result) / Tuple2.
  std::vector<STyBinder> Binders;       ///< ForAll.
  std::vector<SConstraint> Context;     ///< ForAll (may be empty).
  STypePtr Body;                        ///< ForAll / List element.
  std::vector<STypePtr> Elems;          ///< UnboxedTuple.
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Patterns and expressions
//===----------------------------------------------------------------------===//

struct SExpr;
using SExprPtr = std::unique_ptr<SExpr>;

/// Case-alternative patterns (binder patterns in lambdas/equations are
/// plain variables, possibly annotated).
struct SPattern {
  enum class Tag {
    Var,         ///< x
    Wild,        ///< _
    Con,         ///< K x₁ … xₙ
    IntHashLit,  ///< 42#
    DoubleHashLit, ///< 3.14##
    IntLit,      ///< 42 (matches boxed I# 42#)
    UnboxedTuple ///< (# x₁, …, xₙ #)
  } T = Tag::Wild;

  std::string Name;                ///< Var / Con (constructor name).
  std::vector<std::string> Args;   ///< Con / UnboxedTuple binders.
  int64_t IntValue = 0;
  double DoubleValue = 0;
  SourceLoc Loc;
};

/// A lambda/equation binder: `x` or `(x :: τ)` or `_`.
struct SBinder {
  std::string Name; ///< "_" for wildcards.
  STypePtr Ann;     ///< Optional annotation.
  SourceLoc Loc;
};

struct SAlt {
  SPattern Pat;
  SExprPtr Rhs;
};

struct SLocalBind {
  std::string Name;
  std::vector<SBinder> Params;
  SExprPtr Rhs;
  STypePtr Sig; ///< Optional `x :: τ` preceding the binding.
  SourceLoc Loc;
};

struct SExpr {
  enum class Tag {
    Var,          ///< x or (+) or a class method or a constructor? no: Con.
    Con,          ///< Constructor use.
    IntLit, IntHashLit, DoubleLit, DoubleHashLit, StringLit,
    App,          ///< e₁ e₂.
    BinOp,        ///< e₁ ⊕ e₂ (resolved by the elaborator).
    Lam,          ///< \b₁ … bₙ -> e.
    Let,          ///< let binds in e.
    If,           ///< if c then t else e.
    Case,         ///< case e of { alts }.
    UnboxedTuple, ///< (# e, …, e #).
    Ann           ///< (e :: τ).
  } T = Tag::Var;

  std::string Name;                 ///< Var / Con / BinOp operator.
  int64_t IntValue = 0;
  double DoubleValue = 0;
  std::string StringValue;
  SExprPtr Fn, Arg;                 ///< App / BinOp operands.
  std::vector<SBinder> Binders;     ///< Lam.
  SExprPtr Body;                    ///< Lam / Let / Ann subject.
  std::vector<SLocalBind> Binds;    ///< Let.
  SExprPtr Cond, Then, Else;        ///< If.
  SExprPtr Scrut;                   ///< Case.
  std::vector<SAlt> Alts;           ///< Case.
  std::vector<SExprPtr> Elems;      ///< UnboxedTuple.
  STypePtr Ann_;                    ///< Ann.
  SourceLoc Loc;
  /// Levels at and below this node: each lambda binder and let binding
  /// is one, every other node one (the parser's nesting measure).
  unsigned Height = 1;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct SConDecl {
  std::string Name;
  std::vector<STypePtr> Fields;
  SourceLoc Loc;
};

struct SDataDecl {
  std::string Name;
  std::vector<STyBinder> Params;
  std::vector<SConDecl> Cons; ///< Empty = abstract/opaque type.
  SourceLoc Loc;
};

struct SSigDecl {
  std::string Name; ///< Plain or operator name (as written in parens).
  STypePtr Ty;
  SourceLoc Loc;
};

struct SBindDecl {
  std::string Name;
  std::vector<SBinder> Params;
  SExprPtr Rhs;
  SourceLoc Loc;
};

struct SClassDecl {
  std::string Name;
  STyBinder Var;                       ///< The (single) class variable.
  std::vector<SConstraint> Supers;     ///< Superclass context (recorded).
  std::vector<SSigDecl> Methods;
  SourceLoc Loc;
};

struct SInstanceDecl {
  std::string ClassName;
  STypePtr Head;
  std::vector<SBindDecl> Methods;
  SourceLoc Loc;
};

struct SDecl {
  enum class Tag { Data, Class, Instance, Sig, Bind } T = Tag::Bind;
  SDataDecl Data;
  SClassDecl Class;
  SInstanceDecl Instance;
  SSigDecl Sig;
  SBindDecl Bind;
};

struct SModule {
  std::vector<SDecl> Decls;
};

} // namespace surface
} // namespace levity

#endif // LEVITY_SURFACE_AST_H
