//===- CoreContext.h - Ownership and factories for core IR ------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns every core kind, rep, type, expression, tycon and datacon, plus
/// the metavariable stores used by inference (Section 5.2's mutable cells;
/// zonking resolves them — Section 8.2 discusses why that is needed).
/// Also defines the built-in environment: the primitive unboxed types, the
/// boxed wrappers `data Int = I# Int#` etc. (Section 2.1: "GHC does not
/// treat them specially"), and `error`'s levity-polymorphic type.
///
/// Every context is a child of the one prelude context (Prelude.h), which
/// holds that built-in environment and the builtin globals, built once per
/// process and frozen. A child resolves the prelude's names to the
/// prelude's Symbols, tycons and datacons, and allocates, interns and
/// solves metavariables only in itself.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_CORE_CORECONTEXT_H
#define LEVITY_CORE_CORECONTEXT_H

#include "core/Expr.h"
#include "core/Kind.h"
#include "core/Type.h"

#include <memory>
#include <optional>
#include <vector>

namespace levity {
namespace core {

/// A type metavariable cell (μ). Solution is written once by unification.
struct TypeMetaCell {
  const Type *Solution = nullptr;
  const Kind *MetaKind = nullptr;
};

/// A rep metavariable cell (ν). Unsolved cells default to LiftedRep at
/// generalization time (Section 5.2: "we never infer levity
/// polymorphism").
struct RepMetaCell {
  const RepTy *Solution = nullptr;
};

class CoreContext {
public:
  /// A fresh context, a child of the process's prelude context.
  CoreContext();
  CoreContext(const CoreContext &) = delete;
  CoreContext &operator=(const CoreContext &) = delete;

  SymbolTable &symbols() { return Symbols; }
  Symbol sym(std::string_view Name) { return Symbols.intern(Name); }

  //===------------------------------------------------------------------===//
  // Reps
  //===------------------------------------------------------------------===//

  const RepTy *repAtom(RepCtor Ctor);
  const RepTy *liftedRep() { return repAtom(RepCtor::Lifted); }
  const RepTy *unliftedRep() { return repAtom(RepCtor::Unlifted); }
  const RepTy *intRep() { return repAtom(RepCtor::Int); }
  const RepTy *wordRep() { return repAtom(RepCtor::Word); }
  const RepTy *floatRep() { return repAtom(RepCtor::Float); }
  const RepTy *doubleRep() { return repAtom(RepCtor::Double); }
  const RepTy *addrRep() { return repAtom(RepCtor::Addr); }
  const RepTy *repVar(Symbol Name);
  const RepTy *repTuple(std::span<const RepTy *const> Elems);
  const RepTy *repTuple(std::initializer_list<const RepTy *> Elems) {
    return repTuple(
        std::span<const RepTy *const>(Elems.begin(), Elems.size()));
  }
  const RepTy *repSum(std::span<const RepTy *const> Elems);

  /// Allocates a fresh rep metavariable ν.
  const RepTy *freshRepMeta();

  /// Resolves meta solutions hereditarily; result mentions only unsolved
  /// metas, vars, and atoms.
  const RepTy *zonkRep(const RepTy *R);

  /// \returns the closed rep::Rep for \p R if it is fully concrete after
  /// zonking, else nullptr. This is the bridge from kinds to calling
  /// conventions (Section 4).
  const Rep *concreteRep(const RepTy *R, RepContext &RC);

  RepMetaCell &repMetaCell(uint32_t Id) { return RepMetas[Id]; }
  size_t numRepMetas() const { return RepMetas.size(); }

  //===------------------------------------------------------------------===//
  // Kinds
  //===------------------------------------------------------------------===//

  const Kind *kindTYPE(const RepTy *R);
  const Kind *typeKind() { return kindTYPE(liftedRep()); } ///< Type.
  const Kind *repKind();                                   ///< Rep.
  const Kind *kindArrow(const Kind *Param, const Kind *Result);

  const Kind *zonkKind(const Kind *K);

  //===------------------------------------------------------------------===//
  // Types
  //===------------------------------------------------------------------===//

  const Type *conTy(const TyCon *TC) { return Mem.create<ConType>(TC); }
  const Type *appTy(const Type *Fn, const Type *Arg) {
    return Mem.create<AppType>(Fn, Arg);
  }
  /// Saturated application T τ₁ … τₙ.
  const Type *appTys(const Type *Fn, std::span<const Type *const> Args);
  const Type *funTy(const Type *Param, const Type *Result) {
    return Mem.create<FunType>(Param, Result);
  }
  /// σ₁ → σ₂ → … → τ.
  const Type *funTys(std::span<const Type *const> Params, const Type *Res);
  const Type *varTy(Symbol Name, const Kind *K) {
    return Mem.create<VarType>(Name, K);
  }
  const Type *forAllTy(Symbol Var, const Kind *K, const Type *Body) {
    return Mem.create<ForAllType>(Var, K, Body);
  }
  /// Arena-interns \p Elems before building the node; the caller's array
  /// may die freely (UnboxedTupleType itself never owns storage).
  const Type *unboxedTupleTy(std::span<const Type *const> Elems);
  const Type *unboxedTupleTy(std::initializer_list<const Type *> Elems) {
    return unboxedTupleTy(
        std::span<const Type *const>(Elems.begin(), Elems.size()));
  }
  const Type *repLiftTy(const RepTy *R) {
    return Mem.create<RepLiftType>(R);
  }

  /// Allocates a fresh type metavariable μ of kind \p K (invent a rep meta
  /// for K when following Section 5.2's α :: TYPE ν recipe).
  const Type *freshTypeMeta(const Kind *K);
  TypeMetaCell &typeMetaCell(uint32_t Id) { return TypeMetas[Id]; }
  size_t numTypeMetas() const { return TypeMetas.size(); }

  const Type *zonkType(const Type *T);

  //===------------------------------------------------------------------===//
  // TyCons / DataCons
  //===------------------------------------------------------------------===//

  TyCon *makeTyCon(Symbol Name, const Kind *K, const RepTy *ResultRep);
  const DataCon *makeDataCon(Symbol Name, TyCon *Parent,
                             std::vector<Symbol> Univs,
                             std::vector<const Kind *> UnivKinds,
                             std::vector<const Type *> Fields);

  /// Looks in the parent (prelude) context first, then in this one.
  const TyCon *lookupTyCon(Symbol Name) const;
  const DataCon *lookupDataCon(Symbol Name) const;

  // Builtins (the prelude's, shared by every context).
  const TyCon *intHashTyCon() const { return Builtin.IntHashTC; }
  const TyCon *wordHashTyCon() const { return Builtin.WordHashTC; }
  const TyCon *floatHashTyCon() const { return Builtin.FloatHashTC; }
  const TyCon *doubleHashTyCon() const { return Builtin.DoubleHashTC; }
  const TyCon *stringTyCon() const { return Builtin.StringTC; }
  const TyCon *intTyCon() const { return Builtin.IntTC; }
  const TyCon *doubleTyCon() const { return Builtin.DoubleTC; }
  const TyCon *boolTyCon() const { return Builtin.BoolTC; }
  const TyCon *unitTyCon() const { return Builtin.UnitTC; }

  /// I# :: Int# -> Int.
  const DataCon *iHashCon() const { return Builtin.IHashDC; }
  /// D# :: Double# -> Double.
  const DataCon *dHashCon() const { return Builtin.DHashDC; }
  const DataCon *trueCon() const { return Builtin.TrueDC; }
  const DataCon *falseCon() const { return Builtin.FalseDC; }
  const DataCon *unitCon() const { return Builtin.UnitDC; }

  const Type *intHashTy() { return conTy(Builtin.IntHashTC); }
  const Type *doubleHashTy() { return conTy(Builtin.DoubleHashTC); }
  const Type *floatHashTy() { return conTy(Builtin.FloatHashTC); }
  const Type *wordHashTy() { return conTy(Builtin.WordHashTC); }
  const Type *stringTy() { return conTy(Builtin.StringTC); }
  const Type *intTy() { return conTy(Builtin.IntTC); }
  const Type *doubleTy() { return conTy(Builtin.DoubleTC); }
  const Type *boolTy() { return conTy(Builtin.BoolTC); }
  const Type *unitTy() { return conTy(Builtin.UnitTC); }

  /// error :: ∀(r::Rep). ∀(a::TYPE r). String → a (Section 4.3).
  const Type *errorType();

  //===------------------------------------------------------------------===//
  // Expressions (factories defined in Expr.h's node types)
  //===------------------------------------------------------------------===//

  const Expr *var(Symbol Name) { return Mem.create<VarExpr>(Name); }
  const Expr *litInt(int64_t V) {
    return Mem.create<LitExpr>(Literal::intHash(V));
  }
  const Expr *litDouble(double V) {
    return Mem.create<LitExpr>(Literal::doubleHash(V));
  }
  const Expr *litString(Symbol S) {
    return Mem.create<LitExpr>(Literal::string(S));
  }
  const Expr *app(const Expr *Fn, const Expr *Arg, bool StrictArg) {
    return Mem.create<AppExpr>(Fn, Arg, StrictArg);
  }
  const Expr *tyApp(const Expr *Fn, const Type *Arg) {
    return Mem.create<TyAppExpr>(Fn, Arg);
  }
  const Expr *lam(Symbol Var, const Type *VarTy, const Expr *Body) {
    return Mem.create<LamExpr>(Var, VarTy, Body);
  }
  const Expr *tyLam(Symbol Var, const Kind *K, const Expr *Body) {
    return Mem.create<TyLamExpr>(Var, K, Body);
  }
  const Expr *let(Symbol Var, const Type *VarTy, const Expr *Rhs,
                  const Expr *Body, bool Strict) {
    return Mem.create<LetExpr>(Var, VarTy, Rhs, Body, Strict);
  }
  const Expr *letRec(std::span<const RecBinding> Binds, const Expr *Body) {
    return Mem.create<LetRecExpr>(Mem.copyArray(Binds), Body);
  }
  const Expr *caseOf(const Expr *Scrut, const Type *ResultTy,
                     std::span<const Alt> Alts) {
    return Mem.create<CaseExpr>(Scrut, ResultTy, Mem.copyArray(Alts));
  }
  const Expr *conApp(const DataCon *DC, std::span<const Type *const> TyArgs,
                     std::span<const Expr *const> Args) {
    return Mem.create<ConExpr>(DC, Mem.copyArray(TyArgs),
                               Mem.copyArray(Args));
  }
  const Expr *primOp(PrimOp Op, std::span<const Expr *const> Args) {
    return Mem.create<PrimOpExpr>(Op, Mem.copyArray(Args));
  }
  const Expr *primOp(PrimOp Op, std::initializer_list<const Expr *> Args) {
    return primOp(Op, std::span<const Expr *const>(Args.begin(),
                                                   Args.size()));
  }
  const Expr *unboxedTuple(std::span<const Expr *const> Elems) {
    return Mem.create<UnboxedTupleExpr>(Mem.copyArray(Elems));
  }
  const Expr *errorExpr(const Type *AtTy, const RepTy *AtRep,
                        const Expr *Message) {
    return Mem.create<ErrorExpr>(AtTy, AtRep, Message);
  }

  /// The type of a primop (monomorphic for all but error, which has its
  /// own node).
  const Type *primOpType(PrimOp Op);

  std::span<const Alt> copyAlts(std::span<const Alt> Alts) {
    return Mem.copyArray(Alts);
  }

  Arena &arena() { return Mem; }

private:
  friend class Prelude;
  /// The prelude's own context when \p Parent is null (it builds the
  /// built-in tycons and datacons), else a child of the frozen \p Parent.
  explicit CoreContext(const CoreContext *Parent);

  const CoreContext *Parent;
  Arena Mem;
  SymbolTable Symbols;

  std::vector<TypeMetaCell> TypeMetas;
  std::vector<RepMetaCell> RepMetas;

  std::vector<std::unique_ptr<TyCon>> TyCons;
  std::vector<std::unique_ptr<DataCon>> DataCons;

  /// The built-in tycons, datacons and singletons: made by the prelude's
  /// context, copied into each child.
  struct BuiltinEnv {
    const RepTy *RepAtoms[size_t(RepCtor::Addr) + 1] = {};
    const Kind *RepKindSingleton = nullptr;
    const TyCon *IntHashTC = nullptr, *WordHashTC = nullptr,
                *FloatHashTC = nullptr, *DoubleHashTC = nullptr,
                *StringTC = nullptr, *IntTC = nullptr, *DoubleTC = nullptr,
                *BoolTC = nullptr, *UnitTC = nullptr;
    const DataCon *IHashDC = nullptr, *DHashDC = nullptr,
                  *TrueDC = nullptr, *FalseDC = nullptr, *UnitDC = nullptr;
    const Type *ErrorTypeCache = nullptr;
  } Builtin;
};

//===----------------------------------------------------------------------===//
// Structural operations
//===----------------------------------------------------------------------===//

/// Alpha-aware structural equality (call on zonked types).
bool typeEqual(const Type *A, const Type *B);
bool kindEqual(const Kind *A, const Kind *B);
bool repEqual(const RepTy *A, const RepTy *B);

/// Capture-avoiding τ[Replacement/Var]. When Var has kind Rep, occurrences
/// inside RepTys (i.e. inside kinds) are substituted as well.
const Type *substType(CoreContext &C, const Type *T, Symbol Var,
                      const Type *Replacement);

/// ρ[Replacement/Var] at the rep level.
const RepTy *substRepInRep(CoreContext &C, const RepTy *R, Symbol Var,
                           const RepTy *Replacement);

/// \returns the RepTy view of a type of kind Rep (VarType -> rep var,
/// RepLiftType -> payload, MetaType of kind Rep -> that meta's rep view);
/// nullptr if \p T is not a rep-kinded type.
const RepTy *typeAsRep(CoreContext &C, const Type *T);

/// Collects the free type variables (including rep variables) of \p T.
void freeTypeVars(const Type *T,
                  std::vector<std::pair<Symbol, const Kind *>> &Out);

/// Collects unsolved metas (type and rep ids) appearing in \p T.
struct MetaSet {
  std::vector<uint32_t> TypeMetaIds;
  std::vector<uint32_t> RepMetaIds;
};
void collectMetas(CoreContext &C, const Type *T, MetaSet &Out);

} // namespace core
} // namespace levity

#endif // LEVITY_CORE_CORECONTEXT_H
