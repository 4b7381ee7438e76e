//===- Syntax.h - The M language of Section 6.2 (Figure 5) ------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for M, the paper's A-normal-form target language
/// (Figure 5), plus the executable extensions mirroring L's:
///
/// \code
///   y ::= p | i | f                   pointer / integer / double variables
///   a ::= y | n | d                   atoms
///   t ::= t y | t n | t d | λy.t | y | let p = t1 in t2
///       | let! y = t1 in t2 | letrec p = t1 in t2
///       | case t1 of I#[y] → t2 | if0 t1 then t2 else t3 | error
///       | I#[y] | I#[n] | n | d | a1 ⊕# a2
///       | CON k [a1, …, an] | switch t of { alt; …; _ → t }
///   alt ::= CON k [y1, …, yn] → t | n → t | d → t
///   w ::= λy.t | I#[n] | n | d | CON k [a̅]   values
/// \endcode
///
/// `CON k [a̅]` is the n-ary tagged constructor node: field atoms are
/// heap pointers (for boxed fields) or unboxed literals once resolved
/// by ILET/IPOP/DLET/DPOP substitution. `switch` is the tag-dispatch
/// branch every source-level case compiles to (rules SWITCH/SWITCHk);
/// it also dispatches on Int#/Double# literal scrutinees, subsuming the
/// old lowering of literal cases to if0 chains. The one-field boxed Int
/// keeps its compact I#[y]/I#[n] forms.
///
/// M is representation-monomorphic: every variable is *exactly one* of a
/// pointer variable (register class P), an integer variable (register
/// class I), or a double variable (register class D) — the metavariable
/// sorts of the paper plus the second unboxed sort the driver's widened
/// fragment carries. Functions are called only on variables or literals
/// (ANF), so every data movement has a known width. `letrec` is the
/// heap-tied knot L's `fix` compiles to: the thunk's body sees its own
/// heap address.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_MCALC_SYNTAX_H
#define LEVITY_MCALC_SYNTAX_H

#include "support/Arena.h"
#include "support/DoubleText.h"
#include "support/Symbol.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace levity {
namespace mcalc {

/// The sorts of M variables: each corresponds to a machine register
/// class, so substitution always moves data of known width (Section 6.2).
///
/// The numeric values are **stable on-disk tags**: they appear verbatim in
/// the bytecode slot sorts of `.levc` artifacts (driver/Serialize.h,
/// docs/ARTIFACT_FORMAT.md). Never renumber an existing sort; append new
/// sorts at the end.
enum class VarSort : uint8_t {
  Ptr = 0, ///< p — points to a heap object (thunk or value).
  Int = 1, ///< i — holds an unboxed machine integer.
  Dbl = 2  ///< f — holds an unboxed double in a float register.
};

/// Number of VarSort values; folded into the artifact fingerprint so a
/// new register class invalidates stale stores.
inline constexpr unsigned NumVarSorts = 3;

/// y — a sorted variable.
struct MVar {
  Symbol Name;
  VarSort Sort = VarSort::Ptr;

  bool isPtr() const { return Sort == VarSort::Ptr; }
  bool isInt() const { return Sort == VarSort::Int; }
  bool isDbl() const { return Sort == VarSort::Dbl; }

  friend bool operator==(const MVar &A, const MVar &B) {
    return A.Name == B.Name && A.Sort == B.Sort;
  }
  friend bool operator!=(const MVar &A, const MVar &B) { return !(A == B); }

  std::string str() const { return std::string(Name.str()); }
};

/// t — an M term.
class Term {
public:
  enum class TermKind : uint8_t {
    AppVar = 0,  ///< t y
    AppLit = 1,  ///< t n
    AppDbl = 2,  ///< t d (a double literal argument)
    Lam = 3,     ///< λy.t
    Var = 4,     ///< y
    Let = 5,     ///< let p = t1 in t2   (lazy: allocates a thunk)
    LetBang = 6, ///< let! y = t1 in t2  (strict: evaluates t1 first)
    LetRec = 7,  ///< letrec p = t1 in t2 (knot: t1 sees its own address)
    Case = 8,    ///< case t1 of I#[y] → t2
    If0 = 9,     ///< if0 t1 then t2 else t3 (branch on an integer)
    Error = 10,  ///< error
    ConVar = 11, ///< I#[y]
    ConLit = 12, ///< I#[n]
    Lit = 13,    ///< n
    DLit = 14,   ///< d (an unboxed double literal)
    Prim = 15,   ///< a1 ⊕# a2 over unboxed atoms (variables or literals)
    Con = 16,    ///< CON k [a1, …, an] — n-ary tagged constructor
    Switch = 17  ///< switch t of { alt; …; _ → t } — tag dispatch
  };

  TermKind kind() const { return Kind; }

  std::string str() const;

protected:
  explicit Term(TermKind Kind) : Kind(Kind) {}

private:
  TermKind Kind;
};

class AppVarTerm : public Term {
public:
  AppVarTerm(const Term *Fn, MVar Arg)
      : Term(TermKind::AppVar), Fn(Fn), Arg(Arg) {}

  const Term *fn() const { return Fn; }
  MVar arg() const { return Arg; }

  static bool classof(const Term *T) { return T->kind() == TermKind::AppVar; }

private:
  const Term *Fn;
  MVar Arg;
};

class AppLitTerm : public Term {
public:
  AppLitTerm(const Term *Fn, int64_t Lit)
      : Term(TermKind::AppLit), Fn(Fn), Lit(Lit) {}

  const Term *fn() const { return Fn; }
  int64_t lit() const { return Lit; }

  static bool classof(const Term *T) { return T->kind() == TermKind::AppLit; }

private:
  const Term *Fn;
  int64_t Lit;
};

/// t d — application to a double literal (already a value, like t n).
class AppDblTerm : public Term {
public:
  AppDblTerm(const Term *Fn, double Lit)
      : Term(TermKind::AppDbl), Fn(Fn), Lit(Lit) {}

  const Term *fn() const { return Fn; }
  double lit() const { return Lit; }

  static bool classof(const Term *T) { return T->kind() == TermKind::AppDbl; }

private:
  const Term *Fn;
  double Lit;
};

class LamTerm : public Term {
public:
  LamTerm(MVar Param, const Term *Body)
      : Term(TermKind::Lam), Param(Param), Body(Body) {}

  MVar param() const { return Param; }
  const Term *body() const { return Body; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Lam; }

private:
  MVar Param;
  const Term *Body;
};

class VarTerm : public Term {
public:
  explicit VarTerm(MVar V) : Term(TermKind::Var), V(V) {}

  MVar var() const { return V; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Var; }

private:
  MVar V;
};

/// let p = t1 in t2 — lazy; the machine allocates a thunk for t1.
class LetTerm : public Term {
public:
  LetTerm(MVar Binder, const Term *Rhs, const Term *Body)
      : Term(TermKind::Let), Binder(Binder), Rhs(Rhs), Body(Body) {
    assert(Binder.isPtr() && "lazy let binds a pointer variable");
  }

  MVar binder() const { return Binder; }
  const Term *rhs() const { return Rhs; }
  const Term *body() const { return Body; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Let; }

private:
  MVar Binder;
  const Term *Rhs;
  const Term *Body;
};

/// let! y = t1 in t2 — strict; the machine evaluates t1 before t2.
class LetBangTerm : public Term {
public:
  LetBangTerm(MVar Binder, const Term *Rhs, const Term *Body)
      : Term(TermKind::LetBang), Binder(Binder), Rhs(Rhs), Body(Body) {}

  MVar binder() const { return Binder; }
  const Term *rhs() const { return Rhs; }
  const Term *body() const { return Body; }

  static bool classof(const Term *T) {
    return T->kind() == TermKind::LetBang;
  }

private:
  MVar Binder;
  const Term *Rhs;
  const Term *Body;
};

/// letrec p = t1 in t2 — allocates a heap cell whose stored thunk may
/// reference its own address (the knot recursion compiles to).
class LetRecTerm : public Term {
public:
  LetRecTerm(MVar Binder, const Term *Rhs, const Term *Body)
      : Term(TermKind::LetRec), Binder(Binder), Rhs(Rhs), Body(Body) {
    assert(Binder.isPtr() && "letrec binds a pointer variable");
  }

  MVar binder() const { return Binder; }
  const Term *rhs() const { return Rhs; }
  const Term *body() const { return Body; }

  static bool classof(const Term *T) {
    return T->kind() == TermKind::LetRec;
  }

private:
  MVar Binder;
  const Term *Rhs;
  const Term *Body;
};

class CaseTerm : public Term {
public:
  CaseTerm(const Term *Scrut, MVar Binder, const Term *Body)
      : Term(TermKind::Case), Scrut(Scrut), Binder(Binder), Body(Body) {}

  const Term *scrut() const { return Scrut; }
  MVar binder() const { return Binder; }
  const Term *body() const { return Body; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Case; }

private:
  const Term *Scrut;
  MVar Binder;
  const Term *Body;
};

/// if0 t1 then t2 else t3 — evaluates t1 to an integer literal and takes
/// the then-branch when it is 0, the else-branch otherwise.
class If0Term : public Term {
public:
  If0Term(const Term *Scrut, const Term *Then, const Term *Else)
      : Term(TermKind::If0), Scrut(Scrut), Then(Then), Else(Else) {}

  const Term *scrut() const { return Scrut; }
  const Term *thenBranch() const { return Then; }
  const Term *elseBranch() const { return Else; }

  static bool classof(const Term *T) { return T->kind() == TermKind::If0; }

private:
  const Term *Scrut;
  const Term *Then;
  const Term *Else;
};

class ErrorTerm : public Term {
public:
  ErrorTerm() : Term(TermKind::Error) {}
  explicit ErrorTerm(Symbol Msg) : Term(TermKind::Error), Msg(Msg) {}

  /// Invalid when the error carries no message (see lcalc::ErrorExpr).
  Symbol message() const { return Msg; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Error; }

private:
  Symbol Msg;
};

class ConVarTerm : public Term {
public:
  explicit ConVarTerm(MVar V) : Term(TermKind::ConVar), V(V) {}

  MVar var() const { return V; }

  static bool classof(const Term *T) { return T->kind() == TermKind::ConVar; }

private:
  MVar V;
};

class ConLitTerm : public Term {
public:
  explicit ConLitTerm(int64_t Value) : Term(TermKind::ConLit), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Term *T) { return T->kind() == TermKind::ConLit; }

private:
  int64_t Value;
};

class LitTerm : public Term {
public:
  explicit LitTerm(int64_t Value) : Term(TermKind::Lit), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Lit; }

private:
  int64_t Value;
};

/// d — an unboxed double literal value.
class DLitTerm : public Term {
public:
  explicit DLitTerm(double Value) : Term(TermKind::DLit), Value(Value) {}

  double value() const { return Value; }

  static bool classof(const Term *T) { return T->kind() == TermKind::DLit; }

private:
  double Value;
};

/// ⊕# — binary unboxed primops, mirroring lcalc::LPrim (same layout:
/// Int# arithmetic/comparisons, then Double# arithmetic/comparisons).
/// Operands are restricted to *atoms* (unboxed variables or literals) so
/// the ANF discipline — every data movement has a known width — is
/// preserved.
///
/// The numeric values are **stable on-disk tags** (see VarSort): bytecode
/// primop instructions carry them. Never renumber an existing op; append
/// new ops at the end.
enum class MPrim : uint8_t {
  Add = 0, Sub = 1, Mul = 2, Quot = 3, Rem = 4,
  Lt = 5, Le = 6, Gt = 7, Ge = 8, Eq = 9, Ne = 10,
  DAdd = 11, DSub = 12, DMul = 13, DDiv = 14,
  DLt = 15, DLe = 16, DGt = 17, DGe = 18, DEq = 19, DNe = 20
};

/// Number of MPrim values; folded into the artifact fingerprint so a new
/// primop invalidates stale stores.
inline constexpr unsigned NumMPrims = 21;

std::string_view mPrimName(MPrim Op);
bool mPrimTakesDouble(MPrim Op);
bool mPrimReturnsDouble(MPrim Op);
int64_t evalMPrim(MPrim Op, int64_t Lhs, int64_t Rhs);
double evalMPrimDD(MPrim Op, double Lhs, double Rhs);
int64_t evalMPrimDI(MPrim Op, double Lhs, double Rhs);

/// An atom: a variable y (primop atoms are unboxed: i or f), an Int#
/// literal n, or a Double# literal d. It is also what `subst` replaces a
/// variable by, so ILET/IPOP (and their double counterparts) turn the
/// variable forms into the literal forms.
struct MAtom {
  bool IsLit = false;
  bool IsDbl = false;  ///< Selects the double payload/sort.
  MVar Var;            ///< Unboxed variable when !IsLit.
  int64_t Lit = 0;     ///< Integer literal payload when IsLit && !IsDbl.
  double DblLit = 0;   ///< Double literal payload when IsLit && IsDbl.

  static MAtom var(MVar V) {
    assert((V.isInt() || V.isDbl()) &&
           "primop atoms live in unboxed registers");
    MAtom A;
    A.Var = V;
    A.IsDbl = V.isDbl();
    return A;
  }
  /// An atom of any register class — constructor fields may be heap
  /// pointers (primop atoms must stay unboxed; use var()).
  static MAtom anyVar(MVar V) {
    MAtom A;
    A.Var = V;
    A.IsDbl = V.isDbl();
    return A;
  }
  static MAtom lit(int64_t N) {
    MAtom A;
    A.IsLit = true;
    A.Lit = N;
    return A;
  }
  static MAtom dlit(double D) {
    MAtom A;
    A.IsLit = true;
    A.IsDbl = true;
    A.DblLit = D;
    return A;
  }

  /// The register class the atom occupies.
  VarSort sort() const {
    if (!IsLit)
      return Var.Sort;
    return IsDbl ? VarSort::Dbl : VarSort::Int;
  }

  std::string str() const {
    if (!IsLit)
      return Var.str();
    return IsDbl ? support::doubleText(DblLit) : std::to_string(Lit);
  }
};

/// a1 ⊕# a2 — reducible once both atoms are literals (rule PRIM).
class PrimTerm : public Term {
public:
  PrimTerm(MPrim Op, MAtom Lhs, MAtom Rhs)
      : Term(TermKind::Prim), Op(Op), Lhs(Lhs), Rhs(Rhs) {}

  MPrim op() const { return Op; }
  MAtom lhs() const { return Lhs; }
  MAtom rhs() const { return Rhs; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Prim; }

private:
  MPrim Op;
  MAtom Lhs;
  MAtom Rhs;
};

/// CON k [a1, …, an] — a saturated n-ary constructor with tag k. Field
/// atoms are pointer variables (heap addresses once LET substitution has
/// run) for boxed fields and unboxed variables/literals for Int#/Double#
/// fields. A value once every unboxed atom is a literal (rule SWITCHk
/// consumes it). The boxed-Int constructor I# keeps its compact
/// ConVar/ConLit forms; CON carries every other data type.
class ConTerm : public Term {
public:
  ConTerm(uint32_t Tag, std::span<const MAtom> Args)
      : Term(TermKind::Con), ConTag(Tag), Args(Args) {}

  uint32_t tag() const { return ConTag; }
  std::span<const MAtom> args() const { return Args; }

  static bool classof(const Term *T) { return T->kind() == TermKind::Con; }

private:
  uint32_t ConTag;
  std::span<const MAtom> Args;
};

/// One alternative of a switch: a constructor-tag pattern with one
/// binder per field, or an Int#/Double# literal pattern. The numeric
/// PatKind values are **stable on-disk tags** (see VarSort): bytecode
/// switch tables carry them.
struct MAlt {
  enum class PatKind : uint8_t {
    Con = 0, ///< CON Tag [Binders] → Body.
    Int = 1, ///< IntVal → Body.
    Dbl = 2  ///< DblVal → Body.
  };
  static constexpr unsigned NumPatKinds = 3;

  PatKind Pat = PatKind::Con;
  uint32_t Tag = 0;
  int64_t IntVal = 0;
  double DblVal = 0;
  std::span<const MVar> Binders; ///< Con: one per field, sorted like it.
  const Term *Body = nullptr;
};

/// switch t of { alt; …; _ → t_def } — evaluates the scrutinee, then
/// dispatches on its constructor tag or literal value (rules
/// SWITCH/SWITCHk). Default may be null when the constructor
/// alternatives are exhaustive.
class SwitchTerm : public Term {
public:
  SwitchTerm(const Term *Scrut, std::span<const MAlt> Alts,
             const Term *Default)
      : Term(TermKind::Switch), Scrut(Scrut), Alts(Alts),
        Default(Default) {}

  const Term *scrut() const { return Scrut; }
  std::span<const MAlt> alts() const { return Alts; }
  const Term *defaultBody() const { return Default; }

  static bool classof(const Term *T) {
    return T->kind() == TermKind::Switch;
  }

private:
  const Term *Scrut;
  std::span<const MAlt> Alts;
  const Term *Default;
};

template <typename To, typename From> bool isa(const From *Node) {
  return To::classof(Node);
}

template <typename To, typename From> const To *cast(const From *Node) {
  assert(isa<To>(Node) && "cast to incompatible node kind");
  return static_cast<const To *>(Node);
}

template <typename To, typename From> const To *dyn_cast(const From *Node) {
  return isa<To>(Node) ? static_cast<const To *>(Node) : nullptr;
}

/// Owns all M terms; the only way to make nodes.
class MContext {
public:
  MContext() = default;
  MContext(const MContext &) = delete;
  MContext &operator=(const MContext &) = delete;

  SymbolTable &symbols() { return Symbols; }

  /// Makes a fresh pointer variable (p0, p1, ...).
  MVar freshPtr() {
    return {Symbols.intern("p" + std::to_string(Counter++)), VarSort::Ptr};
  }
  /// Makes a fresh integer variable (i0, i1, ...).
  MVar freshInt() {
    return {Symbols.intern("i" + std::to_string(Counter++)), VarSort::Int};
  }
  /// Makes a fresh double variable (f0, f1, ...).
  MVar freshDbl() {
    return {Symbols.intern("f" + std::to_string(Counter++)), VarSort::Dbl};
  }
  /// Makes a fresh variable of the same sort as \p Like.
  MVar freshLike(MVar Like) {
    switch (Like.Sort) {
    case VarSort::Ptr:
      return freshPtr();
    case VarSort::Int:
      return freshInt();
    case VarSort::Dbl:
      return freshDbl();
    }
    return freshPtr();
  }

  const Term *appVar(const Term *Fn, MVar Arg) {
    return Mem.create<AppVarTerm>(Fn, Arg);
  }
  const Term *appLit(const Term *Fn, int64_t Lit) {
    return Mem.create<AppLitTerm>(Fn, Lit);
  }
  const Term *appDbl(const Term *Fn, double Lit) {
    return Mem.create<AppDblTerm>(Fn, Lit);
  }
  const Term *lam(MVar Param, const Term *Body) {
    return Mem.create<LamTerm>(Param, Body);
  }
  const Term *var(MVar V) { return Mem.create<VarTerm>(V); }
  const Term *let(MVar Binder, const Term *Rhs, const Term *Body) {
    return Mem.create<LetTerm>(Binder, Rhs, Body);
  }
  const Term *letBang(MVar Binder, const Term *Rhs, const Term *Body) {
    return Mem.create<LetBangTerm>(Binder, Rhs, Body);
  }
  const Term *letRec(MVar Binder, const Term *Rhs, const Term *Body) {
    return Mem.create<LetRecTerm>(Binder, Rhs, Body);
  }
  const Term *caseOf(const Term *Scrut, MVar Binder, const Term *Body) {
    return Mem.create<CaseTerm>(Scrut, Binder, Body);
  }
  const Term *if0(const Term *Scrut, const Term *Then, const Term *Else) {
    return Mem.create<If0Term>(Scrut, Then, Else);
  }
  const Term *error() { return Mem.create<ErrorTerm>(); }
  const Term *error(Symbol Msg) { return Mem.create<ErrorTerm>(Msg); }
  const Term *conVar(MVar V) { return Mem.create<ConVarTerm>(V); }
  const Term *conLit(int64_t Value) { return Mem.create<ConLitTerm>(Value); }
  /// CON Tag [Args...] — the n-ary tagged constructor node.
  const Term *con(uint32_t Tag, std::span<const MAtom> Args) {
    return Mem.create<ConTerm>(Tag, Mem.copyArray(Args));
  }
  /// switch Scrut of { Alts...; _ -> Default } (Default may be null
  /// when the alternatives are exhaustive). Alt binder arrays are
  /// copied into the arena.
  const Term *switchOf(const Term *Scrut, std::span<const MAlt> Alts,
                       const Term *Default) {
    std::vector<MAlt> Copied(Alts.begin(), Alts.end());
    for (MAlt &A : Copied)
      A.Binders = Mem.copyArray(A.Binders);
    return Mem.create<SwitchTerm>(Scrut, Mem.copyArray(Copied), Default);
  }
  const Term *lit(int64_t Value) { return Mem.create<LitTerm>(Value); }
  const Term *dlit(double Value) { return Mem.create<DLitTerm>(Value); }
  const Term *prim(MPrim Op, MAtom Lhs, MAtom Rhs) {
    return Mem.create<PrimTerm>(Op, Lhs, Rhs);
  }

  Arena &arena() { return Mem; }

  /// Rewinds this context to "empty" for reuse as a *run-scoped* term
  /// arena (driver::Executor keeps one MContext per executor and resets
  /// it between machine runs). Invalidates every Term allocated here —
  /// only call once nothing from the previous run is reachable (the
  /// driver copies result scalars/strings out of MachineResult first).
  ///
  /// The fresh-name counter restarts at 0, which is safe even though a
  /// compiled term (owned by a *different* MContext) may bind "p0" too:
  /// Symbol equality is per-table pointer identity, so a name interned
  /// in this context's table can never collide with one interned in the
  /// compile-time context's table. The SymbolTable itself is *not*
  /// reset: interned "p/i/fN" strings plateau at the widest run's name
  /// count and are reused verbatim by every later run.
  void resetRunState() {
    Mem.reset();
    Counter.store(0, std::memory_order_relaxed);
  }

private:
  Arena Mem;
  SymbolTable Symbols;
  /// Atomic: concurrent Machine runs share this name supply.
  std::atomic<uint64_t> Counter{0};
};

/// \returns true for values w ::= λy.t | I#[n] | n | d (Figure 5).
bool isValue(const Term *T);

/// Capture-avoiding t[By/Var]: the one substitution behind PPOP, IPOP
/// and DPOP, the LET/RECLET address binding, ILET/DLET, IMAT and SWITCHk.
/// \p By must have \p Var's register class: a variable of the same sort,
/// an `Int#` literal for an integer variable, or a `Double#` literal for a
/// double variable. The form of each rewritten occurrence follows \p By:
/// `y` becomes a variable or literal term, `I#[i]` becomes `I#[y']` or
/// `I#[n]`, `t y` becomes `t y'`, `t n` or `t d`, and primop and CON atoms
/// are replaced in place. A binder equal to \p Var stops the walk; a
/// binder equal to a variable \p By is freshened first. Unchanged
/// subtrees are shared.
const Term *subst(MContext &Ctx, const Term *T, MVar Var, MAtom By);

} // namespace mcalc
} // namespace levity

#endif // LEVITY_MCALC_SYNTAX_H
