//===- CoreContext.cpp - Ownership and factories for core IR --------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "core/CoreContext.h"
#include "core/Prelude.h"

using namespace levity;
using namespace levity::core;

CoreContext::CoreContext() : CoreContext(&Prelude::get().context()) {}

CoreContext::CoreContext(const CoreContext *Parent)
    : Parent(Parent), Symbols(Parent ? &Parent->Symbols : nullptr) {
  if (Parent) {
    // Share the frozen parent's built-in environment.
    Builtin = Parent->Builtin;
    return;
  }

  BuiltinEnv &B = Builtin;
  // Primitive unboxed tycons: Int# :: TYPE IntRep, etc.
  B.IntHashTC = makeTyCon(sym("Int#"), kindTYPE(intRep()), intRep());
  B.WordHashTC = makeTyCon(sym("Word#"), kindTYPE(wordRep()), wordRep());
  B.FloatHashTC = makeTyCon(sym("Float#"), kindTYPE(floatRep()), floatRep());
  B.DoubleHashTC =
      makeTyCon(sym("Double#"), kindTYPE(doubleRep()), doubleRep());
  // String: opaque, boxed, lifted (stands in for [Char]).
  B.StringTC = makeTyCon(sym("String"), typeKind(), liftedRep());

  // data Int = I# Int# — an ordinary algebraic data type (Section 2.1).
  TyCon *Int = makeTyCon(sym("Int"), typeKind(), liftedRep());
  B.IntTC = Int;
  B.IHashDC = makeDataCon(sym("I#"), Int, {}, {}, {conTy(B.IntHashTC)});

  // data Double = D# Double#.
  TyCon *Double = makeTyCon(sym("Double"), typeKind(), liftedRep());
  B.DoubleTC = Double;
  B.DHashDC = makeDataCon(sym("D#"), Double, {}, {}, {conTy(B.DoubleHashTC)});

  // data Bool = False | True.
  TyCon *Bool = makeTyCon(sym("Bool"), typeKind(), liftedRep());
  B.BoolTC = Bool;
  B.FalseDC = makeDataCon(sym("False"), Bool, {}, {}, {});
  B.TrueDC = makeDataCon(sym("True"), Bool, {}, {}, {});

  // data Unit = Unit.
  TyCon *Unit = makeTyCon(sym("Unit"), typeKind(), liftedRep());
  B.UnitTC = Unit;
  B.UnitDC = makeDataCon(sym("Unit"), Unit, {}, {}, {});

  // Materialize every lazily-cached singleton now, while the context is
  // still private to one thread: children copy them, and nothing may
  // write the prelude once it is shared.
  for (size_t I = 0; I <= size_t(RepCtor::Addr); ++I)
    (void)repAtom(RepCtor(I));
  (void)repKind();
  (void)errorType();
}

//===----------------------------------------------------------------------===//
// Reps
//===----------------------------------------------------------------------===//

const RepTy *CoreContext::repAtom(RepCtor Ctor) {
  assert(Ctor != RepCtor::Tuple && Ctor != RepCtor::Sum);
  size_t I = size_t(Ctor);
  if (!Builtin.RepAtoms[I])
    Builtin.RepAtoms[I] =
        Mem.create<RepTy>(RepTy(RepTy::Tag::Atom, Symbol(), 0, Ctor, {}));
  return Builtin.RepAtoms[I];
}

const RepTy *CoreContext::repVar(Symbol Name) {
  return Mem.create<RepTy>(
      RepTy(RepTy::Tag::Var, Name, 0, RepCtor::Lifted, {}));
}

const RepTy *CoreContext::repTuple(std::span<const RepTy *const> Elems) {
  return Mem.create<RepTy>(RepTy(RepTy::Tag::Tuple, Symbol(), 0,
                                 RepCtor::Tuple, Mem.copyArray(Elems)));
}

const RepTy *CoreContext::repSum(std::span<const RepTy *const> Elems) {
  return Mem.create<RepTy>(RepTy(RepTy::Tag::Sum, Symbol(), 0, RepCtor::Sum,
                                 Mem.copyArray(Elems)));
}

const Type *CoreContext::unboxedTupleTy(std::span<const Type *const> Elems) {
  // Intern the element array first: the node stores only a span, and the
  // caller's buffer is typically a local vector that dies with its scope.
  // The private constructor keeps this the sole construction path.
  std::span<const Type *const> Interned = Mem.copyArray(Elems);
  void *P = Mem.allocate(sizeof(UnboxedTupleType), alignof(UnboxedTupleType));
  return new (P) UnboxedTupleType(Interned);
}

const RepTy *CoreContext::freshRepMeta() {
  uint32_t Id = static_cast<uint32_t>(RepMetas.size());
  RepMetas.push_back({});
  return Mem.create<RepTy>(
      RepTy(RepTy::Tag::Meta, Symbol(), Id, RepCtor::Lifted, {}));
}

const RepTy *CoreContext::zonkRep(const RepTy *R) {
  switch (R->tag()) {
  case RepTy::Tag::Var:
  case RepTy::Tag::Atom:
    return R;
  case RepTy::Tag::Meta: {
    const RepMetaCell &Cell = RepMetas[R->metaId()];
    if (!Cell.Solution)
      return R;
    return zonkRep(Cell.Solution);
  }
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum: {
    std::vector<const RepTy *> Elems;
    bool Changed = false;
    for (const RepTy *E : R->elems()) {
      const RepTy *Z = zonkRep(E);
      Changed |= (Z != E);
      Elems.push_back(Z);
    }
    if (!Changed)
      return R;
    return R->tag() == RepTy::Tag::Tuple ? repTuple(Elems) : repSum(Elems);
  }
  }
  assert(false && "unknown rep tag");
  return R;
}

const Rep *CoreContext::concreteRep(const RepTy *R, RepContext &RC) {
  R = zonkRep(R);
  switch (R->tag()) {
  case RepTy::Tag::Var:
  case RepTy::Tag::Meta:
    return nullptr;
  case RepTy::Tag::Atom:
    return RC.atom(R->atom());
  case RepTy::Tag::Tuple:
  case RepTy::Tag::Sum: {
    std::vector<const Rep *> Elems;
    for (const RepTy *E : R->elems()) {
      const Rep *C = concreteRep(E, RC);
      if (!C)
        return nullptr;
      Elems.push_back(C);
    }
    return R->tag() == RepTy::Tag::Tuple ? RC.tuple(Elems) : RC.sum(Elems);
  }
  }
  assert(false && "unknown rep tag");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Kinds
//===----------------------------------------------------------------------===//

const Kind *CoreContext::kindTYPE(const RepTy *R) {
  return Mem.create<Kind>(Kind(Kind::Tag::TypeOf, R, nullptr, nullptr));
}

const Kind *CoreContext::repKind() {
  if (!Builtin.RepKindSingleton)
    Builtin.RepKindSingleton =
        Mem.create<Kind>(Kind(Kind::Tag::Rep, nullptr, nullptr, nullptr));
  return Builtin.RepKindSingleton;
}

const Kind *CoreContext::kindArrow(const Kind *Param, const Kind *Result) {
  return Mem.create<Kind>(Kind(Kind::Tag::Arrow, nullptr, Param, Result));
}

const Kind *CoreContext::zonkKind(const Kind *K) {
  switch (K->tag()) {
  case Kind::Tag::Rep:
    return K;
  case Kind::Tag::TypeOf: {
    const RepTy *Z = zonkRep(K->rep());
    return Z == K->rep() ? K : kindTYPE(Z);
  }
  case Kind::Tag::Arrow: {
    const Kind *P = zonkKind(K->param());
    const Kind *R = zonkKind(K->result());
    if (P == K->param() && R == K->result())
      return K;
    return kindArrow(P, R);
  }
  }
  assert(false && "unknown kind tag");
  return K;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

const Type *CoreContext::appTys(const Type *Fn,
                                std::span<const Type *const> Args) {
  const Type *T = Fn;
  for (const Type *A : Args)
    T = appTy(T, A);
  return T;
}

const Type *CoreContext::funTys(std::span<const Type *const> Params,
                                const Type *Res) {
  const Type *T = Res;
  for (size_t I = Params.size(); I != 0; --I)
    T = funTy(Params[I - 1], T);
  return T;
}

const Type *CoreContext::freshTypeMeta(const Kind *K) {
  uint32_t Id = static_cast<uint32_t>(TypeMetas.size());
  TypeMetas.push_back({nullptr, K});
  return Mem.create<MetaType>(Id);
}

const Type *CoreContext::zonkType(const Type *T) {
  switch (T->tag()) {
  case Type::Tag::Con:
    return T;
  case Type::Tag::Var: {
    const auto *V = cast<VarType>(T);
    const Kind *K = zonkKind(V->kind());
    return K == V->kind() ? T : varTy(V->name(), K);
  }
  case Type::Tag::Meta: {
    const TypeMetaCell &Cell = TypeMetas[cast<MetaType>(T)->id()];
    if (!Cell.Solution)
      return T;
    return zonkType(Cell.Solution);
  }
  case Type::Tag::App: {
    const auto *A = cast<AppType>(T);
    const Type *F = zonkType(A->fn());
    const Type *X = zonkType(A->arg());
    if (F == A->fn() && X == A->arg())
      return T;
    return appTy(F, X);
  }
  case Type::Tag::Fun: {
    const auto *F = cast<FunType>(T);
    const Type *P = zonkType(F->param());
    const Type *R = zonkType(F->result());
    if (P == F->param() && R == F->result())
      return T;
    return funTy(P, R);
  }
  case Type::Tag::ForAll: {
    const auto *F = cast<ForAllType>(T);
    const Kind *K = zonkKind(F->varKind());
    const Type *B = zonkType(F->body());
    if (K == F->varKind() && B == F->body())
      return T;
    return forAllTy(F->var(), K, B);
  }
  case Type::Tag::UnboxedTuple: {
    const auto *U = cast<UnboxedTupleType>(T);
    std::vector<const Type *> Elems;
    bool Changed = false;
    for (const Type *E : U->elems()) {
      const Type *Z = zonkType(E);
      Changed |= (Z != E);
      Elems.push_back(Z);
    }
    if (!Changed)
      return T;
    return unboxedTupleTy(Elems);
  }
  case Type::Tag::RepLift: {
    const auto *R = cast<RepLiftType>(T);
    const RepTy *Z = zonkRep(R->rep());
    return Z == R->rep() ? T : repLiftTy(Z);
  }
  }
  assert(false && "unknown type tag");
  return T;
}

//===----------------------------------------------------------------------===//
// TyCons / DataCons
//===----------------------------------------------------------------------===//

TyCon *CoreContext::makeTyCon(Symbol Name, const Kind *K,
                              const RepTy *ResultRep) {
  TyCons.push_back(std::make_unique<TyCon>(Name, K, ResultRep));
  return TyCons.back().get();
}

const DataCon *CoreContext::makeDataCon(Symbol Name, TyCon *Parent,
                                        std::vector<Symbol> Univs,
                                        std::vector<const Kind *> UnivKinds,
                                        std::vector<const Type *> Fields) {
  unsigned Tag = static_cast<unsigned>(Parent->dataCons().size());
  DataCons.push_back(std::make_unique<DataCon>(Name, Parent,
                                               std::move(Univs),
                                               std::move(UnivKinds),
                                               std::move(Fields), Tag));
  Parent->addDataCon(DataCons.back().get());
  return DataCons.back().get();
}

const TyCon *CoreContext::lookupTyCon(Symbol Name) const {
  if (Parent)
    if (const TyCon *TC = Parent->lookupTyCon(Name))
      return TC;
  for (const auto &TC : TyCons)
    if (TC->name() == Name)
      return TC.get();
  return nullptr;
}

const DataCon *CoreContext::lookupDataCon(Symbol Name) const {
  if (Parent)
    if (const DataCon *DC = Parent->lookupDataCon(Name))
      return DC;
  for (const auto &DC : DataCons)
    if (DC->name() == Name)
      return DC.get();
  return nullptr;
}

const Type *CoreContext::errorType() {
  if (Builtin.ErrorTypeCache)
    return Builtin.ErrorTypeCache;
  Symbol R = sym("r");
  Symbol A = sym("a");
  const Kind *KA = kindTYPE(repVar(R));
  Builtin.ErrorTypeCache = forAllTy(
      R, repKind(),
      forAllTy(A, KA, funTy(stringTy(), varTy(A, KA))));
  return Builtin.ErrorTypeCache;
}

//===----------------------------------------------------------------------===//
// Primop types
//===----------------------------------------------------------------------===//

const Type *CoreContext::primOpType(PrimOp Op) {
  const Type *IH = intHashTy();
  const Type *DH = doubleHashTy();
  switch (Op) {
  case PrimOp::AddI:
  case PrimOp::SubI:
  case PrimOp::MulI:
  case PrimOp::QuotI:
  case PrimOp::RemI:
    return funTy(IH, funTy(IH, IH));
  case PrimOp::NegI:
    return funTy(IH, IH);
  case PrimOp::LtI:
  case PrimOp::LeI:
  case PrimOp::GtI:
  case PrimOp::GeI:
  case PrimOp::EqI:
  case PrimOp::NeI:
    return funTy(IH, funTy(IH, IH));
  case PrimOp::AddD:
  case PrimOp::SubD:
  case PrimOp::MulD:
  case PrimOp::DivD:
    return funTy(DH, funTy(DH, DH));
  case PrimOp::NegD:
    return funTy(DH, DH);
  case PrimOp::LtD:
  case PrimOp::EqD:
    return funTy(DH, funTy(DH, IH));
  case PrimOp::Int2Double:
    return funTy(IH, DH);
  case PrimOp::Double2Int:
    return funTy(DH, IH);
  case PrimOp::IsTrue:
    return funTy(IH, boolTy());
  }
  assert(false && "unknown primop");
  return nullptr;
}

std::string_view core::primOpName(PrimOp Op) {
  switch (Op) {
  case PrimOp::AddI: return "+#";
  case PrimOp::SubI: return "-#";
  case PrimOp::MulI: return "*#";
  case PrimOp::QuotI: return "quotInt#";
  case PrimOp::RemI: return "remInt#";
  case PrimOp::NegI: return "negateInt#";
  case PrimOp::LtI: return "<#";
  case PrimOp::LeI: return "<=#";
  case PrimOp::GtI: return ">#";
  case PrimOp::GeI: return ">=#";
  case PrimOp::EqI: return "==#";
  case PrimOp::NeI: return "/=#";
  case PrimOp::AddD: return "+##";
  case PrimOp::SubD: return "-##";
  case PrimOp::MulD: return "*##";
  case PrimOp::DivD: return "/##";
  case PrimOp::NegD: return "negateDouble#";
  case PrimOp::LtD: return "<##";
  case PrimOp::EqD: return "==##";
  case PrimOp::Int2Double: return "int2Double#";
  case PrimOp::Double2Int: return "double2Int#";
  case PrimOp::IsTrue: return "isTrue#";
  }
  return "?";
}

unsigned core::primOpArity(PrimOp Op) {
  switch (Op) {
  case PrimOp::NegI:
  case PrimOp::NegD:
  case PrimOp::Int2Double:
  case PrimOp::Double2Int:
  case PrimOp::IsTrue:
    return 1;
  default:
    return 2;
  }
}
