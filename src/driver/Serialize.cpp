//===- Serialize.cpp - The versioned .levc artifact format ----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Implements the byte layout specified in docs/ARTIFACT_FORMAT.md: the
// container (header + section table + checksum trailer), the recursive
// M-term encoding over the stable mcalc tags, and the Compilation-level
// serializeArtifact / deserializeArtifact entry points. Every read path
// is defensive: a `.levc` file is untrusted input (another process, a
// partial copy, a bit flip), and the only acceptable failure mode is
// "treat as a miss".
//
//===----------------------------------------------------------------------===//

#include "driver/Serialize.h"
#include "driver/Session.h"
#include "support/Timing.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace levity;
using namespace levity::driver;
using namespace levity::driver::levc;
using support::millisSince;
using mcalc::MAtom;
using mcalc::MContext;
using mcalc::MVar;
using mcalc::Term;

//===----------------------------------------------------------------------===//
// Hashing and fingerprint
//===----------------------------------------------------------------------===//

uint64_t levc::fnv1a(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ull; // FNV offset basis
  for (char Ch : Bytes) {
    H ^= static_cast<unsigned char>(Ch);
    H *= 1099511628211ull; // FNV prime
  }
  return H;
}

uint64_t levc::pipelineFingerprint() {
  ByteWriter W;
  W.u32(FormatVersion);
  W.str(PipelineEpoch);
  W.u32(Term::NumTermKinds);
  W.u32(mcalc::NumMPrims);
  W.u32(mcalc::NumVarSorts);
  // The BCOD section encodes instructions by stable opcode tag; a new
  // opcode must invalidate stale stores.
  W.u32(bytecode::NumOps);
  return fnv1a(W.bytes());
}

//===----------------------------------------------------------------------===//
// ByteWriter / ByteReader
//===----------------------------------------------------------------------===//

void ByteWriter::u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }

void ByteWriter::u32(uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void ByteWriter::u64(uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void ByteWriter::i64(int64_t V) { u64(static_cast<uint64_t>(V)); }

void ByteWriter::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V));
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void ByteWriter::str(std::string_view S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.append(S.data(), S.size());
}

void ByteWriter::raw(std::string_view Bytes) {
  Buf.append(Bytes.data(), Bytes.size());
}

const unsigned char *ByteReader::take(size_t N) {
  if (Failed || Buf.size() - Pos < N) {
    Failed = true;
    return nullptr;
  }
  const unsigned char *P =
      reinterpret_cast<const unsigned char *>(Buf.data()) + Pos;
  Pos += N;
  return P;
}

uint8_t ByteReader::u8() {
  const unsigned char *P = take(1);
  return P ? *P : 0;
}

uint32_t ByteReader::u32() {
  const unsigned char *P = take(4);
  if (!P)
    return 0;
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t ByteReader::u64() {
  const unsigned char *P = take(8);
  if (!P)
    return 0;
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

int64_t ByteReader::i64() { return static_cast<int64_t>(u64()); }

double ByteReader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

std::string_view ByteReader::str() {
  uint32_t N = u32();
  const unsigned char *P = take(N);
  return P ? std::string_view(reinterpret_cast<const char *>(P), N)
           : std::string_view();
}

std::string_view ByteReader::raw(size_t N) {
  const unsigned char *P = take(N);
  return P ? std::string_view(reinterpret_cast<const char *>(P), N)
           : std::string_view();
}

//===----------------------------------------------------------------------===//
// M-term encoding
//===----------------------------------------------------------------------===//

namespace {

void writeVar(ByteWriter &W, MVar V) {
  W.str(V.Name.str());
  W.u8(static_cast<uint8_t>(V.Sort));
}

bool readVar(ByteReader &R, MContext &Ctx, MVar &Out) {
  std::string_view Name = R.str();
  uint8_t Sort = R.u8();
  if (!R.ok() || Sort >= mcalc::NumVarSorts) {
    R.fail();
    return false;
  }
  Out = MVar{Ctx.symbols().intern(Name), static_cast<mcalc::VarSort>(Sort)};
  return true;
}

void writeAtom(ByteWriter &W, MAtom A) {
  uint8_t Flags = (A.IsLit ? 1 : 0) | (A.IsDbl ? 2 : 0);
  W.u8(Flags);
  if (!A.IsLit)
    writeVar(W, A.Var);
  else if (A.IsDbl)
    W.f64(A.DblLit);
  else
    W.i64(A.Lit);
}

bool readAtom(ByteReader &R, MContext &Ctx, MAtom &Out) {
  uint8_t Flags = R.u8();
  if (!R.ok() || Flags > 3) {
    R.fail();
    return false;
  }
  bool IsLit = Flags & 1, IsDbl = Flags & 2;
  if (IsLit) {
    Out = IsDbl ? MAtom::dlit(R.f64()) : MAtom::lit(R.i64());
    return R.ok();
  }
  MVar V;
  if (!readVar(R, Ctx, V))
    return false;
  // Primop atoms live in unboxed registers, and the flag byte must agree
  // with the variable's sort (MAtom::var derives IsDbl from it).
  if (V.isPtr() || V.isDbl() != IsDbl) {
    R.fail();
    return false;
  }
  Out = MAtom::var(V);
  return true;
}

/// Like readAtom, but constructor fields may also name pointer
/// registers (heap references of boxed fields).
bool readConAtom(ByteReader &R, MContext &Ctx, MAtom &Out) {
  uint8_t Flags = R.u8();
  if (!R.ok() || Flags > 3) {
    R.fail();
    return false;
  }
  bool IsLit = Flags & 1, IsDbl = Flags & 2;
  if (IsLit) {
    Out = IsDbl ? MAtom::dlit(R.f64()) : MAtom::lit(R.i64());
    return R.ok();
  }
  MVar V;
  if (!readVar(R, Ctx, V))
    return false;
  if (V.isDbl() != IsDbl) {
    R.fail();
    return false;
  }
  Out = MAtom::anyVar(V);
  return true;
}

const Term *readTermRec(ByteReader &R, MContext &Ctx, unsigned Depth);

/// Decodes a subterm, failing the stream if absent.
const Term *readSub(ByteReader &R, MContext &Ctx, unsigned Depth) {
  const Term *T = readTermRec(R, Ctx, Depth + 1);
  if (!T)
    R.fail();
  return T;
}

const Term *readTermRec(ByteReader &R, MContext &Ctx, unsigned Depth) {
  if (Depth > MaxTermDepth) {
    R.fail();
    return nullptr;
  }
  uint8_t Tag = R.u8();
  if (!R.ok() || Tag >= Term::NumTermKinds) {
    R.fail();
    return nullptr;
  }
  switch (static_cast<Term::TermKind>(Tag)) {
  case Term::TermKind::AppVar: {
    const Term *Fn = readSub(R, Ctx, Depth);
    MVar Arg;
    if (!Fn || !readVar(R, Ctx, Arg))
      return nullptr;
    return Ctx.appVar(Fn, Arg);
  }
  case Term::TermKind::AppLit: {
    const Term *Fn = readSub(R, Ctx, Depth);
    int64_t Lit = R.i64();
    return Fn && R.ok() ? Ctx.appLit(Fn, Lit) : nullptr;
  }
  case Term::TermKind::AppDbl: {
    const Term *Fn = readSub(R, Ctx, Depth);
    double Lit = R.f64();
    return Fn && R.ok() ? Ctx.appDbl(Fn, Lit) : nullptr;
  }
  case Term::TermKind::Lam: {
    MVar Param;
    if (!readVar(R, Ctx, Param))
      return nullptr;
    const Term *Body = readSub(R, Ctx, Depth);
    return Body ? Ctx.lam(Param, Body) : nullptr;
  }
  case Term::TermKind::Var: {
    MVar V;
    return readVar(R, Ctx, V) ? Ctx.var(V) : nullptr;
  }
  case Term::TermKind::Let:
  case Term::TermKind::LetBang:
  case Term::TermKind::LetRec: {
    MVar Binder;
    if (!readVar(R, Ctx, Binder))
      return nullptr;
    // Lazy let and letrec bind heap pointers by construction; enforce it
    // here so corrupt input cannot build nodes the machine rules (LET,
    // RECLET) would misinterpret.
    if (Tag != static_cast<uint8_t>(Term::TermKind::LetBang) &&
        !Binder.isPtr()) {
      R.fail();
      return nullptr;
    }
    const Term *Rhs = readSub(R, Ctx, Depth);
    const Term *Body = Rhs ? readSub(R, Ctx, Depth) : nullptr;
    if (!Body)
      return nullptr;
    if (Tag == static_cast<uint8_t>(Term::TermKind::Let))
      return Ctx.let(Binder, Rhs, Body);
    if (Tag == static_cast<uint8_t>(Term::TermKind::LetBang))
      return Ctx.letBang(Binder, Rhs, Body);
    return Ctx.letRec(Binder, Rhs, Body);
  }
  case Term::TermKind::Case: {
    const Term *Scrut = readSub(R, Ctx, Depth);
    MVar Binder;
    if (!Scrut || !readVar(R, Ctx, Binder))
      return nullptr;
    const Term *Body = readSub(R, Ctx, Depth);
    return Body ? Ctx.caseOf(Scrut, Binder, Body) : nullptr;
  }
  case Term::TermKind::If0: {
    const Term *Scrut = readSub(R, Ctx, Depth);
    const Term *Then = Scrut ? readSub(R, Ctx, Depth) : nullptr;
    const Term *Else = Then ? readSub(R, Ctx, Depth) : nullptr;
    return Else ? Ctx.if0(Scrut, Then, Else) : nullptr;
  }
  case Term::TermKind::Error: {
    uint8_t HasMsg = R.u8();
    if (!R.ok() || HasMsg > 1) {
      R.fail();
      return nullptr;
    }
    if (!HasMsg)
      return Ctx.error();
    std::string_view Msg = R.str();
    return R.ok() ? Ctx.error(Ctx.symbols().intern(Msg)) : nullptr;
  }
  case Term::TermKind::ConVar: {
    MVar V;
    return readVar(R, Ctx, V) ? Ctx.conVar(V) : nullptr;
  }
  case Term::TermKind::ConLit: {
    int64_t V = R.i64();
    return R.ok() ? Ctx.conLit(V) : nullptr;
  }
  case Term::TermKind::Lit: {
    int64_t V = R.i64();
    return R.ok() ? Ctx.lit(V) : nullptr;
  }
  case Term::TermKind::DLit: {
    double V = R.f64();
    return R.ok() ? Ctx.dlit(V) : nullptr;
  }
  case Term::TermKind::Prim: {
    uint8_t Op = R.u8();
    if (!R.ok() || Op >= mcalc::NumMPrims) {
      R.fail();
      return nullptr;
    }
    MAtom Lhs, Rhs;
    if (!readAtom(R, Ctx, Lhs) || !readAtom(R, Ctx, Rhs))
      return nullptr;
    return Ctx.prim(static_cast<mcalc::MPrim>(Op), Lhs, Rhs);
  }
  case Term::TermKind::Con: {
    uint32_t Tag = R.u32();
    uint32_t N = R.u32();
    if (!R.ok() || N > MaxConFields) {
      R.fail();
      return nullptr;
    }
    std::vector<MAtom> Args(N);
    for (uint32_t I = 0; I != N; ++I)
      if (!readConAtom(R, Ctx, Args[I]))
        return nullptr;
    return Ctx.con(Tag, Args);
  }
  case Term::TermKind::Switch: {
    const Term *Scrut = readSub(R, Ctx, Depth);
    uint32_t NAlts = R.u32();
    if (!Scrut || !R.ok() || NAlts > MaxSwitchAlts) {
      R.fail();
      return nullptr;
    }
    std::vector<mcalc::MAlt> Alts(NAlts);
    std::vector<std::vector<MVar>> Binders(NAlts);
    for (uint32_t I = 0; I != NAlts; ++I) {
      uint8_t Pat = R.u8();
      if (!R.ok() || Pat >= mcalc::MAlt::NumPatKinds) {
        R.fail();
        return nullptr;
      }
      mcalc::MAlt &A = Alts[I];
      A.Pat = static_cast<mcalc::MAlt::PatKind>(Pat);
      switch (A.Pat) {
      case mcalc::MAlt::PatKind::Con: {
        A.Tag = R.u32();
        uint32_t NBinders = R.u32();
        if (!R.ok() || NBinders > MaxConFields) {
          R.fail();
          return nullptr;
        }
        Binders[I].resize(NBinders);
        for (uint32_t B = 0; B != NBinders; ++B)
          if (!readVar(R, Ctx, Binders[I][B]))
            return nullptr;
        A.Binders =
            std::span<const MVar>(Binders[I].data(), Binders[I].size());
        break;
      }
      case mcalc::MAlt::PatKind::Int:
        A.IntVal = R.i64();
        break;
      case mcalc::MAlt::PatKind::Dbl:
        A.DblVal = R.f64();
        break;
      }
      A.Body = readSub(R, Ctx, Depth);
      if (!A.Body)
        return nullptr;
    }
    uint8_t HasDefault = R.u8();
    if (!R.ok() || HasDefault > 1) {
      R.fail();
      return nullptr;
    }
    const Term *Default = nullptr;
    if (HasDefault) {
      Default = readSub(R, Ctx, Depth);
      if (!Default)
        return nullptr;
    }
    return Ctx.switchOf(Scrut, Alts, Default);
  }
  }
  R.fail();
  return nullptr;
}

} // namespace

void levc::writeTerm(ByteWriter &W, const Term *T) {
  W.u8(static_cast<uint8_t>(T->kind()));
  switch (T->kind()) {
  case Term::TermKind::AppVar: {
    const auto *N = mcalc::cast<mcalc::AppVarTerm>(T);
    writeTerm(W, N->fn());
    writeVar(W, N->arg());
    return;
  }
  case Term::TermKind::AppLit: {
    const auto *N = mcalc::cast<mcalc::AppLitTerm>(T);
    writeTerm(W, N->fn());
    W.i64(N->lit());
    return;
  }
  case Term::TermKind::AppDbl: {
    const auto *N = mcalc::cast<mcalc::AppDblTerm>(T);
    writeTerm(W, N->fn());
    W.f64(N->lit());
    return;
  }
  case Term::TermKind::Lam: {
    const auto *N = mcalc::cast<mcalc::LamTerm>(T);
    writeVar(W, N->param());
    writeTerm(W, N->body());
    return;
  }
  case Term::TermKind::Var:
    writeVar(W, mcalc::cast<mcalc::VarTerm>(T)->var());
    return;
  case Term::TermKind::Let: {
    const auto *N = mcalc::cast<mcalc::LetTerm>(T);
    writeVar(W, N->binder());
    writeTerm(W, N->rhs());
    writeTerm(W, N->body());
    return;
  }
  case Term::TermKind::LetBang: {
    const auto *N = mcalc::cast<mcalc::LetBangTerm>(T);
    writeVar(W, N->binder());
    writeTerm(W, N->rhs());
    writeTerm(W, N->body());
    return;
  }
  case Term::TermKind::LetRec: {
    const auto *N = mcalc::cast<mcalc::LetRecTerm>(T);
    writeVar(W, N->binder());
    writeTerm(W, N->rhs());
    writeTerm(W, N->body());
    return;
  }
  case Term::TermKind::Case: {
    const auto *N = mcalc::cast<mcalc::CaseTerm>(T);
    writeTerm(W, N->scrut());
    writeVar(W, N->binder());
    writeTerm(W, N->body());
    return;
  }
  case Term::TermKind::If0: {
    const auto *N = mcalc::cast<mcalc::If0Term>(T);
    writeTerm(W, N->scrut());
    writeTerm(W, N->thenBranch());
    writeTerm(W, N->elseBranch());
    return;
  }
  case Term::TermKind::Error: {
    const auto *N = mcalc::cast<mcalc::ErrorTerm>(T);
    W.u8(N->message().valid() ? 1 : 0);
    if (N->message().valid())
      W.str(N->message().str());
    return;
  }
  case Term::TermKind::ConVar:
    writeVar(W, mcalc::cast<mcalc::ConVarTerm>(T)->var());
    return;
  case Term::TermKind::ConLit:
    W.i64(mcalc::cast<mcalc::ConLitTerm>(T)->value());
    return;
  case Term::TermKind::Lit:
    W.i64(mcalc::cast<mcalc::LitTerm>(T)->value());
    return;
  case Term::TermKind::DLit:
    W.f64(mcalc::cast<mcalc::DLitTerm>(T)->value());
    return;
  case Term::TermKind::Prim: {
    const auto *N = mcalc::cast<mcalc::PrimTerm>(T);
    W.u8(static_cast<uint8_t>(N->op()));
    writeAtom(W, N->lhs());
    writeAtom(W, N->rhs());
    return;
  }
  case Term::TermKind::Con: {
    const auto *N = mcalc::cast<mcalc::ConTerm>(T);
    W.u32(N->tag());
    W.u32(static_cast<uint32_t>(N->args().size()));
    for (const MAtom &A : N->args())
      writeAtom(W, A);
    return;
  }
  case Term::TermKind::Switch: {
    const auto *N = mcalc::cast<mcalc::SwitchTerm>(T);
    writeTerm(W, N->scrut());
    W.u32(static_cast<uint32_t>(N->alts().size()));
    for (const mcalc::MAlt &A : N->alts()) {
      W.u8(static_cast<uint8_t>(A.Pat));
      switch (A.Pat) {
      case mcalc::MAlt::PatKind::Con:
        W.u32(A.Tag);
        W.u32(static_cast<uint32_t>(A.Binders.size()));
        for (MVar B : A.Binders)
          writeVar(W, B);
        break;
      case mcalc::MAlt::PatKind::Int:
        W.i64(A.IntVal);
        break;
      case mcalc::MAlt::PatKind::Dbl:
        W.f64(A.DblVal);
        break;
      }
      writeTerm(W, A.Body);
    }
    W.u8(N->defaultBody() ? 1 : 0);
    if (N->defaultBody())
      writeTerm(W, N->defaultBody());
    return;
  }
  }
}

const Term *levc::readTerm(ByteReader &R, MContext &Ctx) {
  return readTermRec(R, Ctx, 0);
}

//===----------------------------------------------------------------------===//
// Bytecode-module encoding — the optional BCOD section
//===----------------------------------------------------------------------===//

void levc::writeBytecodeModule(ByteWriter &W, const bytecode::Module &M) {
  W.u32(static_cast<uint32_t>(M.Protos.size()));
  for (const bytecode::Proto &P : M.Protos) {
    W.u32(P.Entry);
    W.u32(P.End);
    W.u32(P.NumLocals);
    W.u32(static_cast<uint32_t>(P.ParamSorts.size()));
    for (uint8_t S : P.ParamSorts)
      W.u8(S);
    W.u32(static_cast<uint32_t>(P.Caps.size()));
    for (const bytecode::Capture &C : P.Caps) {
      W.u32(C.Src);
      W.u8(C.Sort);
    }
  }
  W.u32(static_cast<uint32_t>(M.Code.size()));
  for (const bytecode::Instr &I : M.Code) {
    W.u8(static_cast<uint8_t>(I.Code));
    W.u8(I.A);
    W.u32(I.B);
    W.u32(static_cast<uint32_t>(I.C));
  }
  W.u32(static_cast<uint32_t>(M.IntPool.size()));
  for (int64_t V : M.IntPool)
    W.i64(V);
  W.u32(static_cast<uint32_t>(M.DblPool.size()));
  for (double V : M.DblPool)
    W.f64(V);
  W.u32(static_cast<uint32_t>(M.StrPool.size()));
  for (const std::string &S : M.StrPool)
    W.str(S);
  W.u32(static_cast<uint32_t>(M.Tables.size()));
  for (const bytecode::SwitchTable &T : M.Tables) {
    W.i64(T.DefaultTarget);
    W.u32(static_cast<uint32_t>(T.Alts.size()));
    for (const bytecode::SwitchAlt &A : T.Alts) {
      W.u8(A.Pat);
      W.u32(A.Tag);
      W.i64(A.IntVal);
      W.f64(A.DblVal);
      W.u32(A.Target);
      W.u32(A.BindersBase);
      W.u32(static_cast<uint32_t>(A.BinderSorts.size()));
      for (uint8_t S : A.BinderSorts)
        W.u8(S);
    }
  }
}

std::shared_ptr<const bytecode::Module>
levc::readBytecodeModule(ByteReader &R) {
  auto M = std::make_shared<bytecode::Module>();

  uint32_t NumProtos = R.u32();
  if (!R.ok() || NumProtos > MaxBcProtos) {
    R.fail();
    return nullptr;
  }
  M->Protos.reserve(NumProtos);
  for (uint32_t I = 0; I != NumProtos; ++I) {
    bytecode::Proto P;
    P.Entry = R.u32();
    P.End = R.u32();
    uint32_t NumLocals = R.u32();
    uint32_t NumParams = R.u32();
    if (!R.ok() || NumParams > bytecode::MaxFrameSlots) {
      R.fail();
      return nullptr;
    }
    P.ParamSorts.reserve(NumParams);
    for (uint32_t J = 0; J != NumParams; ++J)
      P.ParamSorts.push_back(R.u8());
    uint32_t NumCaps = R.u32();
    if (!R.ok() || NumLocals > bytecode::MaxFrameSlots ||
        NumCaps > bytecode::MaxFrameSlots) {
      R.fail();
      return nullptr;
    }
    P.NumLocals = static_cast<uint16_t>(NumLocals);
    P.Caps.reserve(NumCaps);
    for (uint32_t J = 0; J != NumCaps; ++J) {
      bytecode::Capture C;
      uint32_t Src = R.u32();
      C.Sort = R.u8();
      if (!R.ok() || Src > bytecode::MaxFrameSlots) {
        R.fail();
        return nullptr;
      }
      C.Src = static_cast<uint16_t>(Src);
      P.Caps.push_back(C);
    }
    M->Protos.push_back(std::move(P));
  }

  uint32_t CodeLen = R.u32();
  if (!R.ok() || CodeLen > MaxBcCode) {
    R.fail();
    return nullptr;
  }
  M->Code.reserve(CodeLen);
  for (uint32_t I = 0; I != CodeLen; ++I) {
    bytecode::Instr In;
    In.Code = static_cast<bytecode::Op>(R.u8());
    In.A = R.u8();
    uint32_t B = R.u32();
    In.C = static_cast<int32_t>(R.u32());
    if (!R.ok() || B > 0xffff) {
      R.fail();
      return nullptr;
    }
    In.B = static_cast<uint16_t>(B);
    M->Code.push_back(In);
  }

  auto ReadCount = [&R](uint32_t Cap) -> uint32_t {
    uint32_t N = R.u32();
    if (!R.ok() || N > Cap) {
      R.fail();
      return 0;
    }
    return N;
  };
  uint32_t NumInts = ReadCount(MaxBcPool);
  M->IntPool.reserve(NumInts);
  for (uint32_t I = 0; R.ok() && I != NumInts; ++I)
    M->IntPool.push_back(R.i64());
  uint32_t NumDbls = ReadCount(MaxBcPool);
  M->DblPool.reserve(NumDbls);
  for (uint32_t I = 0; R.ok() && I != NumDbls; ++I)
    M->DblPool.push_back(R.f64());
  uint32_t NumStrs = ReadCount(MaxBcPool);
  M->StrPool.reserve(NumStrs);
  for (uint32_t I = 0; R.ok() && I != NumStrs; ++I)
    M->StrPool.emplace_back(R.str());

  uint32_t NumTables = ReadCount(MaxBcPool);
  M->Tables.reserve(NumTables);
  for (uint32_t I = 0; R.ok() && I != NumTables; ++I) {
    bytecode::SwitchTable T;
    T.DefaultTarget = R.i64();
    uint32_t NumAlts = ReadCount(MaxSwitchAlts);
    T.Alts.reserve(NumAlts);
    for (uint32_t J = 0; R.ok() && J != NumAlts; ++J) {
      bytecode::SwitchAlt A;
      A.Pat = R.u8();
      A.Tag = R.u32();
      A.IntVal = R.i64();
      A.DblVal = R.f64();
      A.Target = R.u32();
      uint32_t Base = R.u32();
      uint32_t NumSorts = R.u32();
      if (!R.ok() || Base > bytecode::MaxFrameSlots ||
          NumSorts > bytecode::MaxFrameSlots) {
        R.fail();
        return nullptr;
      }
      A.BindersBase = static_cast<uint16_t>(Base);
      A.BinderSorts.reserve(NumSorts);
      for (uint32_t K = 0; K != NumSorts; ++K)
        A.BinderSorts.push_back(R.u8());
      T.Alts.push_back(std::move(A));
    }
    M->Tables.push_back(std::move(T));
  }
  if (!R.ok())
    return nullptr;

  // The VM trusts the verifier, never the wire: a module that fails
  // validation is malformed input, exactly like a truncated one.
  if (!bytecode::validate(*M)) {
    R.fail();
    return nullptr;
  }
  // Dense switch dispatch is derived data — never serialized, rebuilt
  // after the decoded module has been proven well-formed.
  bytecode::buildDispatchTables(*M);
  return M;
}

//===----------------------------------------------------------------------===//
// Compilation::serializeArtifact
//===----------------------------------------------------------------------===//


Result<std::string> Compilation::serializeArtifact() const {
  if (!Succeeded)
    return err("cannot serialize a failed compilation");
  if (FormalTerm)
    return err("formal compilations are not serializable");
  if (SrcHash == 0)
    return err("programmatic compilations are not serializable "
               "(no source to key the store by)");

  // The artifact's value is making a cold process lowering-free, so
  // force the M lowering of every top-level binding now (memoized, so
  // repeated serializations are cheap). Failures are kept verbatim:
  // out-of-fragment globals must replay the same pinned diagnostics.
  std::vector<std::string> Names;
  if (!Hydrated && Elaborated) {
    for (const core::TopBinding &B : Elaborated->Program.Bindings)
      Names.push_back(std::string(B.Name.str()));
  } else {
    MachinePipeline &MP = machine();
    std::shared_lock<std::shared_mutex> Lock(MP.LowerMutex);
    for (const auto &KV : MP.MTerms)
      Names.push_back(KV.first);
  }
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());

  ByteWriter Terms;
  Terms.u32(static_cast<uint32_t>(Names.size()));
  for (const std::string &Name : Names) {
    Result<const Term *> T = machineTerm(Name);
    Terms.str(Name);
    Terms.u8(T.ok() ? 1 : 0);
    if (T.ok())
      writeTerm(Terms, *T);
    else
      Terms.str(T.error());
  }

  ByteWriter Types;
  Types.u32(static_cast<uint32_t>(Names.size()));
  for (const std::string &Name : Names) {
    Types.str(Name);
    Types.str(globalTypeText(Name));
  }

  // The optional BCOD section: compiled bytecode, so warm-store
  // Backend::Bytecode runs skip even the bytecode compiler. Bytecode
  // sessions force every global's compilation now (mirroring the M
  // lowering above); other sessions persist only modules this process
  // already compiled — serializing must not charge tree/machine-only
  // sessions for a backend they never use. Globals outside the bytecode
  // fragment are simply absent (hydrated consumers recompile lazily from
  // the restored M terms and fall back to the machine as usual); the
  // section is omitted when nothing compiled.
  ByteWriter Bc;
  uint32_t NumBc = 0;
  {
    ByteWriter Mods;
    if (Opts.DefaultBackend == Backend::Bytecode) {
      for (const std::string &Name : Names) {
        Result<const bytecode::Module *> Mod = bytecodeModule(Name);
        if (!Mod)
          continue;
        Mods.str(Name);
        levc::writeBytecodeModule(Mods, **Mod);
        ++NumBc;
      }
    } else {
      MachinePipeline &MP = machine();
      std::shared_lock<std::shared_mutex> Lock(MP.LowerMutex);
      for (const std::string &Name : Names) {
        auto It = MP.BModules.find(Name);
        if (It == MP.BModules.end() || !It->second)
          continue;
        Mods.str(Name);
        levc::writeBytecodeModule(Mods, *It->second->get());
        ++NumBc;
      }
    }
    Bc.u32(NumBc);
    Bc.raw(Mods.bytes());
  }

  ByteWriter Meta;
  Meta.u8(static_cast<uint8_t>(Opts.DefaultBackend));
  Meta.u32(static_cast<uint32_t>(Timings.size()));
  for (const StageTiming &T : Timings) {
    Meta.str(T.Stage);
    Meta.f64(T.Millis);
  }
  // The original context's fresh-name counter: hydrating contexts
  // reserve past it so runtime-minted heap addresses can never collide
  // with a stored binder name.
  Meta.u64(machine().MC.nameCounter());

  ByteWriter W;
  W.raw(std::string_view(levc::Magic, sizeof(levc::Magic)));
  W.u32(levc::FormatVersion);
  W.u64(levc::pipelineFingerprint());
  W.u64(SrcHash);
  W.u32(4 + (NumBc ? 1 : 0)); // section count
  auto Section = [&W](uint32_t Id, const std::string &Payload) {
    W.u32(Id);
    W.u64(Payload.size());
    W.raw(Payload);
  };
  Section(levc::SecSource, Source);
  Section(levc::SecMeta, Meta.bytes());
  Section(levc::SecTypes, Types.bytes());
  Section(levc::SecTerms, Terms.bytes());
  if (NumBc)
    Section(levc::SecBytecode, Bc.bytes());
  W.u64(levc::fnv1a(W.bytes())); // trailer checksum
  return W.take();
}

//===----------------------------------------------------------------------===//
// Compilation::deserializeArtifact
//===----------------------------------------------------------------------===//

std::shared_ptr<Compilation>
Compilation::deserializeArtifact(std::string_view Bytes,
                                 std::string_view ExpectedSource,
                                 const CompileOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();

  // Container validation: size, checksum, magic, versions. Any failure
  // is a miss — never an error the caller must handle.
  constexpr size_t MinSize = 4 + 4 + 8 + 8 + 4 + 8;
  if (Bytes.size() < MinSize)
    return nullptr;
  ByteReader Trailer(Bytes.substr(Bytes.size() - 8));
  if (levc::fnv1a(Bytes.substr(0, Bytes.size() - 8)) != Trailer.u64())
    return nullptr;

  ByteReader R(Bytes.substr(0, Bytes.size() - 8));
  if (R.raw(4) != std::string_view(levc::Magic, sizeof(levc::Magic)))
    return nullptr;
  if (R.u32() != levc::FormatVersion)
    return nullptr;
  if (R.u64() != levc::pipelineFingerprint())
    return nullptr;
  uint64_t Hash = R.u64();
  if (Hash != Session::hashSource(ExpectedSource))
    return nullptr;

  std::string_view Src, Meta, Types, Terms, Bc;
  uint32_t NumSections = R.u32();
  if (!R.ok() || NumSections > 64)
    return nullptr;
  for (uint32_t I = 0; I != NumSections; ++I) {
    uint32_t Id = R.u32();
    uint64_t Len = R.u64();
    std::string_view Payload = R.raw(Len);
    if (!R.ok())
      return nullptr;
    switch (Id) {
    case levc::SecSource: Src = Payload; break;
    case levc::SecMeta: Meta = Payload; break;
    case levc::SecTypes: Types = Payload; break;
    case levc::SecTerms: Terms = Payload; break;
    case levc::SecBytecode: Bc = Payload; break;
    default: break; // Unknown sections: skip (forward compatibility).
    }
  }
  // The source must match byte-for-byte: the hash is only the address,
  // exact compare is the identity (same contract as the memory cache).
  if (Src != ExpectedSource || Meta.empty() || Terms.empty())
    return nullptr;

  auto Comp = std::shared_ptr<Compilation>(new Compilation(Opts));
  Comp->Source.assign(ExpectedSource);
  Comp->SrcHash = Hash;
  Comp->Hydrated = true;
  MachinePipeline &MP = Comp->machine();

  ByteReader MetaR(Meta);
  MetaR.u8(); // Original default backend: advisory metadata only.
  uint32_t NumTimings = MetaR.u32();
  if (!MetaR.ok() || NumTimings > 1024)
    return nullptr;
  for (uint32_t I = 0; I != NumTimings; ++I) {
    std::string Stage(MetaR.str());
    double Millis = MetaR.f64();
    if (!MetaR.ok())
      return nullptr;
    Comp->Timings.push_back({std::move(Stage), Millis});
  }
  MP.MC.reserveNames(MetaR.u64());
  if (!MetaR.ok())
    return nullptr;

  ByteReader TypesR(Types);
  uint32_t NumTypes = TypesR.u32();
  for (uint32_t I = 0; TypesR.ok() && I != NumTypes; ++I) {
    std::string Name(TypesR.str());
    std::string Text(TypesR.str());
    if (TypesR.ok())
      Comp->HydratedTypes.emplace(std::move(Name), std::move(Text));
  }
  if (!TypesR.ok())
    return nullptr;

  ByteReader TermsR(Terms);
  uint32_t NumTerms = TermsR.u32();
  if (!TermsR.ok())
    return nullptr;
  for (uint32_t I = 0; I != NumTerms; ++I) {
    std::string Name(TermsR.str());
    uint8_t Ok = TermsR.u8();
    if (!TermsR.ok() || Ok > 1)
      return nullptr;
    if (Ok) {
      const Term *T = levc::readTerm(TermsR, MP.MC);
      if (!T)
        return nullptr;
      MP.MTerms.emplace(std::move(Name), Result<const Term *>(T));
    } else {
      std::string Error(TermsR.str());
      if (!TermsR.ok())
        return nullptr;
      MP.MTerms.emplace(std::move(Name),
                        Result<const Term *>(err(std::move(Error))));
    }
  }

  // The optional BCOD section: pre-populate the bytecode-module memo so
  // Bytecode-backend runs skip even the bytecode compiler. All-or-
  // nothing: decode into a staging list first, and ignore the whole
  // section on any malformed module (readBytecodeModule re-validates
  // every module, so a corrupt payload can never reach the VM) —
  // Backend::Bytecode then lazily recompiles from the restored M terms.
  if (!Bc.empty()) {
    ByteReader BcR(Bc);
    uint32_t NumMods = BcR.u32();
    bool BcOk = BcR.ok() && NumMods <= MP.MTerms.size();
    std::vector<
        std::pair<std::string, std::shared_ptr<const bytecode::Module>>>
        Staged;
    for (uint32_t I = 0; BcOk && I != NumMods; ++I) {
      std::string Name(BcR.str());
      std::shared_ptr<const bytecode::Module> M =
          levc::readBytecodeModule(BcR);
      if (!BcR.ok() || !M) {
        BcOk = false;
        break;
      }
      Staged.emplace_back(std::move(Name), std::move(M));
    }
    if (BcOk && NumMods > 0) {
      for (auto &KV : Staged)
        MP.BModules.emplace(
            std::move(KV.first),
            Result<std::shared_ptr<const bytecode::Module>>(
                std::move(KV.second)));
      Comp->HydratedBytecode = true;
    }
  }

  Comp->Timings.push_back({"hydrate", millisSince(Start)});
  Comp->Succeeded = true;
  return Comp;
}
