//===- Serialize.cpp - The versioned .levc artifact format ----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Implements the byte layout specified in docs/ARTIFACT_FORMAT.md: the
// container (header + section table + checksum trailer), the bytecode
// module encoding over the stable bytecode tags, and the Compilation-level
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
  // BCOD operands carry primop, register-sort and opcode tags; a new one
  // of any must invalidate stale stores.
  W.u32(mcalc::NumMPrims);
  W.u32(mcalc::NumVarSorts);
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
// Bytecode-module encoding — the BCOD section
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
  W.u32(static_cast<uint32_t>(M.Globals.size()));
  for (const bytecode::Global &G : M.Globals) {
    W.u32(G.Run);
    W.u32(G.Cell);
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
  uint32_t NumGlobals = ReadCount(MaxBcProtos);
  M->Globals.resize(NumGlobals);
  for (bytecode::Global &G : M->Globals) {
    G.Run = R.u32();
    G.Cell = R.u32();
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
  if (SrcHash == 0)
    return err("programmatic compilations are not serializable "
               "(no source to key the store by)");
  if (Hydrated)
    return err("hydrated compilations are not serializable "
               "(their artifact is already in the store)");

  // TYPE lists every top-level binding, the prelude's included, so a
  // hydrated globalTypeText answers exactly as this one does.
  auto SortUnique = [](std::vector<std::string> &Names) {
    std::sort(Names.begin(), Names.end());
    Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  };
  std::vector<std::string> All;
  for (const core::TopBinding &B : Elaborated->Program.Bindings)
    All.emplace_back(B.Name.str());
  SortUnique(All);

  ByteWriter Types;
  Types.u32(static_cast<uint32_t>(All.size()));
  for (const std::string &Name : All) {
    Types.str(Name);
    Types.str(globalTypeText(Name));
  }

  // BCOD: the program's one module, then its entry table (name → module
  // global, or the refusal's diagnostic) sorted by name, whatever the
  // session's default backend — the VM is the production engine.
  const VmProgram &Vm = vmProgram();
  ByteWriter Bc;
  Bc.u8(Vm.Module ? 1 : 0);
  if (Vm.Module)
    levc::writeBytecodeModule(Bc, *Vm.Module);
  Bc.u32(static_cast<uint32_t>(Vm.Entries.size()));
  for (const auto &[Name, Entry] : Vm.Entries) {
    Bc.str(Name);
    Bc.str(Entry ? std::string() : Entry.error());
    Bc.u32(Entry ? *Entry : 0);
  }

  ByteWriter Meta;
  Meta.u32(static_cast<uint32_t>(Timings.size()));
  for (const StageTiming &T : Timings) {
    Meta.str(T.Stage);
    Meta.f64(T.Millis);
  }

  ByteWriter W;
  W.raw(std::string_view(levc::Magic, sizeof(levc::Magic)));
  W.u32(levc::FormatVersion);
  W.u64(levc::pipelineFingerprint());
  W.u64(SrcHash);
  W.u32(4); // section count
  auto Section = [&W](uint32_t Id, const std::string &Payload) {
    W.u32(Id);
    W.u64(Payload.size());
    W.raw(Payload);
  };
  Section(levc::SecSource, Source);
  Section(levc::SecMeta, Meta.bytes());
  Section(levc::SecTypes, Types.bytes());
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

  std::string_view Src, Meta, Types, Bc;
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
    case levc::SecBytecode: Bc = Payload; break;
    default: break; // Unknown sections: skip (forward compatibility).
    }
  }
  // The source must match byte-for-byte: the hash is only the address,
  // exact compare is the identity (same contract as the memory cache).
  // Every written section carries at least a count, so an empty view is
  // a missing section.
  if (Src != ExpectedSource || Meta.empty() || Types.empty() || Bc.empty())
    return nullptr;

  auto Comp = std::shared_ptr<Compilation>(new Compilation(Opts));
  Comp->Source.assign(ExpectedSource);
  Comp->SrcHash = Hash;
  Comp->Hydrated = true;

  ByteReader MetaR(Meta);
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

  // BCOD installs the program's bytecode, so Backend::Bytecode runs skip
  // every compile stage. readBytecodeModule re-validates the module and
  // every entry must name one of its globals, so a corrupt payload can
  // never reach the VM; anything malformed makes the artifact a miss.
  auto Vm = std::make_unique<VmProgram>();
  ByteReader BcR(Bc);
  if (BcR.u8() && !(Vm->Module = levc::readBytecodeModule(BcR)))
    return nullptr;
  const size_t NumGlobals = Vm->Module ? Vm->Module->Globals.size() : 0;
  uint32_t NumEntries = BcR.u32();
  if (!BcR.ok() || NumEntries > NumTypes)
    return nullptr;
  for (uint32_t I = 0; I != NumEntries; ++I) {
    std::string Name(BcR.str());
    std::string Refusal(BcR.str());
    const uint32_t Global = BcR.u32();
    if (!BcR.ok() || (Refusal.empty() && Global >= NumGlobals))
      return nullptr;
    Vm->Entries.emplace(std::move(Name), Refusal.empty()
                                             ? Result<uint32_t>(Global)
                                             : err(std::move(Refusal)));
  }
  if (!BcR.atEnd())
    return nullptr;
  std::call_once(Comp->VmOnce, [&] { Comp->VmProg = std::move(Vm); });

  Comp->Timings.push_back({"hydrate", millisSince(Start)});
  Comp->Succeeded = true;
  return Comp;
}
