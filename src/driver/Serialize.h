//===- Serialize.h - The versioned .levc artifact format --------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary reader/writer behind the on-disk compilation store
/// (driver/ArtifactStore.h). A `.levc` artifact persists what a cold
/// process needs to *run* a compiled program on the bytecode VM without
/// re-running the front end, the core→L→ANF→M lowering or the bytecode
/// compiler: the source text (for exact-match validation and the lazy
/// front-end rebuild), the original stage timings, pretty-printed global
/// types, and the program's compiled bytecode: one module plus a name →
/// entry table covering the user's bindings and every global they use.
/// Everything else — core IR, M terms — is rebuilt lazily from the
/// source on first use.
///
/// The format is *versioned twice*:
///
///   * FormatVersion — the byte layout of this file. Bump on any layout
///     change.
///   * pipelineFingerprint() — a hash of FormatVersion, the pipeline
///     epoch string, and the stable tag-space sizes that BCOD operands
///     carry (mcalc::NumMPrims, mcalc::NumVarSorts, bytecode::NumOps).
///     Any change to what the pipeline *produces* — new primops, new
///     opcodes, changed lowering semantics (bump PipelineEpoch for those)
///     — changes the fingerprint, and every stale store entry silently
///     becomes a miss.
///
/// The full byte layout is specified in docs/ARTIFACT_FORMAT.md; this
/// header is the single implementation of it. Readers treat *any*
/// malformed input (bad magic, version, fingerprint, checksum, truncated
/// or corrupt sections, a missing BCOD section) as "no artifact":
/// deserialization returns null and the driver recompiles from source.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_DRIVER_SERIALIZE_H
#define LEVITY_DRIVER_SERIALIZE_H

#include "bytecode/Bytecode.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace levity {
namespace driver {
namespace levc {

/// First bytes of every artifact: 'L' 'E' 'V' 'C'.
inline constexpr char Magic[4] = {'L', 'E', 'V', 'C'};

/// Byte-layout version of the .levc container. Bump on any layout change
/// (it is also folded into the fingerprint, so old stores go stale).
/// v2 (PR 5): CON/SWITCH term tags, the optional CORE section, and
/// constructor atoms that may name pointer registers.
/// v3 (PR 6): the optional BCOD section — per-global compiled bytecode
/// modules, so warm-store Backend::Bytecode runs need zero front-end,
/// lowering, or bytecode-compilation work. Later without the CORE
/// section (readers skipped its id like any unknown section).
/// v4: no MTRM section and no name counter in META; BCOD is mandatory
/// and holds only the user's bindings.
/// v5: no default-backend byte in META; it had no reader.
/// v6: BCOD is one program module plus a name → entry table, and a
/// module lists its globals.
inline constexpr uint32_t FormatVersion = 6;

/// Names the semantics of the compiled artifacts. Bump whenever the
/// core→L→ANF→M lowering changes observable output (new fragment,
/// changed encodings, changed error strings) so stale artifacts are
/// re-lowered instead of replayed.
inline constexpr char PipelineEpoch[] = "core->L->ANF->M globals by index";

/// Section identifiers (four ASCII bytes, little-endian u32). Unknown
/// sections are skipped on read, so future writers may append sections
/// without a FormatVersion bump.
enum SectionId : uint32_t {
  SecSource = 0x20435253,   ///< "SRC " — the exact source text.
  SecMeta = 0x4154454D,     ///< "META" — stage timings.
  SecTypes = 0x45505954,    ///< "TYPE" — pretty-printed global types.
  SecBytecode = 0x444F4342, ///< "BCOD" — the entry table and the
                            ///< program's bytecode module (mandatory).
};

/// The version fingerprint written into (and demanded of) every
/// artifact. Deterministic across processes and platforms.
uint64_t pipelineFingerprint();

/// FNV-1a over \p Bytes — the artifact trailer checksum (and the same
/// function Session::hashSource uses, kept bit-compatible on purpose).
uint64_t fnv1a(std::string_view Bytes);

//===----------------------------------------------------------------------===//
// Byte-level primitives (little-endian, length-prefixed strings)
//===----------------------------------------------------------------------===//

/// Appends fixed-width little-endian scalars and length-prefixed strings
/// to a growing buffer.
class ByteWriter {
public:
  void u8(uint8_t V);
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i64(int64_t V);
  void f64(double V);                ///< IEEE-754 bit pattern as u64.
  void str(std::string_view S);      ///< u32 length + raw bytes.
  void raw(std::string_view Bytes);  ///< Raw bytes, no length prefix.

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  std::string Buf;
};

/// Reads the ByteWriter encoding back. All reads are bounds-checked:
/// running past the end (or any validation failure flagged by callers via
/// fail()) makes every subsequent read return zero values, and ok()
/// reports the sticky failure — so decode loops can check once at the end.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes) : Buf(Bytes) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  int64_t i64();
  double f64();
  std::string_view str();
  std::string_view raw(size_t N);

  /// Marks the stream failed (validation error in a caller).
  void fail() { Failed = true; }
  bool ok() const { return !Failed; }
  bool atEnd() const { return Failed || Pos == Buf.size(); }
  size_t pos() const { return Pos; }

private:
  const unsigned char *take(size_t N);

  std::string_view Buf;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Bytecode-module encoding — the BCOD section
//===----------------------------------------------------------------------===//

/// Serializes one compiled bytecode module: protos, the flat code
/// stream (stable bytecode::Op tags), constant pools, switch tables and
/// globals. Self-delimiting.
void writeBytecodeModule(ByteWriter &W, const bytecode::Module &M);

/// Decodes one bytecode module. The result passed bytecode::validate(),
/// so it is as safe to execute as freshly compiled code. \returns null
/// (and fails \p R) on any malformed input — truncation, counts over
/// the decode caps, or a module the verifier rejects.
std::shared_ptr<const bytecode::Module> readBytecodeModule(ByteReader &R);

/// Decode caps for BCOD payloads: a corrupt count must not turn into a
/// giant allocation before validation can reject the module.
inline constexpr unsigned MaxBcProtos = 1u << 20;
inline constexpr unsigned MaxBcCode = 1u << 26;
inline constexpr unsigned MaxBcPool = 1u << 24;
inline constexpr unsigned MaxSwitchAlts = 1u << 16;

} // namespace levc
} // namespace driver
} // namespace levity

#endif // LEVITY_DRIVER_SERIALIZE_H
