//===- Diagnostics.h - Diagnostic collection --------------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostics engine. Checkers and the surface-language pipeline
/// report problems here instead of throwing; callers inspect the engine
/// after a pass. Messages follow the style "lowercase start, no trailing
/// period". Each diagnostic carries an optional source location and a
/// machine-readable code so tests can assert on the *reason* a program was
/// rejected (e.g. the two levity restrictions of Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SUPPORT_DIAGNOSTICS_H
#define LEVITY_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace levity {

/// A position in surface source text (1-based; 0 means "unknown").
struct SourceLoc {
  uint32_t Line = 0;
  uint32_t Col = 0;

  bool isValid() const { return Line != 0; }
  friend bool operator==(SourceLoc A, SourceLoc B) {
    return A.Line == B.Line && A.Col == B.Col;
  }
};

/// Machine-readable diagnostic categories.
enum class DiagCode : uint8_t {
  None,
  LexError,
  ParseError,
  ScopeError,
  KindError,
  TypeError,
  OccursCheck,
  // The two restrictions of Section 5.1, checked post-inference:
  LevityPolymorphicBinder,
  LevityPolymorphicArgument,
  // Legacy sub-kinding baseline diagnostics (Section 3.2):
  SubKindError,
  InstantiationError,
  AmbiguousType,
  MissingInstance,
  DuplicateDefinition,
  ArityError,
  NestingTooDeep, ///< Past surface::MaxNestingDepth.
  Internal,
};

/// Renders \p Code as a short stable mnemonic (for test assertions).
std::string_view diagCodeName(DiagCode Code);

enum class Severity : uint8_t { Note, Warning, Error };

struct Diagnostic {
  Severity Sev = Severity::Error;
  DiagCode Code = DiagCode::None;
  SourceLoc Loc;
  std::string Message;
};

/// Collects diagnostics for one pipeline run.
class DiagnosticEngine {
public:
  void error(DiagCode Code, std::string Message, SourceLoc Loc = {}) {
    Diags.push_back({Severity::Error, Code, Loc, std::move(Message)});
    ++NumErrors;
  }

  void warning(DiagCode Code, std::string Message, SourceLoc Loc = {}) {
    Diags.push_back({Severity::Warning, Code, Loc, std::move(Message)});
  }

  void note(std::string Message, SourceLoc Loc = {}) {
    Diags.push_back({Severity::Note, DiagCode::None, Loc, std::move(Message)});
  }

  bool hasErrors() const { return NumErrors != 0; }
  size_t numErrors() const { return NumErrors; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// \returns true if any error diagnostic carries \p Code.
  bool hasError(DiagCode Code) const {
    for (const Diagnostic &D : Diags)
      if (D.Sev == Severity::Error && D.Code == Code)
        return true;
    return false;
  }

  /// Formats all diagnostics, one per line, for human consumption.
  std::string str() const;

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

  /// \returns the number of diagnostics recorded (for speculation marks).
  size_t size() const { return Diags.size(); }

  /// Rolls back to the first \p Count diagnostics. Used by the parser
  /// when speculative parses fail and are retried another way.
  void truncate(size_t Count) {
    if (Count >= Diags.size())
      return;
    Diags.resize(Count);
    NumErrors = 0;
    for (const Diagnostic &D : Diags)
      if (D.Sev == Severity::Error)
        ++NumErrors;
  }

private:
  std::vector<Diagnostic> Diags;
  size_t NumErrors = 0;
};

} // namespace levity

#endif // LEVITY_SUPPORT_DIAGNOSTICS_H
