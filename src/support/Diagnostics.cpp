//===- Diagnostics.cpp - Diagnostic collection ----------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <sstream>

using namespace levity;

std::string_view levity::diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::None:
    return "none";
  case DiagCode::LexError:
    return "lex-error";
  case DiagCode::ParseError:
    return "parse-error";
  case DiagCode::ScopeError:
    return "scope-error";
  case DiagCode::KindError:
    return "kind-error";
  case DiagCode::TypeError:
    return "type-error";
  case DiagCode::OccursCheck:
    return "occurs-check";
  case DiagCode::LevityPolymorphicBinder:
    return "levity-polymorphic-binder";
  case DiagCode::LevityPolymorphicArgument:
    return "levity-polymorphic-argument";
  case DiagCode::SubKindError:
    return "sub-kind-error";
  case DiagCode::InstantiationError:
    return "instantiation-error";
  case DiagCode::AmbiguousType:
    return "ambiguous-type";
  case DiagCode::MissingInstance:
    return "missing-instance";
  case DiagCode::DuplicateDefinition:
    return "duplicate-definition";
  case DiagCode::NestingTooDeep:
    return "nesting-too-deep";
  case DiagCode::ArityError:
    return "arity-error";
  case DiagCode::Internal:
    return "internal";
  }
  return "unknown";
}

std::string DiagnosticEngine::str() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags) {
    switch (D.Sev) {
    case Severity::Note:
      OS << "note";
      break;
    case Severity::Warning:
      OS << "warning";
      break;
    case Severity::Error:
      OS << "error";
      break;
    }
    if (D.Loc.isValid())
      OS << " at " << D.Loc.Line << ":" << D.Loc.Col;
    if (D.Code != DiagCode::None)
      OS << " [" << diagCodeName(D.Code) << "]";
    OS << ": " << D.Message << "\n";
  }
  return OS.str();
}
