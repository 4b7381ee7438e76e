//===- Analysis.h - Recomputing Section 8.1's 34-of-76 ----------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the Section 8.1 experiment (E9): for every class in the
/// catalog, attempt to give the class variable the kind TYPE ν (ν a
/// fresh rep metavariable) and re-kind its method signatures with the
/// Section 5.2 unifier. The class is levity-generalizable iff ν stays
/// unconstrained. Also validates the six already-generalized functions.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_CLASSLIB_ANALYSIS_H
#define LEVITY_CLASSLIB_ANALYSIS_H

#include <string>
#include <vector>

namespace levity {
namespace classlib {

struct ClassVerdict {
  std::string Name;
  std::string Module;
  bool FromBootLibrary = false;
  bool ValueKinded = false;   ///< Class variable has a value kind.
  bool Generalizable = false; ///< ν unconstrained after re-kinding.
  std::string Reason;         ///< Why not, when not generalizable.
};

struct AnalysisReport {
  std::vector<ClassVerdict> Verdicts;
  size_t NumClasses = 0;
  size_t NumGeneralizable = 0;
  size_t NumConstructorClasses = 0;

  /// Six generalized functions (name, elaborated type) — empty on error.
  std::vector<std::pair<std::string, std::string>> GeneralizedFunctions;

  /// Wall-clock per analysis stage, in run order (examples/class_catalog
  /// prints them through driver::formatStageTimings).
  struct Stage {
    std::string Name;
    double Millis = 0;
  };
  std::vector<Stage> Stages;

  /// Diagnostics from the run, for debugging.
  std::string Log;
};

/// Runs the whole Section 8.1 analysis. Deterministic and self-contained.
AnalysisReport runClassAnalysis();

/// Renders the report as the paper-style table.
std::string formatReport(const AnalysisReport &R);

} // namespace classlib
} // namespace levity

#endif // LEVITY_CLASSLIB_ANALYSIS_H
