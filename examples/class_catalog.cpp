//===- class_catalog.cpp - Print the Section 8.1 analysis table -----------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Runs the Section 8.1 class-generalizability analysis and prints its
// verdict table, then the analysis stage timings in the driver's standard
// one-line-per-stage report.
//
//===----------------------------------------------------------------------===//

#include "classlib/Analysis.h"
#include "driver/Session.h"

#include <cstdio>

using namespace levity;

int main() {
  classlib::AnalysisReport R = classlib::runClassAnalysis();
  std::vector<driver::StageTiming> Timings;
  for (const classlib::AnalysisReport::Stage &St : R.Stages)
    Timings.push_back({St.Name, St.Millis});
  std::printf("%s", classlib::formatReport(R).c_str());
  std::printf("\nanalysis stages:\n%s",
              driver::formatStageTimings(Timings).c_str());
  return R.NumClasses > 0 ? 0 : 1;
}
