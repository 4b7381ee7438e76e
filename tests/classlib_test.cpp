//===- classlib_test.cpp - Section 8.1 analysis tests (E9) ----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "classlib/Analysis.h"
#include "classlib/Catalog.h"

#include <gtest/gtest.h>

using namespace levity;
using namespace levity::classlib;

namespace {

const AnalysisReport &report() {
  static AnalysisReport R = runClassAnalysis();
  return R;
}

const ClassVerdict *find(const std::string &Name) {
  for (const ClassVerdict &V : report().Verdicts)
    if (V.Name == Name)
      return &V;
  return nullptr;
}

TEST(ClasslibTest, CatalogHas76Classes) {
  EXPECT_EQ(catalogEntries().size(), 76u);
  EXPECT_EQ(report().NumClasses, 76u) << report().Log;
}

TEST(ClasslibTest, EveryCatalogEntryWasAnalyzed) {
  for (const CatalogEntry &E : catalogEntries())
    EXPECT_NE(find(std::string(E.Name)), nullptr)
        << "class " << E.Name << " missing from analysis";
}

// The paper's flagship generalizable classes.
TEST(ClasslibTest, NumericTowerGeneralizes) {
  for (const char *Name :
       {"Num", "Fractional", "Floating", "Real", "RealFloat"}) {
    const ClassVerdict *V = find(Name);
    ASSERT_NE(V, nullptr) << Name;
    EXPECT_TRUE(V->Generalizable) << Name << ": " << V->Reason;
  }
}

TEST(ClasslibTest, ComparisonClassesGeneralize) {
  for (const char *Name : {"Eq", "Ord", "Bounded", "Semigroup", "Monoid",
                           "Bits", "FiniteBits", "IsString"}) {
    const ClassVerdict *V = find(Name);
    ASSERT_NE(V, nullptr) << Name;
    EXPECT_TRUE(V->Generalizable) << Name << ": " << V->Reason;
  }
}

// Classes blocked by lifted-only structure in their minimal methods.
TEST(ClasslibTest, StructurallyBlockedClasses) {
  struct Case {
    const char *Name;
    const char *Why;
  } Cases[] = {
      {"Integral", "quotRem returns a boxed pair (a, a)"},
      {"RealFrac", "properFraction returns (b, a)"},
      {"Read", "readsPrec mentions ReadS a"},
      {"Ix", "range consumes boxed pairs and produces [a]"},
      {"Storable", "peek/poke go through Ptr a"},
      {"Exception", "fromException returns Maybe a"},
      {"Typeable", "typeRep consumes Proxy a"},
      {"Data", "gunfold returns Maybe a"},
      {"Generic", "from/to mention GRep a"},
      {"KnownNat", "natVal consumes Proxy a"},
  };
  for (const Case &C : Cases) {
    const ClassVerdict *V = find(C.Name);
    ASSERT_NE(V, nullptr) << C.Name;
    EXPECT_TRUE(V->ValueKinded) << C.Name;
    EXPECT_FALSE(V->Generalizable)
        << C.Name << " should be blocked (" << C.Why << ")";
  }
}

// Constructor classes are out of scope for class-variable levity
// generalization (their variable has an arrow kind).
TEST(ClasslibTest, ConstructorClassesDetected) {
  for (const char *Name :
       {"Functor", "Applicative", "Monad", "Foldable", "Traversable",
        "Category", "Arrow", "Bifunctor", "Eq1", "Show2"}) {
    const ClassVerdict *V = find(Name);
    ASSERT_NE(V, nullptr) << Name;
    EXPECT_FALSE(V->ValueKinded) << Name;
    EXPECT_FALSE(V->Generalizable) << Name;
  }
  EXPECT_GE(report().NumConstructorClasses, 20u);
}

// The headline number: close to the paper's 34/76. Our reconstruction
// of minimal method sets lands within a small band; EXPERIMENTS.md
// documents the per-class deltas.
TEST(ClasslibTest, GeneralizableCountNearPaper) {
  EXPECT_GE(report().NumGeneralizable, 25u) << formatReport(report());
  EXPECT_LE(report().NumGeneralizable, 40u) << formatReport(report());
}

// Every verdict for a non-generalizable value class carries a reason.
TEST(ClasslibTest, ReasonsAreReported) {
  for (const ClassVerdict &V : report().Verdicts)
    if (V.ValueKinded && !V.Generalizable)
      EXPECT_FALSE(V.Reason.empty()) << V.Name;
}

// The six Section 8.1 functions elaborate at their generalized types.
TEST(ClasslibTest, GeneralizedFunctionsElaborate) {
  ASSERT_EQ(report().GeneralizedFunctions.size(), 6u) << report().Log;
  for (const auto &[Name, Ty] : report().GeneralizedFunctions) {
    EXPECT_NE(Ty.find("TYPE r"), std::string::npos)
        << Name << " :: " << Ty;
    EXPECT_NE(Ty.find("forall (r"), std::string::npos)
        << Name << " :: " << Ty;
  }
}

TEST(ClasslibTest, ReportFormats) {
  std::string S = formatReport(report());
  EXPECT_NE(S.find("GENERALIZE"), std::string::npos);
  EXPECT_NE(S.find("of 76"), std::string::npos);
  EXPECT_NE(S.find("oneShot"), std::string::npos);
}

// The analysis reports its stages in run order, each timed, so a caller
// can print them in the driver's timing report (examples/class_catalog).
TEST(DriverTest, CatalogAnalysisRidesTheDriver) {
  const AnalysisReport &R = report();
  EXPECT_EQ(R.NumClasses, 76u);
  ASSERT_EQ(R.Stages.size(), 3u);
  EXPECT_EQ(R.Stages[0].Name, "elaborate-catalog");
  EXPECT_EQ(R.Stages[1].Name, "analyze-classes");
  EXPECT_EQ(R.Stages[2].Name, "generalized-fns");
  for (const AnalysisReport::Stage &St : R.Stages)
    EXPECT_GE(St.Millis, 0.0) << St.Name;
}

} // namespace
