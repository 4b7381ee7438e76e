//===- compile_fuzz_test.cpp - Mutated corpus sources through the driver --===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// A seeded mutation loop over the differential corpus. Each mutant
// deletes, duplicates or nests one span of a corpus program's source and
// goes through Session::compile. Whatever the bytes, the compile must end
// in error diagnostics, or in a Compilation whose run of the program's
// global ends, on every backend, in a value or a typed failure with a
// message; never in a crash, a hang or an internal error. Labelled
// `soak`, so the sanitizer soak job runs it under ASan.
//
//===----------------------------------------------------------------------===//

#include "DifferentialCorpus.h"

#include "driver/Session.h"

#include <gtest/gtest.h>

#include <string>

#include <sys/resource.h>

using namespace levity;
using namespace levity::driver;
using levity::testing::Corpus;
using levity::testing::CorpusSize;

namespace {

/// SplitMix64: a seeded stream, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  size_t below(size_t N) { return size_t(next() % N); }

private:
  uint64_t State;
};

/// One mutant of \p Src: a span of up to a quarter of it is deleted,
/// duplicated in place, or nested (a copy of it inserted inside itself,
/// so the brackets, cases and lets it holds nest one level deeper).
/// \p What describes the edit for failure messages.
std::string mutate(const std::string &Src, Rng &R, std::string &What) {
  size_t Begin = R.below(Src.size());
  size_t Len = 1 + R.below(std::min(Src.size() - Begin, Src.size() / 4 + 1));
  size_t End = Begin + Len;
  std::string Span = Src.substr(Begin, Len);
  std::string Where = " [" + std::to_string(Begin) + ", " +
                      std::to_string(End) + ")";
  switch (R.below(3)) {
  case 0:
    What = "delete" + Where;
    return Src.substr(0, Begin) + Src.substr(End);
  case 1:
    What = "duplicate" + Where;
    return Src.substr(0, End) + Span + Src.substr(End);
  default: {
    size_t At = Begin + R.below(Len + 1);
    What = "nest" + Where + " at " + std::to_string(At);
    return Src.substr(0, At) + Span + Src.substr(At);
  }
  }
}

/// Caps this process's address space, so that a mutant the front end
/// runs away on fails the test with bad_alloc instead of exhausting the
/// host's memory. Sanitizers reserve terabytes of shadow address space,
/// so under them the cap is left off.
void capAddressSpace() {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  constexpr rlim_t Cap = rlim_t(4) << 30;
  rlimit L;
  if (getrlimit(RLIMIT_AS, &L) == 0 && (L.rlim_cur == RLIM_INFINITY ||
                                        L.rlim_cur > Cap)) {
    L.rlim_cur = Cap;
    setrlimit(RLIMIT_AS, &L);
  }
#endif
}

TEST(CompileFuzzTest, EveryMutantEndsInADiagnosticOrAValue) {
  capAddressSpace();
  constexpr uint64_t Seed = 20261020;
  constexpr size_t Mutants = 400;
  CompileOptions Opts;
  Opts.MaxInterpSteps = 200000;
  Opts.MaxMachineSteps = 200000;
  Opts.MaxVmSteps = 2000000;
  Session S(Opts);
  size_t Compiled = 0, Rejected = 0;
  for (size_t I = 0; I != Mutants; ++I) {
    const levity::testing::CorpusProgram &P = Corpus[I % CorpusSize];
    Rng R(Seed * 1000003 + I);
    std::string What;
    std::string Src = mutate(P.Source, R, What);
    SCOPED_TRACE("mutant " + std::to_string(I) + " of " + P.Label + ": " +
                 What + "\n" + Src);
    auto Comp = S.compile(Src);
    for (const Diagnostic &D : Comp->diags().diagnostics())
      EXPECT_NE(D.Code, DiagCode::Internal) << D.Message;
    if (!Comp->ok()) {
      EXPECT_TRUE(Comp->diags().hasErrors());
      ++Rejected;
      continue;
    }
    ++Compiled;
    for (Backend B : {Backend::TreeInterp, Backend::AbstractMachine,
                      Backend::Bytecode}) {
      RunResult Run = Comp->run(P.Global, B);
      if (Run.ok())
        EXPECT_FALSE(Run.Display.empty()) << backendName(B);
      else
        EXPECT_FALSE(Run.Error.empty()) << backendName(B);
    }
  }
  // The mutants reach both sides of the front end.
  EXPECT_GT(Compiled, Mutants / 20);
  EXPECT_GT(Rejected, Mutants / 4);
}

} // namespace
