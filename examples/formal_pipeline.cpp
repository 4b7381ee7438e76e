//===- formal_pipeline.cpp - The Section 6 calculi, interactively ---------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Builds an L term (Figure 2), typechecks it (Figure 3), steps it with
// the type-directed semantics (Figure 4), compiles it to M (Figure 7)
// and runs the abstract machine (Figure 6) — the paper's whole formal
// development, on one example, through the lcalc::Pipeline harness.
// Exits nonzero when a machine answer is not the expected one or the
// Section 5.1 binder is accepted.
//
//===----------------------------------------------------------------------===//

#include "lcalc/Eval.h"
#include "lcalc/Pipeline.h"

#include <cstdio>

using namespace levity;
using namespace levity::lcalc;

namespace {

// gen = Λr. Λa:TYPE r. λf:Int → a. f I#[7] — one levity-polymorphic
// source function, instantiated at both calling conventions.
const Expr *buildGen(LContext &L) {
  Symbol R = L.sym("r"), A = L.sym("a"), F = L.sym("f");
  return L.repLam(
      R, L.tyLam(A, LKind::typeVar(R),
                 L.lam(F, L.arrowTy(L.intTy(), L.varTy(A)),
                       L.app(L.var(F), L.con(L.intLit(7))))));
}

/// Machine fuel per run: far more than either instantiation needs.
constexpr uint64_t Fuel = 1000000;

} // namespace

int main() {
  int Failures = 0;

  // The polymorphic function itself, typechecked by the harness.
  Pipeline Gen(buildGen);
  std::printf("== the L term ==\n%s\n", Gen.term()->str().c_str());
  const Result<const Type *> &GenTy = Gen.type();
  std::printf(" : %s\n\n", GenTy ? (*GenTy)->str().c_str() : "<ill-typed>");

  struct Variant {
    const char *Name;
    const Expr *(*Build)(LContext &);
    const char *Expected; ///< The machine's answer.
  };
  const Variant Variants[] = {
      // Boxed instantiation: id at Int.
      {"instantiated at P/Int",
       [](LContext &L) {
         return L.app(
             L.tyApp(L.repApp(buildGen(L), RuntimeRep::pointer()),
                     L.intTy()),
             L.lam(L.sym("n"), L.intTy(), L.var(L.sym("n"))));
       },
       "I# 7#"},
      // Unboxed instantiation: unbox at Int#.
      {"instantiated at I/Int#",
       [](LContext &L) {
         return L.app(
             L.tyApp(L.repApp(buildGen(L), RuntimeRep::integer()),
                     L.intHashTy()),
             L.lam(L.sym("n"), L.intTy(),
                   L.caseOf(L.var(L.sym("n")), L.sym("m"),
                            L.var(L.sym("m")))));
       },
       "7#"},
  };

  for (const Variant &V : Variants) {
    std::printf("== %s ==\n", V.Name);
    Pipeline P(V.Build);
    const Result<const Type *> &Ty = P.type();
    std::printf("L type: %s\n", Ty ? (*Ty)->str().c_str() : "<error>");

    // Small-step trace (first few rules) — Figure 4, driven directly so
    // the rule names are visible.
    Evaluator Ev(P.ctx());
    const Expr *Cur = P.term();
    TypeEnv Env;
    for (int Step = 0; Step != 4; ++Step) {
      StepResult R = Ev.step(Env, Cur);
      if (R.Status != StepStatus::Stepped)
        break;
      std::printf("  --%s--> %s\n", std::string(R.Rule).c_str(),
                  R.Next->str().c_str());
      Cur = R.Next;
    }

    // Compile to M (Figure 7) and run the machine (Figure 6) — one
    // harness call.
    PipelineResult MR = P.run(Engine::Machine, Fuel);
    if (!MR.ok() || MR.Display != V.Expected)
      ++Failures;
    if (MR.St == PipelineResult::Status::Unsupported) {
      std::printf("compilation failed: %s\n", MR.Error.c_str());
      continue;
    }
    std::printf("machine result: %s  (steps=%llu, thunks=%llu, "
                "ptr-calls=%llu, int-calls=%llu)\n\n",
                MR.ok() ? MR.Display.c_str() : "<bottom>",
                (unsigned long long)MR.Machine.Steps,
                (unsigned long long)MR.Machine.Allocations,
                (unsigned long long)MR.Machine.BetaPtr,
                (unsigned long long)MR.Machine.BetaInt);
  }

  // The restriction in action: a levity-polymorphic binder cannot
  // typecheck (E_LAM's highlighted premise).
  Pipeline Bad([](LContext &L) {
    Symbol R = L.sym("r"), A = L.sym("a");
    return L.repLam(
        R, L.tyLam(A, LKind::typeVar(R),
                   L.lam(L.sym("x"), L.varTy(A), L.var(L.sym("x")))));
  });
  const Result<const Type *> &BadTy = Bad.type();
  if (BadTy)
    ++Failures;
  std::printf("== the restriction (Section 5.1) ==\n%s\nrejected: %s\n",
              Bad.term()->str().c_str(),
              BadTy ? "<unexpectedly accepted>" : BadTy.error().c_str());
  return Failures ? 1 : 0;
}
