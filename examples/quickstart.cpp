//===- quickstart.cpp - Five-minute tour of the levity library ------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Compiles and runs a small program through the driver::Session facade —
// on both backends — then shows the kind machinery underneath: kinds as
// calling conventions, rep metavariable inference, and the two levity
// restrictions.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"
#include "rep/CallingConv.h"

#include <cstdio>

using namespace levity;

int main() {
  std::printf("== levity quickstart ==\n\n");

  // 1. Compile a program that mixes boxed and unboxed code. The Session
  //    runs lex -> parse -> elaborate -> lint (Core Lint, which also
  //    checks Section 5.1) and hands back a Compilation with
  //    diagnostics, timings, and selectable backends.
  driver::Session S;
  auto Comp = S.compile(
      "square :: Int# -> Int# ;"
      "square x = x *# x ;"
      "answer = square 6# +# 6#");
  if (!Comp->ok()) {
    std::printf("compilation failed:\n%s", Comp->diagText().c_str());
    return 1;
  }

  driver::RunResult Tree = Comp->run("answer");
  std::printf("answer = %s (tree interpreter, heap allocations: %llu)\n",
              Tree.Display.c_str(),
              static_cast<unsigned long long>(Tree.allocations()));

  // The same compiled program, lowered through the paper's formal chain
  // (core -> L -> ANF -> the Figure 6 abstract machine).
  driver::RunResult Mach =
      Comp->run("answer", driver::Backend::AbstractMachine);
  std::printf("answer = %s (abstract machine,  heap allocations: %llu)\n\n",
              Mach.Display.c_str(),
              static_cast<unsigned long long>(Mach.allocations()));

  std::printf("pipeline stages:\n%s\n", Comp->timingReport().c_str());

  // 2. Kinds are calling conventions (Section 4).
  RepContext RC;
  const Rep *Args[] = {RC.intRep(), RC.intRep()};
  CallingConv CC = CallingConv::compute(Args, RC.intRep());
  std::printf("square's convention, derived from its kind: %s\n",
              CC.str().c_str());
  const Rep *Tuple = RC.tuple({RC.intRep(), RC.lifted()});
  std::printf("(# Int#, Bool #) fans out over registers:    [%s]\n\n",
              Tuple->str().c_str());

  // 3. Inference never invents levity polymorphism (Section 5.2).
  {
    auto Inferred = S.compile("f x = x");
    const core::Type *T = Inferred->globalType("f");
    std::printf("inferred type of `f x = x`:  %s\n",
                T ? T->str().c_str() : "<error>");
  }

  // 4. Declared levity polymorphism is checked — and restricted.
  {
    auto Bad = S.compile("bad :: forall r (a :: TYPE r). a -> a ;"
                         "bad x = x");
    if (!Bad->ok())
      std::printf("\n`bad :: forall r (a :: TYPE r). a -> a` rejected:\n%s",
                  Bad->diagText().c_str());
  }

  std::printf("\nSee examples/sum_to and examples/levity_classes next.\n");
  return 0;
}
