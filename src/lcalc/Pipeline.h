//===- Pipeline.h - The Section 6 formal pipeline harness -------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's formal development on one hand-built L term: build it
/// (Figure 2), typecheck it once (Figure 3), then run it with the
/// small-step semantics (Figure 4), compiled to the M machine (Figures
/// 5-7), or compiled on to bytecode and the VM.
///
/// An oracle for tests and examples, not a production path: it owns one
/// LContext and one MContext, memoizes nothing (every run compiles
/// afresh) and is single-threaded. A term the bytecode compiler refuses
/// is Unsupported on Engine::Bytecode; it never falls back to the
/// machine. Answers print through the driver's one printer
/// (driver/Answer.h).
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_LCALC_PIPELINE_H
#define LEVITY_LCALC_PIPELINE_H

#include "bytecode/Vm.h"
#include "lcalc/Syntax.h"
#include "mcalc/Machine.h"
#include "support/Result.h"

#include <functional>
#include <optional>
#include <string>

namespace levity {
namespace lcalc {

/// The three ways the harness runs a term.
enum class Engine : uint8_t {
  SmallStep, ///< Figure 4: Evaluator::runClosed.
  Machine,   ///< Figures 5-7: anf::Compiler::compileClosed, mcalc::Machine.
  Bytecode   ///< The M term through bytecode::compile, bytecode::Vm.
};

/// The outcome of one run of the harness's term.
struct PipelineResult {
  enum class Status : uint8_t {
    Ok,          ///< The run reached a value.
    Bottom,      ///< error was called.
    Stuck,       ///< No rule applies to a non-value.
    OutOfFuel,   ///< The run took its whole step budget.
    Unsupported, ///< A compiler refused the term.
    IllTyped     ///< The term failed Figure 3; nothing ran.
  };
  Status St = Status::Stuck;
  std::string Display;             ///< The printed answer (Ok only).
  std::optional<int64_t> IntValue; ///< The number of an Int# or I# answer.
  std::string Error;               ///< Why the run is not Ok.
  uint64_t Steps = 0;              ///< The engine's own steps.
  mcalc::MachineStats Machine;     ///< Engine::Machine counters.
  bytecode::VmStats Vm;            ///< Engine::Bytecode counters.

  bool ok() const { return St == Status::Ok; }
};

/// One L term, typechecked once, runnable on every engine.
class Pipeline {
public:
  /// Builds the term with \p Build in this harness's LContext and
  /// typechecks it.
  explicit Pipeline(const std::function<const Expr *(LContext &)> &Build);
  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  LContext &ctx() { return L; }
  const Expr *term() const { return Term; }
  /// The term's type, or the first premise of Figure 3 it violates.
  const Result<const Type *> &type() const { return Ty; }

  /// Runs the term on \p E, stopping after \p Fuel of the engine's steps.
  PipelineResult run(Engine E, uint64_t Fuel);

private:
  LContext L;
  mcalc::MContext MC;
  const Expr *Term;
  Result<const Type *> Ty;
};

} // namespace lcalc
} // namespace levity

#endif // LEVITY_LCALC_PIPELINE_H
