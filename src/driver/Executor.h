//===- Executor.h - Per-thread execution state for a Compilation -*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutable half of the driver's artifact/executor split. A
/// Compilation (Session.h) is an immutable, shareable artifact; an
/// Executor owns everything one *thread of execution* needs to run it:
///
///   * the instrumented tree-interpreter instance (value pool, persistent
///     environments, memoized global thunks);
///   * per-executor fuel knobs (options() is a private copy of the
///     session's CompileOptions);
///   * ad-hoc expression evaluation against the compilation's context
///     (the cost-model workloads' evalExpr).
///
/// Executors are cheap (the interpreter is built on first tree run) and
/// single-threaded by design: create one per thread over a shared
/// Compilation.
///
/// \code
///   auto Comp = S.compile(Src);            // shared, immutable
///   std::thread Worker([Comp] {
///     driver::Executor Ex(Comp);           // this thread's run state
///     driver::RunResult R = Ex.run("answer");
///     driver::RunResult M = Ex.run("answer",
///                                  driver::Backend::AbstractMachine);
///   });
///   Worker.join();
/// \endcode
///
/// Because one Executor keeps its interpreter alive, repeated tree runs
/// share memoized global thunks — the second `Ex.run("answer")` performs
/// zero heap allocation. `Compilation::run` (which builds a transient
/// Executor per call) re-evaluates globals each time.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_DRIVER_EXECUTOR_H
#define LEVITY_DRIVER_EXECUTOR_H

#include "driver/Session.h"

#include <string>
#include <unordered_map>

namespace levity {
namespace driver {

/// Mutable per-thread run state over an immutable Compilation.
class Executor {
public:
  /// Binds this executor to \p Comp (shared, keeps the artifact alive).
  /// Cheap: the tree interpreter is only built on first tree run.
  explicit Executor(std::shared_ptr<const Compilation> Comp);
  /// Movable (transfers the interpreter state), not copyable — run
  /// state belongs to exactly one thread at a time.
  Executor(Executor &&) noexcept;
  Executor &operator=(Executor &&) noexcept;
  ~Executor();

  /// The immutable artifact this executor runs (never null).
  const Compilation &compilation() const { return *Comp; }

  /// This executor's private option copy: tweak fuel (MaxInterpSteps,
  /// MaxMachineSteps, MaxVmSteps) or the default backend per thread.
  CompileOptions &options() { return Opts; }
  const CompileOptions &options() const { return Opts; }

  //===------------------------------------------------------------------===//
  // Running
  //===------------------------------------------------------------------===//

  /// Evaluates top-level \p Name on the executor's default backend.
  RunResult run(std::string_view Name);
  /// Evaluates top-level \p Name on a specific backend. Tree runs share
  /// this executor's interpreter (memoized globals persist across
  /// calls); machine and bytecode runs make every global's cell afresh
  /// each run. On a store-hydrated Compilation, a bytecode run does no
  /// compile work; a tree or machine run first triggers the lazy
  /// front-end rebuild, once.
  RunResult run(std::string_view Name, Backend B);

  //===------------------------------------------------------------------===//
  // The raw interpreter (cost-model workloads)
  //===------------------------------------------------------------------===//

  /// The instrumented tree-interpreter with this program loaded. Exposed
  /// so cost-model workloads can evaluate ad-hoc expressions built
  /// against the compilation's ctx() without re-wiring a pipeline.
  /// Single-threaded like the rest of the executor; lives as long as
  /// this Executor (references into it must not outlive it).
  runtime::Interp &interp();
  /// Evaluates top-level \p Name on the raw interpreter (low-level
  /// counterpart of run(Name, Backend::TreeInterp)).
  runtime::InterpResult evalName(std::string_view Name);
  /// Evaluates an ad-hoc core expression (allocated in the
  /// compilation's ctx()) against this executor's interpreter state.
  runtime::InterpResult evalExpr(const core::Expr *E);

private:
  RunResult runTree(std::string_view Name);
  RunResult runMachine(std::string_view Name);
  RunResult runBytecode(std::string_view Name);

  /// This executor's VM instance (built on first bytecode run; its
  /// stacks/heap are reused across runs, like the tree interpreter).
  bytecode::Vm &vm();

  /// This executor's *run-scoped* M context (built on first machine run).
  /// Machine runs allocate their substitution terms and heap cells here
  /// instead of the Compilation's shared MContext, and the context is
  /// reset (arena rewound, name counter restarted) at the start of every
  /// run — so a long-lived Executor's machine runs plateau instead of
  /// growing the shared arena forever. Restarting the name counter is
  /// sound because Symbol identity is per-table: a run-minted "p0" can
  /// never collide with a compiled term's "p0" (different SymbolTables).
  /// A run's answer is read (driver/Answer.h, the one printer) before the
  /// next reset.
  mcalc::MContext &runContext();

  std::shared_ptr<const Compilation> Comp;
  CompileOptions Opts;
  std::unique_ptr<runtime::Interp> TreeInterp;
  std::unique_ptr<bytecode::Vm> BVm;
  std::unique_ptr<mcalc::MContext> RunMC;
  /// Memoized lookup vars for evalName: repeated runs of the same global
  /// reuse one scratch VarExpr instead of growing the compilation's
  /// shared core arena per run.
  std::unordered_map<std::string, const core::Expr *> NameExprs;
};

} // namespace driver
} // namespace levity

#endif // LEVITY_DRIVER_EXECUTOR_H
