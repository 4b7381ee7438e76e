//===- Executor.cpp - Per-thread execution state for a Compilation --------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "driver/Executor.h"
#include "driver/Answer.h"
#include "support/Timing.h"

#include <algorithm>
#include <chrono>

using namespace levity;
using namespace levity::driver;
using support::millisSince;

namespace {

/// Fills R from \p A, naming a constructor known only by its tag from the
/// type of \p Global (tags follow declaration order, as in CoreToL).
void set(RunResult &R, Answer A, const Compilation &Comp,
         std::string_view Global) {
  if (A.K == Answer::Kind::Con && A.Con.empty()) {
    const core::Type *T = Comp.globalType(Global);
    while (T && core::isa<core::ForAllType>(T))
      T = core::cast<core::ForAllType>(T)->body();
    while (T && core::isa<core::AppType>(T))
      T = core::cast<core::AppType>(T)->fn();
    const auto *C = T ? core::dyn_cast<core::ConType>(T) : nullptr;
    if (C && A.Tag < C->tycon()->dataCons().size())
      A.Con = C->tycon()->dataCons()[A.Tag]->name().str();
  }
  R.Display = print(A);
  R.IntValue = intValue(A);
  if (A.K == Answer::Kind::Double)
    R.DoubleValue = A.D;
}

/// Reads a tree-interpreter value (driver/Answer.h reads M and VM values).
Answer readTree(const runtime::Value *V) {
  using Tag = runtime::Value::Tag;
  Answer A;
  if (V->T == Tag::IntHash)
    A = ofInt(V->I);
  else if (V->T == Tag::DoubleHash)
    A = ofDouble(V->D);
  else if (V->T == Tag::Con)
    A = ofCon(V->DC->name().str());
  // Tree-only strings and unboxed tuples read as constructors named by
  // their surface syntax.
  else if (V->T == Tag::Str)
    A = ofCon(std::string("\"").append(V->S.str()).append("\""));
  else if (V->T == Tag::Tuple)
    A = ofCon(std::string("(#")
                  .append(std::max<size_t>(V->Fields.size(), 2) - 1, ',')
                  .append("#)"));
  if (A.K == Answer::Kind::Con)
    for (const runtime::Value *F : V->Fields)
      A.Fields.push_back(F->T == Tag::IntHash      ? ofInt(F->I)
                         : F->T == Tag::DoubleHash ? ofDouble(F->D)
                                                   : lifted());
  return A;
}

/// Completes \p R as the Unsupported run begun at \p Start.
RunResult refuse(RunResult &R, std::string Why,
                 std::chrono::steady_clock::time_point Start) {
  R.St = RunResult::Status::Unsupported;
  R.Error = std::move(Why);
  R.Millis = millisSince(Start);
  return R;
}

/// Maps a finished machine or bytecode-VM run's outcome onto the facade
/// (\p Tier prefixes a stuck reason). True on a value.
template <typename Outcome>
bool fillStatus(RunResult &R, Outcome O, const std::string &Error,
                const char *Tier, const std::string &Stuck) {
  switch (O) {
  case Outcome::Value:
    R.St = RunResult::Status::Ok;
    return true;
  case Outcome::Bottom:
    R.St = RunResult::Status::Bottom;
    R.Error = Error.empty() ? "error (ERR rule)" : Error;
    break;
  case Outcome::Stuck:
    R.St = RunResult::Status::RuntimeError;
    R.Error = Tier + Stuck;
    break;
  case Outcome::OutOfFuel:
    R.St = RunResult::Status::OutOfFuel;
    R.Error = "out of fuel";
    break;
  }
  return false;
}

} // namespace

Executor::Executor(std::shared_ptr<const Compilation> Comp)
    : Comp(std::move(Comp)), Opts(this->Comp->options()) {}

Executor::Executor(Executor &&) noexcept = default;
Executor &Executor::operator=(Executor &&) noexcept = default;
Executor::~Executor() = default;

//===----------------------------------------------------------------------===//
// The tree-interpreter backend
//===----------------------------------------------------------------------===//

runtime::Interp &Executor::interp() {
  if (!TreeInterp) {
    TreeInterp = std::make_unique<runtime::Interp>(Comp->ctx());
    if (const surface::ElabOutput *Out = Comp->elabOutput())
      TreeInterp->loadProgram(Out->Program);
  }
  return *TreeInterp;
}

runtime::InterpResult Executor::evalName(std::string_view Name) {
  // Memoize the scratch lookup var per name: a long-lived Executor must
  // not grow the compilation's shared core arena on every run.
  std::string Key(Name);
  auto It = NameExprs.find(Key);
  if (It == NameExprs.end()) {
    core::CoreContext &C = Comp->ctx();
    It = NameExprs.emplace(std::move(Key), C.var(C.sym(Name))).first;
  }
  return evalExpr(It->second);
}

runtime::InterpResult Executor::evalExpr(const core::Expr *E) {
  return interp().eval(E, Opts.MaxInterpSteps);
}

RunResult Executor::runTree(std::string_view Name) {
  RunResult R;
  R.Used = Backend::TreeInterp;
  // For store-hydrated compilations this elabOutput() call performs the
  // lazy front-end rebuild (once; runs of stored bytecode never pay it).
  // Only that rebuild can leave a runnable compilation without elab
  // output — failed compilations were rejected in run() — but keep the
  // message honest should another path ever get here.
  if (!Comp->elabOutput()) {
    R.St = RunResult::Status::RuntimeError;
    R.Error = Comp->hydrated()
                  ? "front-end rebuild of the on-disk artifact failed:\n" +
                        Comp->diagText()
                  : "no compiled program to run";
    return R;
  }
  // Bracket the run in a pool epoch: once the result is extracted below,
  // the run's Values/EnvNodes are reclaimed wholesale (unless a global
  // was forced for the first time, which promotes the epoch — see
  // Interp::beginRunEpoch). interp() is called first so the lazy
  // build-and-loadProgram allocations land outside the epoch.
  runtime::Interp &I = interp();
  runtime::Interp::RunEpochMark Mark = I.beginRunEpoch();
  auto Start = std::chrono::steady_clock::now();
  runtime::InterpResult IR = evalName(Name);
  R.Millis = millisSince(Start);
  R.Interp = IR.Stats;

  switch (IR.Status) {
  case runtime::InterpStatus::Value:
    R.St = RunResult::Status::Ok;
    set(R, readTree(IR.V), *Comp, Name);
    break;
  case runtime::InterpStatus::Bottom:
    R.St = RunResult::Status::Bottom;
    R.Error = IR.Message;
    break;
  case runtime::InterpStatus::RuntimeError:
    R.St = RunResult::Status::RuntimeError;
    R.Error = IR.Message;
    break;
  case runtime::InterpStatus::OutOfFuel:
    R.St = RunResult::Status::OutOfFuel;
    R.Error = "out of fuel";
    break;
  }
  // The answer was read into R; the run's pool cells can go.
  I.endRunEpoch(Mark);
  return R;
}

//===----------------------------------------------------------------------===//
// The abstract-machine backend
//===----------------------------------------------------------------------===//

mcalc::MContext &Executor::runContext() {
  if (!RunMC)
    RunMC = std::make_unique<mcalc::MContext>();
  RunMC->resetRunState();
  return *RunMC;
}

RunResult Executor::runMachine(std::string_view Name) {
  RunResult R;
  R.Used = Backend::AbstractMachine;
  auto Start = std::chrono::steady_clock::now();
  const Compilation::Lowering &Lw = Comp->lowering();
  auto It = Lw.Index.find(Name);
  Result<const mcalc::Term *> T = It == Lw.Index.end()
                                      ? err(Compilation::notLowered(Name))
                                      : Lw.Globals[It->second].Value;
  if (!T)
    return refuse(R, T.error(), Start);
  // The machine itself is per-run state. It runs over this executor's
  // run-scoped MContext (reset each run) rather than the Compilation's
  // shared one, so run-time substitution terms and heap cells are
  // reclaimed between runs instead of accumulating in the artifact. The
  // other globals' cells are made on first demand.
  mcalc::Machine M(runContext(), &Lw.Cells);
  mcalc::MachineResult MR = M.run(*T, Opts.MaxMachineSteps);
  R.Millis = millisSince(Start);
  R.Machine = MR.Stats;
  if (fillStatus(R, MR.Status, MR.ErrorMessage, "machine stuck: ",
                 MR.StuckReason))
    set(R, readMachine(MR.Value), *Comp, Name);
  return R;
}

//===----------------------------------------------------------------------===//
// The bytecode-VM backend
//===----------------------------------------------------------------------===//

bytecode::Vm &Executor::vm() {
  if (!BVm)
    BVm = std::make_unique<bytecode::Vm>();
  return *BVm;
}

RunResult Executor::runBytecode(std::string_view Name) {
  RunResult R;
  R.Used = Backend::Bytecode;
  auto Start = std::chrono::steady_clock::now();
  // One module holds the program; an entry names its global there, or
  // carries the lowering's or the bytecode compiler's refusal.
  const Compilation::VmProgram &P = Comp->vmProgram();
  auto It = P.Entries.find(Name);
  if (It == P.Entries.end())
    return refuse(R, Compilation::notLowered(Name), Start);
  if (!It->second)
    return refuse(R, It->second.error(), Start);
  bytecode::VmResult VR = vm().run(*P.Module, Opts.MaxVmSteps,
                                   P.Module->Globals[*It->second].Run);
  R.Millis = millisSince(Start);
  R.Vm = VR.Stats;
  if (fillStatus(R, VR.Out, VR.ErrorMessage, "bytecode vm stuck: ",
                 VR.StuckReason))
    set(R, readVm(VR.Final), *Comp, Name);
  return R;
}

//===----------------------------------------------------------------------===//
// Run dispatch
//===----------------------------------------------------------------------===//

RunResult Executor::run(std::string_view Name) {
  return run(Name, Opts.DefaultBackend);
}

RunResult Executor::run(std::string_view Name, Backend B) {
  RunResult R;
  R.Used = B;
  if (!Comp->ok()) {
    R.St = RunResult::Status::RuntimeError;
    R.Error = "compilation failed:\n" + Comp->diagText();
    return R;
  }
  switch (B) {
  case Backend::TreeInterp:
    return runTree(Name);
  case Backend::AbstractMachine:
    return runMachine(Name);
  case Backend::Bytecode:
    return runBytecode(Name);
  }
  return R;
}
