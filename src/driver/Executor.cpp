//===- Executor.cpp - Per-thread execution state for a Compilation --------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "driver/Executor.h"
#include "support/DoubleText.h"
#include "support/Timing.h"

#include <algorithm>
#include <charconv>
#include <chrono>

using namespace levity;
using namespace levity::driver;
using support::millisSince;

namespace {

//===----------------------------------------------------------------------===//
// The one answer printer and its readers
//===----------------------------------------------------------------------===//
//
// Every run ends in one answer, printed in surface syntax: an Int#
// (`42#`), a Double# (`2.5##`), a constructor with its fields (`I# 42#`,
// `MkAcc 3# 2.5##`, `Cons _ _`, `Green`), or `<closure>`. Fields are read
// by rep at depth one and never forced (§4: only a lifted field can point
// to a thunk), so every lifted field prints `_`. One reader per backend
// sets RunResult::Display, and IntValue (Int#, I#) or DoubleValue
// (Double#), while the final value is live: before Interp::endRunEpoch,
// the run context's reset, or the Vm's next run. M and bytecode values
// carry only a constructor's tag; the name comes from the type of the
// global that ran, or from the formal term's type.

/// A run's final value, or a constructor's field (Int, Double or Lifted).
struct Answer {
  enum class Kind : uint8_t { Int, Double, Lifted, Con, Closure };
  Kind K = Kind::Closure;
  int64_t I = 0;
  double D = 0;
  std::string Con{}; ///< Empty while only Tag is known.
  uint32_t Tag = 0;
  std::vector<Answer> Fields{};
};

Answer ofInt(int64_t I) { return {.K = Answer::Kind::Int, .I = I}; }
Answer ofDouble(double D) { return {.K = Answer::Kind::Double, .D = D}; }
Answer lifted() { return {.K = Answer::Kind::Lifted}; }
Answer ofCon(std::string_view Name) {
  return {.K = Answer::Kind::Con, .Con = std::string(Name)};
}
Answer intBox(int64_t I) {
  return {.K = Answer::Kind::Con, .Con = "I#", .Fields = {ofInt(I)}};
}

/// The one printer.
std::string print(const Answer &A) {
  char Buf[24];
  if (A.K == Answer::Kind::Int)
    return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), A.I).ptr) +
           '#';
  if (A.K == Answer::Kind::Double)
    return support::doubleText(A.D) + "##";
  if (A.K == Answer::Kind::Lifted)
    return "_";
  if (A.K == Answer::Kind::Closure)
    return "<closure>";
  std::string S = A.Con;
  for (const Answer &F : A.Fields) {
    S += ' ';
    S += print(F);
  }
  return S;
}

/// Fills R from \p A, naming a constructor known only by its tag from the
/// run's result type (tags follow declaration order, as in CoreToL).
void set(RunResult &R, Answer A, const Compilation *Comp = nullptr,
         std::string_view Global = {}) {
  if (A.K == Answer::Kind::Con && A.Con.empty()) {
    if (!Comp->formalTerm()) {
      const core::Type *T = Comp->globalType(Global);
      while (T && core::isa<core::ForAllType>(T))
        T = core::cast<core::ForAllType>(T)->body();
      while (T && core::isa<core::AppType>(T))
        T = core::cast<core::AppType>(T)->fn();
      const auto *C = T ? core::dyn_cast<core::ConType>(T) : nullptr;
      if (C && A.Tag < C->tycon()->dataCons().size())
        A.Con = C->tycon()->dataCons()[A.Tag]->name().str();
    } else if (Result<const lcalc::Type *> T = Comp->formalType()) {
      const auto *D = lcalc::dyn_cast<lcalc::DataType>(*T);
      if (D && A.Tag < D->decl()->numCons())
        A.Con = D->decl()->con(A.Tag).Name.str();
    }
    if (A.Con.empty())
      A.Con = "<con " + std::to_string(A.Tag) + ">";
  }
  R.Display = print(A);
  if (A.K == Answer::Kind::Int)
    R.IntValue = A.I;
  else if (A.K == Answer::Kind::Double)
    R.DoubleValue = A.D;
  else if (A.Con == "I#" && A.Fields.size() == 1 &&
           A.Fields[0].K == Answer::Kind::Int)
    R.IntValue = A.Fields[0].I;
}

void answerTree(RunResult &R, const runtime::Value *V) {
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
  set(R, std::move(A));
}

void answerMachine(RunResult &R, const mcalc::Term *V, const Compilation &Comp,
                   std::string_view Global) {
  Answer A;
  if (const auto *Lit = mcalc::dyn_cast<mcalc::LitTerm>(V))
    A = ofInt(Lit->value());
  else if (const auto *DLit = mcalc::dyn_cast<mcalc::DLitTerm>(V))
    A = ofDouble(DLit->value());
  else if (const auto *Box = mcalc::dyn_cast<mcalc::ConLitTerm>(V))
    A = intBox(Box->value());
  else if (const auto *C = mcalc::dyn_cast<mcalc::ConTerm>(V)) {
    A = {.K = Answer::Kind::Con, .Tag = C->tag()};
    for (const mcalc::MAtom &F : C->args())
      A.Fields.push_back(!F.IsLit  ? lifted()
                         : F.IsDbl ? ofDouble(F.DblLit)
                                   : ofInt(F.Lit));
  }
  set(R, std::move(A), &Comp, Global);
}

void answerVm(RunResult &R, bytecode::Slot V, const Compilation &Comp,
              std::string_view Global) {
  Answer A;
  if (V.isInt())
    A = ofInt(V.I);
  else if (V.isDbl())
    A = ofDouble(V.D);
  else if (V.P->Kind == bytecode::Obj::K::Con) {
    A = {.K = Answer::Kind::Con, .Con = V.P->IsBox ? "I#" : "",
         .Tag = V.P->Tag};
    for (bytecode::Slot F : V.P->Fields)
      A.Fields.push_back(F.isInt()   ? ofInt(F.I)
                         : F.isDbl() ? ofDouble(F.D)
                                     : lifted());
  }
  set(R, std::move(A), &Comp, Global);
}

void answerFormal(RunResult &R, const lcalc::Expr *V) {
  // Type and rep abstraction are erased at run time (§4.3).
  while (lcalc::isa<lcalc::TyLamExpr>(V) || lcalc::isa<lcalc::RepLamExpr>(V))
    V = lcalc::isa<lcalc::TyLamExpr>(V)
            ? lcalc::cast<lcalc::TyLamExpr>(V)->body()
            : lcalc::cast<lcalc::RepLamExpr>(V)->body();
  Answer A;
  if (const auto *Lit = lcalc::dyn_cast<lcalc::IntLitExpr>(V))
    A = ofInt(Lit->value());
  else if (const auto *DLit = lcalc::dyn_cast<lcalc::DoubleLitExpr>(V))
    A = ofDouble(DLit->value());
  else if (const auto *C = lcalc::dyn_cast<lcalc::ConExpr>(V)) {
    const lcalc::LDataCon &DC = C->decl()->con(C->tag());
    A = ofCon(DC.Name.str());
    for (size_t J = 0; J != C->args().size(); ++J)
      A.Fields.push_back(
          DC.FieldReps[J] == lcalc::ConcreteRep::I
              ? ofInt(lcalc::cast<lcalc::IntLitExpr>(C->args()[J])->value())
          : DC.FieldReps[J] == lcalc::ConcreteRep::D
              ? ofDouble(
                    lcalc::cast<lcalc::DoubleLitExpr>(C->args()[J])->value())
              : lifted());
  }
  set(R, std::move(A));
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

void fillFromMachine(RunResult &R, const mcalc::MachineResult &MR,
                     const Compilation &Comp, std::string_view Global) {
  R.Machine = MR.Stats;
  if (fillStatus(R, MR.Status, MR.ErrorMessage, "machine stuck: ",
                 MR.StuckReason))
    answerMachine(R, MR.Value, Comp, Global);
}

void fillFromVm(RunResult &R, const bytecode::VmResult &VR,
                const Compilation &Comp, std::string_view Global) {
  R.Vm = VR.Stats;
  if (fillStatus(R, VR.Out, VR.ErrorMessage, "bytecode vm stuck: ",
                 VR.StuckReason))
    answerVm(R, VR.Final, Comp, Global);
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
  // output — failed and formal compilations were rejected in run() —
  // but keep the message honest should another path ever get here.
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
    answerTree(R, IR.V);
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
  Result<const mcalc::Term *> T = Comp->machineTerm(Name);
  if (!T) {
    R.St = RunResult::Status::Unsupported;
    R.Error = T.error();
    R.Millis = millisSince(Start);
    return R;
  }
  // The machine itself is per-run state. It runs over this executor's
  // run-scoped MContext (reset each run) rather than the Compilation's
  // shared one, so run-time substitution terms and heap cells are
  // reclaimed between runs instead of accumulating in the artifact.
  mcalc::Machine M(runContext());
  mcalc::MachineResult MR = M.run(*T, Opts.MaxMachineSteps);
  R.Millis = millisSince(Start);
  fillFromMachine(R, MR, *Comp, Name);
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
  auto Start = std::chrono::steady_clock::now();
  Result<const bytecode::Module *> Mod = Comp->bytecodeModule(Name);
  if (!Mod) {
    // The M lowering gates fragment membership exactly as for the machine
    // backend: a global outside the L fragment is Unsupported with the
    // same "not expressible in L" diagnostic, on every backend. An M term
    // outside the bytecode fragment falls back to the term-graph machine
    // (never miscompile, never fail a program the machine can run); Used
    // reports the backend that actually ran.
    Result<const mcalc::Term *> T = Comp->machineTerm(Name);
    if (T)
      return runMachine(Name);
    RunResult R;
    R.Used = Backend::Bytecode;
    R.St = RunResult::Status::Unsupported;
    R.Error = T.error();
    R.Millis = millisSince(Start);
    return R;
  }
  bytecode::VmResult VR = vm().run(**Mod, Opts.MaxVmSteps);
  RunResult R;
  R.Used = Backend::Bytecode;
  R.Millis = millisSince(Start);
  fillFromVm(R, VR, *Comp, Name);
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
  if (Comp->formalTerm()) {
    R.St = RunResult::Status::Unsupported;
    R.Error = "formal compilations run via run() / run(Backend)";
    return R;
  }
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

RunResult Executor::run() { return run(Opts.DefaultBackend); }

RunResult Executor::run(Backend B) {
  if (!Comp->formalTerm()) {
    RunResult R;
    R.Used = B;
    R.St = RunResult::Status::Unsupported;
    R.Error = "surface compilations run via run(name)";
    return R;
  }
  return runFormal(B);
}

//===----------------------------------------------------------------------===//
// The formal pipeline
//===----------------------------------------------------------------------===//

RunResult Executor::runFormal(Backend B) {
  RunResult R;
  R.Used = B;
  if (!Comp->ok()) {
    R.St = RunResult::Status::RuntimeError;
    R.Error = "compilation failed:\n" + Comp->diagText();
    return R;
  }
  const lcalc::Expr *Term = Comp->formalTerm();

  if (B == Backend::TreeInterp) {
    // Figure 4: the type-directed small-step semantics.
    lcalc::Evaluator Ev(Comp->lctx());
    auto Start = std::chrono::steady_clock::now();
    lcalc::RunResult LR = Ev.runClosed(Term, Opts.MaxFormalSteps);
    R.Millis = millisSince(Start);
    R.Interp.EvalSteps = LR.Steps;
    switch (LR.Final) {
    case lcalc::StepStatus::Value:
      R.St = RunResult::Status::Ok;
      answerFormal(R, LR.Last);
      break;
    case lcalc::StepStatus::Bottom:
      R.St = RunResult::Status::Bottom;
      R.Error = "error (S_ERROR rule)";
      break;
    case lcalc::StepStatus::Stuck:
      R.St = RunResult::Status::RuntimeError;
      R.Error = "L evaluation stuck at " + LR.Last->str();
      break;
    case lcalc::StepStatus::Stepped:
      R.St = RunResult::Status::OutOfFuel;
      R.Error = "out of fuel";
      break;
    }
    return R;
  }

  // Figures 5-7: compile to M (memoized in the artifact) and run.
  Result<const mcalc::Term *> MTerm = Comp->formalMachineTerm();
  if (!MTerm) {
    R.St = RunResult::Status::Unsupported;
    R.Error = MTerm.error();
    return R;
  }

  if (B == Backend::Bytecode) {
    Result<const bytecode::Module *> Mod = Comp->formalBytecodeModule();
    if (Mod) {
      auto Start = std::chrono::steady_clock::now();
      bytecode::VmResult VR = vm().run(**Mod, Opts.MaxVmSteps);
      R.Millis = millisSince(Start);
      fillFromVm(R, VR, *Comp, {});
      return R;
    }
    // Out of the bytecode fragment: fall back to the machine (below),
    // reporting the backend that actually ran.
    R.Used = Backend::AbstractMachine;
  }

  mcalc::Machine M(runContext());
  auto Start = std::chrono::steady_clock::now();
  mcalc::MachineResult MR = M.run(*MTerm, Opts.MaxMachineSteps);
  R.Millis = millisSince(Start);
  fillFromMachine(R, MR, *Comp, {});
  return R;
}
