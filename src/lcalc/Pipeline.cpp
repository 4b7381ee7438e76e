//===- Pipeline.cpp - The Section 6 formal pipeline as one harness --------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "lcalc/Pipeline.h"
#include "anf/Compile.h"
#include "driver/Answer.h"
#include "lcalc/Eval.h"

#include <tuple>

using namespace levity;
using namespace levity::lcalc;
using driver::Answer;
using Status = PipelineResult::Status;

namespace {

/// Reads a Figure 4 value. Type and rep abstraction are erased at run
/// time (§4.3).
Answer readValue(const Expr *V) {
  while (isa<TyLamExpr>(V) || isa<RepLamExpr>(V))
    V = isa<TyLamExpr>(V) ? cast<TyLamExpr>(V)->body()
                          : cast<RepLamExpr>(V)->body();
  Answer A;
  if (const auto *Lit = dyn_cast<IntLitExpr>(V))
    A = driver::ofInt(Lit->value());
  else if (const auto *DLit = dyn_cast<DoubleLitExpr>(V))
    A = driver::ofDouble(DLit->value());
  else if (const auto *C = dyn_cast<ConExpr>(V)) {
    const LDataCon &DC = C->decl()->con(C->tag());
    A = driver::ofCon(DC.Name.str());
    for (size_t J = 0; J != C->args().size(); ++J)
      A.Fields.push_back(
          DC.FieldReps[J] == ConcreteRep::I
              ? driver::ofInt(cast<IntLitExpr>(C->args()[J])->value())
          : DC.FieldReps[J] == ConcreteRep::D
              ? driver::ofDouble(cast<DoubleLitExpr>(C->args()[J])->value())
              : driver::lifted());
  }
  return A;
}

/// The status and error text of a finished machine or VM run.
template <typename Outcome>
std::pair<Status, std::string> ending(Outcome O, const std::string &Error,
                                      std::string Stuck) {
  switch (O) {
  case Outcome::Value:
    return {Status::Ok, ""};
  case Outcome::Bottom:
    return {Status::Bottom, Error.empty() ? "error (ERR rule)" : Error};
  case Outcome::Stuck:
    return {Status::Stuck, std::move(Stuck)};
  case Outcome::OutOfFuel:
    break;
  }
  return {Status::OutOfFuel, "out of fuel"};
}

} // namespace

Pipeline::Pipeline(const std::function<const Expr *(LContext &)> &Build)
    : Term(Build(L)), Ty(Term ? TypeChecker(L).typeOfClosed(Term)
                              : err("term builder returned null")) {}

PipelineResult Pipeline::run(Engine E, uint64_t Fuel) {
  PipelineResult R;
  auto Fail = [&](Status St, std::string Why) {
    R.St = St;
    R.Error = std::move(Why);
    return R;
  };
  // M and bytecode values carry only a constructor's tag; the name comes
  // from the L data declaration of the term's type.
  auto SetAnswer = [&](Answer A) {
    if (A.K == Answer::Kind::Con && A.Con.empty())
      if (const auto *D = dyn_cast<DataType>(*Ty))
        if (A.Tag < D->decl()->numCons())
          A.Con = D->decl()->con(A.Tag).Name.str();
    R.Display = driver::print(A);
    R.IntValue = driver::intValue(A);
    return R;
  };
  if (!Ty)
    return Fail(Status::IllTyped, Ty.error());

  if (E == Engine::SmallStep) {
    lcalc::RunResult LR = Evaluator(L).runClosed(Term, Fuel);
    R.Steps = LR.Steps;
    if (LR.Final == StepStatus::Bottom)
      return Fail(Status::Bottom, "error (S_ERROR rule)");
    if (LR.Final == StepStatus::Stuck)
      return Fail(Status::Stuck, "L evaluation stuck at " + LR.Last->str());
    if (LR.Final == StepStatus::Stepped)
      return Fail(Status::OutOfFuel, "out of fuel");
    R.St = Status::Ok;
    return SetAnswer(readValue(LR.Last));
  }

  Result<const mcalc::Term *> MTerm = anf::Compiler(L, MC).compileClosed(Term);
  if (!MTerm)
    return Fail(Status::Unsupported, MTerm.error());

  if (E == Engine::Machine) {
    mcalc::MachineResult MR = mcalc::Machine(MC).run(*MTerm, Fuel);
    R.Machine = MR.Stats;
    R.Steps = MR.Stats.Steps;
    std::tie(R.St, R.Error) = ending(MR.Status, MR.ErrorMessage,
                                     "machine stuck: " + MR.StuckReason);
    return R.ok() ? SetAnswer(driver::readMachine(MR.Value)) : R;
  }

  Result<std::shared_ptr<const bytecode::Module>> Mod =
      bytecode::compile(*MTerm);
  if (!Mod)
    return Fail(Status::Unsupported, Mod.error());
  // The answer is read before the Vm (and its heap) goes away.
  bytecode::Vm Vm;
  bytecode::VmResult VR = Vm.run(**Mod, Fuel);
  R.Vm = VR.Stats;
  R.Steps = VR.Stats.Steps;
  std::tie(R.St, R.Error) = ending(VR.Out, VR.ErrorMessage,
                                   "bytecode vm stuck: " + VR.StuckReason);
  return R.ok() ? SetAnswer(driver::readVm(VR.Final)) : R;
}
