//===- PipelineFixture.h - Shared driver-backed test fixture ----*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end pipeline fixture shared by the integration and surface
/// test suites: one driver::Session per test, with thin views over the
/// Compilation (immutable artifact) and its Executor (this test's run
/// state) so assertions read like the old hand-wired pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_TESTS_PIPELINEFIXTURE_H
#define LEVITY_TESTS_PIPELINEFIXTURE_H

#include "driver/Executor.h"
#include "driver/Session.h"

#include <optional>

namespace levity {

struct Pipeline {
  driver::Session S;
  std::shared_ptr<driver::Compilation> Comp;
  std::optional<driver::Executor> Exec;

  bool compile(std::string_view Src) {
    Comp = S.compile(Src);
    Exec.emplace(Comp);
    return Comp->ok();
  }

  runtime::InterpResult evalName(std::string_view Name) {
    return Exec->evalName(Name);
  }

  const DiagnosticEngine &diags() const { return Comp->diags(); }
  runtime::Interp &interp() { return Exec->interp(); }
  core::CoreContext &ctx() { return Comp->ctx(); }
  const surface::Elaborator &elaborator() const {
    return Comp->elaborator();
  }
};

/// A tree run's final Int#, or nullopt.
inline std::optional<int64_t> intHash(const runtime::Value *V) {
  if (V && V->T == runtime::Value::Tag::IntHash)
    return V->I;
  return std::nullopt;
}

/// A tree run's final Double#, or nullopt.
inline std::optional<double> doubleHash(const runtime::Value *V) {
  if (V && V->T == runtime::Value::Tag::DoubleHash)
    return V->D;
  return std::nullopt;
}

/// The payload of a tree run's final I# box, or nullopt.
inline std::optional<int64_t> boxedInt(const runtime::Value *V) {
  if (V && V->T == runtime::Value::Tag::Con && V->DC->name().str() == "I#")
    return V->Fields[0]->I;
  return std::nullopt;
}

} // namespace levity

#endif // LEVITY_TESTS_PIPELINEFIXTURE_H
