//===- Prelude.h - The builtin environment, built once ---------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prelude every program starts from: the built-in tycons and datacons
/// of CoreContext, the `List`/`Pair` type constructors behind the surface
/// type sugar, and the builtin globals (boxed Int arithmetic and
/// comparisons, `id`, and Section 7.2's levity-polymorphic `$` and `.`).
///
/// It is built once per process, on first use, into its own context. The
/// build runs Core Lint over it, which sets its strictness bits and
/// checks Section 5.1 once, at definition, as GHC checks `base` once
/// rather than in every module; then it freezes. Nothing writes it
/// afterwards, so every CoreContext — a child of this one — and every
/// thread reads it without locking.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_CORE_PRELUDE_H
#define LEVITY_CORE_PRELUDE_H

#include "core/CoreContext.h"
#include "core/Program.h"
#include "support/Diagnostics.h"

#include <span>
#include <string_view>
#include <vector>

namespace levity {
namespace core {

class Prelude {
public:
  /// The process's prelude, built by the first caller (thread-safe).
  static const Prelude &get();

  Prelude(const Prelude &) = delete;
  Prelude &operator=(const Prelude &) = delete;

  /// The frozen context holding every prelude name, type and term.
  const CoreContext &context() const { return Ctx; }

  /// The builtin globals, in definition order.
  std::span<const TopBinding> bindings() const { return Bindings; }
  /// The builtin global named \p Name, or null.
  const TopBinding *lookup(std::string_view Name) const;

  /// List :: Type -> Type and Pair :: Type -> Type -> Type.
  const TyCon *listTyCon() const { return ListTC; }
  const TyCon *pairTyCon() const { return PairTC; }

  /// What Core Lint reported on the builtins when the prelude was built:
  /// nothing, unless the builtins are wrong.
  const DiagnosticEngine &diagnostics() const { return Diags; }

private:
  Prelude();
  void addBuiltins();

  CoreContext Ctx;
  std::vector<TopBinding> Bindings;
  const TyCon *ListTC = nullptr;
  const TyCon *PairTC = nullptr;
  DiagnosticEngine Diags;
};

} // namespace core
} // namespace levity

#endif // LEVITY_CORE_PRELUDE_H
