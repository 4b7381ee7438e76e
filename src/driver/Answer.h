//===- Answer.h - The one answer printer, M and VM readers ------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every run ends in one answer, printed in surface syntax: an Int#
/// (`42#`), a Double# (`2.5##`), a constructor with its fields (`I# 42#`,
/// `MkAcc 3# 2.5##`, `Cons _ _`, `Green`), or `<closure>`. Fields are read
/// by rep at depth one and never forced (§4: only a lifted field can point
/// to a thunk), so every lifted field prints `_`. A reader must run while
/// the final value is live: before Interp::endRunEpoch, the run context's
/// reset, or the Vm's next run.
///
/// M and bytecode values carry only a constructor's tag, so readMachine
/// and readVm leave Answer::Con empty (except for `I#`). The caller names
/// the tag from what it knows of the result's type: the Executor from the
/// core tycon of the global that ran, the Section 6 harness
/// (lcalc/Pipeline.h) from the L data declaration of the term's type.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_DRIVER_ANSWER_H
#define LEVITY_DRIVER_ANSWER_H

#include "bytecode/Vm.h"
#include "mcalc/Syntax.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace levity {
namespace driver {

/// A run's final value, or a constructor's field (Int, Double or Lifted).
struct Answer {
  enum class Kind : uint8_t { Int, Double, Lifted, Con, Closure };
  Kind K = Kind::Closure;
  int64_t I = 0;
  double D = 0;
  std::string Con{}; ///< Empty while only Tag is known (prints `<con N>`).
  uint32_t Tag = 0;
  std::vector<Answer> Fields{};
};

inline Answer ofInt(int64_t I) { return {.K = Answer::Kind::Int, .I = I}; }
inline Answer ofDouble(double D) {
  return {.K = Answer::Kind::Double, .D = D};
}
inline Answer lifted() { return {.K = Answer::Kind::Lifted}; }
inline Answer ofCon(std::string_view Name) {
  return {.K = Answer::Kind::Con, .Con = std::string(Name)};
}

/// The one printer.
std::string print(const Answer &A);

/// The number an Int# answer or an `I#` box holds.
std::optional<int64_t> intValue(const Answer &A);

/// Reads an M machine value (tag only for a CON term).
Answer readMachine(const mcalc::Term *V);

/// Reads a bytecode VM value (tag only for a constructor other than `I#`).
Answer readVm(bytecode::Slot V);

} // namespace driver
} // namespace levity

#endif // LEVITY_DRIVER_ANSWER_H
