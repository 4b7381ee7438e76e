//===- DoubleText.h - Shortest round-trip Double# text ----------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one renderer of a Double# value as text, shared by every printer
/// and backend (tree interpreter, M and L syntax, bytecode VM, core
/// literals), so the same value displays the same way everywhere and
/// the text reads back to exactly the value printed.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_SUPPORT_DOUBLETEXT_H
#define LEVITY_SUPPORT_DOUBLETEXT_H

#include <charconv>
#include <string>

namespace levity {
namespace support {

/// The shortest text that strtod reads back to exactly \p D (for
/// example "1e-07", "0.5", "3", "0.3333333333333333").
inline std::string doubleText(double D) {
  // The longest shortest form, "-2.2250738585072014e-308", is 24 chars.
  char Buf[32];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), D);
  return std::string(Buf, R.ptr);
}

} // namespace support
} // namespace levity

#endif // LEVITY_SUPPORT_DOUBLETEXT_H
