//===- Gen.h - Seeded programs for the compile workloads --------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic surface programs for the compile-cold and store-warm
/// workloads. Program i of a seed is a function of (seed, i) alone, and
/// its answer is computed here in closed form — never by the compiler
/// under test — the way server::makeWorkload does for levp-hot.
///
/// A program is a list of *slots*. Each slot is one instance of a
/// family (helper function(s) plus a use site in the answer); the
/// answer `ans :: Int#` adds every slot's use plus a per-program unique
/// constant, so no two programs of one seed share source text. Helper
/// names depend only on the slot position, so the symbol tables stay
/// bounded however many programs a run compiles.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_PERFBENCH_GEN_H
#define LEVITY_PERFBENCH_GEN_H

#include <cstdint>
#include <string>

namespace perfbench {

struct GenProgram {
  std::string Source;
  int64_t Expected = 0; ///< The value of AnswerName, in closed form.
};

/// The global every generated program binds its answer to.
inline constexpr const char *AnswerName = "ans";

/// Program \p Index of stream \p Seed. Sizes follow a fixed mix per
/// block of 20 programs — 14 small (1-2 slots), 5 medium (8-12), 1 large
/// (50 slots, roughly 10 KB) — shuffled by the seed inside the block.
GenProgram generateProgram(uint64_t Seed, uint64_t Index);

} // namespace perfbench

#endif // LEVITY_PERFBENCH_GEN_H
