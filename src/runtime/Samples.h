//===- Samples.h - The paper's example programs as core IR ------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for the programs the paper uses as running examples, in core
/// IR form. Shared by unit tests, benchmarks (E1/E3/E8) and the example
/// executables:
///
///   * sumTo   — Section 2.1's boxed loop (thunks + boxes per iteration);
///   * sumTo#  — Section 2.1's unboxed loop (registers only);
///   * sumToD# — the Double# variant (float registers);
///   * divMod  — Section 2.3's multi-return, boxed pair vs unboxed tuple;
///   * plusInt — Section 2.1's unbox/rebox pattern.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_RUNTIME_SAMPLES_H
#define LEVITY_RUNTIME_SAMPLES_H

#include "core/CoreContext.h"
#include "core/Program.h"

namespace levity {
namespace runtime {

/// Builds the boxed-pair type `data Pair = MkPair Int Int` in \p C (used
/// by the boxed divMod variant). Idempotent per context.
const core::DataCon *pairDataCon(core::CoreContext &C);

/// sumTo :: Int -> Int -> Int, the boxed loop. Requires the prelude's
/// plusInt and minusInt.
core::TopBinding buildSumToBoxed(core::CoreContext &C);

/// sumTo# :: Int# -> Int# -> Int#, the unboxed loop.
core::TopBinding buildSumToUnboxed(core::CoreContext &C);

/// sumToD# :: Double# -> Double# -> Double# (floating registers).
core::TopBinding buildSumToDouble(core::CoreContext &C);

/// divMod# :: Int# -> Int# -> (# Int#, Int# #): unboxed multi-return.
core::TopBinding buildDivModUnboxed(core::CoreContext &C);

/// divModBoxed :: Int -> Int -> Pair: heap-allocating multi-return.
core::TopBinding buildDivModBoxed(core::CoreContext &C);

/// A complete program with all of the above, plus the prelude's plusInt
/// and minusInt.
core::CoreProgram buildSampleProgram(core::CoreContext &C);

/// Convenience: the expression `sumTo (I# 0#) (I# n#)`.
const core::Expr *callSumToBoxed(core::CoreContext &C, int64_t N);
/// Convenience: the expression `sumTo# 0# n#`.
const core::Expr *callSumToUnboxed(core::CoreContext &C, int64_t N);
/// Convenience: `sumToD# 0.0## n##`.
const core::Expr *callSumToDouble(core::CoreContext &C, double N);
/// Convenience: `case divMod# a# b# of (# q, r #) -> q *# 1000# +# r`.
const core::Expr *callDivModUnboxed(core::CoreContext &C, int64_t A,
                                    int64_t B);
/// Convenience: boxed analogue returning q*1000+r as Int#.
const core::Expr *callDivModBoxed(core::CoreContext &C, int64_t A,
                                  int64_t B);

} // namespace runtime
} // namespace levity

#endif // LEVITY_RUNTIME_SAMPLES_H
