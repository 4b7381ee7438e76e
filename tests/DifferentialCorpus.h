//===- DifferentialCorpus.h - The shared differential program corpus ------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The ~70-program corpus shared by four harnesses:
//
//   * tests/differential_backend_test.cpp — every program runs on all
//     three backends and the RunResults, printed answers included, must
//     agree;
//   * tests/artifact_store_test.cpp — every program round-trips through
//     serialize → deserialize → run with identical RunResults;
//   * tests/soak_test.cpp — every program runs in a long loop on reused
//     Executors whose peak heap must plateau;
//   * examples/shared_store.cpp — the two-process store-sharing demo
//     (process A populates a store, process B must get 100% disk hits).
//
// Keep additions here so all the harnesses grow together: arithmetic,
// comparisons, cases, lets, lambdas, loops, Double#, constructor
// answers, levity-polymorphic programs, bottoms, and the known
// out-of-fragment shapes (InFragment == false), which every harness
// must see reported as Unsupported — never a crash or silent
// divergence. Rejected lists the programs Core Lint's Section 5.1 checks
// refuse.
//
//===----------------------------------------------------------------------===//

#ifndef LEVITY_TESTS_DIFFERENTIALCORPUS_H
#define LEVITY_TESTS_DIFFERENTIALCORPUS_H

#include "support/Diagnostics.h"

#include <cstddef>

namespace levity {
namespace testing {

struct CorpusProgram {
  const char *Label;   ///< Test-output name.
  const char *Source;  ///< Surface program text.
  const char *Global;  ///< Top-level binding to evaluate.
  bool InFragment;     ///< False: the machine must report Unsupported.
};

/// §7.3's class Num (a :: TYPE r), with instances at Int# and Int.
#define LEVITY_CORPUS_NUM_CLASS                                              \
  "class Num (a :: TYPE r) where {"                                          \
  "  (+) :: a -> a -> a ;"                                                   \
  "  abs :: a -> a"                                                          \
  "} ;"                                                                      \
  "instance Num Int# where {"                                                \
  "  (+) x y = x +# y ;"                                                     \
  "  abs n = case n <# 0# of { 1# -> negateInt# n ; _ -> n }"                \
  "} ;"                                                                      \
  "instance Num Int where {"                                                 \
  "  (+) a b = case a of { I# x -> case b of { I# y -> I# (x +# y) } } ;"    \
  "  abs n = case n < 0 of { True -> 0 - n ; False -> n }"                   \
  "} ;"

inline constexpr CorpusProgram Corpus[] = {
    // Int# arithmetic.
    {"IntLiteral", "v = 42#", "v", true},
    {"Add", "v = 40# +# 2#", "v", true},
    {"NestedArith", "v = (1# +# 2#) *# (3# +# 4#)", "v", true},
    {"SubToNegative", "v = 5# -# 9#", "v", true},
    {"MulChain", "v = 2# *# 3# *# 7#", "v", true},
    {"Quot", "v = quotInt# 17# 5#", "v", true},
    {"Rem", "v = remInt# 17# 5#", "v", true},
    // Both division hazards must fail as runtime errors on both
    // backends, never crash the process.
    {"QuotByZeroAgrees", "v = quotInt# 1# 0#", "v", true},
    {"QuotOverflowDoesNotCrash",
     "v = quotInt# (0# -# 9223372036854775807# -# 1#) (0# -# 1#)", "v",
     true},
    {"Negate", "v = negateInt# 21#", "v", true},

    // Int# comparisons (0/1 results).
    {"LtTrue", "v = 3# <# 4#", "v", true},
    {"LtFalse", "v = 4# <# 3#", "v", true},
    {"LeEqual", "v = 4# <=# 4#", "v", true},
    {"Gt", "v = 9# ># 2#", "v", true},
    {"GeFalse", "v = 1# >=# 2#", "v", true},
    {"EqHash", "v = 5# ==# 5#", "v", true},
    {"NeFalse", "v = 5# /=# 5#", "v", true},

    // Boxing, cases, lets, lambdas.
    {"BoxedRoundTrip",
     "inc :: Int -> Int ;"
     "inc n = case n of { I# x -> I# (x +# 1#) } ;"
     "v = inc (inc (I# 40#))",
     "v", true},
    {"SurfaceLet", "v = let y = 20# in y +# 22#", "v", true},
    {"LambdaApply",
     "apply :: (Int# -> Int#) -> Int# -> Int# ;"
     "apply f x = f x ;"
     "v = apply (\\y -> y *# 3#) 14#",
     "v", true},
    {"LitCaseFirstAlt",
     "f :: Int# -> Int# ;"
     "f x = case x of { 0# -> 100# ; 1# -> 200# ; _ -> x } ;"
     "v = f 0#",
     "v", true},
    {"LitCaseSecondAlt",
     "f :: Int# -> Int# ;"
     "f x = case x of { 0# -> 100# ; 1# -> 200# ; _ -> x } ;"
     "v = f 1#",
     "v", true},
    {"LitCaseDefaultAlt",
     "f :: Int# -> Int# ;"
     "f x = case x of { 0# -> 100# ; 1# -> 200# ; _ -> x } ;"
     "v = f 9#",
     "v", true},
    {"BoxedLitCase",
     "f :: Int -> Int ;"
     "f n = case n of { 0 -> I# 7# ; _ -> n } ;"
     "v = f (I# 0#)",
     "v", true},

    // Loops and recursion (the fix/RECLET path).
    {"SumToUnboxed",
     "sumToH :: Int# -> Int# -> Int# ;"
     "sumToH acc n = case n of {"
     "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
     "} ;"
     "v = sumToH 0# 100#",
     "v", true},
    {"SumToUnboxedZeroIters",
     "sumToH :: Int# -> Int# -> Int# ;"
     "sumToH acc n = case n of {"
     "  0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#)"
     "} ;"
     "v = sumToH 0# 0#",
     "v", true},
    {"FibViaComparisonCase",
     "fib :: Int# -> Int# ;"
     "fib n = case (n <# 2#) of { 1# -> n ; _ ->"
     "  fib (n -# 1#) +# fib (n -# 2#) } ;"
     "v = fib 12#",
     "v", true},
    {"MutualViaSelfParity",
     "parity :: Int# -> Int# ;"
     "parity n = case n of { 0# -> 0# ; _ ->"
     "  case (parity (n -# 1#)) of { 0# -> 1# ; _ -> 0# } } ;"
     "v = parity 7#",
     "v", true},
    {"BoxedSumToLoop",
     "sumTo :: Int -> Int -> Int ;"
     "sumTo acc n = case n of {"
     "  0 -> acc ; _ -> sumTo (acc + n) (n - 1)"
     "} ;"
     "v = sumTo (I# 0#) (I# 50#)",
     "v", true},

    // Double#.
    {"DoubleAdd", "v = 1.5## +## 2.25##", "v", true},
    {"DoubleDiv", "v = 7.0## /## 2.0##", "v", true},
    {"DoubleNegate", "v = negateDouble# 2.5##", "v", true},
    // negateDouble# lowers to -0.0## -## x; plain 0.0## -## x would give
    // +0.0 for x = 0.0 and flip this quotient's infinity sign.
    {"DoubleNegateSignedZero",
     "v = 1.0## /## (negateDouble# 0.0##)", "v", true},
    {"DoubleLtTrue", "v = 2.5## <## 2.75##", "v", true},
    {"DoubleEqFalse", "v = 2.5## ==## 2.75##", "v", true},
    {"DoubleSumLoop",
     "sumD :: Double# -> Double# -> Double# ;"
     "sumD acc n = case (n ==## 0.0##) of {"
     "  1# -> acc ; _ -> sumD (acc +## n) (n -## 1.0##)"
     "} ;"
     "v = sumD 0.0## 100.0##",
     "v", true},
    {"MixedDoubleComparisonToInt",
     "v = case (3.0## <## 4.0##) of { 1# -> 10# ; _ -> 20# }", "v", true},

    // Algebraic data through the machine pipeline: Bool, Maybe, lists,
    // nested cases, default alternatives, lazy constructor fields.
    {"BoolIf", "v = if isTrue# (3# <# 4#) then 1# else 0#", "v", true},
    {"BoolNot",
     "not :: Bool -> Bool ;"
     "not b = case b of { True -> False ; False -> True } ;"
     "v = case not True of { True -> 1# ; False -> 0# }",
     "v", true},
    {"BoolCaseDefault",
     "v = case False of { True -> 1# ; _ -> 0# }", "v", true},
    {"MaybeJust",
     "data Maybe a = Nothing | Just a ;"
     "fromMaybe :: Int# -> Maybe Int -> Int# ;"
     "fromMaybe d m = case m of {"
     "  Nothing -> d ; Just n -> case n of { I# x -> x }"
     "} ;"
     "v = fromMaybe 0# (Just (I# 42#))",
     "v", true},
    {"MaybeNothing",
     "data Maybe a = Nothing | Just a ;"
     "fromMaybe :: Int# -> Maybe Int -> Int# ;"
     "fromMaybe d m = case m of {"
     "  Nothing -> d ; Just n -> case n of { I# x -> x }"
     "} ;"
     "v = fromMaybe 7# Nothing",
     "v", true},
    {"MaybeNested",
     "data Maybe a = Nothing | Just a ;"
     "v = case Just (Just (I# 5#)) of {"
     "  Nothing -> 0# ;"
     "  Just m -> case m of {"
     "    Nothing -> 1# ; Just n -> case n of { I# x -> x } } }",
     "v", true},
    {"SumList",
     "data IntList = Nil | Cons Int IntList ;"
     "sumList :: IntList -> Int# ;"
     "sumList xs = case xs of {"
     "  Nil -> 0# ;"
     "  Cons y ys -> case y of { I# n -> n +# sumList ys }"
     "} ;"
     "v = sumList (Cons (I# 1#) (Cons (I# 2#) (Cons (I# 3#) Nil)))",
     "v", true},
    {"ListLength",
     "data IntList = Nil | Cons Int IntList ;"
     "len :: IntList -> Int# ;"
     "len xs = case xs of { Nil -> 0# ; Cons y ys -> 1# +# len ys } ;"
     "v = len (Cons (I# 9#) (Cons (I# 9#) Nil))",
     "v", true},
    {"UnboxedFieldCon",
     "data Acc = MkAcc Int# Double# ;"
     "v = case MkAcc (40# +# 2#) 1.5## of { MkAcc n d -> n }",
     "v", true},
    {"LazyConField",
     // The second field is lifted, so the error thunk must never be
     // forced on either backend.
     "data P = MkP Int Int ;"
     "v = case MkP (I# 7#) (error \"never forced\") of {"
     "  MkP a b -> case a of { I# x -> x } }",
     "v", true},
    {"ColorCaseWithDefault",
     "data Color = Red | Green | Blue ;"
     "rank :: Color -> Int# ;"
     "rank c = case c of { Red -> 1# ; _ -> 99# } ;"
     "v = rank Green +# rank Red",
     "v", true},
    {"BoxedDoubleRoundTrip",
     "v = case D# 2.5## of { D# d -> d +## 0.25## }", "v", true},
    // The answer's fields are read by rep and never forced: an unboxed
    // field prints its value (and is no I# box), a lifted one prints `_`
    // even when it is an infinite structure.
    {"UnaryIntHashCon", "data W = W Int# ; v = W 5#", "v", true},
    {"CyclicOnes",
     "data IntList = Nil | Cons Int IntList ;"
     "ones :: IntList ;"
     "ones = Cons (I# 1#) ones ;"
     "v = ones",
     "v", true},
    {"DefaultOnlyCaseOnVariable",
     // PR-5 fix: a default-only case (here over an Int# variable the
     // caller already evaluated) is in fragment.
     "f :: Int# -> Int# ;"
     "f x = case x of { _ -> x +# 1# } ;"
     "v = f 41#",
     "v", true},

    // Levity polymorphism (§5.1, §7.2-7.3): each program binds or passes
    // only values of a fixed rep, so it compiles to fixed calling
    // conventions and runs on every backend.
    {"ApplyToAtIntHash",
     "applyTo :: forall r (b :: TYPE r). Int -> (Int -> b) -> b ;"
     "applyTo x f = f x ;"
     "unbox :: Int -> Int# ;"
     "unbox n = case n of { I# h -> h } ;"
     "v = applyTo (I# 41#) unbox +# 1#",
     "v", true},
    {"ApplyToAtDoubleHash",
     "applyTo :: forall r (b :: TYPE r). Int -> (Int -> b) -> b ;"
     "applyTo x f = f x ;"
     "half :: Int -> Double# ;"
     "half n = case n of { I# h -> case h of { 0# -> 0.0## ; _ -> 2.5## } } ;"
     "v = applyTo (I# 1#) half",
     "v", true},
    {"ComposeAtIntHash",
     "succ :: Int -> Int ;"
     "succ n = case n of { I# h -> I# (h +# 1#) } ;"
     "unbox :: Int -> Int# ;"
     "unbox n = case n of { I# h -> h } ;"
     "v = (unbox . succ) (I# 41#)",
     "v", true},
    // $ and . at an Int# result, beside a module `id` that shadows the
    // prelude's: every backend must run the module's.
    {"DollarComposeAtIntHashShadowingId",
     "unbox :: Int -> Int# ;"
     "unbox n = case n of { I# h -> h } ;"
     "id :: Int -> Int ;"
     "id n = case n of { I# h -> I# (h *# 2#) } ;"
     "v = (unbox . id) (I# 20#) +# (unbox $ I# 2#)",
     "v", true},
    {"ErrorAtIntHash", "v = 1# +# error \"levity-polymorphic error\"", "v",
     true},
    {"NumClassAtIntHash", LEVITY_CORPUS_NUM_CLASS "v = 3# + 4#", "v", true},
    {"Abs1EtaReduced",
     LEVITY_CORPUS_NUM_CLASS
     "abs1 :: forall r (a :: TYPE r). Num a => a -> a ;"
     "abs1 = abs ;"
     "v = abs1 (0# -# 3#)",
     "v", true},
    {"NumClassAtLiftedInt", LEVITY_CORPUS_NUM_CLASS "v = 3 + 4", "v", true},

    // Bottom: the diagnostic must match across backends.
    {"ErrorBottom",
     "v :: Int# ;"
     "v = error \"differential bottom\"",
     "v", true},
    {"UnsupportedUnboxedTuple", "v = (# 1#, 2# #)", "v", false},
    {"UnsupportedConversion", "v = int2Double# 3#", "v", false},
    // A mutually recursive let; top-level mutual recursion runs (below).
    {"UnsupportedMutualRecursion",
     "v :: Int# ;"
     "v = let { ev n = case n of { 0# -> 1# ; _ -> od (n -# 1#) } ;"
     "          od n = case n of { 0# -> 0# ; _ -> ev (n -# 1#) } }"
     "    in ev 10#",
     "v", false},
    // Top-level mutual recursion: each global reaches the other's cell.
    {"IsEvenIsOdd",
     "isEven :: Int# -> Int# ;"
     "isEven n = case n of { 0# -> 1# ; _ -> isOdd (n -# 1#) } ;"
     "isOdd :: Int# -> Int# ;"
     "isOdd n = case n of { 0# -> 0# ; _ -> isEven (n -# 1#) } ;"
     "v = isEven 10#",
     "v", true},
    // A global is evaluated only when demanded, unlifted ones included.
    {"UnusedBottomGlobal",
     "bad :: Int# ;"
     "bad = error \"boom\" ;"
     "pick :: Int# -> Int# ;"
     "pick n = case n of { 0# -> 3# ; _ -> bad } ;"
     "v = pick 0#",
     "v", true},
};

inline constexpr size_t CorpusSize = sizeof(Corpus) / sizeof(Corpus[0]);

/// A program Core Lint's Section 5.1 checks must reject with a typed
/// diagnostic.
struct RejectedProgram {
  const char *Label;
  const char *Source;
  DiagCode Code;
};

/// The other side of the §5.1 boundary: binding a value whose rep is a
/// variable has no fixed calling convention.
inline constexpr RejectedProgram Rejected[] = {
    // §7.3: η-expanding the accepted abs1 binds x :: a :: TYPE r.
    {"Abs2EtaExpanded",
     LEVITY_CORPUS_NUM_CLASS
     "abs2 :: forall r (a :: TYPE r). Num a => a -> a ;"
     "abs2 x = abs x",
     DiagCode::LevityPolymorphicBinder},
    {"RepPolyParameter",
     "bad :: forall r (a :: TYPE r). a -> Int ;"
     "bad x = 0",
     DiagCode::LevityPolymorphicBinder},
};

#undef LEVITY_CORPUS_NUM_CLASS

} // namespace testing
} // namespace levity

#endif // LEVITY_TESTS_DIFFERENTIALCORPUS_H
