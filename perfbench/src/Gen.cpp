//===- Gen.cpp - Seeded program generator for the compile workloads -------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The six slot families cover what the bytecode fragment runs (see
// BENCH.md for why each was chosen):
//
//   IntLoop    Int# accumulator loop — the paper's §2.1 unboxed shape.
//   BoxedLoop  the same loop over boxed Int (Num-class +/-, I# boxes).
//   DoubleLoop Double# loop, checked by a Double# comparison to Int#.
//   LitCase    literal case with a default alternative.
//   ConCase    constructor cases: Maybe Int and Bool (if/isTrue#).
//   ListFold   user `data` cons list: build, then fold with Int# acc.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"
#include "Common.h"

#include <algorithm>
#include <array>

using namespace perfbench;

namespace {

enum Family { IntLoop, BoxedLoop, DoubleLoop, LitCase, ConCase, ListFold,
              NumFamilies };

std::string lit(int64_t V) { return std::to_string(V) + "#"; }
std::string dlit(int64_t V) { return std::to_string(V) + ".0##"; }

int64_t triangle(int64_t N) { return N * (N + 1) / 2; }

struct Emitter {
  explicit Emitter(Rng &R) : R(R) {}

  Rng &R;
  std::string Decls;
  std::string Answer;
  int64_t Expected = 0;
  bool NeedMaybe = false, NeedList = false;

  void use(const std::string &Expr, int64_t Value) {
    Answer += Answer.empty() ? "" : " +# ";
    Answer += Expr;
    Expected += Value;
  }

  void slot(unsigned K) {
    std::string F = "f";
    F += std::to_string(K);
    switch (Family(R.range(0, NumFamilies - 1))) {
    case IntLoop: {
      int64_t N = R.range(5, 40), C = R.range(1, 9);
      Decls += F + " :: Int# -> Int# -> Int# ; " + F +
               " acc n = case n of { 0# -> acc ; _ -> " + F +
               " (acc +# (n *# " + lit(C) + ")) (n -# 1#) } ; ";
      use(F + " 0# " + lit(N), C * triangle(N));
      break;
    }
    case BoxedLoop: {
      int64_t N = R.range(5, 40), C = R.range(1, 9);
      Decls += F + " :: Int -> Int -> Int ; " + F +
               " acc n = case n of { 0 -> acc ; _ -> " + F +
               " (acc + n + " + std::to_string(C) + ") (n - 1) } ; ";
      use("(case " + F + " (I# 0#) (I# " + lit(N) + ") of { I# x -> x })",
          triangle(N) + C * N);
      break;
    }
    case DoubleLoop: {
      int64_t N = R.range(5, 40), C = R.range(1, 99);
      Decls += F + " :: Double# -> Double# -> Double# ; " + F +
               " acc n = case (n ==## 0.0##) of { 1# -> acc ; _ -> " + F +
               " (acc +## n) (n -## 1.0##) } ; ";
      use("(case (" + F + " 0.0## " + dlit(N) + " ==## " + dlit(triangle(N)) +
              ") of { 1# -> " + lit(C) + " ; _ -> 0# })",
          C);
      break;
    }
    case LitCase: {
      int64_t A = R.range(1, 99), B = R.range(1, 99), C = R.range(1, 99),
              D = R.range(2, 9), S1 = R.range(0, 5), S2 = R.range(0, 5);
      Decls += F + " :: Int# -> Int# ; " + F + " x = case x of { 0# -> " +
               lit(A) + " ; 1# -> " + lit(B) + " ; 2# -> " + lit(C) +
               " ; _ -> x *# " + lit(D) + " } ; ";
      auto Val = [&](int64_t X) {
        return X == 0 ? A : X == 1 ? B : X == 2 ? C : X * D;
      };
      use("(" + F + " " + lit(S1) + " +# " + F + " " + lit(S2) + ")",
          Val(S1) + Val(S2));
      break;
    }
    case ConCase: {
      NeedMaybe = true;
      int64_t C = R.range(1, 9), D = R.range(1, 99), V = R.range(1, 99),
              E = R.range(1, 99), X = R.range(0, 9), Y = R.range(0, 9),
              A = R.range(1, 99), B = R.range(1, 99);
      Decls += F + " :: Int# -> Maybe Int -> Int# ; " + F +
               " d m = case m of { Nothing -> d ; Just n -> case n of { "
               "I# x -> x +# " + lit(C) + " } } ; ";
      use("(" + F + " " + lit(D) + " (Just (I# " + lit(V) + ")) +# " + F +
              " " + lit(E) + " Nothing +# (if isTrue# (" + lit(X) + " <# " +
              lit(Y) + ") then " + lit(A) + " else " + lit(B) + "))",
          V + C + E + (X < Y ? A : B));
      break;
    }
    case ListFold: {
      NeedList = true;
      std::string G = "g";
      G += std::to_string(K);
      int64_t N = R.range(5, 40), C = R.range(1, 9);
      Decls += G + " :: Int# -> L ; " + G + " n = case n of { 0# -> Nil ; "
               "_ -> Cons (I# (n *# " + lit(C) + ")) (" + G +
               " (n -# 1#)) } ; " + F + " :: Int# -> L -> Int# ; " + F +
               " acc xs = case xs of { Nil -> acc ; Cons y ys -> case y of "
               "{ I# m -> " + F + " (acc +# m) ys } } ; ";
      use(F + " 0# (" + G + " " + lit(N) + ")", C * triangle(N));
      break;
    }
    case NumFamilies:
      break;
    }
  }
};

uint64_t mix(uint64_t A, uint64_t B) {
  Rng R(A * 0x9e3779b97f4a7c15ULL ^ B);
  return R.next();
}

/// Every block of 20 programs has exactly the same sizes — 7 small
/// programs of 1 slot and 7 of 2, five medium ones of 8..12 slots, one
/// large one of 50 slots — shuffled by the seed. Only the families and
/// constants inside the slots are random, so two seeds give the same
/// size mix, not just the same mix on average.
unsigned slotsOf(uint64_t Seed, uint64_t Index) {
  constexpr size_t N = 20;
  uint64_t BlockNo = Index / N;
  std::array<unsigned, N> Block;
  for (size_t I = 0; I != N; ++I)
    Block[I] = I < 14 ? unsigned(1 + I % 2)
                      : I < 19 ? unsigned(8 + (I - 14)) : 50u;
  Rng R(mix(Seed, 0xb10c000000000000ULL + BlockNo));
  for (size_t I = N - 1; I != 0; --I)
    std::swap(Block[I], Block[size_t(R.next() % (I + 1))]);
  return Block[Index % N];
}

} // namespace

GenProgram perfbench::generateProgram(uint64_t Seed, uint64_t Index) {
  GenProgram P;
  Rng R(mix(Seed, Index));
  Emitter B(R);
  for (unsigned K = 0, N = slotsOf(Seed, Index); K != N; ++K)
    B.slot(K);
  // The per-program unique term: distinct source for every index.
  int64_t Unique = int64_t(Index) + 1;
  B.use(lit(Unique), Unique);

  if (B.NeedMaybe)
    P.Source += "data Maybe a = Nothing | Just a ; ";
  if (B.NeedList)
    P.Source += "data L = Nil | Cons Int L ; ";
  P.Source += B.Decls;
  P.Source += std::string(AnswerName) + " :: Int# ; " + AnswerName + " = " +
              B.Answer;
  P.Expected = B.Expected;
  return P;
}
