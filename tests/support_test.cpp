//===- support_test.cpp - Unit tests for the support library --------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/FileOps.h"
#include "support/Result.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <pthread.h>
#endif

using namespace levity;

namespace {

TEST(ArenaTest, AllocatesAligned) {
  Arena A;
  for (size_t Align : {1, 2, 4, 8, 16, 32}) {
    void *P = A.allocate(7, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
}

TEST(ArenaTest, CreateConstructsObjects) {
  Arena A;
  struct Point {
    int X, Y;
  };
  Point *P = A.create<Point>(Point{3, 4});
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(ArenaTest, SurvivesManySmallAllocations) {
  Arena A;
  std::vector<int *> Ptrs;
  for (int I = 0; I != 10000; ++I)
    Ptrs.push_back(A.create<int>(I));
  for (int I = 0; I != 10000; ++I)
    EXPECT_EQ(*Ptrs[I], I);
  EXPECT_GE(A.numAllocations(), 10000u);
}

TEST(ArenaTest, LargeAllocationGetsOwnSlab) {
  Arena A;
  void *P = A.allocate(1 << 20, 8);
  ASSERT_NE(P, nullptr);
  // Arena stays usable afterwards.
  int *Q = A.create<int>(42);
  EXPECT_EQ(*Q, 42);
}

TEST(ArenaTest, CopyArrayPreservesContents) {
  Arena A;
  std::vector<int> V = {1, 2, 3, 4, 5};
  std::span<const int> S = A.copyArray(V);
  V.assign(5, 0); // mutating the source must not affect the copy
  ASSERT_EQ(S.size(), 5u);
  EXPECT_EQ(S[0], 1);
  EXPECT_EQ(S[4], 5);
}

TEST(ArenaTest, CopyEmptyArrayIsEmpty) {
  Arena A;
  std::vector<int> V;
  EXPECT_TRUE(A.copyArray(V).empty());
}

TEST(SymbolTest, InterningIsIdempotent) {
  SymbolTable T;
  Symbol A = T.intern("foo");
  Symbol B = T.intern("foo");
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.str(), "foo");
}

TEST(SymbolTest, DistinctNamesDiffer) {
  SymbolTable T;
  EXPECT_NE(T.intern("foo"), T.intern("bar"));
}

TEST(SymbolTest, FreshAvoidsCollisions) {
  SymbolTable T;
  Symbol X = T.intern("x");
  Symbol F1 = T.fresh("x");
  Symbol F2 = T.fresh("x");
  EXPECT_NE(F1, X);
  EXPECT_NE(F2, X);
  EXPECT_NE(F1, F2);
}

TEST(SymbolTest, FreshOnUnusedNameKeepsIt) {
  SymbolTable T;
  Symbol F = T.fresh("y");
  EXPECT_EQ(F.str(), "y");
}

TEST(SymbolTest, OrderingIsInterningOrder) {
  SymbolTable T;
  Symbol A = T.intern("zzz");
  Symbol B = T.intern("aaa");
  EXPECT_TRUE(A < B); // interned first
}

TEST(SymbolTest, ChildTableSharesTheFrozenParentsSymbols) {
  SymbolTable Parent;
  Symbol X = Parent.intern("x");
  Symbol Y = Parent.intern("y");
  Parent.freeze();

  SymbolTable Child(&Parent);
  EXPECT_EQ(Child.intern("x"), X);
  EXPECT_EQ(Child.intern("y"), Y);
  EXPECT_EQ(Child.size(), 0u); // nothing was interned into the child

  // A child name sorts after every parent name.
  Symbol Z = Child.intern("z");
  EXPECT_TRUE(X < Z && Y < Z);
  EXPECT_EQ(Child.size(), 1u);

  // A fresh name avoids the parent's names as well as the child's.
  Symbol F = Child.fresh("x");
  EXPECT_NE(F, X);
  EXPECT_NE(F.str(), "x");
  EXPECT_EQ(Child.fresh("w").str(), "w");

  // Two children of one parent agree on the parent's names only.
  SymbolTable Sibling(&Parent);
  EXPECT_EQ(Sibling.intern("x"), X);
  EXPECT_NE(Sibling.intern("z"), Z);
}

TEST(DiagnosticsTest, CollectsErrorsAndCodes) {
  DiagnosticEngine DE;
  EXPECT_FALSE(DE.hasErrors());
  DE.error(DiagCode::LevityPolymorphicBinder, "bad binder", {3, 7});
  DE.warning(DiagCode::None, "heads up");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.numErrors(), 1u);
  EXPECT_TRUE(DE.hasError(DiagCode::LevityPolymorphicBinder));
  EXPECT_FALSE(DE.hasError(DiagCode::LevityPolymorphicArgument));
}

TEST(DiagnosticsTest, FormatsWithLocationAndCode) {
  DiagnosticEngine DE;
  DE.error(DiagCode::TypeError, "type mismatch", {1, 2});
  std::string S = DE.str();
  EXPECT_NE(S.find("error at 1:2"), std::string::npos) << S;
  EXPECT_NE(S.find("[type-error]"), std::string::npos) << S;
  EXPECT_NE(S.find("type mismatch"), std::string::npos) << S;
}

TEST(DiagnosticsTest, ClearResets) {
  DiagnosticEngine DE;
  DE.error(DiagCode::ParseError, "boom");
  DE.clear();
  EXPECT_FALSE(DE.hasErrors());
  EXPECT_TRUE(DE.diagnostics().empty());
}

TEST(ResultTest, HoldsValueOrError) {
  Result<int> Ok = 5;
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 5);

  Result<int> Bad = err("nope");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.error(), "nope");
}

#if defined(__unix__) || defined(__APPLE__)

// FileOps must survive signals landing mid-syscall: open/read/write/
// fsync/flock all retry on EINTR. A hammer thread pounds this thread
// with SIGUSR1 (installed WITHOUT SA_RESTART, so syscalls genuinely
// return EINTR) while the store primitives cycle lock → write → read.
TEST(FileOpsSignalTest, PrimitivesSurviveSignalStorm) {
  struct sigaction SA {}, Old {};
  SA.sa_handler = [](int) {};
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // No SA_RESTART: EINTR for real.
  ASSERT_EQ(sigaction(SIGUSR1, &SA, &Old), 0);

  std::string Dir = (std::filesystem::temp_directory_path() /
                     "levity-fileops-signal-storm")
                        .string();
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(support::ensureDirectories(Dir).ok());

  std::atomic<bool> Stop{false};
  pthread_t Victim = pthread_self();
  std::thread Hammer([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      pthread_kill(Victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });

  std::string Payload(1 << 16, 'x');
  for (int I = 0; I != 200; ++I) {
    std::string P = Dir + "/f" + std::to_string(I % 8) + ".bin";
    support::FileLock L(Dir + "/.lock");
    EXPECT_TRUE(L.locked());
    Result<bool> W = support::writeFileAtomic(P, Payload);
    ASSERT_TRUE(W.ok()) << W.error();
    Result<std::string> R = support::readFileBinary(P);
    ASSERT_TRUE(R.ok()) << R.error();
    EXPECT_EQ(R->size(), Payload.size());
  }

  Stop.store(true, std::memory_order_relaxed);
  Hammer.join();
  sigaction(SIGUSR1, &Old, nullptr);
  std::filesystem::remove_all(Dir);
}

#endif // __unix__ || __APPLE__

} // namespace
