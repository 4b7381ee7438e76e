//===- artifact_store_test.cpp - The on-disk compilation store ------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// The persistent store's contract, exercised end to end:
//
//   * Round trip: every program in the shared differential corpus goes
//     through serialize → deserialize → run and the hydrated RunResults
//     are identical to the originals on all three backends (including
//     error messages on ⊥ and the pinned "not expressible in L"
//     diagnostics).
//   * Cold-process warm-store: a fresh Session over a populated store
//     compiles the whole corpus with *zero* front-end runs — disk hits
//     equal the corpus size in Session::Stats.
//   * Contents: an artifact stores the bytecode of the user's bindings
//     only, whatever the session's default backend.
//   * Robustness: corrupt, truncated, wrong-version, wrong-fingerprint,
//     wrong-source and malformed-BCOD entries are all treated as misses
//     and fall back to a clean recompile, and every re-sealed single-byte
//     flip of an artifact either misses or hydrates into runs that end
//     in a result. Never a crash, never a wrong answer.
//   * Policy: write-behind completes at flushStoreWrites();
//     MaxStoredArtifacts evicts oldest entries and counts them.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"
#include "driver/Serialize.h"
#include "driver/Session.h"
#include "support/FileOps.h"
#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace levity;
using namespace levity::driver;
using levity::testing::Corpus;
using levity::testing::CorpusProgram;
using levity::testing::CorpusSize;

namespace {

namespace fs = std::filesystem;

/// A fresh per-test store directory under the system temp dir.
std::string freshStoreDir(const std::string &Tag) {
  fs::path Dir = fs::temp_directory_path() /
                 ("levity-store-test-" + Tag + "-" +
                  std::to_string(::getpid()));
  fs::remove_all(Dir);
  return Dir.string();
}

CompileOptions storeOptions(const std::string &Dir) {
  CompileOptions Opts;
  Opts.StorePath = Dir;
  return Opts;
}

/// Asserts two RunResults are observably identical (status, values,
/// display, and failure text).
void expectSameRunResult(const RunResult &A, const RunResult &B,
                         const char *What) {
  SCOPED_TRACE(What);
  ASSERT_EQ(A.St, B.St) << "A: '" << A.Error << "' B: '" << B.Error << "'";
  EXPECT_EQ(A.IntValue.has_value(), B.IntValue.has_value());
  EXPECT_EQ(A.DoubleValue.has_value(), B.DoubleValue.has_value());
  if (A.IntValue && B.IntValue)
    EXPECT_EQ(*A.IntValue, *B.IntValue);
  if (A.DoubleValue && B.DoubleValue)
    EXPECT_DOUBLE_EQ(*A.DoubleValue, *B.DoubleValue);
  EXPECT_EQ(A.Display, B.Display);
  EXPECT_EQ(A.Error, B.Error);
}

//===----------------------------------------------------------------------===//
// Round trip: the whole corpus, all three backends
//===----------------------------------------------------------------------===//

class ArtifactRoundTripTest
    : public ::testing::TestWithParam<CorpusProgram> {};

TEST_P(ArtifactRoundTripTest, SerializeDeserializeRunIdentical) {
  const CorpusProgram &P = GetParam();
  SCOPED_TRACE(P.Label);
  std::string Dir = freshStoreDir(std::string("rt") + P.Label);

  Session Warm(storeOptions(Dir));
  auto Orig = Warm.compile(P.Source);
  ASSERT_TRUE(Orig->ok()) << Orig->diagText();
  RunResult OrigMach = Orig->run(P.Global, Backend::AbstractMachine);
  RunResult OrigTree = Orig->run(P.Global, Backend::TreeInterp);
  RunResult OrigBc = Orig->run(P.Global, Backend::Bytecode);
  Warm.flushStoreWrites();

  Session Cold(storeOptions(Dir));
  auto Hyd = Cold.compile(P.Source);
  ASSERT_TRUE(Hyd->ok());
  ASSERT_TRUE(Hyd->hydrated()) << "expected a disk hit";
  Session::Stats St = Cold.stats();
  EXPECT_EQ(St.DiskHits, 1u);
  EXPECT_EQ(St.Compilations, 0u);

  // Machine runs rebuild the front end lazily and lower as a fresh
  // compile does, so they replay identically.
  RunResult HydMach = Hyd->run(P.Global, Backend::AbstractMachine);
  expectSameRunResult(OrigMach, HydMach, "abstract machine");
  if (!P.InFragment) {
    EXPECT_EQ(HydMach.St, RunResult::Status::Unsupported);
    EXPECT_EQ(HydMach.Error.rfind("not expressible in L", 0), 0u)
        << HydMach.Error;
  }

  // Bytecode runs replay identically too: from the stored module for an
  // in-fragment user binding, and through the lazy rebuild otherwise.
  RunResult HydBc = Hyd->run(P.Global, Backend::Bytecode);
  expectSameRunResult(OrigBc, HydBc, "bytecode vm");
  EXPECT_EQ(OrigBc.Used, HydBc.Used);

  // Tree runs rebuild the front end lazily and must agree too.
  RunResult HydTree = Hyd->run(P.Global, Backend::TreeInterp);
  expectSameRunResult(OrigTree, HydTree, "tree interpreter");

  fs::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ArtifactRoundTripTest, ::testing::ValuesIn(Corpus),
    [](const ::testing::TestParamInfo<CorpusProgram> &Info) {
      return std::string(Info.param.Label);
    });

//===----------------------------------------------------------------------===//
// The acceptance shape: a cold process over a warm store
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ColdSessionWarmStoreRunsCorpusWithZeroRelowerings) {
  std::string Dir = freshStoreDir("cold-warm");

  {
    Session Warm(storeOptions(Dir));
    for (const CorpusProgram &P : Corpus)
      ASSERT_TRUE(Warm.compile(P.Source)->ok()) << P.Label;
    Warm.flushStoreWrites();
    Session::Stats St = Warm.stats();
    EXPECT_EQ(St.Compilations, CorpusSize);
    EXPECT_EQ(St.DiskMisses, CorpusSize);
    EXPECT_EQ(St.DiskHits, 0u);
  }

  Session Cold(storeOptions(Dir));
  for (const CorpusProgram &P : Corpus) {
    auto Comp = Cold.compile(P.Source);
    ASSERT_TRUE(Comp->ok()) << P.Label;
    ASSERT_TRUE(Comp->hydrated()) << P.Label;
    RunResult R = Comp->run(P.Global, Backend::Bytecode);
    if (P.InFragment) {
      EXPECT_TRUE(Comp->hydratedBytecode()) << P.Label;
      EXPECT_NE(R.St, RunResult::Status::Unsupported)
          << P.Label << ": " << R.Error;
    } else {
      EXPECT_EQ(R.St, RunResult::Status::Unsupported) << P.Label;
    }
  }
  Session::Stats St = Cold.stats();
  EXPECT_EQ(St.DiskHits, CorpusSize) << "every compile must be a disk hit";
  EXPECT_EQ(St.DiskMisses, 0u);
  EXPECT_EQ(St.Compilations, 0u) << "zero front-end runs in the cold session";

  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Robustness: damaged or stale entries are misses, never failures
//===----------------------------------------------------------------------===//

/// Populates a store with one program and returns its entry path.
std::string populateOne(const std::string &Dir, const char *Source) {
  Session S(storeOptions(Dir));
  EXPECT_TRUE(S.compile(Source)->ok());
  S.flushStoreWrites();
  ArtifactStore Store(Dir);
  std::string Path = Store.entryPath(Session::hashSource(Source));
  EXPECT_TRUE(fs::exists(Path));
  return Path;
}

const char *RobustSrc =
    "sumToH :: Int# -> Int# -> Int# ;"
    "sumToH acc n = case n of { 0# -> acc ; _ -> sumToH (acc +# n) (n -# 1#) } ;"
    "v = sumToH 0# 100#";

void expectFallbackRecompile(const std::string &Dir) {
  Session S(storeOptions(Dir));
  auto Comp = S.compile(RobustSrc);
  ASSERT_TRUE(Comp->ok());
  EXPECT_FALSE(Comp->hydrated());
  Session::Stats St = S.stats();
  EXPECT_EQ(St.DiskHits, 0u);
  EXPECT_EQ(St.DiskMisses, 1u);
  EXPECT_EQ(St.Compilations, 1u);
  RunResult R = Comp->run("v", Backend::AbstractMachine);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.IntValue.value_or(-1), 5050);
}

TEST(ArtifactStoreTest, CorruptEntryFallsBackToRecompile) {
  std::string Dir = freshStoreDir("corrupt");
  std::string Path = populateOne(Dir, RobustSrc);

  // Flip one byte in the middle: the checksum must reject the file.
  std::string Bytes = *support::readFileBinary(Path);
  Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0x5a);
  ASSERT_TRUE(support::writeFileAtomic(Path, Bytes));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, TruncatedEntryFallsBackToRecompile) {
  std::string Dir = freshStoreDir("truncated");
  std::string Path = populateOne(Dir, RobustSrc);

  std::string Bytes = *support::readFileBinary(Path);
  ASSERT_TRUE(support::writeFileAtomic(Path, {Bytes.data(), Bytes.size() / 3}));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, EmptyEntryFallsBackToRecompile) {
  std::string Dir = freshStoreDir("empty");
  std::string Path = populateOne(Dir, RobustSrc);
  ASSERT_TRUE(support::writeFileAtomic(Path, ""));
  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

/// Patches a little-endian field at \p Offset and re-seals the trailer
/// checksum, isolating the version checks from the corruption check.
std::string patchAndReseal(std::string Bytes, size_t Offset, uint64_t Value,
                           size_t Width) {
  for (size_t I = 0; I != Width; ++I)
    Bytes[Offset + I] = static_cast<char>((Value >> (8 * I)) & 0xff);
  uint64_t Sum =
      levc::fnv1a({Bytes.data(), Bytes.size() - 8});
  for (size_t I = 0; I != 8; ++I)
    Bytes[Bytes.size() - 8 + I] = static_cast<char>((Sum >> (8 * I)) & 0xff);
  return Bytes;
}

TEST(ArtifactStoreTest, WrongFormatVersionFallsBackToRecompile) {
  std::string Dir = freshStoreDir("version");
  std::string Path = populateOne(Dir, RobustSrc);

  std::string Bytes = *support::readFileBinary(Path);
  // Format version lives right after the 4-byte magic.
  ASSERT_TRUE(support::writeFileAtomic(
      Path, patchAndReseal(Bytes, 4, levc::FormatVersion + 7, 4)));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, PreviousFormatVersionArtifactRejected) {
  // Version skew: an artifact carrying the previous release's format
  // version (v5, whose BCOD held one module per user binding) must be
  // treated as a miss and recompiled cleanly — even with a valid
  // checksum.
  static_assert(levc::FormatVersion == 6,
                "update this test when bumping the format version");
  std::string Dir = freshStoreDir("oldversion");
  std::string Path = populateOne(Dir, RobustSrc);

  std::string Bytes = *support::readFileBinary(Path);
  ASSERT_TRUE(support::writeFileAtomic(
      Path, patchAndReseal(Bytes, 4, /*Value=*/5, 4)));

  // Direct deserialization also refuses it.
  std::string Patched = *support::readFileBinary(Path);
  EXPECT_EQ(Compilation::deserializeArtifact(Patched, RobustSrc,
                                             CompileOptions()),
            nullptr);

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

/// Walks the section table and returns the payload byte offset of the
/// first section with \p WantId (0 when absent).
size_t findSectionPayload(const std::string &Bytes, uint32_t WantId) {
  size_t Off = 28; // past magic/version/fingerprint/hash/section-count
  while (Off + 12 <= Bytes.size() - 8) {
    uint32_t Id = 0;
    uint64_t Len = 0;
    for (int I = 0; I != 4; ++I)
      Id |= uint32_t(uint8_t(Bytes[Off + I])) << (8 * I);
    for (int I = 0; I != 8; ++I)
      Len |= uint64_t(uint8_t(Bytes[Off + 4 + I])) << (8 * I);
    if (Id == WantId)
      return Off + 12;
    Off += 12 + Len;
  }
  return 0;
}

TEST(ArtifactStoreTest, WrongPipelineFingerprintFallsBackToRecompile) {
  std::string Dir = freshStoreDir("fingerprint");
  std::string Path = populateOne(Dir, RobustSrc);

  std::string Bytes = *support::readFileBinary(Path);
  // The fingerprint follows magic + version — a stale-pipeline artifact.
  ASSERT_TRUE(support::writeFileAtomic(
      Path, patchAndReseal(Bytes, 8, 0xdeadbeefcafef00dull, 8)));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, WrongSourceEntryFallsBackToRecompile) {
  // A valid artifact parked under the *wrong* key (hash collision
  // stand-in): the byte-exact source compare must reject it.
  std::string Dir = freshStoreDir("wrong-source");
  std::string Path = populateOne(Dir, "other = 1# +# 2#");

  ArtifactStore Store(Dir);
  std::string Bytes = *support::readFileBinary(Path);
  ASSERT_TRUE(Store.store(Session::hashSource(RobustSrc), Bytes));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, EveryResealedByteFlipHydratesSafelyOrMisses) {
  // Whole-artifact mutation: flip each byte (XOR 0x01/0x80/0xFF) and
  // re-seal the checksum, so the corruption reaches the META, TYPE and
  // BCOD decoders instead of stopping at the trailer. Every mutant must
  // be a miss (null) or a Compilation whose bytecode and machine runs,
  // at small fuel, end in a RunResult.
  const char *Src = "data L = N | C Int# L ;"
                    "v = case C 1# N of { N -> 0# ; C y ys -> y }";
  std::string Dir = freshStoreDir("mutate");
  std::string Path = populateOne(Dir, Src);
  std::string Bytes = *support::readFileBinary(Path);
  fs::remove_all(Dir);
  ASSERT_NE(findSectionPayload(Bytes, levc::SecBytecode), 0u)
      << "the artifact must carry a BCOD section";

  CompileOptions Opts;
  Opts.MaxMachineSteps = 2000;
  Opts.MaxVmSteps = 2000;
  size_t Hydrated = 0;
  for (size_t Off = 0; Off != Bytes.size() - 8; ++Off) {
    for (uint8_t Flip : {0x01, 0x80, 0xFF}) {
      std::string Mutant = patchAndReseal(
          Bytes, Off, static_cast<uint8_t>(Bytes[Off]) ^ Flip, 1);
      auto Comp = Compilation::deserializeArtifact(Mutant, Src, Opts);
      if (!Comp)
        continue;
      ++Hydrated;
      SCOPED_TRACE("offset " + std::to_string(Off) + " flip " +
                   std::to_string(Flip));
      for (Backend B : {Backend::Bytecode, Backend::AbstractMachine}) {
        RunResult R = Comp->run("v", B);
        EXPECT_TRUE(R.ok() || !R.Error.empty()) << "a failed run says why";
      }
    }
  }
  // Flips inside stage names, timings and type texts leave a runnable
  // artifact, so some mutants must have reached the runs.
  EXPECT_GT(Hydrated, 0u);
}

//===----------------------------------------------------------------------===//
// Policy: write-behind, flushing, eviction, stats
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, FlushPublishesWriteBehindEntries) {
  std::string Dir = freshStoreDir("flush");
  Session S(storeOptions(Dir));
  ASSERT_TRUE(S.compile(RobustSrc)->ok());
  S.flushStoreWrites();
  ArtifactStore Store(Dir);
  EXPECT_TRUE(fs::exists(Store.entryPath(Session::hashSource(RobustSrc))));
  EXPECT_EQ(Store.countEntries(), 1u);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, SessionDestructorDrainsPendingWrites) {
  std::string Dir = freshStoreDir("drain");
  { // No flush: the destructor must complete the scheduled writes.
    Session S(storeOptions(Dir));
    ASSERT_TRUE(S.compile(RobustSrc)->ok());
  }
  EXPECT_EQ(ArtifactStore(Dir).countEntries(), 1u);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, MaxStoredArtifactsEvictsOldestAndCounts) {
  std::string Dir = freshStoreDir("evict");
  CompileOptions Opts = storeOptions(Dir);
  Opts.MaxStoredArtifacts = 2;
  Session S(Opts);
  for (int I = 0; I != 5; ++I) {
    ASSERT_TRUE(
        S.compile("answer = " + std::to_string(I) + "# +# 1#")->ok());
    // Serialize the writes so "oldest" is well-defined per store pass.
    S.flushStoreWrites();
  }
  EXPECT_LE(ArtifactStore(Dir).countEntries(), 2u);
  Session::Stats St = S.stats();
  EXPECT_GE(St.DiskEvictions, 3u);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, MaxStoreBytesEvictsOldestToBudget) {
  std::string Dir = freshStoreDir("bytebudget");
  // Size the budget off one real artifact so the test tracks format
  // growth: keep room for roughly two entries, then write five.
  {
    Session Probe(storeOptions(Dir));
    ASSERT_TRUE(Probe.compile("answer = 0# +# 1#")->ok());
    Probe.flushStoreWrites();
  }
  uint64_t OneEntry = ArtifactStore(Dir).totalBytes();
  ASSERT_GT(OneEntry, 0u);
  fs::remove_all(Dir);

  CompileOptions Opts = storeOptions(Dir);
  Opts.MaxStoreBytes = OneEntry * 5 / 2;
  Session S(Opts);
  for (int I = 0; I != 5; ++I) {
    ASSERT_TRUE(
        S.compile("answer = " + std::to_string(I) + "# +# 1#")->ok());
    S.flushStoreWrites();
  }
  ArtifactStore Store(Dir);
  EXPECT_LE(Store.totalBytes(), Opts.MaxStoreBytes);
  EXPECT_GE(Store.countEntries(), 1u);
  Session::Stats St = S.stats();
  EXPECT_GE(St.DiskEvictions, 1u);

  // The newest entry survives: its session still gets a disk hit.
  Session Cold(storeOptions(Dir));
  auto Comp = Cold.compile("answer = 4# +# 1#");
  ASSERT_TRUE(Comp->ok());
  EXPECT_TRUE(Comp->hydrated());
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, EvictToBudgetEnforcesBothCapsDirectly) {
  std::string Dir = freshStoreDir("bothcaps");
  ArtifactStore Store(Dir);
  // Five fake entries of 100 bytes each, distinct keys and mtimes.
  for (uint64_t K = 1; K <= 5; ++K) {
    ASSERT_TRUE(Store.store(K << 56 | K, std::string(100, 'x')));
    fs::last_write_time(Store.entryPath(K << 56 | K),
                        fs::file_time_type(std::chrono::seconds(K)));
  }
  // Byte budget of 250 keeps the two newest plus change.
  size_t Evicted = Store.evictToBudget(/*MaxEntries=*/4, /*MaxBytes=*/250);
  EXPECT_EQ(Evicted, 3u);
  EXPECT_EQ(Store.countEntries(), 2u);
  EXPECT_LE(Store.totalBytes(), 250u);
  // The survivors are the newest two.
  EXPECT_TRUE(fs::exists(Store.entryPath(5ull << 56 | 5)));
  EXPECT_TRUE(fs::exists(Store.entryPath(4ull << 56 | 4)));
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, MissingStoreDirectoryIsJustAMiss) {
  std::string Dir = freshStoreDir("missing");
  // Never created: load must miss, the write-behind then creates it.
  Session S(storeOptions(Dir + "/nested/deeper"));
  auto Comp = S.compile(RobustSrc);
  ASSERT_TRUE(Comp->ok());
  S.flushStoreWrites();
  Session::Stats St = S.stats();
  EXPECT_EQ(St.DiskMisses, 1u);
  EXPECT_EQ(ArtifactStore(Dir + "/nested/deeper").countEntries(), 1u);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, ConcurrentWarmersShareOneStoreSafely) {
  // 8 threads × disjoint sources through one Session, then a cold
  // session must hit on every one of them. (TSan-covered in CI.)
  std::string Dir = freshStoreDir("concurrent");
  constexpr int PerThread = 4, NumThreads = 8;
  {
    Session Warm(storeOptions(Dir));
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&Warm, T] {
        for (int I = 0; I != PerThread; ++I) {
          std::string Src = "answer = " + std::to_string(T * PerThread + I) +
                            "# *# 3#";
          auto Comp = Warm.compile(Src);
          ASSERT_TRUE(Comp->ok());
          Comp->run("answer", Backend::AbstractMachine);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Warm.flushStoreWrites();
  }

  Session Cold(storeOptions(Dir));
  for (int I = 0; I != NumThreads * PerThread; ++I) {
    std::string Src = "answer = " + std::to_string(I) + "# *# 3#";
    auto Comp = Cold.compile(Src);
    ASSERT_TRUE(Comp->ok());
    EXPECT_TRUE(Comp->hydrated()) << Src;
    RunResult R = Comp->run("answer", Backend::AbstractMachine);
    EXPECT_EQ(R.IntValue.value_or(-1), I * 3);
  }
  Session::Stats St = Cold.stats();
  EXPECT_EQ(St.DiskHits, uint64_t(NumThreads * PerThread));
  EXPECT_EQ(St.Compilations, 0u);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, EvictionRacingReadThroughLosesNoResults) {
  // Store eviction racing read-through compiles (the server's EVICT
  // request against live traffic; TSan-covered in CI). Two reader
  // threads compile a program rotation through an EnableCache=false
  // session — every compile is a genuine store lookup — while an
  // evictor thread hammers evictStore(1, 0). An entry evicted under a
  // reader must be *just a miss* (recompile + re-publish): no failed
  // compile, no wrong value, and the ledgers stay exact.
  std::string Dir = freshStoreDir("evict-race");
  CompileOptions Opts = storeOptions(Dir);
  Opts.EnableCache = false;
  Session S(Opts);

  constexpr int Rounds = 25, NumPrograms = 6, NumReaders = 2;
  auto Src = [](int I) {
    return "answer = " + std::to_string(I) + "# *# 7#";
  };

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Evicted{0};
  std::thread Evictor([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      Evicted.fetch_add(S.evictStore(1, 0), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> Readers;
  for (int T = 0; T != NumReaders; ++T)
    Readers.emplace_back([&] {
      for (int R = 0; R != Rounds; ++R)
        for (int I = 0; I != NumPrograms; ++I) {
          auto Comp = S.compile(Src(I));
          ASSERT_TRUE(Comp->ok()) << Comp->diagText();
          RunResult RR = Comp->run("answer", Backend::AbstractMachine);
          ASSERT_TRUE(RR.ok()) << RR.Error;
          EXPECT_EQ(RR.IntValue.value_or(-1), I * 7);
        }
    });
  for (std::thread &T : Readers)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  Evictor.join();
  S.flushStoreWrites();
  // One deterministic final pass: all six programs were published at
  // least once, so either the racing evictor already removed entries or
  // this call finds several to remove — either way the race happened
  // and the eviction ledger is non-zero.
  Evicted.fetch_add(S.evictStore(1, 0), std::memory_order_relaxed);

  // Counter consistency: every compile was exactly one store lookup,
  // every miss was one front-end run, and the eviction ledger matches
  // what the evictor actually removed (write-behind publication never
  // evicts here — both store budgets are unbounded).
  Session::Stats St = S.stats();
  EXPECT_EQ(St.DiskHits + St.DiskMisses,
            uint64_t(NumReaders * Rounds * NumPrograms));
  EXPECT_EQ(St.Compilations, St.DiskMisses);
  EXPECT_EQ(St.DiskEvictions, Evicted.load());
  EXPECT_GT(St.DiskEvictions, 0u); // The race genuinely happened.
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Hydrated-compilation surface
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, HydratedMetadataSurvivesWithoutFrontEnd) {
  std::string Dir = freshStoreDir("metadata");
  populateOne(Dir, RobustSrc);

  Session S(storeOptions(Dir));
  auto Comp = S.compile(RobustSrc);
  ASSERT_TRUE(Comp->hydrated());

  // Stored type texts are available with zero front-end work.
  EXPECT_EQ(Comp->globalTypeText("v"), "Int#");
  EXPECT_EQ(Comp->globalTypeText("sumToH"), "Int# -> Int# -> Int#");
  EXPECT_EQ(Comp->globalTypeText("nonexistent"), "");

  // The timing report restores the original stages plus "hydrate".
  std::string Report = Comp->timingReport();
  EXPECT_NE(Report.find("lint"), std::string::npos) << Report;
  EXPECT_NE(Report.find("hydrate"), std::string::npos) << Report;

  // Unknown globals fail with a diagnostic, not a crash: the run rebuilds
  // the front end, so the message matches a fresh compile's.
  RunResult R = Comp->run("nonexistent", Backend::AbstractMachine);
  EXPECT_EQ(R.St, RunResult::Status::Unsupported);
  EXPECT_NE(R.Error.find("no top-level binding named"), std::string::npos)
      << R.Error;
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, ConcurrentRunsShareOneLazyRebuild) {
  // Threads running one hydrated Compilation on every backend at once:
  // the tree and machine runs race the one lazy front-end rebuild and the
  // lowering behind it, the bytecode runs use the stored module.
  // (TSan-covered in CI.)
  std::string Dir = freshStoreDir("rebuildrace");
  populateOne(Dir, RobustSrc);
  Session S(storeOptions(Dir));
  auto Comp = S.compile(RobustSrc);
  ASSERT_TRUE(Comp->hydrated());

  constexpr Backend Backends[] = {Backend::AbstractMachine,
                                  Backend::TreeInterp, Backend::Bytecode};
  std::vector<RunResult> Results(6);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != Results.size(); ++T)
    Threads.emplace_back([&, T] {
      Results[T] = Comp->run("v", Backends[T % std::size(Backends)]);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const RunResult &R : Results) {
    EXPECT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.IntValue.value_or(-1), 5050);
  }
  EXPECT_EQ(S.stats().Compilations, 0u);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, BytecodeSectionServesVmRunsWithZeroLowering) {
  // The BCOD section restores compiled bytecode modules, so a cold
  // process's Backend::Bytecode runs execute with zero front-end,
  // lowering, or bytecode-compilation work.
  std::string Dir = freshStoreDir("bcodsec");
  Session Warm(storeOptions(Dir));
  auto Orig = Warm.compile(RobustSrc);
  ASSERT_TRUE(Orig->ok());
  RunResult OrigBc = Orig->run("v", Backend::Bytecode);
  ASSERT_TRUE(OrigBc.ok()) << OrigBc.Error;
  ASSERT_EQ(OrigBc.Used, Backend::Bytecode);
  Warm.flushStoreWrites();

  Session Cold(storeOptions(Dir));
  auto Hyd = Cold.compile(RobustSrc);
  ASSERT_TRUE(Hyd->ok());
  ASSERT_TRUE(Hyd->hydrated());
  ASSERT_TRUE(Hyd->hydratedBytecode())
      << "the artifact must carry a BCOD section for this program";
  Session::Stats St = Cold.stats();
  EXPECT_EQ(St.DiskHits, 1u);
  EXPECT_EQ(St.Compilations, 0u) << "zero front-end runs";
  // The only stage this process performed is "hydrate": the original
  // build's stages were restored from the artifact, not re-run.
  size_t ThisProcessStages = 0;
  for (const StageTiming &T : Hyd->timings())
    if (T.Stage == "hydrate")
      ++ThisProcessStages;
  EXPECT_EQ(ThisProcessStages, 1u) << Hyd->timingReport();

  // The run neither rebuilds nor lowers (lowering needs the rebuilt
  // front end): no allocation in the core context.
  size_t CoreBytes = Hyd->ctx().arena().bytesUsed();
  RunResult HydBc = Hyd->run("v", Backend::Bytecode);
  EXPECT_EQ(Hyd->ctx().arena().bytesUsed(), CoreBytes);
  expectSameRunResult(OrigBc, HydBc, "bytecode via BCOD section");
  EXPECT_EQ(HydBc.Used, Backend::Bytecode);
  EXPECT_EQ(HydBc.IntValue.value_or(-1), 5050);
  EXPECT_EQ(HydBc.Vm.Steps, OrigBc.Vm.Steps)
      << "hydrated code must be instruction-identical";
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, HydratedRefusalDoesNotFailItsNeighbours) {
  // The entry table stores a refused global's diagnostic next to the
  // runnable ones: a cold process runs `ok` from the stored module and
  // refuses `conv` with its exact message, with no front-end rebuild.
  const char *Src = "conv = int2Double# 3# ; ok = 5#";
  std::string Dir = freshStoreDir("refusal");
  populateOne(Dir, Src);
  Session S(storeOptions(Dir));
  auto Comp = S.compile(Src);
  ASSERT_TRUE(Comp->hydrated());
  ASSERT_TRUE(Comp->hydratedBytecode());
  size_t CoreBytes = Comp->ctx().arena().bytesUsed();
  RunResult Ok = Comp->run("ok", Backend::Bytecode);
  RunResult Conv = Comp->run("conv", Backend::Bytecode);
  EXPECT_EQ(Comp->ctx().arena().bytesUsed(), CoreBytes) << "no rebuild";
  EXPECT_EQ(S.stats().Compilations, 0u);
  ASSERT_TRUE(Ok.ok()) << Ok.Error;
  EXPECT_EQ(Ok.Used, Backend::Bytecode);
  EXPECT_EQ(Ok.Display, "5#");
  EXPECT_EQ(Conv.St, RunResult::Status::Unsupported);
  EXPECT_EQ(Conv.Used, Backend::Bytecode);
  EXPECT_EQ(Conv.Error, "not expressible in L: primop int2Double#");
  fs::remove_all(Dir);
}

/// The names in an artifact's BCOD entry table, in stored order; every
/// entry must run from the one module that precedes the table.
std::vector<std::string> bytecodeSectionNames(const std::string &Bytes) {
  size_t Off = findSectionPayload(Bytes, levc::SecBytecode);
  EXPECT_NE(Off, 0u) << "every artifact carries a BCOD section";
  levc::ByteReader R(std::string_view(Bytes).substr(Off));
  EXPECT_EQ(R.u8(), 1u) << "the program module leads the section";
  EXPECT_NE(levc::readBytecodeModule(R), nullptr);
  std::vector<std::string> Names(R.u32());
  for (std::string &Name : Names) {
    Name = R.str();
    EXPECT_EQ(R.str(), "") << Name << " must run on the VM";
    R.u32();
  }
  EXPECT_TRUE(R.ok());
  return Names;
}

TEST(ArtifactStoreTest, TreeSessionArtifactStoresOnlyUserBytecode) {
  // The VM is the production engine, so a tree-backend session's
  // artifact carries BCOD too: one module with an entry per user binding
  // and none for the prelude's globals the program does not use
  // (plusInt, id, $, ...).
  std::string Dir = freshStoreDir("userbcod");
  std::string Path = populateOne(Dir, RobustSrc);
  std::string Bytes = *support::readFileBinary(Path);
  EXPECT_EQ(bytecodeSectionNames(Bytes),
            (std::vector<std::string>{"sumToH", "v"}));

  Session S(storeOptions(Dir));
  auto Comp = S.compile(RobustSrc);
  ASSERT_TRUE(Comp->hydrated());
  EXPECT_TRUE(Comp->hydratedBytecode());
  EXPECT_EQ(Comp->run("v", Backend::Bytecode).IntValue.value_or(-1), 5050);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, ArtifactHoldsFourSectionsAndOnlyUserBytecode) {
  // A list-length program: its artifact is SRC, META, TYPE and BCOD, in
  // that order, and BCOD holds entries for `len` and `v` alone.
  const char *Src = "data L = N | C Int L ;"
                    "len :: L -> Int# ;"
                    "len xs = case xs of { N -> 0# ; C y ys -> 1# +# len ys } ;"
                    "v = len (C (I# 1#) (C (I# 2#) N))";
  std::string Dir = freshStoreDir("sections");
  std::string Bytes = *support::readFileBinary(populateOne(Dir, Src));
  fs::remove_all(Dir);

  std::vector<uint32_t> Ids;
  levc::ByteReader R(std::string_view(Bytes).substr(24));
  for (uint32_t I = 0, N = R.u32(); R.ok() && I != N; ++I) {
    Ids.push_back(R.u32());
    R.raw(R.u64());
  }
  EXPECT_EQ(Ids, (std::vector<uint32_t>{levc::SecSource, levc::SecMeta,
                                        levc::SecTypes, levc::SecBytecode}));
  EXPECT_EQ(bytecodeSectionNames(Bytes),
            (std::vector<std::string>{"len", "v"}));
  EXPECT_LT(Bytes.size(), 4096u);
}

TEST(ArtifactStoreTest, ArtifactWithoutBytecodeSectionIsAMiss) {
  // BCOD is mandatory: drop it (it is the last section), fix the section
  // count and re-seal, and the artifact must recompile.
  std::string Dir = freshStoreDir("nobcod");
  std::string Path = populateOne(Dir, RobustSrc);
  std::string Bytes = *support::readFileBinary(Path);
  size_t BcOff = findSectionPayload(Bytes, levc::SecBytecode);
  ASSERT_NE(BcOff, 0u);
  std::string Stripped = Bytes.substr(0, BcOff - 12) + std::string(8, '\0');
  ASSERT_TRUE(support::writeFileAtomic(
      Path, patchAndReseal(Stripped, 24, /*Value=*/3, 4)));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, MalformedBytecodeSectionFallsBackToRecompiling) {
  // A BCOD section that passes the container checksum but fails the
  // module decode makes the whole artifact a miss: the compile runs the
  // front end again — same answers, never a crash, never a miscompile.
  std::string Dir = freshStoreDir("badbcod");
  std::string Path = populateOne(Dir, RobustSrc);

  std::string Bytes = *support::readFileBinary(Path);
  size_t BcOff = findSectionPayload(Bytes, levc::SecBytecode);
  ASSERT_NE(BcOff, 0u) << "artifact must carry a BCOD section";
  // Corrupt the leading module count: the decode must reject it before
  // trusting any counts that follow.
  ASSERT_TRUE(support::writeFileAtomic(
      Path, patchAndReseal(Bytes, BcOff, 0xFFFFFFFFull, 4)));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactStoreTest, TruncatedBytecodeModuleFallsBackToRecompiling) {
  // Same contract when a module *inside* the section is cut short: the
  // sticky-fail reader rejects it and the artifact is a miss.
  std::string Dir = freshStoreDir("shortbcod");
  std::string Path = populateOne(Dir, RobustSrc);

  std::string Bytes = *support::readFileBinary(Path);
  size_t BcOff = findSectionPayload(Bytes, levc::SecBytecode);
  ASSERT_NE(BcOff, 0u);
  // Blow up the first module's name length so the string read runs off
  // the end of the payload.
  ASSERT_TRUE(support::writeFileAtomic(
      Path, patchAndReseal(Bytes, BcOff + 4, 0x00FFFFFFull, 4)));

  expectFallbackRecompile(Dir);
  fs::remove_all(Dir);
}

TEST(ArtifactSerializeTest, BytecodeModuleCodecRoundTrips) {
  // Compile a real term, write the module, read it back: the decoded
  // module must validate and execute to the same result with the same
  // instruction count.
  mcalc::MContext MC;
  mcalc::MVar N = MC.freshInt();
  const mcalc::Term *T = MC.letBang(
      N, MC.prim(mcalc::MPrim::Mul, mcalc::MAtom::lit(6),
                 mcalc::MAtom::lit(7)),
      MC.if0(MC.var(N), MC.lit(0),
             MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(N),
                     mcalc::MAtom::lit(100))));
  auto Mod = bytecode::compile(T);
  ASSERT_TRUE(Mod.ok()) << Mod.error();

  levc::ByteWriter W;
  levc::writeBytecodeModule(W, **Mod);
  levc::ByteReader R(W.bytes());
  std::shared_ptr<const bytecode::Module> Back =
      levc::readBytecodeModule(R);
  ASSERT_NE(Back, nullptr);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());

  bytecode::Vm Vm;
  bytecode::VmResult A = Vm.run(**Mod, 1u << 20);
  bytecode::VmResult B = Vm.run(*Back, 1u << 20);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  ASSERT_TRUE(A.Final.isInt());
  ASSERT_TRUE(B.Final.isInt());
  EXPECT_EQ(A.Final.I, 142);
  EXPECT_EQ(B.Final.I, 142);
  EXPECT_EQ(A.Stats.Steps, B.Stats.Steps);
}

TEST(ArtifactSerializeTest, BytecodeModuleCodecRejectsMalformedInput) {
  { // Truncated header.
    levc::ByteReader R("\x01");
    EXPECT_EQ(levc::readBytecodeModule(R), nullptr);
    EXPECT_FALSE(R.ok());
  }
  { // A module whose code references an out-of-range pool index must be
    // rejected by the embedded validate() pass, not executed.
    bytecode::Module M;
    bytecode::Proto P;
    P.Entry = 0;
    P.End = 2;
    P.NumLocals = 0;
    M.Protos.push_back(P);
    M.Code.push_back({bytecode::Op::PushInt, 0, 0, /*C=*/5}); // no pool
    M.Code.push_back({bytecode::Op::Return, 0, 0, 0});
    ASSERT_FALSE(bytecode::validate(M));
    levc::ByteWriter W;
    levc::writeBytecodeModule(W, M);
    levc::ByteReader R(W.bytes());
    EXPECT_EQ(levc::readBytecodeModule(R), nullptr);
    EXPECT_FALSE(R.ok());
  }
}

TEST(ArtifactSerializeTest, BytecodeCodecSurvivesFuzzedInput) {
  // Deterministic single-byte corruptions over a real multi-arity
  // module (a recursive two-parameter closure, so the encoding carries
  // a ParamSorts vector and captures): every mutation must either be
  // rejected by the decoder — which re-validates before trusting
  // anything — or yield a module the VM runs to a clean outcome. A
  // crash or out-of-bounds access under any flip is the failure mode
  // this guards against; the sanitizer CI jobs run this same test.
  mcalc::MContext MC;
  mcalc::MVar F = MC.freshPtr(), X = MC.freshInt(), Y = MC.freshInt();
  const mcalc::Term *Fn = MC.lam(
      X, MC.lam(Y, MC.if0(MC.var(X), MC.var(Y),
                          MC.prim(mcalc::MPrim::Add, mcalc::MAtom::var(X),
                                  mcalc::MAtom::var(Y)))));
  const mcalc::Term *T = MC.letRec(
      F, Fn, MC.appLit(MC.appLit(MC.var(F), 20), 22));
  auto Mod = bytecode::compile(T);
  ASSERT_TRUE(Mod.ok()) << Mod.error();
  {
    bytecode::Vm Vm;
    bytecode::VmResult R = Vm.run(**Mod, 4096);
    ASSERT_TRUE(R.Final.isInt());
    ASSERT_EQ(R.Final.I, 42);
  }

  levc::ByteWriter W;
  levc::writeBytecodeModule(W, **Mod);
  const std::string Bytes = W.bytes();
  size_t Decoded = 0;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    for (uint8_t Delta : {0x01, 0x80, 0xFF}) {
      std::string Mut = Bytes;
      Mut[I] = static_cast<char>(static_cast<uint8_t>(Mut[I]) ^ Delta);
      levc::ByteReader R(Mut);
      std::shared_ptr<const bytecode::Module> Back =
          levc::readBytecodeModule(R);
      if (!Back)
        continue;
      ++Decoded;
      EXPECT_TRUE(bytecode::validate(*Back))
          << "decoder must never hand out an invalid module (offset " << I
          << ", flip 0x" << std::hex << unsigned(Delta) << ")";
      bytecode::Vm Vm;
      bytecode::VmResult Res = Vm.run(*Back, 4096);
      (void)Res; // Any of the four clean outcomes is acceptable.
    }
  }
  // Some flips (e.g. in pooled literal payloads) decode fine; the
  // interesting property is that everything that decodes also runs.
  SUCCEED() << Decoded << " mutants decoded cleanly";
}

TEST(ArtifactStoreTest, SerializeRejectsFormalAndProgrammaticCompilations) {
  Session S;
  auto Prog = S.compileProgram([](core::CoreContext &C) {
    core::CoreProgram P;
    P.Bindings.push_back({C.sym("x"), C.intHashTy(), C.litInt(1)});
    return P;
  });
  EXPECT_FALSE(Prog->serializeArtifact().ok());
}

TEST(ArtifactSerializeTest, FingerprintIsStableWithinABuild) {
  EXPECT_EQ(levc::pipelineFingerprint(), levc::pipelineFingerprint());
  EXPECT_NE(levc::pipelineFingerprint(), 0u);
}

} // namespace
