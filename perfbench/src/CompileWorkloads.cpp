//===- CompileWorkloads.cpp - compile-cold and store-warm -----------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
// Source in, value out — twice, through the same Session::compile entry:
//
//   compile-cold  every op compiles a never-seen generated program (the
//                 front end, then the lazy lowering + bytecode compile
//                 inside the first Executor::run);
//   store-warm    every op is a `.levc` store hit: the same generated
//                 programs, hydrated instead of compiled, then run once.
//
// Both are single-threaded; the ops alternate nothing with anything
// else, so the two op latencies answer "does hydrate + first run beat
// cold compile + first run?" directly.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Gen.h"

#include "driver/ArtifactStore.h"
#include "driver/Executor.h"
#include "surface/Parser.h"

#include <unistd.h>

#include <filesystem>
#include <optional>

using namespace perfbench;
using namespace levity;

namespace {

constexpr size_t GenChunk = 64;     ///< Programs generated per untimed gap.
constexpr size_t CacheBound = 64;   ///< compile-cold's LRU bound.
constexpr size_t WarmupCompiles = 16;
constexpr size_t OracleSample = 12; ///< Programs checked on the tree interp.
constexpr size_t LedgerPrograms = 40;
constexpr size_t StorePrograms = 400; ///< store-warm's population.
constexpr size_t PopulateBatch = 32;

/// Streams of their own keep warm-up and ledger programs apart from
/// timed ones. Warm-up programs do not depend on the seed, so set-up
/// does the same work on every run.
constexpr uint64_t WarmupStream = 0x5741524dULL; // "WARM"
constexpr uint64_t LedgerStream = 0x4c454447ULL; // "LEDG"

std::string checkRun(const driver::RunResult &R, const GenProgram &P) {
  if (!R.ok())
    return "run failed: " + R.Error;
  if (R.Used != driver::Backend::Bytecode)
    return "run fell back from bytecode to " +
           std::string(driver::backendName(R.Used));
  if (R.IntValue != P.Expected)
    return "wrong answer " + R.Display + ", expected " +
           std::to_string(P.Expected);
  return "";
}

driver::CompileOptions sessionOptions() {
  driver::CompileOptions O;
  O.DefaultBackend = driver::Backend::Bytecode;
  O.AsyncWorkers = 1;
  return O;
}

/// Adds one compile+first-run ledger entry.
void ledgerRun(Ledger &L, const driver::RunResult &R) {
  L["steps"] += R.steps();
  L["allocs"] += R.allocations();
  L["peak_heap_bytes"] = std::max(L["peak_heap_bytes"], R.peakHeapBytes());
  L["ops"] += 1;
}

/// Checks \p Programs against the tree interpreter — an oracle
/// independent of the lowering and the VM. Untimed.
bool treeOracle(const std::vector<GenProgram> &Programs, std::string &Why) {
  driver::Session S(sessionOptions());
  for (const GenProgram &P : Programs) {
    driver::RunResult R =
        S.compile(P.Source)->run(AnswerName, driver::Backend::TreeInterp);
    if (!R.ok() || R.IntValue != P.Expected) {
      Why = "tree-interpreter oracle disagrees: got '" + R.Display + R.Error +
            "', expected " + std::to_string(P.Expected);
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// compile-cold
//===----------------------------------------------------------------------===//

class CompileCold final : public Workload {
public:
  explicit CompileCold(const RunConfig &C) : Cfg(C) {}

  bool setup(std::string &Why) override {
    driver::CompileOptions O = sessionOptions();
    O.MaxCachedCompilations = CacheBound;
    S = std::make_unique<driver::Session>(O);
    for (size_t I = 0; I != WarmupCompiles; ++I) {
      GenProgram P = generateProgram(WarmupStream, I);
      std::string Bad =
          checkRun(driver::Executor(S->compile(P.Source))
                       .run(AnswerName, driver::Backend::Bytecode),
                   P);
      if (!Bad.empty()) {
        Why = "warm-up: " + Bad;
        return false;
      }
    }
    return true;
  }

  bool oracleCheck(std::string &Why) override {
    std::vector<GenProgram> Sample;
    for (size_t I = 0; I != OracleSample; ++I)
      Sample.push_back(generateProgram(Cfg.Seed, I * 7));
    return treeOracle(Sample, Why);
  }

  OpStats timed(double Seconds, TraceLog *Log) override {
    OpStats St;
    Tracer Tr;
    Tracer *T = Log ? &Tr : nullptr;
    double Elapsed = 0;
    driver::Session::Stats Before = S->stats();
    while (Elapsed < Seconds) {
      std::vector<GenProgram> Chunk;
      for (size_t I = 0; I != GenChunk; ++I)
        Chunk.push_back(generateProgram(Cfg.Seed, Next++));
      Clock::time_point T0 = Clock::now();
      for (const GenProgram &P : Chunk) {
        uint64_t Op = Next - Chunk.size() + (&P - Chunk.data());
        int64_t Start = nowNs();
        std::string Bad;
        std::optional<driver::Executor> Ex;
        {
          SpanGuard Root(T, "cold.op", Op);
          std::shared_ptr<driver::Compilation> Comp;
          {
            SpanGuard G(T, "driver.compile_miss", Op);
            Comp = S->compile(P.Source);
          }
          Ex.emplace(Comp);
          driver::RunResult R;
          {
            SpanGuard G(T, "driver.first_run", Op);
            R = Ex->run(AnswerName, driver::Backend::Bytecode);
          }
          Bad = checkRun(R, P);
        }
        int64_t End = nowNs();
        if (T && Bad.empty())
          replays(*T, Op, P, *Ex);
        ++St.Attempted;
        if (Bad.empty())
          St.ok(double(End - Start) / 1000.0);
        else
          St.fail(Bad);
        if (Elapsed + secondsSince(T0) >= Seconds)
          break;
      }
      Elapsed += secondsSince(T0);
    }
    St.WallS = Elapsed;
    driver::Session::Stats After = S->stats();
    FrontEndRatio = double(After.Compilations - Before.Compilations) /
                    double(std::max<uint64_t>(1, St.Attempted));
    if (Log)
      Log->add(Tr);
    return St;
  }

  std::string layers(double, const TraceLog &Log, const OpStats &Traced,
                     Metrics &M) override {
    M["surface.lex_us"] = {Log.medianUs("surface.lex"), "us"};
    M["surface.parse_us"] = {Log.medianUs("surface.parse"), "us"};
    M["surface.elaborate_us"] = {Log.medianUs("surface.elaborate"), "us"};
    M["surface.tokens_per_s"] = {LexUs > 0 ? double(Tokens) / (LexUs / 1e6)
                                           : 0,
                                 "1/s"};
    M["driver.compile_miss_us"] = {Log.medianUs("driver.compile_miss"), "us"};
    double First = Log.medianUs("driver.first_run");
    double Warm = Log.medianUs("bytecode.warm_run");
    M["driver.first_run_us"] = {First, "us"};
    M["bytecode.warm_run_us"] = {Warm, "us"};
    M["driver.lower_self_us"] = {First - Warm, "us"};
    layerSumRatio(M, Log, {"driver.compile_miss", "driver.first_run"},
                  Traced);
    M["driver.front_end_ratio"] = {FrontEndRatio, "fraction"};
    M["driver.serialize_us"] = {Log.medianUs("driver.serialize"), "us"};
    Ledger L = ledger();
    double Ops = double(std::max<uint64_t>(1, L["ops"]));
    M["driver.artifact_bytes"] = {double(L["artifact_bytes"]) / Ops, "bytes"};
    M["bytecode.steps_per_op"] = {double(L["steps"]) / Ops, "count"};
    M["bytecode.allocs_per_op"] = {double(L["allocs"]) / Ops, "count"};
    M["bytecode.peak_heap_bytes"] = {double(L["peak_heap_bytes"]), "bytes"};
    if (FrontEndRatio != 1)
      return "a never-seen source did not go through the front end";
    return ReplayFailure;
  }

  Ledger ledger() override {
    driver::Session Fresh(sessionOptions());
    Ledger L;
    for (size_t I = 0; I != LedgerPrograms; ++I) {
      GenProgram P = generateProgram(Cfg.Seed ^ LedgerStream, I);
      std::shared_ptr<driver::Compilation> Comp = Fresh.compile(P.Source);
      driver::RunResult R =
          driver::Executor(Comp).run(AnswerName, driver::Backend::Bytecode);
      if (!checkRun(R, P).empty())
        L["failed"] += 1;
      ledgerRun(L, R);
      Result<std::string> Bytes = Comp->serializeArtifact();
      L["artifact_bytes"] += Bytes ? Bytes->size() : 0;
    }
    driver::Session::Stats St = Fresh.stats();
    L["front_end_compiles"] = St.Compilations;
    L["cache_hits"] = St.CacheHits;
    return L;
  }

private:
  /// The traced run's replays of one op's source into the inner layers:
  /// the front-end stages called directly, a second (warm) run on the
  /// same Executor, and serialization. Separate root spans, so they do
  /// not count toward the op's own time.
  void replays(Tracer &T, uint64_t Op, const GenProgram &P,
               driver::Executor &Ex) {
    {
      SpanGuard G(&T, "bytecode.warm_run", Op);
      Ex.run(AnswerName, driver::Backend::Bytecode);
    }
    DiagnosticEngine Diags;
    core::CoreContext C;
    surface::Elaborator Elab(C, Diags);
    std::vector<surface::Token> Toks;
    int64_t T0 = nowNs();
    {
      SpanGuard G(&T, "surface.lex", Op);
      Toks = surface::Lexer(P.Source, Diags).lexAll();
    }
    LexUs += double(nowNs() - T0) / 1000.0;
    Tokens += Toks.size();
    surface::SModule Mod;
    {
      SpanGuard G(&T, "surface.parse", Op);
      Mod = surface::Parser(std::move(Toks), Diags).parseModule();
    }
    {
      SpanGuard G(&T, "surface.elaborate", Op);
      if (!Elab.run(Mod) && ReplayFailure.empty())
        ReplayFailure = "direct elaboration failed: " + Diags.str();
    }
    Result<std::string> Bytes = std::string();
    {
      SpanGuard G(&T, "driver.serialize", Op);
      Bytes = Ex.compilation().serializeArtifact();
    }
    if (!Bytes && ReplayFailure.empty())
      ReplayFailure = "serializeArtifact failed: " + Bytes.error();
  }

  RunConfig Cfg;
  std::unique_ptr<driver::Session> S;
  uint64_t Next = 0; ///< Next program index: never reused in a run.
  double FrontEndRatio = 0;
  double LexUs = 0;
  uint64_t Tokens = 0;
  std::string ReplayFailure;
};

//===----------------------------------------------------------------------===//
// store-warm
//===----------------------------------------------------------------------===//

class StoreWarm final : public Workload {
public:
  explicit StoreWarm(const RunConfig &C) : Cfg(C) {
    static unsigned Instances = 0;
    Dir = Cfg.WorkDir + "/store-" + std::to_string(::getpid()) + "-" +
          std::to_string(Instances++);
    for (size_t I = 0; I != StorePrograms; ++I)
      Programs.push_back(generateProgram(Cfg.Seed, I));
  }
  ~StoreWarm() override {
    S.reset(); // Drain the session before its store directory goes.
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  bool setup(std::string &Why) override {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
    {
      // Write-behind keeps each Compilation alive until it is stored;
      // flushing every PopulateBatch compiles bounds that backlog, so
      // peak memory does not depend on how far the writer lags.
      driver::Session Pop(storeOptions());
      for (size_t I = 0; I != Programs.size(); ++I) {
        if (!Pop.compile(Programs[I].Source)->ok()) {
          Why = "store population: compile failed";
          return false;
        }
        if ((I + 1) % PopulateBatch == 0)
          Pop.flushStoreWrites();
      }
      Pop.flushStoreWrites();
    }
    S = std::make_unique<driver::Session>(storeOptions());
    // Warm-up: one disk hit + first run per program, answers checked.
    for (const GenProgram &P : Programs) {
      double Lat = 0;
      std::string Bad = op(P, nullptr, 0, Lat);
      if (!Bad.empty()) {
        Why = "warm-up: " + Bad;
        return false;
      }
    }
    return true;
  }

  bool oracleCheck(std::string &Why) override {
    std::vector<GenProgram> Sample;
    for (size_t I = 0; I != OracleSample; ++I)
      Sample.push_back(Programs[(I * 7) % Programs.size()]);
    return treeOracle(Sample, Why);
  }

  OpStats timed(double Seconds, TraceLog *Log) override {
    OpStats St;
    Tracer Tr;
    Tracer *T = Log ? &Tr : nullptr;
    Rng R(Cfg.Seed * 31 + ++Phases);
    Clock::time_point T0 = Clock::now();
    uint64_t Op = 0;
    while (secondsSince(T0) < Seconds) {
      const GenProgram &P = Programs[R.next() % Programs.size()];
      double Lat = 0;
      std::string Bad = op(P, T, Op++, Lat);
      ++St.Attempted;
      if (Bad.empty())
        St.ok(Lat);
      else
        St.fail(Bad);
      if (T && Bad.empty())
        replays(*T, Op - 1, P);
    }
    St.WallS = secondsSince(T0);
    if (Log)
      Log->add(Tr);
    return St;
  }

  std::string layers(double, const TraceLog &Log, const OpStats &Traced,
                     Metrics &M) override {
    double Hit = Log.medianUs("driver.compile_disk_hit");
    double Deser = Log.medianUs("driver.deserialize");
    M["driver.compile_disk_hit_us"] = {Hit, "us"};
    M["driver.deserialize_us"] = {Deser, "us"};
    M["driver.store_read_self_us"] = {Hit - Deser, "us"};
    M["driver.first_run_us"] = {Log.medianUs("driver.first_run"), "us"};
    M["bytecode.warm_run_us"] = {Log.medianUs("bytecode.warm_run"), "us"};
    layerSumRatio(M, Log, {"driver.compile_disk_hit", "driver.first_run"},
                  Traced);
    Ledger L = ledger();
    double Ops = double(std::max<uint64_t>(1, L["ops"]));
    M["driver.disk_hit_ratio"] = {double(L["disk_hits"]) / Ops, "fraction"};
    M["driver.front_end_compiles"] = {double(L["front_end_compiles"]),
                                      "count"};
    M["driver.hydrated_bytecode_ratio"] = {
        double(L["hydrated_bytecode"]) / Ops, "fraction"};
    M["bytecode.steps_per_op"] = {double(L["steps"]) / Ops, "count"};
    M["bytecode.allocs_per_op"] = {double(L["allocs"]) / Ops, "count"};
    M["bytecode.peak_heap_bytes"] = {double(L["peak_heap_bytes"]), "bytes"};
    if (L["disk_hits"] != L["ops"] || L["front_end_compiles"] != 0)
      return "a store-backed compile ran the front end";
    return ReplayFailure;
  }

  Ledger ledger() override {
    driver::Session Fresh(storeOptions());
    Ledger L;
    for (size_t I = 0; I != std::min(LedgerPrograms, Programs.size()); ++I) {
      const GenProgram &P = Programs[I];
      std::shared_ptr<driver::Compilation> Comp = Fresh.compile(P.Source);
      L["hydrated_bytecode"] += Comp->hydratedBytecode() ? 1 : 0;
      driver::RunResult R =
          driver::Executor(Comp).run(AnswerName, driver::Backend::Bytecode);
      if (!checkRun(R, P).empty())
        L["failed"] += 1;
      ledgerRun(L, R);
    }
    driver::Session::Stats St = Fresh.stats();
    L["disk_hits"] = St.DiskHits;
    L["front_end_compiles"] = St.Compilations;
    return L;
  }

private:
  /// Store-backed and cache-less: every compile reads the store, and
  /// nothing but the store keeps a Compilation alive.
  driver::CompileOptions storeOptions() const {
    driver::CompileOptions O = sessionOptions();
    O.StorePath = Dir;
    O.EnableCache = false;
    return O;
  }

  /// One op: a store hit plus the first bytecode run; \p LatUs gets the
  /// op's own time. Traced ops then run a warm second run (untimed).
  std::string op(const GenProgram &P, Tracer *T, uint64_t Op, double &LatUs) {
    int64_t Start = nowNs();
    std::optional<driver::Executor> Ex;
    driver::RunResult R;
    {
      SpanGuard Root(T, "warm.op", Op);
      driver::CompileOutcome Outcome = driver::CompileOutcome::FrontEnd;
      std::shared_ptr<driver::Compilation> Comp;
      {
        SpanGuard G(T, "driver.compile_disk_hit", Op);
        Comp = S->compile(P.Source, Outcome);
      }
      if (Outcome != driver::CompileOutcome::DiskHit)
        return "compile was not served from the store";
      Ex.emplace(Comp);
      SpanGuard G(T, "driver.first_run", Op);
      R = Ex->run(AnswerName, driver::Backend::Bytecode);
    }
    LatUs = double(nowNs() - Start) / 1000.0;
    if (T) {
      SpanGuard G(T, "bytecode.warm_run", Op);
      Ex->run(AnswerName, driver::Backend::Bytecode);
    }
    return checkRun(R, P);
  }

  /// Deserialization of the same artifact bytes, held in memory.
  void replays(Tracer &T, uint64_t Op, const GenProgram &P) {
    uint64_t H = driver::Session::hashSource(P.Source);
    auto It = Bytes.find(H);
    if (It == Bytes.end()) {
      std::optional<std::string> B = driver::ArtifactStore(Dir).load(H);
      if (!B) {
        ReplayFailure = "artifact missing from the store";
        return;
      }
      It = Bytes.emplace(H, std::move(*B)).first;
    }
    std::shared_ptr<driver::Compilation> Comp;
    {
      SpanGuard G(&T, "driver.deserialize", Op);
      Comp = driver::Compilation::deserializeArtifact(It->second, P.Source,
                                                       S->options());
    }
    if (!Comp && ReplayFailure.empty())
      ReplayFailure = "deserializeArtifact rejected stored bytes";
  }

  RunConfig Cfg;
  std::string Dir;
  std::vector<GenProgram> Programs;
  std::unique_ptr<driver::Session> S;
  std::map<uint64_t, std::string> Bytes;
  uint64_t Phases = 0;
  std::string ReplayFailure;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeCompileCold(const RunConfig &C) {
  return std::make_unique<CompileCold>(C);
}

std::unique_ptr<Workload> perfbench::makeStoreWarm(const RunConfig &C) {
  return std::make_unique<StoreWarm>(C);
}
