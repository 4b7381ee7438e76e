//===- Session.cpp - The compilation-session facade -----------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"
#include "driver/ArtifactStore.h"
#include "driver/Executor.h"
#include "driver/LowerToL.h"
#include "driver/Serialize.h"
#include "support/Timing.h"
#include "surface/Parser.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <list>
#include <sstream>
#include <thread>

using namespace levity;
using namespace levity::driver;
using support::millisSince;

std::string_view driver::backendName(Backend B) {
  switch (B) {
  case Backend::TreeInterp:
    return "tree-interp";
  case Backend::AbstractMachine:
    return "abstract-machine";
  case Backend::Bytecode:
    return "bytecode";
  }
  return "unknown";
}


std::string driver::formatStageTimings(std::span<const StageTiming> Timings) {
  std::ostringstream OS;
  double Total = 0;
  for (const StageTiming &T : Timings) {
    char Line[96];
    std::snprintf(Line, sizeof(Line), "  %-18s %8.3f ms\n",
                  T.Stage.c_str(), T.Millis);
    OS << Line;
    Total += T.Millis;
  }
  char Line[96];
  std::snprintf(Line, sizeof(Line), "  %-18s %8.3f ms\n", "total", Total);
  OS << Line;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Compilation — pipeline stages (build time, single-threaded)
//===----------------------------------------------------------------------===//

Compilation::Compilation(const CompileOptions &Opts) : Opts(Opts) {}

Compilation::~Compilation() = default;

namespace {

/// The front-end stage sequence, shared by the build-time compile and
/// the hydrated lazy rebuild so the two can never drift apart. Records
/// per-stage wall-clock into \p Timings when non-null.
std::optional<surface::ElabOutput>
runFrontEndStages(const std::string &Source, DiagnosticEngine &Diags,
                  surface::Elaborator &Elab,
                  std::vector<StageTiming> *Timings) {
  auto Timed = [&](const char *Stage, auto Fn) {
    if (!Timings)
      return Fn();
    auto Start = std::chrono::steady_clock::now();
    auto R = Fn();
    Timings->push_back({Stage, millisSince(Start)});
    return R;
  };

  std::vector<surface::Token> Tokens = Timed("lex", [&] {
    surface::Lexer L(Source, Diags);
    return L.lexAll();
  });
  if (Diags.hasErrors())
    return std::nullopt;

  surface::SModule Module = Timed("parse", [&] {
    surface::Parser P(std::move(Tokens), Diags);
    return P.parseModule();
  });
  if (Diags.hasErrors())
    return std::nullopt;

  std::optional<surface::ElabOutput> Out =
      Timed("elaborate", [&] { return Elab.elaborate(Module); });
  if (!Out || !Timed("lint", [&] { return Elab.lint(*Out); }))
    return std::nullopt;
  return Out;
}

} // namespace

void Compilation::compileSource(std::string_view Src, uint64_t Hash) {
  Source.assign(Src);
  SrcHash = Hash;
  Elaborated = runFrontEndStages(Source, Diags, Elab, &Timings);
  Succeeded = Elaborated.has_value();
}

void Compilation::adoptProgram(
    const std::function<core::CoreProgram(core::CoreContext &)> &Build) {
  auto Start = std::chrono::steady_clock::now();
  surface::ElabOutput Out;
  Out.Program = Build(C);
  for (const core::TopBinding &B : Out.Program.Bindings)
    Out.UserBindings.push_back(B.Name);
  Elaborated = std::move(Out);
  Timings.push_back({"build-core", millisSince(Start)});
  Succeeded = true;
}

void Compilation::ensureFrontEnd() const {
  if (!Hydrated)
    return;
  // Rebuild the front end from the stored source, exactly once, through
  // the same stage sequence compileSource uses. The source compiled
  // successfully when the artifact was written, so this succeeds
  // barring a pipeline change — and a failure simply leaves Elaborated
  // empty, which consumers report. (Untimed: the hydrated timing report
  // shows the original build's stages plus "hydrate".)
  std::call_once(FrontEndOnce, [this] {
    Elaborated = runFrontEndStages(Source, Diags, Elab, nullptr);
  });
}

std::string Compilation::timingReport() const {
  return formatStageTimings(Timings);
}

const core::Type *Compilation::globalType(std::string_view Name) const {
  ensureFrontEnd();
  if (const core::Type *T = Elab.globalType(Name))
    return T;
  // Programmatic compilations bypass the elaborator's table; fall back to
  // the binding's recorded type.
  if (Elaborated)
    if (const core::TopBinding *B = Elaborated->Program.find(C.sym(Name)))
      return C.zonkType(B->Ty);
  return nullptr;
}

std::string Compilation::globalTypeText(std::string_view Name) const {
  if (Hydrated) {
    // The zero-rebuild path: type texts were persisted in the artifact.
    auto It = HydratedTypes.find(std::string(Name));
    return It != HydratedTypes.end() ? It->second : std::string();
  }
  if (const core::Type *T = globalType(Name))
    return T->str();
  return std::string();
}

//===----------------------------------------------------------------------===//
// Compilation — the one lowering and its bytecode (built once)
//===----------------------------------------------------------------------===//

const Compilation::Lowering &Compilation::lowering() const {
  std::call_once(LowerOnce, [this] {
    // Artifacts carry no M terms: a hydrated Compilation lowers from the
    // rebuilt front end exactly as a fresh compile does.
    ensureFrontEnd();
    auto Lw = std::make_unique<Lowering>();
    if (Elaborated)
      Lw->Globals = lowerProgram(C, Elaborated->Program,
                                 Elaborated->UserBindings, Lw->L, Lw->MC);
    for (uint32_t K = 0; K != Lw->Globals.size(); ++K) {
      const LoweredGlobal &G = Lw->Globals[K];
      Lw->Index.emplace(G.Name, K);
      if (G.Value)
        Lw->Cells.emplace(G.Var.Name, *G.Value);
    }
    Lowered = std::move(Lw);
  });
  return *Lowered;
}

const Compilation::VmProgram &Compilation::vmProgram() const {
  std::call_once(VmOnce, [this] {
    const Lowering &Lw = lowering();
    std::vector<bytecode::GlobalTerm> Terms;
    for (const LoweredGlobal &G : Lw.Globals)
      if (G.Value)
        Terms.push_back({G.Var.Name, *G.Value});
    Result<std::shared_ptr<const bytecode::Module>> Mod =
        Terms.empty() ? err("no global to compile")
                      : bytecode::compileProgram(Terms);
    auto P = std::make_unique<VmProgram>();
    uint32_t Next = 0;
    for (const LoweredGlobal &G : Lw.Globals)
      P->Entries.emplace(G.Name, !G.Value ? err(G.Value.error())
                                 : !Mod   ? err(Mod.error())
                                          : Result<uint32_t>(Next++));
    if (Mod)
      P->Module = *Mod;
    VmProg = std::move(P);
  });
  return *VmProg;
}

//===----------------------------------------------------------------------===//
// Compilation — const run dispatch (transient Executor per call)
//===----------------------------------------------------------------------===//

RunResult Compilation::run(std::string_view Name) const {
  return run(Name, Opts.DefaultBackend);
}

RunResult Compilation::run(std::string_view Name, Backend B) const {
  Executor Ex(shared_from_this());
  return Ex.run(Name, B);
}

//===----------------------------------------------------------------------===//
// Session — the sharded, LRU-bounded compilation cache
//===----------------------------------------------------------------------===//

/// One cache shard: a mutex, the hash → entries map (entries hold the
/// exact source for collision checks), and the shard's LRU order. An
/// entry's future is shared so losers of a compile race (and evicted
/// in-flight entries) stay valid.
struct Session::Shard {
  struct Entry {
    uint64_t Hash;
    std::string Source;
    /// Identifies the insertion, so a failed owner removes only its own
    /// entry (never a successor's re-insert for the same source).
    uint64_t Gen;
    std::shared_future<std::shared_ptr<Compilation>> Fut;
  };

  std::mutex M;
  uint64_t NextGen = 0;
  std::list<Entry> LRU; ///< Front = most recently used.
  std::unordered_map<uint64_t, std::vector<std::list<Entry>::iterator>> Map;
};

/// A lazily-spawned fixed pool draining a FIFO of tasks; runs the
/// store's write-behind.
struct Session::WorkerPool {
  explicit WorkerPool(unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      Threads.emplace_back([this] { workerLoop(); });
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    CV.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  void submit(std::function<void()> Task) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Queue.push_back(std::move(Task));
    }
    CV.notify_one();
  }

  void workerLoop() {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(M);
        CV.wait(Lock, [&] { return Stop || !Queue.empty(); });
        if (Stop && Queue.empty())
          return;
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      Task();
    }
  }

  std::mutex M;
  std::condition_variable CV;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Threads;
  bool Stop = false;
};

Session::Session() : Session(CompileOptions()) {}

Session::Session(CompileOptions Opts)
    : Opts(std::move(Opts)), Shards(std::make_unique<Shard[]>(NumShards)) {
  if (!this->Opts.StorePath.empty())
    Store = std::make_unique<ArtifactStore>(this->Opts.StorePath);
}

// ~WorkerPool (destroyed first — declared last) drains the queue before
// joining, so pending write-behind store writes complete here.
Session::~Session() = default;

uint64_t Session::hashSource(std::string_view Source) {
  // The one FNV-1a implementation: the artifact format addresses store
  // entries by this exact function, so there must never be two copies
  // to drift apart.
  return levc::fnv1a(Source);
}

size_t Session::perShardCap() const {
  if (Opts.MaxCachedCompilations == 0)
    return 0; // unbounded
  return std::max<size_t>(
      1, (Opts.MaxCachedCompilations + NumShards - 1) / NumShards);
}

std::shared_ptr<Compilation> Session::buildSource(std::string_view Source,
                                                  uint64_t Hash,
                                                  CompileOutcome &Outcome) {
  // Read-through: a published artifact turns this compile into pure
  // deserialization — no front end, no lowering. Validation is strict
  // (checksum, pipeline fingerprint, byte-exact source), so corrupt or
  // stale-version entries silently fall through to a clean recompile.
  if (Store) {
    if (std::optional<std::string> Bytes = Store->load(Hash)) {
      if (std::shared_ptr<Compilation> Comp =
              Compilation::deserializeArtifact(*Bytes, Source, Opts)) {
        NumDiskHits.fetch_add(1, std::memory_order_relaxed);
        Outcome = CompileOutcome::DiskHit;
        return Comp;
      }
    }
    NumDiskMisses.fetch_add(1, std::memory_order_relaxed);
  }

  Outcome = CompileOutcome::FrontEnd;
  auto Comp = std::shared_ptr<Compilation>(new Compilation(Opts));
  Comp->compileSource(Source, Hash);
  NumCompilations.fetch_add(1, std::memory_order_relaxed);

  // Write-behind, the worker pool's only job: persist off the caller's
  // critical path (the pool also compiles the user's bindings to
  // bytecode there). flushStoreWrites() and the destructor are the
  // completion barriers.
  if (Store && Comp->ok()) {
    {
      std::lock_guard<std::mutex> Lock(StoreFlushM);
      ++PendingStoreWrites;
    }
    pool().submit([this, Comp, Hash] {
      writeArtifact(Comp, Hash);
      {
        std::lock_guard<std::mutex> Lock(StoreFlushM);
        --PendingStoreWrites;
      }
      StoreFlushCV.notify_all();
    });
  }
  return Comp;
}

void Session::writeArtifact(const std::shared_ptr<Compilation> &Comp,
                            uint64_t Hash) {
  Result<std::string> Bytes = Comp->serializeArtifact();
  if (!Bytes)
    return; // The store is a cache: serialization failures are non-fatal.
  if (!Store->store(Hash, *Bytes))
    return;
  if (Opts.MaxStoredArtifacts || Opts.MaxStoreBytes)
    if (size_t N = Store->evictToBudget(Opts.MaxStoredArtifacts,
                                        Opts.MaxStoreBytes))
      NumDiskEvictions.fetch_add(N, std::memory_order_relaxed);
}

void Session::flushStoreWrites() {
  std::unique_lock<std::mutex> Lock(StoreFlushM);
  StoreFlushCV.wait(Lock, [this] { return PendingStoreWrites == 0; });
}

size_t Session::evictStore(size_t MaxEntries, uint64_t MaxBytes) {
  if (!Store)
    return 0;
  size_t N = Store->evictToBudget(MaxEntries, MaxBytes);
  if (N)
    NumDiskEvictions.fetch_add(N, std::memory_order_relaxed);
  return N;
}

void Session::evictOverCap(Shard &Sh) {
  size_t Cap = perShardCap();
  if (!Cap || Sh.LRU.size() <= Cap)
    return;
  // Evict least-recently-used *finished* entries. In-flight builds are
  // never evicted — that would re-admit a second owner for the same
  // source and break compile-once dedup — so the cap may be exceeded
  // while builds are outstanding; each owner re-runs this once its
  // build publishes.
  for (auto It = std::prev(Sh.LRU.end());
       Sh.LRU.size() > Cap && It != Sh.LRU.begin();) {
    auto Victim = It--;
    if (Victim->Fut.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      continue;
    auto &Bucket = Sh.Map[Victim->Hash];
    Bucket.erase(std::remove(Bucket.begin(), Bucket.end(), Victim),
                 Bucket.end());
    if (Bucket.empty())
      Sh.Map.erase(Victim->Hash);
    Sh.LRU.erase(Victim);
    NumEvictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<Compilation> Session::compile(std::string_view Source) {
  CompileOutcome Outcome;
  return compile(Source, Outcome);
}

std::shared_ptr<Compilation> Session::compile(std::string_view Source,
                                              CompileOutcome &Outcome) {
  uint64_t H = hashSource(Source);
  if (!Opts.EnableCache)
    return buildSource(Source, H, Outcome);

  Shard &Sh = Shards[H % NumShards];

  std::promise<std::shared_ptr<Compilation>> Prom;
  std::shared_future<std::shared_ptr<Compilation>> Fut;
  bool Owner = false;
  uint64_t OwnGen = 0;
  {
    std::lock_guard<std::mutex> Lock(Sh.M);
    auto MapIt = Sh.Map.find(H);
    if (MapIt != Sh.Map.end()) {
      for (auto EntryIt : MapIt->second)
        if (EntryIt->Source == Source) {
          NumCacheHits.fetch_add(1, std::memory_order_relaxed);
          Sh.LRU.splice(Sh.LRU.begin(), Sh.LRU, EntryIt); // touch
          Fut = EntryIt->Fut;
          break;
        }
    }
    if (!Fut.valid()) {
      // First compile of this source: publish an in-flight entry so
      // concurrent identical compiles wait instead of duplicating work.
      Owner = true;
      OwnGen = ++Sh.NextGen;
      Fut = Prom.get_future().share();
      Sh.LRU.push_front({H, std::string(Source), OwnGen, Fut});
      Sh.Map[H].push_back(Sh.LRU.begin());

      evictOverCap(Sh);
    }
  }

  if (!Owner) {
    // Both the found-in-cache case and a wait on an identical in-flight
    // compile count (and report) as memory hits.
    Outcome = CompileOutcome::CacheHit;
    return Fut.get(); // Blocks only while the winner is still building.
  }

  std::shared_ptr<Compilation> Comp;
  try {
    Comp = buildSource(Source, H, Outcome);
  } catch (...) {
    // Wake current waiters with the failure, but drop the entry so the
    // source retries fresh instead of rethrowing a stale exception on
    // every future compile. The generation check ensures we only remove
    // our own entry, never a successor's re-insert for this source.
    Prom.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> Lock(Sh.M);
      auto MapIt = Sh.Map.find(H);
      if (MapIt != Sh.Map.end()) {
        auto &Bucket = MapIt->second;
        for (auto It = Bucket.begin(); It != Bucket.end(); ++It)
          if ((*It)->Gen == OwnGen) {
            Sh.LRU.erase(*It);
            Bucket.erase(It);
            break;
          }
        if (Bucket.empty())
          Sh.Map.erase(MapIt);
      }
    }
    throw;
  }
  Prom.set_value(Comp);
  if (perShardCap()) {
    // Our entry just became evictable: re-enforce the cap, or the shard
    // stays over it until its next insert.
    std::lock_guard<std::mutex> Lock(Sh.M);
    evictOverCap(Sh);
  }
  return Comp;
}

std::shared_ptr<Compilation> Session::compileProgram(
    const std::function<core::CoreProgram(core::CoreContext &)> &Build) {
  auto Comp = std::shared_ptr<Compilation>(new Compilation(Opts));
  Comp->adoptProgram(Build);
  NumCompilations.fetch_add(1, std::memory_order_relaxed);
  return Comp;
}

Session::Stats Session::stats() const {
  Stats St;
  St.Compilations = NumCompilations.load(std::memory_order_relaxed);
  St.CacheHits = NumCacheHits.load(std::memory_order_relaxed);
  St.Evictions = NumEvictions.load(std::memory_order_relaxed);
  St.DiskHits = NumDiskHits.load(std::memory_order_relaxed);
  St.DiskMisses = NumDiskMisses.load(std::memory_order_relaxed);
  St.DiskEvictions = NumDiskEvictions.load(std::memory_order_relaxed);
  return St;
}

size_t Session::cacheSize() const {
  size_t N = 0;
  for (size_t I = 0; I != NumShards; ++I) {
    std::lock_guard<std::mutex> Lock(Shards[I].M);
    N += Shards[I].LRU.size();
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Session — the write-behind pool and batch running
//===----------------------------------------------------------------------===//

Session::WorkerPool &Session::pool() {
  std::call_once(PoolOnce, [this] {
    unsigned N = Opts.AsyncWorkers;
    if (N == 0) {
      N = std::thread::hardware_concurrency();
      N = std::clamp(N, 2u, 8u);
    }
    Pool = std::make_unique<WorkerPool>(N);
  });
  return *Pool;
}

std::vector<RunResult>
Session::runAll(std::span<const RunRequest> Requests) {
  std::vector<RunResult> Out;
  Out.reserve(Requests.size());
  for (const RunRequest &Req : Requests) {
    CompileOutcome Outcome;
    std::shared_ptr<Compilation> Comp = compile(Req.Source, Outcome);
    if (Req.Outcome)
      *Req.Outcome = Outcome;
    Executor Ex(Comp);
    if (Req.Fuel) {
      // The per-request deadline: whichever backend runs, it stops (with
      // Status::OutOfFuel) after this many of its own steps.
      CompileOptions &O = Ex.options();
      O.MaxInterpSteps = *Req.Fuel;
      O.MaxMachineSteps = *Req.Fuel;
      O.MaxVmSteps = *Req.Fuel;
    }
    Out.push_back(Ex.run(Req.Name, Req.B.value_or(Opts.DefaultBackend)));
  }
  return Out;
}
