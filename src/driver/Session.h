//===- Session.h - The compilation-session facade ---------------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one public entry point to the levity pipeline. Mirrors how GHC
/// hides the levity-polymorphic core pipeline behind a driver/session API
/// instead of exposing pass objects to clients:
///
/// \code
///   driver::Session S;
///   auto Comp = S.compile("square :: Int# -> Int# ; square x = x *# x ;"
///                         "answer = square 6# +# 6#");
///   if (!Comp->ok()) { report(Comp->diagText()); }
///   driver::RunResult R = Comp->run("answer");                 // tree interp
///   driver::RunResult M = Comp->run("answer",
///                                   driver::Backend::AbstractMachine);
/// \endcode
///
/// The API is built for concurrency, following the same artifact/executor
/// split GHC keeps between interface files and the runtime:
///
///  * A **Compilation is an immutable artifact**: source, core program,
///    diagnostics, timings, and the program's lowering and bytecode,
///    built lazily but once (std::call_once). `run` and `globalType` are
///    const and data-race-free, so any number of threads may share one
///    Compilation.
///  * An **Executor** (Executor.h) owns the mutable per-thread run state:
///    the tree-interpreter instance (value pool, memoized global thunks),
///    fuel knobs, and ad-hoc expression evaluation. One Executor per
///    thread; `Compilation::run` spins up a transient one per call.
///  * A **Session is thread-safe**: the compilation cache is sharded with
///    a mutex per shard (and an optional LRU bound), and `runAll` is a
///    batch compile-and-run entry point that runs on the caller's thread.
///
/// One Session owns a compilation cache keyed by source hash, so repeated
/// compiles of identical source return the *same* Compilation (and its
/// already-lowered backends). Concurrent compiles of the same new source
/// build it exactly once; the other threads block on the winner's result.
///
/// A Compilation is one thing: a compiled surface or core program. The
/// paper's formal development (Section 6: hand-built L terms through
/// Figures 3-7) runs in its own harness, lcalc/Pipeline.h, and the
/// Section 8.1 catalog analysis is classlib::runClassAnalysis.
///
/// The low-level pass headers (surface/, core/, runtime/, …) stay public
/// for unit tests; new code should use this facade.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_DRIVER_SESSION_H
#define LEVITY_DRIVER_SESSION_H

#include "bytecode/Vm.h"
#include "driver/LowerToL.h"
#include "mcalc/Machine.h"
#include "runtime/Interp.h"
#include "surface/Elaborate.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace levity {
namespace driver {

class ArtifactStore;
class Executor;

/// The evaluation backends a Compilation can run on.
enum class Backend : uint8_t {
  TreeInterp,      ///< The instrumented big-step core evaluator.
  AbstractMachine, ///< core → L → ANF (Figure 7) → the M machine (Figure 6).
  Bytecode         ///< The M lowering compiled to one bytecode module and
                   ///< run on the threaded VM (src/bytecode/): the
                   ///< production engine, and the only code `.levc`
                   ///< artifacts store. Nothing falls back to another
                   ///< backend.
};

std::string_view backendName(Backend B);

/// How a Session::compile call was satisfied — the per-call counterpart
/// of the session-wide Stats counters, so multi-tenant front ends
/// (server/Server.h) can attribute cache behaviour to the caller.
enum class CompileOutcome : uint8_t {
  FrontEnd, ///< Built by the front end (a true miss everywhere).
  CacheHit, ///< Served from the in-memory cache (including waits on an
            ///< identical in-flight compile).
  DiskHit   ///< Rehydrated from the on-disk `.levc` store.
};

/// Knobs for a Session: backend, fuel, the compilation cache and the
/// on-disk store.
struct CompileOptions {
  /// Backend used by run() calls that do not name one explicitly.
  Backend DefaultBackend = Backend::TreeInterp;
  bool EnableCache = true; ///< Reuse Compilations for identical source.
  uint64_t MaxInterpSteps = 200000000; ///< Tree-interpreter fuel.
  uint64_t MaxMachineSteps = 100000000; ///< M-machine fuel.
  uint64_t MaxVmSteps = 1000000000; ///< Bytecode-VM fuel (instructions;
                                    ///< VM steps are much cheaper than
                                    ///< machine transitions).
  /// LRU bound on the Session's compilation cache; 0 = unbounded. The
  /// bound is approximate (enforced per cache shard), evictions are
  /// counted in Session::Stats::Evictions.
  size_t MaxCachedCompilations = 0;
  /// Worker threads behind the artifact store's write-behind; 0 = pick
  /// from hardware concurrency. The pool is spawned lazily on the first
  /// store write.
  unsigned AsyncWorkers = 0;
  /// Root directory of the persistent on-disk compilation store; empty =
  /// disabled. When set, compile() is read-through/write-behind against
  /// the store: a hit rehydrates a runnable Compilation (no front end,
  /// no re-lowering) and a miss compiles normally, then persists the
  /// artifact asynchronously (see Session::flushStoreWrites). Many
  /// processes may safely share one store directory — writes are
  /// temp-file + atomic-rename with an advisory writer lock, and
  /// corrupt or stale-version entries are treated as misses.
  std::string StorePath;
  /// Byte-size budget for the on-disk store; 0 = unbounded. The primary
  /// store bound: after each write-behind store write, oldest-modified
  /// entries are evicted until the store's total `.levc` size fits the
  /// budget. Evictions are counted in Session::Stats::DiskEvictions.
  uint64_t MaxStoreBytes = 0;
  /// Secondary cap on the *number* of .levc entries kept in the store;
  /// 0 = unbounded. Enforced together with MaxStoreBytes (oldest-first,
  /// one pass, one lock).
  size_t MaxStoredArtifacts = 0;
};

/// Wall-clock duration of one pipeline stage.
struct StageTiming {
  std::string Stage; ///< Stage name as shown in the report ("lex", …).
  double Millis = 0; ///< Wall-clock duration.
};

/// Renders stage timings as the driver's standard one-line-per-stage
/// report (Compilation::timingReport).
std::string formatStageTimings(std::span<const StageTiming> Timings);

/// The unified result of evaluating a global on some backend. Exactly
/// one backend's stats member is meaningful; the convenience accessors
/// hide the difference.
struct RunResult {
  enum class Status : uint8_t {
    Ok,           ///< Evaluation reached a value.
    Bottom,       ///< error was called.
    RuntimeError, ///< stuck machine / interpreter runtime failure.
    OutOfFuel,    ///< The backend's step budget ran out.
    Unsupported   ///< Program outside the backend's fragment.
  };

  Status St = Status::RuntimeError; ///< Outcome classification.
  Backend Used = Backend::TreeInterp; ///< The backend asked for (and run).
  std::string Display;  ///< Pretty-printed value (empty unless Ok).
  std::optional<int64_t> IntValue;   ///< Int#/Int results.
  std::optional<double> DoubleValue; ///< Double#/Double results.
  std::string Error;    ///< Failure reason (empty when Ok).
  double Millis = 0;    ///< Wall-clock evaluation time.

  runtime::InterpStats Interp;  ///< Backend::TreeInterp counters.
  mcalc::MachineStats Machine;  ///< Backend::AbstractMachine counters.
  bytecode::VmStats Vm;         ///< Backend::Bytecode counters.

  /// True when evaluation reached a value. A RunResult is a plain value
  /// type: copy it freely across threads.
  bool ok() const { return St == Status::Ok; }

  /// Heap allocations the run performed, in the executing backend's cost
  /// model (thunks + boxes + closures for the tree interpreter, LET
  /// firings and global cells for the M machine, heap objects for the
  /// bytecode VM). Dispatches on Used.
  uint64_t allocations() const {
    switch (Used) {
    case Backend::TreeInterp:
      return Interp.heapAllocations();
    case Backend::AbstractMachine:
      return Machine.Allocations;
    case Backend::Bytecode:
      return Vm.Allocations;
    }
    return 0;
  }
  /// Steps the run took (eval steps / machine transitions / VM
  /// instructions), dispatched on Used like allocations().
  uint64_t steps() const {
    switch (Used) {
    case Backend::TreeInterp:
      return Interp.EvalSteps;
    case Backend::AbstractMachine:
      return Machine.Steps;
    case Backend::Bytecode:
      return Vm.Steps;
    }
    return 0;
  }
  /// Peak heap cells the run held, in the executing backend's unit
  /// (pool Values+EnvNodes / machine heap bindings / VM heap objects),
  /// dispatched on Used like allocations(). Memory as a measured
  /// quantity: under the per-Executor run regions this plateaus across
  /// runs instead of growing.
  uint64_t peakHeapCells() const {
    switch (Used) {
    case Backend::TreeInterp:
      return Interp.PeakHeapCells;
    case Backend::AbstractMachine:
      return Machine.MaxHeapSize;
    case Backend::Bytecode:
      return Vm.MaxHeapObjects;
    }
    return 0;
  }
  /// peakHeapCells() in bytes (each backend weighs its own cells).
  uint64_t peakHeapBytes() const {
    switch (Used) {
    case Backend::TreeInterp:
      return Interp.PeakHeapBytes;
    case Backend::AbstractMachine:
      return Machine.PeakHeapBytes;
    case Backend::Bytecode:
      return Vm.PeakHeapBytes;
    }
    return 0;
  }
};

/// A compiled program: the product of one trip through the front end,
/// plus everything needed to run it. Created by Session; shared (and
/// cached) via shared_ptr.
///
/// A Compilation is **immutable after build** and safe to share across
/// threads: `run` and `globalType` are const and data-race-free. The
/// program's lowering and its bytecode module are built lazily but
/// exactly once (std::call_once) and are read-only afterwards.
/// Mutable per-run state (the tree interpreter, fuel) lives in Executor —
/// the const run() overloads here create a transient Executor per call,
/// so cross-run thunk memoization needs a long-lived Executor.
class Compilation : public std::enable_shared_from_this<Compilation> {
public:
  ~Compilation();
  Compilation(const Compilation &) = delete;
  Compilation &operator=(const Compilation &) = delete;

  //===------------------------------------------------------------------===//
  // Outcome and diagnostics
  //===------------------------------------------------------------------===//

  /// True when every stage succeeded and the program can run. Constant
  /// for the Compilation's whole lifetime (hydrated artifacts are always
  /// ok — only successful compiles are ever stored).
  bool ok() const { return Succeeded; }

  /// The build-time diagnostics sink. For hydrated compilations this
  /// first triggers the lazy front-end rebuild (see hydrated()) so the
  /// returned engine is stable afterwards.
  const DiagnosticEngine &diags() const {
    ensureFrontEnd();
    return Diags;
  }
  /// All diagnostics, rendered. Thread-safe; see diags().
  std::string diagText() const { return diags().str(); }

  /// FNV-1a hash of the source text (the Session cache and artifact
  /// store key; 0 for programmatic compilations).
  uint64_t sourceHash() const { return SrcHash; }
  /// The exact source text this Compilation was built from.
  const std::string &source() const { return Source; }

  /// True when this Compilation was rehydrated from an on-disk `.levc`
  /// artifact (CompileOptions::StorePath) instead of built by the front
  /// end. Artifacts carry the program's bytecode module and its entry
  /// table, so Backend::Bytecode runs do *zero* front-end, lowering or
  /// bytecode-compile work. Every other use (a tree or machine run,
  /// program(), globalType()) rebuilds the front end lazily, exactly
  /// once, thread-safely, and then lowers as a fresh compile does.
  bool hydrated() const { return Hydrated; }

  /// True when hydration restored the program's bytecode module from
  /// the artifact's BCOD section, so Backend::Bytecode runs execute with
  /// zero front-end, lowering, *or bytecode-compilation* work.
  bool hydratedBytecode() const { return Hydrated && vmProgram().Module; }

  /// Per-stage wall-clock timings, in pipeline order: lex, parse,
  /// elaborate and lint (which also sets the strictness bits and checks
  /// Section 5.1) for a source compile. For hydrated
  /// compilations: the *original* build's stages (restored from the
  /// artifact) followed by this process's "hydrate" stage.
  const std::vector<StageTiming> &timings() const { return Timings; }
  /// One-line-per-stage human-readable report.
  std::string timingReport() const;

  //===------------------------------------------------------------------===//
  // The serialized artifact (driver/Serialize.h, docs/ARTIFACT_FORMAT.md)
  //===------------------------------------------------------------------===//

  /// Serializes this Compilation into the versioned `.levc` byte format.
  /// Compiles the program to bytecode first (that is the point: the
  /// artifact must make a cold process's bytecode runs compile-free);
  /// globals outside the bytecode fragment are stored with their
  /// diagnostics. Thread-safe. Fails for failed, programmatic
  /// (no source to key the store by) and hydrated compilations.
  Result<std::string> serializeArtifact() const;

  /// Rebuilds a runnable Compilation from serializeArtifact() bytes.
  /// \returns null when the bytes are corrupt, truncated, carry a wrong
  /// format version or pipeline fingerprint, or do not match
  /// \p ExpectedSource exactly — callers treat null as a cache miss and
  /// recompile. On success the result is immutable-after-build and
  /// thread-safe exactly like a front-end-built Compilation.
  static std::shared_ptr<Compilation>
  deserializeArtifact(std::string_view Bytes, std::string_view ExpectedSource,
                      const CompileOptions &Opts);

  //===------------------------------------------------------------------===//
  // The compiled surface program
  //===------------------------------------------------------------------===//

  /// The core context owning the compiled program's IR. Mutable through a
  /// const Compilation because post-build consumers allocate *scratch*
  /// nodes in it (zonked types, lookup vars) — the context's arena and
  /// symbol table are internally synchronized, and the compiled program
  /// itself is never modified.
  core::CoreContext &ctx() const { return C; }
  /// The compiled core program (null until a successful compile). On a
  /// hydrated Compilation this triggers the lazy front-end rebuild.
  const core::CoreProgram *program() const {
    ensureFrontEnd();
    return Elaborated ? &Elaborated->Program : nullptr;
  }
  /// The zonked, dictionary-expanded type of a top-level name. Const and
  /// thread-safe: zonking only reads metavariable solutions (all writes
  /// happened at build time) and allocates result nodes in the
  /// synchronized arena. On a hydrated Compilation this triggers the
  /// lazy front-end rebuild; use globalTypeText() for the zero-rebuild
  /// path.
  const core::Type *globalType(std::string_view Name) const;
  /// The pretty-printed type of a top-level name, or "" when unknown.
  /// For hydrated compilations this reads the type text stored in the
  /// artifact — no front-end rebuild; otherwise it renders globalType().
  std::string globalTypeText(std::string_view Name) const;
  /// Class/instance tables from elaboration (empty for programmatic
  /// compilations). Triggers the lazy front-end rebuild when hydrated.
  const surface::Elaborator &elaborator() const {
    ensureFrontEnd();
    return Elab;
  }
  /// The raw elaboration output (null until a successful compile).
  /// Triggers the lazy front-end rebuild when hydrated.
  const surface::ElabOutput *elabOutput() const {
    ensureFrontEnd();
    return Elaborated ? &*Elaborated : nullptr;
  }

  /// The option values this Compilation was built with (a private copy;
  /// later Session option changes do not affect existing artifacts).
  const CompileOptions &options() const { return Opts; }

  //===------------------------------------------------------------------===//
  // Running (const: each call uses a transient Executor; hold your own
  // Executor to keep interpreter state — memoized globals — across runs)
  //===------------------------------------------------------------------===//

  /// Evaluates top-level \p Name on the session's default backend.
  RunResult run(std::string_view Name) const;
  /// Evaluates top-level \p Name on a specific backend.
  RunResult run(std::string_view Name, Backend B) const;

private:
  friend class Session;
  friend class Executor;
  explicit Compilation(const CompileOptions &Opts);

  /// Runs the front end over \p Src, whose hashSource() is \p Hash.
  void compileSource(std::string_view Src, uint64_t Hash);
  void adoptProgram(
      const std::function<core::CoreProgram(core::CoreContext &)> &Build);

  /// Hydrated compilations skip the front end entirely; the first
  /// consumer that needs core IR (tree-interp run, program(),
  /// globalType()) rebuilds it here from the stored source — exactly
  /// once, via FrontEndOnce. No-op for front-end-built compilations.
  void ensureFrontEnd() const;

  /// The program's one lowering (LowerToL.h), built on first machine or
  /// bytecode use, exactly once; a hydrated Compilation first rebuilds
  /// its front end.
  struct Lowering {
    lcalc::LContext L;
    mcalc::MContext MC;
    std::vector<LoweredGlobal> Globals;
    std::map<std::string, uint32_t, std::less<>> Index; ///< Into Globals.
    mcalc::HeapMap Cells; ///< Cell variable → value term, per global.
  };
  const Lowering &lowering() const;

  /// The program's bytecode, compiled from lowering() on first bytecode
  /// use, exactly once; a hydrated Compilation installs the module and
  /// entries its artifact stores instead.
  struct VmProgram {
    std::shared_ptr<const bytecode::Module> Module; ///< Null: none runs.
    /// Global name → its index in Module->Globals, or why it does not
    /// run on the VM (its lowering's or the bytecode compiler's
    /// diagnostic).
    std::map<std::string, Result<uint32_t>, std::less<>> Entries;
  };
  const VmProgram &vmProgram() const;

  /// The refusal of a run of a global the lowering does not hold.
  static std::string notLowered(std::string_view Name) {
    return "no top-level binding named '" + std::string(Name) +
           "' among the user's bindings and the globals they use";
  }

  CompileOptions Opts;
  std::string Source;
  uint64_t SrcHash = 0;
  bool Succeeded = false;
  /// True for store-rehydrated compilations (set before publication,
  /// constant afterwards).
  bool Hydrated = false;

  /// Internally synchronized (see ctx()); mutable so const runs can
  /// allocate scratch nodes.
  mutable core::CoreContext C;
  /// Mutable trio behind the hydrated lazy front-end rebuild
  /// (ensureFrontEnd): written either at build time (before publication)
  /// or under FrontEndOnce, read only after one of those.
  mutable DiagnosticEngine Diags;
  mutable surface::Elaborator Elab{C, Diags};
  mutable std::optional<surface::ElabOutput> Elaborated;
  std::vector<StageTiming> Timings;
  /// Artifact-stored global type texts (hydrated compilations only).
  std::unordered_map<std::string, std::string> HydratedTypes;
  mutable std::once_flag FrontEndOnce;

  mutable std::once_flag LowerOnce;
  mutable std::unique_ptr<Lowering> Lowered;
  mutable std::once_flag VmOnce;
  mutable std::unique_ptr<VmProgram> VmProg;
};

/// A compiler session: options + compilation cache + counters.
///
/// Thread-safe: any number of threads may compile (and run the results)
/// through one Session concurrently. The cache is sharded with one mutex
/// per shard; identical source compiles exactly once even under
/// contention (losers block on the winner's in-flight result). An LRU
/// bound (CompileOptions::MaxCachedCompilations) caps memory; evictions
/// are counted in Stats.
///
/// With CompileOptions::StorePath set, the in-memory cache is backed by
/// a persistent on-disk store shared across processes: misses first try
/// to rehydrate a `.levc` artifact (Stats::DiskHits — compiling becomes
/// deserialization of the user's bytecode, with zero front-end or
/// lowering work until a run needs more), and fresh
/// compiles are persisted write-behind on the worker pool
/// (flushStoreWrites() is the completion barrier).
class Session {
public:
  /// A session with default options (no LRU bound, no on-disk store).
  Session();
  /// A session with explicit knobs; opens the artifact store when
  /// Opts.StorePath is set (the directory is created on first write).
  explicit Session(CompileOptions Opts);
  /// Joins the worker pool after draining it — pending write-behind
  /// store writes complete before return.
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Compiles surface source through lex → parse → elaborate → lint
  /// (Core Lint, with the Section 5.1 checks). Identical source (by hash,
  /// verified by exact compare) returns the cached Compilation.
  std::shared_ptr<Compilation> compile(std::string_view Source);

  /// Like compile(), additionally reporting *how* this call was served
  /// (front end, memory hit, disk hit) so callers fronting many tenants
  /// can attribute cache behaviour per caller. The outcome corresponds
  /// 1:1 with the Stats counter this call bumped.
  std::shared_ptr<Compilation> compile(std::string_view Source,
                                       CompileOutcome &Outcome);

  /// Wraps a programmatically-built core program (e.g. the Samples
  /// builders) in a Compilation, so core-IR workloads ride the same
  /// facade. Not cached (the builder is opaque).
  std::shared_ptr<Compilation> compileProgram(
      const std::function<core::CoreProgram(core::CoreContext &)> &Build);

  /// One compile-and-run unit of a batch workload.
  struct RunRequest {
    std::string Source;            ///< Program text (cached as usual).
    std::string Name;              ///< Top-level binding to evaluate.
    std::optional<Backend> B;      ///< Defaults to the session backend.
    /// Per-request step budget: overrides every backend's fuel knob for
    /// this run, so a batch front end can impose a deadline per request
    /// (fuel exhaustion comes back as Status::OutOfFuel — the typed
    /// TIMEOUT signal — never as a wedged thread).
    std::optional<uint64_t> Fuel;
    /// When non-null, receives how this request's compile was served
    /// (written before the run executes; the pointee must outlive the
    /// runAll call).
    CompileOutcome *Outcome = nullptr;
  };
  /// Batch entry point: compiles and runs every request in order on the
  /// calling thread (sharing the cache, so duplicate sources compile
  /// once), each on a transient Executor, and returns the results in
  /// request order.
  std::vector<RunResult> runAll(std::span<const RunRequest> Requests);

  /// The session's monotonic counters. Stats is a plain copyable value:
  /// always take one snapshot via stats() and read fields from the copy —
  /// never sample stats().X repeatedly, which can observe different
  /// moments per field under concurrency.
  struct Stats {
    uint64_t Compilations = 0; ///< Front-end runs actually performed.
    uint64_t CacheHits = 0;    ///< compile() calls served from memory.
    uint64_t Evictions = 0;    ///< Compilations dropped by the LRU bound.
    uint64_t DiskHits = 0;     ///< compile() calls rehydrated from the
                               ///< on-disk store (no front end, no
                               ///< lowering).
    uint64_t DiskMisses = 0;   ///< Store lookups that fell back to a
                               ///< full compile (absent, corrupt, or
                               ///< stale-version entries).
    uint64_t DiskEvictions = 0; ///< .levc files removed to enforce
                                ///< CompileOptions::MaxStoredArtifacts
                                ///< or MaxStoreBytes, on write-behind
                                ///< or by evictStore().
  };
  /// Snapshot of every counter, taken at one call. Each field is read
  /// atomically; the struct is the unit tests and benches should hold on
  /// to (rather than re-calling stats() per field).
  Stats stats() const;
  /// Number of Compilations currently held in the cache (across shards).
  size_t cacheSize() const;
  /// The options this Session was constructed with (immutable).
  const CompileOptions &options() const { return Opts; }

  /// Blocks until every write-behind artifact-store write scheduled so
  /// far has been published (temp file renamed into the store) — the
  /// barrier a warm-up process calls before handing the store directory
  /// to consumers. Returns immediately when no store is configured.
  /// (The destructor also drains pending writes.)
  void flushStoreWrites();

  /// Enforces the on-disk store budgets *now* (the server's EVICT
  /// request): removes oldest-modified `.levc` entries until at most
  /// \p MaxEntries remain and their total size fits \p MaxBytes (0 =
  /// unbounded for either). Counted in Stats::DiskEvictions. Returns the
  /// number of entries removed; 0 when no store is configured.
  size_t evictStore(size_t MaxEntries, uint64_t MaxBytes);

  /// FNV-1a — the cache and artifact-store key for compile().
  static uint64_t hashSource(std::string_view Source);

private:
  struct Shard;
  struct WorkerPool;

  /// Builds \p Source, whose hashSource() is \p Hash: from the store
  /// when it holds the artifact, else through the front end.
  std::shared_ptr<Compilation> buildSource(std::string_view Source,
                                           uint64_t Hash,
                                           CompileOutcome &Outcome);
  /// Serializes \p Comp and publishes it in the store under \p Hash,
  /// then enforces the store budgets. Runs on the worker pool.
  void writeArtifact(const std::shared_ptr<Compilation> &Comp,
                     uint64_t Hash);
  WorkerPool &pool();
  size_t perShardCap() const;
  /// Evicts \p Sh's least-recently-used finished entries down to
  /// perShardCap(). Caller holds Sh.M.
  void evictOverCap(Shard &Sh);

  CompileOptions Opts;

  static constexpr size_t NumShards = 8;
  std::unique_ptr<Shard[]> Shards;

  /// The on-disk artifact store (null unless Opts.StorePath is set).
  /// Declared before Pool: pool teardown may still be writing artifacts.
  std::unique_ptr<ArtifactStore> Store;
  std::mutex StoreFlushM;
  std::condition_variable StoreFlushCV;
  /// Writes scheduled but not yet published; guarded by StoreFlushM.
  uint64_t PendingStoreWrites = 0;

  std::atomic<uint64_t> NumCompilations{0};
  std::atomic<uint64_t> NumCacheHits{0};
  std::atomic<uint64_t> NumEvictions{0};
  std::atomic<uint64_t> NumDiskHits{0};
  std::atomic<uint64_t> NumDiskMisses{0};
  std::atomic<uint64_t> NumDiskEvictions{0};

  // Declared last: ~WorkerPool drains and joins worker threads, which
  // touch the shards and counters above — those must still be alive.
  std::once_flag PoolOnce;
  std::unique_ptr<WorkerPool> Pool;
};

} // namespace driver
} // namespace levity

#endif // LEVITY_DRIVER_SESSION_H
