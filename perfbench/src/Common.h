//===- Common.h - Shared plumbing of the levity benchmark -------*- C++ -*-===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the clock, per-op
/// latency samples, the metric sink, the span recorder of the traced
/// run, and the seeded random source. Workloads only ever call the
/// library through its public headers; the spans here are recorded
/// from the benchmark's own code around those calls.
///
//===----------------------------------------------------------------------===//

#ifndef LEVITY_PERFBENCH_COMMON_H
#define LEVITY_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide epoch.
int64_t nowNs();
double secondsSince(Clock::time_point T0);

/// splitmix64: a tiny, fully specified PRNG, so one seed yields the same
/// inputs on every host and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [Lo, Hi] (inclusive).
  int64_t range(int64_t Lo, int64_t Hi);

private:
  uint64_t S;
};

/// Linear-interpolated percentile of \p V (sorted in place); 0 if empty.
double percentile(std::vector<double> &V, double P);
double median(std::vector<double> V);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// A named metric with its unit, as printed in the result line.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using Metrics = std::map<std::string, Metric>;

/// The outcome of a timed phase. Latencies are kept in a fixed-size
/// uniform reservoir (Vitter's algorithm R), so the benchmark's own
/// memory does not grow with the number of ops — peak_rss_mb measures
/// the program, not the length of the sample list. A run keeps one
/// reservoir per client and segment, so the cap is small.
struct OpStats {
  static constexpr size_t ReservoirCap = size_t(1) << 10;

  std::vector<double> LatUs; ///< Reservoir of completed ops' latencies.
  uint64_t Completed = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Busy = 0; ///< BUSY answers seen (retried or given up).
  double WallS = 0; ///< Timed wall time the ops ran in.
  std::string FirstFailure;

  /// Records one completed op of \p Us microseconds.
  void ok(double Us);
  void fail(std::string Why) {
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = std::move(Why);
  }
  void merge(const OpStats &O);

private:
  Rng Pick{0x5eed};
};

/// The share of a run's segments (and set-up repetitions) the op
/// latency metrics (and setup_s) are taken from: the quietest ones.
constexpr double QuietShare = 0.125;

/// The end-to-end metric set every workload prints, from a run measured
/// as consecutive short segments and the set-up repetitions \p SetupS.
/// On a shared host each CPU alternates between fast and slow spells, so
/// op latencies come in two modes whose mix varies from run to run. Host
/// noise only ever slows a segment, so op_p50_us, op_p99_us and
/// ops_per_s pool the run's quietest segments: the QuietShare of them
/// with the lowest median op latency. setup_s is the set-up repetitions'
/// QuietShare quantile, for the same reason. They do not depend on the
/// mix as long as fast spells cover more than that share of the run.
/// ok_ratio counts every segment.
void endToEnd(Metrics &M, const std::vector<OpStats> &Segments,
              std::vector<double> SetupS);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded span. Parent is an index into the same thread's span
/// vector (NoParent for a root).
struct Span {
  static constexpr uint32_t NoParent = UINT32_MAX;
  const char *Name = "";
  uint32_t Parent = NoParent;
  uint64_t Op = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  double us() const { return double(EndNs - StartNs) / 1000.0; }
};

/// Per-thread span recorder. Spans are kept in memory and written out
/// when the benchmark ends; a null Tracer* means "untraced" and every
/// guard below is a no-op.
class Tracer {
public:
  uint32_t open(const char *Name, uint64_t Op);
  void close(uint32_t Idx) { Spans[Idx].EndNs = nowNs(); Stack.pop_back(); }
  /// Records a span from \p StartNs to now under the innermost open span,
  /// for waits that overlap their siblings (a pipelined request's wait
  /// for its own response).
  void closed(const char *Name, uint64_t Op, int64_t StartNs);
  std::vector<Span> &spans() { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
};

/// RAII span around one call into a layer.
class SpanGuard {
public:
  SpanGuard(Tracer *T, const char *Name, uint64_t Op)
      : T(T), Idx(T ? T->open(Name, Op) : 0) {}
  ~SpanGuard() {
    if (T)
      T->close(Idx);
  }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

private:
  Tracer *T;
  uint32_t Idx;
};

/// Everything the traced phases of one workload recorded.
struct TraceLog {
  std::vector<std::vector<Span>> PerThread;
  void add(Tracer &T) { PerThread.push_back(std::move(T.spans())); }
  /// Median duration (µs) of every span called \p Name.
  double medianUs(const char *Name) const;
  /// Mean duration (µs) of every span called \p Name.
  double meanUs(const char *Name) const;
  /// Writes the spans as CSV (thread,name,op,parent,start_ns,end_ns);
  /// at most \p MaxSpans rows.
  bool write(const std::string &Path, size_t MaxSpans) const;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Settings shared by every workload, from the command line.
struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10;
  unsigned Threads = 1; ///< min(4, nproc) unless overridden.
  std::string WorkDir;  ///< Scratch directory inside the checkout.
};

/// The counters that must repeat exactly between two runs of one seed.
using Ledger = std::map<std::string, uint64_t>;

/// One benchmark workload. setup() is repeatable (a fresh instance per
/// set-up repetition); timed() measures with tracing off or on.
class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Builds every piece of state the timed phase needs; checks answers.
  /// Returns false (with \p Why) when set-up itself failed.
  virtual bool setup(std::string &Why) = 0;
  /// Untimed answer checks against an independent oracle (run once,
  /// after the set-up whose time is reported).
  virtual bool oracleCheck(std::string &Why) { (void)Why; return true; }
  /// The timed phase: ops until \p Seconds elapse. With \p Log non-null
  /// every op is traced and the spans land there.
  virtual OpStats timed(double Seconds, TraceLog *Log) = 0;
  /// Traced-run extras: replays into inner layers and the per-layer
  /// metrics (names without the workload prefix). \p Traced is the
  /// traced phase's outcome. Returns a failure description, or "".
  virtual std::string layers(double Seconds, const TraceLog &Log,
                             const OpStats &Traced, Metrics &M) = 0;
  /// The deterministic counters, computed from fresh state.
  virtual Ledger ledger() = 0;
};

/// Sets M["trace.layer_sum_ratio"]: the sum over the layer spans \p Spans
/// (each the time one op spends in that layer) of their mean duration,
/// over the mean op latency of the traced phase \p Traced, as the op's
/// own clock measured it. In [0.9, 1.1], the layer times of an op add up
/// to its end-to-end time within 10%. Means, because they add: an op's
/// layer times rise together with its program's size, so the median of
/// their sum exceeds the sum of their medians.
void layerSumRatio(Metrics &M, const TraceLog &Log,
                   std::initializer_list<const char *> Spans,
                   const OpStats &Traced);

std::unique_ptr<Workload> makeLevpHot(const RunConfig &C);
std::unique_ptr<Workload> makeCompileCold(const RunConfig &C);
std::unique_ptr<Workload> makeStoreWarm(const RunConfig &C);
std::unique_ptr<Workload> makeVmHeavy(const RunConfig &C);

/// Runs \p Fn on \p N threads started together; joins them all.
void runThreads(unsigned N, const std::function<void(unsigned)> &Fn);

} // namespace perfbench

#endif // LEVITY_PERFBENCH_COMMON_H
