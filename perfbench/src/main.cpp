//===- main.cpp - The levity benchmark program ----------------------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <levp-hot|compile-cold|store-warm|vm-heavy>
//             --seed N --seconds S --trace 0|1
//             [--threads N] [--workdir DIR]
//
// --trace 0: run the timed phase with tracing off as consecutive
// quarter-second segments, setting the workload up afresh before some of
// them (evenly spread), check answers against an untimed oracle once,
// and print the end-to-end metrics (see endToEnd for how segments and
// set-ups combine).
//
// --trace 1: the per-layer ledger. Every workload is set up (pinned like
// a segment) and run untraced, then traced (spans written to DIR/out),
// then replayed into its inner layers; its deterministic counters are
// computed twice from fresh state and must match exactly. Every
// per-layer metric of every workload is printed, prefixed by the
// workload's name.
//
// The last line of standard output is one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name:
//    {"value": …, "unit": …}, …}}
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// The timed phase runs as consecutive segments of this length (at
/// least MinSegments of them). A shared host's CPUs switch between fast
/// and slow spells on about this time scale, each CPU on its own, so a
/// quarter second mostly sees one state.
constexpr double SegmentS = 0.25;
constexpr int MinSegments = 8;
/// Set-up repeats before evenly spread segments: as many as fit in
/// SetupBudgetS (judged by the first set-up), from MinSetupReps to
/// MaxSetupReps. The cap keeps what the allocator holds on to from
/// earlier repetitions from growing peak_rss_mb.
constexpr int MinSetupReps = 5;
constexpr int MaxSetupReps = 16;
constexpr double SetupBudgetS = 0.5;
constexpr size_t MaxSpansWritten = 100000;

struct Named {
  const char *Name;
  std::unique_ptr<Workload> (*Make)(const RunConfig &);
  /// levp-hot runs --threads threads as client/worker pairs (see
  /// LevpHot.cpp); every other workload runs on one thread.
  bool Pairs;
};
constexpr Named All[] = {{"levp-hot", makeLevpHot, true},
                         {"compile-cold", makeCompileCold, false},
                         {"store-warm", makeStoreWarm, false},
                         {"vm-heavy", makeVmHeavy, false}};

std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Sets the CPU affinity of every thread of this process (the threads a
/// workload's library calls started too).
bool pinProcess(const cpu_set_t &Set) {
  bool Ok = true;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/task",
                                                           Ec))
    Ok &= sched_setaffinity(std::stoi(E.path().filename().string()),
                            sizeof(Set), &Set) == 0;
  return Ok && !Ec;
}

/// On a shared host each CPU switches between fast and slow spells on
/// its own (a busy neighbour on its sibling hyperthread), from a fraction
/// of a second to tens of seconds, and a process tends to stay on the
/// CPUs it started on. So segment (and the set-up before it) k runs with
/// the whole process pinned to the k-th group of Width allowed CPUs, in
/// rotation: every run samples every CPU many times, and a run is not
/// decided by the spells of the CPUs the scheduler happened to pick.
class CpuRotation {
public:
  explicit CpuRotation(size_t Width) : Cpus(allowedCpus()), Width(Width) {}
  /// Pins the process for step \p K; returns the group's first CPU, or
  /// -1.
  int pin(int K) const {
    if (Cpus.empty())
      return -1;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (size_t J = 0; J != Width; ++J)
      CPU_SET(Cpus[(size_t(K) * Width + J) % Cpus.size()], &Set);
    return pinProcess(Set) ? Cpus[size_t(K) * Width % Cpus.size()] : -1;
  }
  /// Restores the full set.
  ~CpuRotation() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (int C : Cpus)
      CPU_SET(C, &Set);
    pinProcess(Set);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

private:
  std::vector<int> Cpus;
  size_t Width;
};

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

/// A fixed native ALU loop (~10 ms), timed five times; the median goes
/// into the run's report so a reader can tell a slow host from a slow
/// program when comparing runs. It never enters a metric.
double calibrationMs() {
  std::vector<double> Ms;
  for (int R = 0; R != 5; ++R) {
    Clock::time_point T0 = Clock::now();
    volatile uint64_t Sink = 0;
    uint64_t Acc = 0;
    for (uint64_t I = 0; I != 8000000; ++I)
      Acc += I ^ (Acc >> 3);
    Sink = Acc;
    (void)Sink;
    Ms.push_back(secondsSince(T0) * 1000.0);
  }
  return median(Ms);
}

std::string num(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  if (Ec != std::errc())
    return "0";
  return std::string(Buf, End);
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}

std::string metricsJson(const Metrics &M) {
  std::string O = "{";
  for (const auto &[Name, Mt] : M) {
    if (O.size() > 1)
      O += ", ";
    O += "\"" + Name + "\": {\"value\": " + num(Mt.Value) + ", \"unit\": \"" +
         Mt.Unit + "\"}";
  }
  return O + "}";
}

std::string ledgerJson(const std::map<std::string, Ledger> &L) {
  std::string O = "{";
  for (const auto &[W, Counters] : L) {
    O += (O.size() > 1 ? ", \"" : "\"") + W + "\": {";
    bool First = true;
    for (const auto &[K, V] : Counters) {
      O += (First ? "\"" : ", \"") + K + "\": " + std::to_string(V);
      First = false;
    }
    O += "}";
  }
  return O + "}";
}

struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  Metrics M;
  std::map<std::string, Ledger> Ledgers;
  std::string SegmentsJson = "[]"; ///< Per-segment values, for the report.
  std::string Why;

  void fail(const std::string &W) {
    Correct = false;
    if (Why.empty())
      Why = W;
  }
  void count(const OpStats &S) {
    Attempted += S.Attempted;
    Failed += S.Failed;
    if (S.Failed)
      fail(S.FirstFailure);
  }
};

/// A client and the worker it hands its batch to take turns, so a pair
/// needs one CPU.
size_t cpusPerSegment(const Named &W, const RunConfig &Cfg) {
  return W.Pairs ? (Cfg.Threads + 1) / 2 : 1;
}

void untraced(const Named &W, const RunConfig &Cfg, Outcome &Out) {
  CpuRotation Rot(cpusPerSegment(W, Cfg));
  const int N = std::max(MinSegments, int(Cfg.Seconds / SegmentS + 0.5));
  std::vector<double> SetupS;
  std::unique_ptr<Workload> Wl;
  int Reps = 1;
  std::vector<OpStats> Segments;
  std::string SegmentsJson;
  for (int I = 0; I != N; ++I) {
    int Cpu = Rot.pin(I);
    // A fresh set-up before evenly spread segments, so the repetitions
    // sample the host's spells like the timed ops do.
    if (I == 0 || long(I) * Reps / N != long(I - 1) * Reps / N) {
      Wl.reset();
      Clock::time_point T0 = Clock::now();
      Wl = W.Make(Cfg);
      std::string Why;
      bool Ok = Wl->setup(Why);
      SetupS.push_back(secondsSince(T0));
      if (!Ok)
        return Out.fail("set-up: " + Why);
      if (I == 0) {
        if (!Wl->oracleCheck(Why))
          return Out.fail("oracle: " + Why);
        Reps = std::clamp(int(SetupBudgetS / std::max(SetupS[0], 1e-6)),
                          MinSetupReps, MaxSetupReps);
        Reps = std::min(Reps, N);
      }
    }
    Segments.push_back(Wl->timed(Cfg.Seconds / N, nullptr));
    Out.count(Segments.back());
    Metrics One;
    endToEnd(One, {Segments.back()}, {0});
    SegmentsJson += std::string(I ? ", " : "") + "{\"cpu\": " +
                    std::to_string(Cpu) + ", \"metrics\": " +
                    metricsJson(One) + "}";
  }
  Out.SegmentsJson = "[" + SegmentsJson + "]";
  endToEnd(Out.M, Segments, SetupS);
}

void traced(const RunConfig &Cfg, Outcome &Out) {
  double Per = Cfg.Seconds / double(std::size(All));
  int K = 0;
  for (const Named &W : All) {
    // Pinned like a timed segment, so the layers are measured in the
    // configuration the end-to-end metrics are.
    CpuRotation Rot(cpusPerSegment(W, Cfg));
    Rot.pin(K++);
    std::unique_ptr<Workload> Wl = W.Make(Cfg);
    std::string Why;
    if (!Wl->setup(Why) || !Wl->oracleCheck(Why))
      return Out.fail(std::string(W.Name) + ": " + Why);
    OpStats Plain = Wl->timed(Per * 0.3, nullptr);
    TraceLog Log;
    OpStats Traced = Wl->timed(Per * 0.3, &Log);
    Out.count(Plain);
    Out.count(Traced);

    Metrics L;
    std::string Bad = Wl->layers(Per * 0.4, Log, Traced, L);
    if (!Bad.empty())
      Out.fail(std::string(W.Name) + " replay: " + Bad);
    std::vector<double> P = Plain.LatUs, T = Traced.LatUs;
    double P50 = percentile(P, 0.5);
    L["trace.overhead_ratio"] = {P50 > 0 ? percentile(T, 0.5) / P50 - 1 : 0,
                                 "fraction"};
    for (auto &[K, V] : L)
      Out.M[std::string(W.Name) + "." + K] = V;

    Ledger A = Wl->ledger(), B = Wl->ledger();
    if (A != B)
      Out.fail(std::string(W.Name) +
               ": deterministic counters differ between two runs");
    if (A.count("failed") && A["failed"])
      Out.fail(std::string(W.Name) + ": ledger run gave a wrong answer");
    Out.Ledgers[W.Name] = A;

    std::string Path = Cfg.WorkDir + "/out/spans-" + W.Name + "-seed" +
                       std::to_string(Cfg.Seed) + ".csv";
    if (!Log.write(Path, MaxSpansWritten))
      Out.fail("cannot write " + Path);
  }
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <levp-hot|"
               "compile-cold|store-warm|vm-heavy> --seed N --seconds S "
               "--trace 0|1 [--threads N] [--workdir DIR]\n",
               Msg);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName;
  RunConfig Cfg;
  Cfg.WorkDir = ".bench_build/perfbench-work";
  int Trace = -1;
  unsigned Threads = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    try {
      if (A == "--workload")
        WorkloadName = V;
      else if (A == "--seed")
        Cfg.Seed = std::stoull(V);
      else if (A == "--seconds")
        Cfg.Seconds = std::stod(V);
      else if (A == "--trace")
        Trace = std::stoi(V);
      else if (A == "--threads")
        Threads = unsigned(std::stoul(V));
      else if (A == "--workdir")
        Cfg.WorkDir = V;
      else
        usage(("unknown argument " + A).c_str());
    } catch (const std::exception &) {
      usage(("bad value for " + A).c_str());
    }
  }
  const Named *W = nullptr;
  for (const Named &N : All)
    if (WorkloadName == N.Name)
      W = &N;
  if (!W)
    usage("unknown or missing --workload");
  if (Trace != 0 && Trace != 1)
    usage("--trace must be 0 or 1");
  if (!(Cfg.Seconds > 0))
    usage("--seconds must be positive");

  // Honest host accounting: never run more client/worker threads than
  // the CPUs this process may use.
  unsigned Nproc = unsigned(allowedCpus().size());
  if (Nproc == 0)
    Nproc = std::max(1u, std::thread::hardware_concurrency());
  Cfg.Threads = Threads ? Threads : std::min(2u, Nproc);
  if (Cfg.Threads > Nproc) {
    std::fprintf(stderr,
                 "error: refusing to run %u threads on %u available CPUs\n",
                 Cfg.Threads, Nproc);
    return 2;
  }
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.WorkDir + "/out", Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", Cfg.WorkDir.c_str(),
                 Ec.message().c_str());
    return 2;
  }
  std::string Host = "{\"nproc\": " + std::to_string(Nproc) +
                     ", \"threads\": " + std::to_string(Cfg.Threads) +
                     ", \"cpu_model\": \"" + jsonEscape(cpuModel()) +
                     "\", \"cmake_build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"calibration_ms\": " + num(calibrationMs()) + "}";
  std::fprintf(stderr, "host: %s\n", Host.c_str());

  Outcome Out;
  if (Trace)
    traced(Cfg, Out);
  else
    untraced(*W, Cfg, Out);
  if (Out.Attempted == 0)
    Out.fail(Out.Why.empty() ? "no op was attempted" : Out.Why);
  if (!Out.Why.empty())
    std::fprintf(stderr, "FAILED: %s\n", Out.Why.c_str());

  std::string Result = "{\"correct\": " +
                       std::string(Out.Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Out.Attempted) +
                       ", \"failed\": " + std::to_string(Out.Failed) +
                       ", \"metrics\": " + metricsJson(Out.M) + "}";
  std::string Report = Cfg.WorkDir + "/out/" + W->Name + "-seed" +
                       std::to_string(Cfg.Seed) + "-trace" +
                       std::to_string(Trace) + ".json";
  if (std::ofstream F{Report})
    F << "{\"host\": " << Host << ", \"seconds\": " << num(Cfg.Seconds)
      << ", \"result\": " << Result << ", \"segments\": " << Out.SegmentsJson
      << ", \"ledger\": " << ledgerJson(Out.Ledgers) << "}\n";
  std::printf("%s\n", Result.c_str());
  return Out.Correct ? 0 : 1;
}
