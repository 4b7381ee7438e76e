//===- Common.cpp - Shared plumbing of the levity benchmark ---------------===//
//
// Part of the levity project: a C++ reproduction of "Levity Polymorphism"
// (Eisenberg & Peyton Jones, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

using namespace perfbench;

int64_t perfbench::nowNs() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

double perfbench::secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  return Lo + int64_t(next() % uint64_t(Hi - Lo + 1));
}

double perfbench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P * double(V.size() - 1);
  size_t Lo = size_t(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - double(Lo));
}

double perfbench::median(std::vector<double> V) { return percentile(V, 0.5); }

double perfbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

void OpStats::ok(double Us) {
  if (Completed++ < ReservoirCap) {
    LatUs.push_back(Us);
    return;
  }
  uint64_t J = Pick.next() % Completed;
  if (J < ReservoirCap)
    LatUs[J] = Us;
}

void OpStats::merge(const OpStats &O) {
  LatUs.insert(LatUs.end(), O.LatUs.begin(), O.LatUs.end());
  Completed += O.Completed;
  Attempted += O.Attempted;
  Failed += O.Failed;
  Busy += O.Busy;
  if (FirstFailure.empty())
    FirstFailure = O.FirstFailure;
}

void perfbench::endToEnd(Metrics &M, const std::vector<OpStats> &Segments,
                         std::vector<double> SetupS) {
  std::vector<std::pair<double, const OpStats *>> Ranked;
  uint64_t Completed = 0, Attempted = 0;
  for (const OpStats &S : Segments) {
    Ranked.push_back({median(S.LatUs), &S});
    Completed += S.Completed;
    Attempted += S.Attempted;
  }
  std::sort(Ranked.begin(), Ranked.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::vector<double> Quiet;
  double QuietS = 0;
  uint64_t QuietOps = 0;
  size_t NQuiet =
      std::max<size_t>(1, size_t(double(Ranked.size()) * QuietShare + 0.5));
  for (size_t I = 0; I != NQuiet && I != Ranked.size(); ++I) {
    const OpStats &S = *Ranked[I].second;
    Quiet.insert(Quiet.end(), S.LatUs.begin(), S.LatUs.end());
    QuietS += S.WallS;
    QuietOps += S.Completed;
  }
  M["setup_s"] = {percentile(SetupS, QuietShare), "s"};
  M["ops_per_s"] = {QuietS > 0 ? double(QuietOps) / QuietS : 0, "ops/s"};
  M["op_p50_us"] = {percentile(Quiet, 0.50), "us"};
  M["op_p99_us"] = {percentile(Quiet, 0.99), "us"};
  M["ok_ratio"] = {Attempted ? double(Completed) / double(Attempted) : 0,
                   "fraction"};
  M["peak_rss_mb"] = {peakRssMb(), "MB"};
}

uint32_t Tracer::open(const char *Name, uint64_t Op) {
  Span Sp;
  Sp.Name = Name;
  Sp.Parent = Stack.empty() ? Span::NoParent : Stack.back();
  Sp.Op = Op;
  uint32_t Idx = uint32_t(Spans.size());
  Stack.push_back(Idx);
  Sp.StartNs = nowNs();
  Spans.push_back(Sp);
  return Idx;
}

void Tracer::closed(const char *Name, uint64_t Op, int64_t StartNs) {
  Span Sp;
  Sp.Name = Name;
  Sp.Parent = Stack.empty() ? Span::NoParent : Stack.back();
  Sp.Op = Op;
  Sp.StartNs = StartNs;
  Sp.EndNs = nowNs();
  Spans.push_back(Sp);
}

static std::vector<double> durationsUs(const TraceLog &Log, const char *Name) {
  std::vector<double> V;
  for (const std::vector<Span> &T : Log.PerThread)
    for (const Span &S : T)
      if (std::string_view(S.Name) == Name)
        V.push_back(S.us());
  return V;
}

static double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / double(V.size());
}

double TraceLog::medianUs(const char *Name) const {
  return median(durationsUs(*this, Name));
}

double TraceLog::meanUs(const char *Name) const {
  return mean(durationsUs(*this, Name));
}

void perfbench::layerSumRatio(Metrics &M, const TraceLog &Log,
                              std::initializer_list<const char *> Spans,
                              const OpStats &Traced) {
  double Sum = 0;
  for (const char *S : Spans)
    Sum += Log.meanUs(S);
  double Op = mean(Traced.LatUs);
  M["trace.layer_sum_ratio"] = {Op > 0 ? Sum / Op : 0, "fraction"};
}

bool TraceLog::write(const std::string &Path, size_t MaxSpans) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "thread,name,op,parent,start_ns,end_ns\n");
  size_t N = 0;
  for (size_t Th = 0; Th != PerThread.size(); ++Th)
    for (const Span &S : PerThread[Th]) {
      if (N++ == MaxSpans)
        break;
      std::fprintf(F, "%zu,%s,%llu,%lld,%lld,%lld\n", Th, S.Name,
                   (unsigned long long)S.Op,
                   S.Parent == Span::NoParent ? -1LL : (long long)S.Parent,
                   (long long)S.StartNs, (long long)S.EndNs);
    }
  return std::fclose(F) == 0;
}

void perfbench::runThreads(unsigned N,
                           const std::function<void(unsigned)> &Fn) {
  std::vector<std::thread> Ts;
  Ts.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Ts.emplace_back(Fn, I);
  for (std::thread &T : Ts)
    T.join();
}
