//===- perfbench/src/Bench.h - Shared benchmark types -----------*- C++ -*-===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark's files: the workload inputs with their
/// answer keys (Inputs.cpp), the three request kinds — one-shot ops,
/// batch runs and serve requests (Phases.cpp) — the host-speed
/// calibration (HostSpeed.cpp), the span recorder behind `--trace 1` and
/// small helpers all of them use.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "corpus/Patterns.h"
#include "pipeline/AnalysisManager.h"
#include "support/Rng.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolated quantile (0.5 is the median); 0 for an empty
/// sample.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

/// Fisher-Yates shuffle driven by the benchmark's seeded generator.
template <typename T> void shuffle(std::vector<T> &V, nadroid::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

inline void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Exact work counts of one op, by per-layer metric name. Every value
/// must repeat across ops of the same bytes and across runs.
using Counts = std::map<std::string, uint64_t>;

/// One timing, with when it was taken (seconds since the run started)
/// so it can be set against the host-speed samples around it.
struct Sample {
  double Ms = 0;
  double Start = 0, End = 0;
  double Stmts = 0; ///< AIR statements the timed work analysed
  unsigned Lanes = 1; ///< threads the timed work ran on
};

/// One serve edit variant: the bytes written before a request, and what
/// a one-shot render of those bytes printed.
struct EditVariant {
  std::string Text;
  std::string ExpectOut;
  int ExpectExit = 0;
  Sample Cold; ///< the one-shot op's latency on these bytes
};

/// One application of a workload, with everything needed to check it.
struct App {
  std::string Name; ///< program name and file stem
  std::string Text; ///< printed AIR
  /// File name diagnostics and report locations use; empty = Name.air.
  std::string Buffer;
  unsigned Stmts = 0;
  nadroid::pipeline::PipelineOptions Opts;
  /// Probe apps (K9Mail in the workloads that do not contain it) feed
  /// only k9mail_ms, never the op metrics.
  bool Probe = false;
  bool IsK9Mail = false;

  // Answer key, fixed by the generator.
  bool HasTriple = false;
  unsigned Potential = 0, AfterSound = 0, AfterUnsound = 0;
  /// (field, use method) of every seeded harmful UAF: must remain.
  std::vector<std::pair<std::string, std::string>> MustRemain;
  /// Refuter patterns: each *Proved seed must be labelled proved or
  /// proved-v2, each *Racy seed assumed.
  std::vector<nadroid::corpus::SeededBug> RefuterSeeds;
  /// Typestate twins: component class -> protocol it must violate once
  /// ("" = clean twin, no finding).
  std::map<std::string, std::string> Protocols;

  // Learned from the first op during preparation.
  std::string Digest;             ///< SHA-256 of the op's output
  Counts Expected;                ///< the op's exact work counts
  std::vector<std::string> Built; ///< passes the untraced op builds

  /// Serve edits, in the order the serve traffic sends them: the text
  /// with a seeded one-method body edit, the same plus a formatting-only
  /// edit, the formatting edit alone, and the original text. Going from
  /// each to the next is one body edit or one formatting edit.
  std::array<EditVariant, 4> Edits;
};

struct Workload {
  std::string Name;
  uint64_t Seed = 0;
  /// The input set: one-shot rotation, batch directory and serve set.
  std::vector<App> Apps;
  /// K9Mail where the input set lacks it (feeds k9mail_ms only).
  std::vector<App> Probes;
  unsigned BatchJobs = 1;
  unsigned ServeJobs = 1;
  /// Serve requests carry these analysis flags (the workload's options).
  std::string ServeFlags;
  /// Service's own traffic is batch runs and serve requests, which fill
  /// --seconds, and its op metrics are serve rounds (an app's body edit,
  /// formatting edit and repeat). The other workloads' own traffic is
  /// one-shot ops.
  bool OpsAreServeRounds = false;
  /// Units of the request kinds that are not the workload's own, so
  /// that every workload prints every metric: one-shot passes, batch
  /// groups (one cold and three warm runs) and serve passes.
  unsigned SideOneShot = 0, SideBatch = 0, SideServe = 0;
};

/// Generates the workload's inputs and answer keys (Inputs.cpp).
/// Deterministic in (Name, Seed); false on an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, Workload &Out);

/// True when \p K is a refuter pattern with a checked verdict; \p Proved
/// then says whether its pair must be labelled proved (or proved-v2).
bool refuterSeedProved(nadroid::corpus::SeedKind K, bool &Proved);

/// Picks the serve edit variants for \p A (seeded line choices).
void makeEditTexts(App &A, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Measurements
//===----------------------------------------------------------------------===//

/// Everything a run measured, accumulated by the phases.
struct Results {
  Clock::time_point Epoch = Clock::now();
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< first few reasons, for stderr

  /// Host-speed samples: (seconds since Epoch, calibration kernel ms),
  /// on one thread and on as many threads as the parallel batch lanes.
  std::vector<std::pair<double, double>> Calibration, LaneCalibration;

  std::vector<Sample> Setup;
  /// The process's maximum resident set before side serve traffic.
  double PeakRssMb = 0;
  // One-shot ops on the input set (untraced ones only in a traced run).
  std::vector<Sample> Ops, K9Mail;
  // Batch runs.
  std::vector<Sample> BatchCold, BatchWarm;
  std::vector<double> LaneUtil, HitRate;
  // Serve requests after the warm-up: whole rounds, and each request by
  // session-table outcome; each regraft is paired with the one-shot
  // latency of the same bytes.
  std::vector<Sample> Rounds, Hit, Rebase, Regraft, RegraftCold;
  std::vector<double> RebuiltPasses;

  // Traced run: per-layer span time summed over traced ops.
  std::map<std::string, double> LayerMs;
  unsigned LayerOps = 0;
  double TracedOpMsSum = 0, LayerCoveredMsSum = 0;
  /// Untraced ops of the same passes, for the tracing overhead.
  double UntracedOpMsSum = 0;
  unsigned UntracedOps = 0;
  double HbQueryRssMbMax = 0;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }
  /// A sample of the interval [\p A, \p B].
  Sample sample(Clock::time_point A, Clock::time_point B,
                double Stmts = 0) const {
    double Start = std::chrono::duration<double>(A - Epoch).count();
    return {msBetween(A, B), Start, Start + msBetween(A, B) / 1000, Stmts};
  }

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
};

/// Times the calibration kernel and records it (HostSpeed.cpp); with
/// \p Lanes > 1, as many copies at once on that many threads, for
/// timings of work that ran on that many threads.
void calibrate(Results &R, unsigned Lanes = 1);
/// Calibrates on \p Lanes threads when the last such sample is older
/// than the sampling interval.
void calibrateIfDue(Results &R, unsigned Lanes = 1);
/// \p S in reference milliseconds: its wall time scaled by the kernel's
/// reference time over the kernel's median time from a second before
/// \p S to a second after it.
double referenceMs(const Results &R, const Sample &S);
/// The kernel's median time over the run (raw host speed).
double calibrationMedianMs(const Results &R);

class Trace;

/// Runs one op on every app (input set and probes) and records its
/// output digest, exact counts and built passes as the app's key for
/// the rest of the run; checks the generator's answer key on the way.
/// Also renders each serve edit variant one-shot for the serve phase.
void prepare(Workload &W, const std::string &ServeDir, Results &R);

/// Where the serve phase keeps \p A's file under \p ServeDir.
std::string servePath(const std::string &ServeDir, const App &A);

/// Compares the apps' keys with the ones an earlier run of the same
/// workload and seed left under \p RunDir (or records them there). The
/// key file is named after the benchmark binary's SHA-256 too, so runs of
/// different code never compare.
void checkAcrossRuns(const Workload &W, const std::string &RunDir,
                     Results &R);

/// The measured traffic. The workload's own request kind fills
/// \p Seconds: back-to-back one-shot passes, or for service batch groups
/// and serve passes taking turns. The side units run at evenly spaced
/// times inside it: batch groups (service: K9Mail ops) over the whole
/// window, serve passes over its second half, after peak_rss_mb is read.
void runTraffic(const Workload &W, const std::string &Dir, double Seconds,
                Trace &T, Results &R);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
class Trace {
public:
  struct Span {
    std::string Name;
    std::string Cat;
    double StartUs = 0, DurUs = 0;
    int Parent = -1; ///< index of the enclosing span, -1 for roots
    int Tid = 1;
    std::string Args; ///< pre-rendered JSON object body, may be empty
  };

  explicit Trace(bool On) : On(On), Epoch(Clock::now()) {}
  bool enabled() const { return On; }

  /// Opens a span; returns its index (or -1 when tracing is off).
  int begin(const std::string &Name, const std::string &Cat, int Parent,
            int Tid = 1);
  void end(int Id, const std::string &Args = "");
  /// Records an already-measured interval.
  int add(const std::string &Name, const std::string &Cat, Clock::time_point A,
          Clock::time_point B, int Parent, int Tid = 1,
          const std::string &Args = "");

  const std::vector<Span> &spans() const { return Spans; }
  double durMs(int Id) const { return Id < 0 ? 0 : Spans[Id].DurUs / 1000.0; }

  /// Writes {"traceEvents": [...]} to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  double usSinceEpoch(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - Epoch).count();
  }
  bool On;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
