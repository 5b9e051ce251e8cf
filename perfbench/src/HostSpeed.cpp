//===- perfbench/src/HostSpeed.cpp - Host-speed calibration ---------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 25-60% over tens of seconds as neighbours load the host: the same
// K9Mail op measured 62 ms and 104 ms within one run. A run of any
// affordable length can sit wholly in a slow spell, so medians of raw
// wall times do not repeat across runs.
//
// So the run also times a fixed kernel every 250 ms, one that stresses
// what the analyzer stresses (small-node allocation and copying of many
// ordered maps, like the nullness states), and reports each end-to-end
// timing in reference milliseconds: wall time x (the kernel's reference
// time / the kernel's median time within a second of the sample). On
// this kernel the normalized K9Mail op varied 4.4% against 11.7% raw.
// A parallel cold batch is calibrated against kernel runs shared by as
// many threads: when the host slows or takes some of the VM's CPUs, one
// thread does not notice, but the batch's lanes do (a jobs-4 cold batch
// ran 3x slower in two of ten runs). So are requests to a jobs-4 serve
// daemon, which run on whichever of its threads is free and fan their
// verdicts out over the rest; against the calling thread's kernel their
// median's spread was 0.128 over ten seeds, against the shared one 0.065
// over six. The kernel is the benchmark's own code;
// nothing a change to the analyzer does can move it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <map>
#include <thread>

using namespace perfbench;

namespace {

/// The kernel's time on an unloaded host of the machine class the
/// benchmark was defined on (a 4-vCPU 2.1 GHz Xeon VM).
constexpr double ReferenceMs = 5.0;
constexpr double IntervalSec = 0.25;
/// Samples within this distance of a timing calibrate it.
constexpr double WindowSec = 1.0;

volatile uint64_t Sink;

double kernelMs() {
  auto T0 = Clock::now();
  std::vector<std::map<int, int>> States(100);
  uint64_t X = 9;
  auto Next = [&X] {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((X >> 40) & 1023);
  };
  for (std::map<int, int> &M : States)
    for (int I = 0; I < 16; ++I)
      M[Next()] = I;
  uint64_t Sum = 0;
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<std::map<int, int>> Copy = States;
    for (size_t I = 0; I + 1 < Copy.size(); ++I) {
      for (const auto &[K, V] : Copy[I + 1])
        Copy[I][K] ^= V;
      Sum += Copy[I].size();
    }
    States.swap(Copy);
  }
  Sink = Sum;
  return msBetween(T0, Clock::now());
}

/// Kernel runs per lane in a parallel calibration.
constexpr unsigned ChunksPerLane = 2;

/// The wall time of \p Lanes threads sharing ChunksPerLane x \p Lanes
/// kernel runs through a common counter, as the batch's lanes share its
/// apps: a lane slowed or taken by the host leaves its share to the
/// others, so this slows exactly as much as a balanced parallel batch.
double parallelKernelMs(unsigned Lanes) {
  std::atomic<unsigned> Next{0};
  auto Lane = [&Next, Lanes] {
    while (Next.fetch_add(1) < ChunksPerLane * Lanes)
      kernelMs();
  };
  auto T0 = Clock::now();
  std::vector<std::thread> Helpers;
  for (unsigned I = 1; I < Lanes; ++I)
    Helpers.emplace_back(Lane);
  Lane();
  for (std::thread &H : Helpers)
    H.join();
  return msBetween(T0, Clock::now());
}

} // namespace

void perfbench::calibrate(Results &R, unsigned Lanes) {
  // The median of three back-to-back runs: one run is short enough for
  // a single scheduler hiccup to double it.
  double At = R.now();
  std::vector<double> Ms;
  for (int I = 0; I < 3; ++I)
    Ms.push_back(Lanes > 1 ? parallelKernelMs(Lanes) : kernelMs());
  (Lanes > 1 ? R.LaneCalibration : R.Calibration)
      .emplace_back(At + (R.now() - At) / 2, quantile(Ms, 0.5));
}

void perfbench::calibrateIfDue(Results &R, unsigned Lanes) {
  const auto &Samples = Lanes > 1 ? R.LaneCalibration : R.Calibration;
  if (Samples.empty() || R.now() - Samples.back().first >= IntervalSec)
    calibrate(R, Lanes);
}

double perfbench::referenceMs(const Results &R, const Sample &S) {
  std::vector<double> Near;
  for (const auto &[At, Ms] : S.Lanes > 1 ? R.LaneCalibration : R.Calibration)
    if (At >= S.Start - WindowSec && At <= S.End + WindowSec)
      Near.push_back(Ms);
  if (Near.empty())
    return S.Ms;
  // A parallel calibration does ChunksPerLane kernel runs per lane.
  double Reference = S.Lanes > 1 ? ReferenceMs * ChunksPerLane : ReferenceMs;
  return S.Ms * Reference / quantile(Near, 0.5);
}

double perfbench::calibrationMedianMs(const Results &R) {
  std::vector<double> Ms;
  for (const auto &[At, M] : R.Calibration)
    Ms.push_back(M);
  return quantile(Ms, 0.5);
}
