//===- perfbench/src/Main.cpp - The repository benchmark ------------------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload corpus|giant|idioms|service --seed N --seconds S
//             --trace 0|1
//
// Generates the workload's inputs from the seed, measures its own traffic
// for S seconds with a few fixed units of the other request kinds, and
// prints one JSON line last: the end-to-end metrics with --trace 0, the
// per-layer metrics (and a Chrome trace-event file under .bench_run/)
// with --trace 1. Scratch files go to .bench_run/ in the working
// directory. perfbench/README.md defines every metric.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <numeric>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

double mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// Input generation plus writing the batch and serve directories: the
/// work set_up measures.
void setUp(const std::string &Name, uint64_t Seed, const std::string &Dir,
           Workload &W) {
  makeWorkload(Name, Seed, W);
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(Dir + "/batch/apps");
  fs::create_directories(Dir + "/serve/apps");
  for (App &A : W.Apps) {
    makeEditTexts(A, Seed);
    writeFile(Dir + "/batch/apps/" + A.Name + ".air", A.Text);
    writeFile(servePath(Dir + "/serve", A), A.Edits[3].Text);
  }
}

int usage(const char *Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload corpus|giant|idioms|service "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const std::string RunDir = ".bench_run";
  std::string Name;
  uint64_t Seed = 0;
  double Seconds = -1;
  int TraceOn = -1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload")
      Name = Val;
    else if (Arg == "--seed")
      Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Arg == "--seconds")
      Seconds = std::strtod(Val.c_str(), &End);
    else if (Arg == "--trace")
      TraceOn = Val == "1" ? 1 : Val == "0" ? 0 : -1;
    else
      return usage(("unknown argument " + Arg).c_str());
    if (End && *End)
      return usage(("not a number: " + Val).c_str());
  }
  if (Name != "corpus" && Name != "giant" && Name != "idioms" &&
      Name != "service")
    return usage("unknown or missing --workload");
  if (Seconds <= 0 || TraceOn < 0)
    return usage("--seconds must be positive and --trace 0 or 1");

  const std::string Dir = RunDir + "/" + Name;
  Workload W;
  Results R;
  for (int Rep = 0; Rep < 7; ++Rep) {
    calibrate(R);
    auto T0 = Clock::now();
    setUp(Name, Seed, Dir, W);
    R.Setup.push_back(R.sample(T0, Clock::now()));
  }
  calibrate(R);

  // A single-lane workload stays on the CPU it started on, so the
  // calibration kernel and the work it calibrates share one core (host
  // contention differs between the VM's CPUs).
  if (W.BatchJobs == 1 && W.ServeJobs == 1) {
    cpu_set_t Only;
    CPU_ZERO(&Only);
    CPU_SET(sched_getcpu(), &Only);
    sched_setaffinity(0, sizeof(Only), &Only);
  }

  auto P0 = Clock::now();
  prepare(W, Dir + "/serve", R);
  checkAcrossRuns(W, RunDir, R);
  std::cerr << "perfbench: " << Name << " seed " << Seed << ": answer keys in "
            << msBetween(P0, Clock::now()) / 1000.0 << " s\n";

  Trace T(TraceOn == 1);
  runTraffic(W, Dir, Seconds, T, R);

  std::vector<Metric> Ms;
  // End-to-end timings in reference milliseconds (HostSpeed.cpp).
  auto Ref = [&R](const std::vector<Sample> &V) {
    std::vector<double> Out;
    for (const Sample &S : V)
      Out.push_back(referenceMs(R, S));
    return Out;
  };
  auto KStmtsPerS = [&R](const std::vector<Sample> &V) {
    double Stmts = 0, Ms = 0;
    for (const Sample &S : V)
      Stmts += S.Stmts, Ms += referenceMs(R, S);
    return ratio(Stmts, Ms);
  };
  auto Sum = [](const std::vector<double> &V) {
    return std::accumulate(V.begin(), V.end(), 0.0);
  };
  if (TraceOn == 0) {
    const std::vector<Sample> &Ops = W.OpsAreServeRounds ? R.Rounds : R.Ops;
    Ms = {
        {"setup_s", "s", quantile(Ref(R.Setup), 0.5) / 1000},
        {"op_ms_p50", "ms", quantile(Ref(Ops), 0.5)},
        {"op_ms_p90", "ms", quantile(Ref(Ops), 0.9)},
        {"kstmts_per_s", "kstmt/s", KStmtsPerS(Ops)},
        {"k9mail_ms", "ms", quantile(Ref(R.K9Mail), 0.5)},
        {"batch_cold_s", "s", quantile(Ref(R.BatchCold), 0.5) / 1000},
        {"batch_warm_s", "s", quantile(Ref(R.BatchWarm), 0.5) / 1000},
        {"edit_ms_p50", "ms", quantile(Ref(R.Regraft), 0.5)},
        {"edit_ms_p90", "ms", quantile(Ref(R.Regraft), 0.9)},
        {"peak_rss_mb", "MB", R.PeakRssMb},
        {"ok_frac", "ratio",
         ratio(double(R.Attempted - R.Failed), double(R.Attempted))},
    };
    auto Raw = [](const std::vector<Sample> &V, double Q) {
      std::vector<double> Ms;
      for (const Sample &S : V)
        Ms.push_back(S.Ms);
      return quantile(Ms, Q);
    };
    std::cerr << "perfbench: raw wall times: op p50 " << Raw(Ops, 0.5)
              << " ms, p90 " << Raw(Ops, 0.9) << " ms, k9mail "
              << Raw(R.K9Mail, 0.5) << " ms, edit p50 " << Raw(R.Regraft, 0.5)
              << " ms; calibration kernel " << calibrationMedianMs(R)
              << " ms\n";
  } else {
    const char *Layers[] = {
        "frontend.parse",      "frontend.canonical",   "android.apiindex",
        "threadify.forest",    "analysis.pointsto",    "analysis.threadreach",
        "analysis.hbquery",    "race.detection",       "analysis.nullness",
        "analysis.lockset",    "analysis.cancelreach", "analysis.escape",
        "analysis.refuter_build", "filters.verdicts",  "report.assemble",
        "report.lint",         "report.render",
    };
    for (const char *L : Layers)
      Ms.push_back({std::string(L) + "_ms", "ms",
                    ratio(R.LayerMs[L], R.LayerOps)});
    Ms.push_back({"analysis.hbquery_rss_mb", "MB", R.HbQueryRssMbMax});
    Ms.push_back({"batch.lane_util", "ratio", quantile(R.LaneUtil, 0.5)});
    Ms.push_back({"cache.hit_rate", "ratio", quantile(R.HitRate, 0.5)});
    Ms.push_back({"serve.hit_ms", "ms", quantile(Ref(R.Hit), 0.5)});
    Ms.push_back({"serve.rebase_ms", "ms", quantile(Ref(R.Rebase), 0.5)});
    Ms.push_back({"serve.regraft_ms", "ms", quantile(Ref(R.Regraft), 0.5)});
    Ms.push_back({"serve.regraft_over_cold", "ratio",
                  ratio(Sum(Ref(R.Regraft)), Sum(Ref(R.RegraftCold)))});
    Ms.push_back({"serve.rebuilt_passes", "count", mean(R.RebuiltPasses)});
    const char *CountNames[] = {
        "pointsto.contexts",  "pointsto.objects", "race.pairs",
        "filters.after_sound", "filters.after_unsound", "refute.proved",
        "refute.proved_v2",   "refute.assumed",   "lint.findings",
        "pipeline.builds",
    };
    for (const char *C : CountNames) {
      double Total = 0;
      for (const App &A : W.Apps)
        if (auto It = A.Expected.find(C); It != A.Expected.end())
          Total += It->second;
      Ms.push_back({C, "count", Total});
    }
    Ms.push_back({"host.calibration_ms", "ms", calibrationMedianMs(R)});
    Ms.push_back({"trace.coverage", "ratio",
                  ratio(R.LayerCoveredMsSum, R.TracedOpMsSum)});
    Ms.push_back({"trace.overhead", "ratio",
                  ratio(ratio(R.TracedOpMsSum, R.LayerOps),
                        ratio(R.UntracedOpMsSum, R.UntracedOps))});
    std::string TracePath =
        RunDir + "/trace-" + Name + "-" + std::to_string(Seed) + ".json";
    if (!T.write(TracePath)) {
      ++R.Attempted;
      R.fail("cannot write " + TracePath);
    }
    std::cerr << "perfbench: trace written to " << TracePath << "\n";
  }

  for (const std::string &F : R.Failures)
    std::cerr << "perfbench: FAILED: " << F << "\n";
  std::cerr << "perfbench: " << R.Attempted << " attempted, " << R.Failed
            << " failed, " << R.Ops.size() << " one-shot ops, "
            << R.BatchCold.size() << " cold batch runs, " << R.Rounds.size()
            << " serve rounds\n";
  for (const Metric &M : Ms)
    std::cerr << "  " << M.Name << " = " << M.Value << " " << M.Unit << "\n";

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted) +
          ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
  char Num[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Num, sizeof(Num), "%.17g", Ms[I].Value);
    Json += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Num +
            ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Json += "}}";
  std::cout << Json << std::endl;
  return 0;
}
