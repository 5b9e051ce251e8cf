//===- perfbench/src/Phases.cpp - One-shot, batch and serve traffic -------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// The three ways the analyzer is used, each driven through its public
// entry point and each output checked against a key:
//
//  * one-shot op: AIR text -> frontend::parseProgramText ->
//    report::analyzeProgram -> report::renderStandardReport (plus the
//    lint report under --lint). Traced ops instead ask the
//    AnalysisManager for each pass in dependency order, so every layer
//    gets its own span and lazily built passes are not hidden inside
//    the filter sweep;
//  * batch: report::runBatch over the input directory, cold through an
//    empty result cache and then warm through the filled one;
//  * serve: an in-process serve::Server on a unix socket and one
//    closed-loop client sending, per app, a one-method body edit, a
//    formatting-only edit and an unchanged repeat.
//
// runTraffic runs the workload's own kind for the measured seconds, with
// a fixed number of side units of the other kinds spaced through it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/Frontend.h"
#include "report/Batch.h"
#include "report/Json.h"
#include "report/Lint.h"
#include "report/Nadroid.h"
#include "serve/Server.h"
#include "serve/SocketIo.h"
#include "support/Rng.h"
#include "support/Sha256.h"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

using namespace nadroid;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// One-shot ops
//===----------------------------------------------------------------------===//

struct OpOutput {
  bool Parsed = false;
  std::string Out;
  int Exit = 0;
  double Ms = 0;
  Clock::time_point Start, End;
  Counts C;
  std::vector<std::string> Built;
  double HbQueryRssMb = 0; ///< RSS growth while hbquery was built
  std::string Problem;     ///< answer-key violation, empty when correct
};

/// The passes in dependency order, grouped into the layers the traced
/// run names. A traced op requests exactly the passes the untraced op
/// of the same app builds, so both do the same work.
struct LayerPass {
  const char *Pass;
  const char *Layer;
  void (*Request)(pipeline::AnalysisManager &);
};
const LayerPass LayerOrder[] = {
    {"apiindex", "android.apiindex", [](auto &AM) { AM.apis(); }},
    {"threadforest", "threadify.forest", [](auto &AM) { AM.forest(); }},
    {"pointsto", "analysis.pointsto", [](auto &AM) { AM.pointsTo(); }},
    {"threadreach", "analysis.threadreach", [](auto &AM) { AM.reach(); }},
    {"hbquery", "analysis.hbquery", [](auto &AM) { AM.hbQuery(); }},
    {"detection", "race.detection", [](auto &AM) { AM.detection(); }},
    {"nullness", "analysis.nullness", [](auto &AM) { AM.nullness(); }},
    {"lockset", "analysis.lockset", [](auto &AM) { AM.lockset(); }},
    {"cancelreach", "analysis.cancelreach",
     [](auto &AM) { AM.cancelReach(); }},
    {"escape", "analysis.escape", [](auto &AM) { AM.escape(); }},
    {"hbrefuter", "analysis.refuter_build", [](auto &AM) { AM.hbRefuter(); }},
    {"historyrefuter", "analysis.refuter_build",
     [](auto &AM) { AM.historyRefuter(); }},
    {"verdicts", "filters.verdicts", [](auto &AM) { AM.verdicts(); }},
};

Counts countsOf(const report::NadroidResult &NR, const report::LintResult *L) {
  Counts C;
  C["pointsto.contexts"] = NR.PTA->stats().get("pointsto.contexts");
  C["pointsto.objects"] = NR.PTA->stats().get("pointsto.objects");
  C["race.pairs"] = NR.Detection.Stats.get("race.pairs");
  C["filters.potential"] = NR.warnings().size();
  C["filters.after_sound"] = NR.Pipeline.RemainingAfterSound;
  C["filters.after_unsound"] = NR.Pipeline.RemainingAfterUnsound;
  C["refute.proved"] = C["refute.proved_v2"] = C["refute.assumed"] = 0;
  // Provenance of the refuter's domain only: pairs the unsound may-HB
  // filters pruned (sound-filter decisions are proofs by construction).
  for (const filters::WarningVerdict &V : NR.Pipeline.Verdicts)
    for (const filters::PairDecision &D : V.Decisions) {
      const auto &MayHb = filters::mayHbFilterKinds();
      if (filters::isSoundFilter(D.By) ||
          std::find(MayHb.begin(), MayHb.end(), D.By) == MayHb.end())
        continue;
      if (D.Prov == filters::Provenance::Proved)
        ++C["refute.proved"];
      else if (D.Prov == filters::Provenance::ProvedV2)
        ++C["refute.proved_v2"];
      else if (D.Prov == filters::Provenance::Assumed)
        ++C["refute.assumed"];
    }
  C["lint.findings"] = L ? L->Nullness.size() + L->Typestate.size() : 0;
  uint64_t Builds = 0;
  for (const pipeline::PassStat &S : NR.Manager->passStats())
    Builds += S.Builds;
  C["pipeline.builds"] = Builds;
  return C;
}

/// The may-HB decision of the warning seeded by \p S, or nullptr.
const filters::PairDecision *seedDecision(const report::NadroidResult &NR,
                                          const corpus::SeededBug &S) {
  for (size_t I = 0; I < NR.warnings().size(); ++I) {
    const race::UafWarning &W = NR.warnings()[I];
    if (W.F->qualifiedName() != S.FieldName ||
        W.Use->parentMethod()->qualifiedName() != S.UseMethod)
      continue;
    for (const filters::PairDecision &D : NR.Pipeline.Verdicts[I].Decisions)
      for (filters::FilterKind K : filters::mayHbFilterKinds())
        if (D.By == K)
          return &D;
  }
  return nullptr;
}

/// Checks the generator's answer key; returns the first violation.
std::string checkAnswerKey(const App &A, const report::NadroidResult &NR,
                           const report::LintResult *L,
                           const std::string &Out) {
  if (A.HasTriple &&
      (NR.warnings().size() != A.Potential ||
       NR.Pipeline.RemainingAfterSound != A.AfterSound ||
       NR.Pipeline.RemainingAfterUnsound != A.AfterUnsound))
    return A.Name + ": potential/sound/unsound " +
           std::to_string(NR.warnings().size()) + "/" +
           std::to_string(NR.Pipeline.RemainingAfterSound) + "/" +
           std::to_string(NR.Pipeline.RemainingAfterUnsound) +
           " differs from Table 1";
  for (const auto &[Field, Use] : A.MustRemain) {
    bool Found = false;
    for (size_t I : NR.remainingIndices())
      Found |= NR.warnings()[I].F->qualifiedName() == Field &&
               NR.warnings()[I].Use->parentMethod()->qualifiedName() == Use;
    if (!Found)
      return A.Name + ": seeded harmful UAF on " + Field + " was filtered";
  }
  for (const corpus::SeededBug &S : A.RefuterSeeds) {
    bool Proved = false;
    refuterSeedProved(S.Kind, Proved);
    const filters::PairDecision *D = seedDecision(NR, S);
    bool Ok = D && (Proved ? (D->Prov == filters::Provenance::Proved ||
                              D->Prov == filters::Provenance::ProvedV2)
                           : D->Prov == filters::Provenance::Assumed);
    if (!Ok)
      return A.Name + ": " + corpus::seedKindName(S.Kind) + " pair on " +
             S.FieldName + " labelled " +
             (D ? filters::provenanceName(D->Prov) : "nothing");
  }
  if (!A.Protocols.empty()) {
    std::map<std::string, std::vector<std::string>> Found;
    for (const analysis::TypestateFinding &F : L->Typestate)
      Found[F.Component->name()].push_back(F.Proto->Name);
    size_t Violating = 0;
    for (const auto &[Component, Proto] : A.Protocols) {
      std::vector<std::string> Want;
      if (!Proto.empty())
        Want.push_back(Proto), ++Violating;
      if (Found[Component] != Want)
        return A.Name + ": component " + Component + " has " +
               std::to_string(Found[Component].size()) +
               " protocol findings, expected " + std::to_string(Want.size());
    }
    size_t Tags = 0;
    for (size_t At = Out.find("[protocol "); At != std::string::npos;
         At = Out.find("[protocol ", At + 1))
      ++Tags;
    if (Tags != Violating || L->Typestate.size() != Violating)
      return A.Name + ": " + std::to_string(Tags) +
             " [protocol ...] findings rendered, expected " +
             std::to_string(Violating);
  }
  return "";
}

/// One op on \p A. With \p T enabled the op is traced: a span for the
/// op, one per layer call inside it, and (outside the op span) the
/// cache-key canonicalization and the probe builds of layers the
/// workload's options leave off, so every layer is measured on every
/// input set.
OpOutput runOp(const App &A, Trace &T, Results *Layers, bool CheckKey) {
  OpOutput O;
  const bool Traced = T.enabled();
  int OpSpan = Traced ? T.begin(A.Name, "op", -1) : -1;
  double CoveredMs = 0;
  // Times \p Fn as layer \p Name, inside the op span or (Inside false)
  // beside it.
  auto Layer = [&](const char *Name, bool Inside, auto &&Fn) {
    int S = Traced ? T.begin(Name, "layer", Inside ? OpSpan : -1) : -1;
    Fn();
    if (!Traced)
      return;
    T.end(S);
    if (Inside)
      CoveredMs += T.durMs(S);
    if (Layers)
      Layers->LayerMs[Name] += T.durMs(S);
  };

  auto T0 = Clock::now();
  frontend::ParseResult PR;
  Layer("frontend.parse", true, [&] {
    PR = frontend::parseProgramText(
        A.Text, A.Buffer.empty() ? A.Name + ".air" : A.Buffer, A.Name);
  });
  if (!PR.Success) {
    if (Traced)
      T.end(OpSpan);
    return O;
  }
  O.Parsed = true;
  const ir::Program &P = *PR.Prog;
  auto AM = std::make_shared<pipeline::AnalysisManager>(P, A.Opts);
  if (Traced)
    for (const LayerPass &LP : LayerOrder)
      if (std::find(A.Built.begin(), A.Built.end(), LP.Pass) != A.Built.end())
        Layer(LP.Layer, true, [&] { LP.Request(*AM); });
  report::NadroidResult NR;
  Layer("report.assemble", true, [&] { NR = report::analyzeProgram(AM); });
  report::LintResult L;
  if (A.Opts.Lint)
    Layer("report.lint", true, [&] { L = report::runLintChecks(*AM); });
  std::ostringstream OS;
  Layer("report.render", true, [&] {
    report::renderStandardReport(NR, P, false, false, OS);
    if (A.Opts.Lint)
      report::renderLintReport(P, L, false, false, OS);
  });
  O.Out = OS.str();
  O.Start = T0;
  O.End = Clock::now();
  O.Ms = msBetween(T0, O.End);
  if (Traced) {
    T.end(OpSpan);
    if (Layers) {
      Layers->TracedOpMsSum += T.durMs(OpSpan);
      Layers->LayerCoveredMsSum += CoveredMs;
    }
  }

  O.Exit = NR.Pipeline.RemainingAfterUnsound == 0 ? 0 : 1;
  if (A.Opts.Lint && !L.empty())
    O.Exit = 6;
  O.C = countsOf(NR, A.Opts.Lint ? &L : nullptr);
  for (const pipeline::PassStat &S : AM->passStats()) {
    if (S.Builds)
      O.Built.push_back(S.Name);
    if (S.Name == "hbquery")
      O.HbQueryRssMb = S.RssKb / 1024.0;
  }
  if (CheckKey)
    O.Problem = checkAnswerKey(A, NR, A.Opts.Lint ? &L : nullptr, O.Out);

  if (Traced && Layers) {
    Layers->HbQueryRssMbMax = std::max(Layers->HbQueryRssMbMax, O.HbQueryRssMb);
    // Beside the op span: the cache-key path, and probe builds of the
    // layers the op itself does not run (escape and the refuters without
    // --refute, the linters without --lint).
    Layer("frontend.canonical", false,
          [&] { frontend::canonicalProgramBytes(P); });
    if (std::find(O.Built.begin(), O.Built.end(), "escape") == O.Built.end())
      Layer("analysis.escape", false, [&] { AM->escape(); });
    if (!A.Opts.Refute)
      Layer("analysis.refuter_build", false, [&] {
        AM->hbRefuter();
        AM->historyRefuter();
      });
    if (!A.Opts.Lint) {
      pipeline::PipelineOptions LintOpts = A.Opts;
      LintOpts.Lint = true;
      AM->setOptions(LintOpts);
      Layer("report.lint", false, [&] { report::runLintChecks(*AM); });
    }
  }
  return O;
}

std::string digestOf(const OpOutput &O) {
  return support::sha256Hex(std::to_string(O.Exit) + "\n" + O.Out);
}

/// The one-shot render serve responses must equal: the standard report
/// of the file at \p Path under the serve request's options (serve's
/// analyze verb has no lint).
OpOutput oneShotForServe(const App &A, const std::string &Path,
                         const std::string &Text) {
  App Copy;
  Copy.Name = A.Name;
  Copy.Buffer = Path;
  Copy.Text = Text;
  Copy.Opts = A.Opts;
  Copy.Opts.Lint = false;
  Trace Off(false);
  return runOp(Copy, Off, nullptr, false);
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

} // namespace

//===----------------------------------------------------------------------===//
// Preparation and cross-run determinism
//===----------------------------------------------------------------------===//

std::string perfbench::servePath(const std::string &Dir, const App &A) {
  return Dir + "/apps/" + A.Name + ".air";
}

void perfbench::prepare(Workload &W, const std::string &ServeDir,
                        Results &R) {
  Trace Off(false);
  auto Learn = [&](App &A) {
    ++R.Attempted;
    OpOutput O = runOp(A, Off, nullptr, true);
    if (!O.Parsed)
      return R.fail(A.Name + ": generated AIR does not parse");
    calibrateIfDue(R);
    if (!O.Problem.empty())
      return R.fail(O.Problem);
    // The first build of each app in a fresh process: the RSS growth a
    // one-shot CLI run sees.
    if (!A.Probe)
      R.HbQueryRssMbMax = std::max(R.HbQueryRssMbMax, O.HbQueryRssMb);
    A.Digest = digestOf(O);
    A.Expected = O.C;
    A.Built = O.Built;
  };
  for (App &A : W.Apps) {
    Learn(A);
    for (EditVariant &V : A.Edits) {
      ++R.Attempted;
      OpOutput O = oneShotForServe(A, servePath(ServeDir, A), V.Text);
      calibrateIfDue(R);
      if (!O.Parsed) {
        R.fail(A.Name + ": edited AIR does not parse");
        continue;
      }
      V.ExpectOut = O.Out;
      V.ExpectExit = O.Exit;
      V.Cold = R.sample(O.Start, O.End, A.Stmts);
    }
  }
  for (App &A : W.Probes)
    Learn(A);
}

void perfbench::checkAcrossRuns(const Workload &W, const std::string &RunDir,
                                Results &R) {
  std::ifstream Exe("/proc/self/exe", std::ios::binary);
  std::ostringstream Code;
  Code << Exe.rdbuf();
  const std::string Path = RunDir + "/key-" + W.Name + "-" +
                           std::to_string(W.Seed) + "-" +
                           support::sha256Hex(Code.str()).substr(0, 16) +
                           ".txt";
  std::ostringstream Now;
  auto Dump = [&Now](const App &A) {
    Now << A.Name << " digest " << A.Digest << "\n";
    for (const auto &[K, V] : A.Expected)
      Now << A.Name << " " << K << " " << V << "\n";
  };
  for (const App &A : W.Apps)
    Dump(A);
  for (const App &A : W.Probes)
    Dump(A);
  std::ifstream In(Path);
  if (!In) {
    writeFile(Path, Now.str());
    return;
  }
  std::ostringstream Before;
  Before << In.rdbuf();
  ++R.Attempted;
  if (Before.str() != Now.str())
    R.fail("outputs or exact counts differ from an earlier run of this "
           "code, workload and seed (" + Path + ")");
}

//===----------------------------------------------------------------------===//
// The traffic mix
//===----------------------------------------------------------------------===//

namespace {

/// One-shot ops; a unit is one pass over the rotation in a seeded order.
class OneShotTraffic {
public:
  OneShotTraffic(const Workload &W, Trace &T, Results &R)
      : W(W), T(T), R(R), Order(W.Seed * 31 + 7) {
    if (!W.OpsAreServeRounds)
      for (const App &A : W.Apps)
        Rotation.push_back(&A);
    for (const App &A : W.Probes)
      Rotation.push_back(&A);
  }

  void unit() {
    // A traced run alternates untraced and traced passes over the same
    // apps; the untraced ones give the tracing overhead.
    const bool TracedPass = T.enabled() && Pass++ % 2 == 1;
    Trace Off(false);
    shuffle(Rotation, Order);
    for (const App *A : Rotation) {
      ++R.Attempted;
      const bool Layers = TracedPass && feedsLayers(*A);
      OpOutput O =
          runOp(*A, TracedPass ? T : Off, Layers ? &R : nullptr, false);
      calibrateIfDue(R);
      if (!O.Parsed) {
        R.fail(A->Name + ": op failed to parse");
        continue;
      }
      if (digestOf(O) != A->Digest || O.C != A->Expected) {
        R.fail(A->Name + ": output or exact counts differ between ops");
        continue;
      }
      if (TracedPass) {
        R.LayerOps += Layers;
        continue;
      }
      if (T.enabled() && feedsLayers(*A)) {
        R.UntracedOpMsSum += O.Ms;
        ++R.UntracedOps;
      }
      if (A->IsK9Mail)
        R.K9Mail.push_back(R.sample(O.Start, O.End));
      if (!A->Probe)
        R.Ops.push_back(R.sample(O.Start, O.End, A->Stmts));
    }
  }

private:
  /// Layer metrics come from the input set's own apps; service has none
  /// in its rotation and takes them from the probe.
  bool feedsLayers(const App &A) const {
    return !A.Probe || W.OpsAreServeRounds;
  }

  const Workload &W;
  Trace &T;
  Results &R;
  std::vector<const App *> Rotation;
  Rng Order;
  unsigned Pass = 0;
};

/// Batch runs; a unit is one cold run into a fresh cache directory and
/// three warm runs through it (warm runs are short: three keep their
/// median steady).
class BatchTraffic {
public:
  BatchTraffic(const Workload &W, const std::string &Dir, Trace &T,
               Results &R)
      : W(W), Cache(Dir + "/cache"), T(T), R(R) {
    for (const App &A : W.Apps)
      ByFile[A.Name + ".air"] = &A;
    O.Dir = Dir + "/apps";
    O.Jobs = W.BatchJobs;
    O.Pipeline = W.Apps.front().Opts;
    O.CacheDir = Cache;
  }

  void unit() {
    std::error_code Ec;
    fs::remove_all(Cache, Ec);
    R.Attempted += 4;
    calibrate(R);
    if (O.Jobs > 1)
      calibrate(R, O.Jobs);
    auto T0 = Clock::now();
    report::BatchResult Cold = report::runBatch(O);
    auto T1 = Clock::now();
    if (O.Jobs > 1)
      calibrate(R, O.Jobs);
    report::BatchResult Warm;
    std::vector<Sample> WarmRuns;
    for (int I = 0; I < 3; ++I) {
      auto W0 = Clock::now();
      Warm = report::runBatch(O);
      WarmRuns.push_back(R.sample(W0, Clock::now()));
    }
    auto T2 = Clock::now();
    calibrate(R);
    if (T.enabled())
      traceLanes(Cold, T0, T1, T2);

    if (std::string Problem = check(Cold, Warm); !Problem.empty()) {
      R.fail(Problem);
      return;
    }
    double AppSec = 0;
    for (const report::BatchApp &A : Cold.Apps)
      AppSec += appSeconds(A);
    // The cold run spreads over the lanes (the warm run's cache probes
    // are serial), so it is calibrated against that many kernels.
    R.BatchCold.push_back(R.sample(T0, T1));
    R.BatchCold.back().Lanes = O.Jobs;
    R.BatchWarm.insert(R.BatchWarm.end(), WarmRuns.begin(), WarmRuns.end());
    R.LaneUtil.push_back(AppSec / (Cold.Jobs * Cold.WallSec));
    R.HitRate.push_back(double(Warm.CacheHits) /
                        (Warm.CacheHits + Warm.CacheMisses));
  }

private:
  static double appSeconds(const report::BatchApp &A) {
    return A.Timings.ModelingSec + A.Timings.DetectionSec +
           A.Timings.FilteringSec + A.Timings.TypestateSec;
  }

  /// Every row analysed and equal to the sequential one-shot result of
  /// its app; the warm report equal to the cold one, all from the cache.
  std::string check(const report::BatchResult &Cold,
                    const report::BatchResult &Warm) const {
    if (Cold.Apps.size() != W.Apps.size())
      return "batch saw " + std::to_string(Cold.Apps.size()) + " apps";
    for (const report::BatchApp &A : Cold.Apps) {
      auto It = ByFile.find(A.File);
      if (It == ByFile.end() || A.Status != report::BatchStatus::Ok)
        return "batch row " + A.File + " is " +
               report::batchStatusName(A.Status);
      const Counts &E = It->second->Expected;
      if (A.Potential != E.at("filters.potential") ||
          A.AfterSound != E.at("filters.after_sound") ||
          A.AfterUnsound != E.at("filters.after_unsound") ||
          (O.Pipeline.Lint &&
           A.LintTypestate + A.LintNullness != E.at("lint.findings")))
        return "batch row " + A.File + " differs from the one-shot op";
    }
    if (report::renderBatchReport(Cold) != report::renderBatchReport(Warm))
      return "warm batch report differs from the cold one";
    if (Cold.CacheMisses != W.Apps.size() || Warm.CacheHits != W.Apps.size())
      return "warm batch missed the cache (" +
             std::to_string(Warm.CacheHits) + " hits)";
    return "";
  }

  /// One row per app on its lane, placed by its finish time on the batch
  /// clock (lanes assigned greedily, so rows on a lane never overlap).
  void traceLanes(const report::BatchResult &Cold, Clock::time_point T0,
                  Clock::time_point T1, Clock::time_point T2) {
    int Span = T.add("batch cold", "batch", T0, T1, -1, 2);
    auto At = [T0](double S) {
      return T0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(S));
    };
    std::vector<double> LaneFree;
    for (const report::BatchApp &A : Cold.Apps) {
      double Begin = std::max(0.0, A.PhaseEndSec - appSeconds(A));
      size_t Lane = 0;
      while (Lane < LaneFree.size() && LaneFree[Lane] > Begin)
        ++Lane;
      if (Lane == LaneFree.size())
        LaneFree.push_back(0);
      LaneFree[Lane] = A.PhaseEndSec;
      T.add(A.Name, "batch.app", At(Begin), At(A.PhaseEndSec), Span,
            10 + static_cast<int>(Lane));
    }
    T.add("batch warm x3", "batch", T1, T2, -1, 2);
  }

  const Workload &W;
  std::string Cache;
  Trace &T;
  Results &R;
  report::BatchOptions O;
  std::map<std::string, const App *> ByFile;
};

/// A persistent client connection to the in-process daemon.
class ServeClient {
public:
  explicit ServeClient(const std::string &Path) {
    sockaddr_un Addr;
    if (!serve::socketAddress(Path, Addr))
      return;
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ServeClient() { close(); }
  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;

  bool connected() const { return Fd >= 0; }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  /// One request line, one response; false on a transport failure.
  bool request(const std::string &Line, serve::Response &Out) {
    if (Fd < 0 || !serve::writeAllBytes(Fd, Line + "\n"))
      return false;
    size_t Eol;
    while ((Eol = Buffer.find('\n')) == std::string::npos)
      if (!serve::readChunk(Fd, Buffer))
        return false;
    size_t OutLen = 0, ErrLen = 0;
    if (!serve::parseResponseHeader(Buffer.substr(0, Eol), Out, OutLen,
                                    ErrLen))
      return false;
    Buffer.erase(0, Eol + 1);
    while (Buffer.size() < OutLen + ErrLen)
      if (!serve::readChunk(Fd, Buffer))
        return false;
    Out.Out = Buffer.substr(0, OutLen);
    Out.Err = Buffer.substr(OutLen, ErrLen);
    Buffer.erase(0, OutLen + ErrLen);
    return true;
  }

private:
  int Fd = -1;
  std::string Buffer;
};

/// The in-process daemon and its one client; a unit is one pass over
/// the apps in a seeded order, each app getting a body edit, a
/// formatting edit and an unchanged repeat.
class ServeTraffic {
public:
  ServeTraffic(const Workload &W, const std::string &Dir, Trace &T,
               Results &R)
      : W(W), Dir(Dir), T(T), R(R), Pick(W.Seed * 131 + 17) {
    serve::ServerOptions SO;
    SO.SocketPath = Dir + "/s.sock";
    SO.Jobs = W.ServeJobs;
    SO.MaxSessions = static_cast<unsigned>(W.Apps.size()) + 1;
    Server = std::make_unique<serve::Server>(SO);
    std::string Error;
    if (!Server->start(Error)) {
      ++R.Attempted;
      R.fail("serve: " + Error);
      return;
    }
    Loop = std::thread([this] { Server->run(); });
    Client = std::make_unique<ServeClient>(SO.SocketPath);
    // Warm-up: open a session per app on its last variant, so every
    // measured body edit is a regraft against a resident program.
    serve::Response Resp;
    for (const App &A : W.Apps) {
      Order.push_back(&A);
      send(A, 3, "new", Resp);
    }
  }
  ~ServeTraffic() { finish(); }
  ServeTraffic(const ServeTraffic &) = delete;
  ServeTraffic &operator=(const ServeTraffic &) = delete;

  bool ok() const { return Client && Client->connected(); }

  void unit() {
    serve::Response Resp;
    shuffle(Order, Pick);
    for (const App *A : Order) {
      unsigned V = Next[A];
      Next[A] = V ^ 2;
      const struct {
        unsigned Variant;
        const char *L1;
      } Steps[] = {{V, "regraft"}, {V + 1, "rebase"}, {V + 1, "hit"}};
      Sample Round;
      Round.Lanes = W.ServeJobs;
      unsigned Answered = 0;
      for (const auto &S : Steps) {
        writeFile(servePath(Dir, *A), A->Edits[S.Variant].Text);
        std::optional<Sample> Got = send(*A, S.Variant, S.L1, Resp);
        if (!Got)
          break;
        if (Answered++ == 0)
          Round.Start = Got->Start;
        Round.End = Got->End;
        Round.Ms += Got->Ms;
        Round.Stmts += Got->Stmts;
        if (S.L1 == std::string("regraft")) {
          R.Regraft.push_back(*Got);
          R.RegraftCold.push_back(A->Edits[S.Variant].Cold);
          R.RebuiltPasses.push_back(Resp.Built.size());
        } else if (S.L1 == std::string("rebase")) {
          R.Rebase.push_back(*Got);
        } else {
          R.Hit.push_back(*Got);
        }
      }
      if (Answered == 3)
        R.Rounds.push_back(Round);
    }
  }

  /// Shuts the daemon down and joins its thread.
  void finish() {
    if (!Loop.joinable())
      return;
    serve::Response Bye;
    ++R.Attempted;
    if (!Client->request("shutdown", Bye))
      R.fail("serve: shutdown request failed");
    Client->close();
    Server->requestShutdown();
    Loop.join();
  }

private:
  /// Sends one request for the bytes of variant \p V and checks the
  /// response against the one-shot render of those bytes.
  std::optional<Sample> send(const App &A, unsigned V, const char *WantL1,
                             serve::Response &Resp) {
    ++R.Attempted;
    auto T0 = Clock::now();
    bool Ok = Client->request("analyze " + servePath(Dir, A) + W.ServeFlags,
                              Resp);
    auto T1 = Clock::now();
    calibrateIfDue(R, W.ServeJobs);
    if (T.enabled())
      T.add(A.Name, std::string("serve.") + (Ok ? Resp.L1 : "error"), T0, T1,
            -1, 3, "\"built\": " + std::to_string(Resp.Built.size()));
    const EditVariant &E = A.Edits[V];
    if (!Ok) {
      R.fail("serve: transport failure on " + A.Name);
      return std::nullopt;
    }
    if (Resp.L1 != WantL1 || Resp.Out != E.ExpectOut || !Resp.Err.empty() ||
        Resp.Exit != E.ExpectExit) {
      R.fail("serve: " + A.Name + " answered l1=" + Resp.L1 +
             (Resp.Out == E.ExpectOut ? "" : " with bytes that differ from "
                                             "the one-shot render") +
             ", expected l1=" + WantL1);
      return std::nullopt;
    }
    Sample S = R.sample(T0, T1, A.Stmts);
    S.Lanes = W.ServeJobs;
    return S;
  }

  const Workload &W;
  std::string Dir;
  Trace &T;
  Results &R;
  Rng Pick;
  std::vector<const App *> Order;
  std::map<const App *, unsigned> Next;
  std::unique_ptr<serve::Server> Server;
  std::unique_ptr<ServeClient> Client;
  std::thread Loop; ///< declared last: joined before the rest goes away
};

} // namespace

void perfbench::runTraffic(const Workload &W, const std::string &Dir,
                           double Seconds, Trace &T, Results &R) {
  OneShotTraffic OneShot(W, T, R);
  BatchTraffic Batch(W, Dir + "/batch", T, R);
  // peak_rss_mb is read before the first side serve pass starts the
  // daemon (or at the end), so resident sessions count in it only where
  // serve requests are the workload's own traffic.
  bool RssRead = false;
  auto ReadRss = [&] {
    if (RssRead)
      return;
    rusage Usage{};
    getrusage(RUSAGE_SELF, &Usage);
    R.PeakRssMb = Usage.ru_maxrss / 1024.0;
    RssRead = true;
  };
  std::unique_ptr<ServeTraffic> Serve;
  auto ServeUnit = [&] {
    if (!Serve)
      Serve = std::make_unique<ServeTraffic>(W, Dir + "/serve", T, R);
    if (Serve->ok())
      Serve->unit();
  };
  // A traced run needs an untraced and a traced one-shot pass (service's
  // side units are more than two); service's own kinds one unit each.
  const unsigned MinOwn = W.OpsAreServeRounds || T.enabled() ? 2 : 1;

  // Side units run at evenly spaced times inside the window, so their
  // samples see the same host as the own traffic: the i-th of n at
  // From + (1 - From) * i / (n + 1) of it. Serve passes keep sessions
  // resident and take the second half, after enough own traffic for
  // its peak resident set.
  struct SideKind {
    std::function<void()> Unit;
    unsigned Count;
    double From;
    unsigned Done = 0;
    double due(double Seconds) const {
      return Seconds * (From + (1 - From) * (Done + 1) / (Count + 1));
    }
  };
  std::vector<SideKind> Sides;
  if (W.OpsAreServeRounds) {
    Sides.push_back({[&] { OneShot.unit(); }, W.SideOneShot, 0});
  } else {
    Sides.push_back({[&] { Batch.unit(); }, W.SideBatch, 0});
    Sides.push_back({[&] {
                       ReadRss();
                       ServeUnit();
                     },
                     W.SideServe, 0.5});
  }

  // The workload's own kind, back to back; service's two kinds take
  // turns unit by unit.
  auto Start = Clock::now();
  unsigned Units = 0;
  while (secondsSince(Start) < Seconds || Units < MinOwn) {
    SideKind *Due = nullptr;
    for (SideKind &K : Sides)
      if (K.Done < K.Count && secondsSince(Start) >= K.due(Seconds) &&
          Units >= MinOwn && (!Due || K.due(Seconds) < Due->due(Seconds)))
        Due = &K;
    if (Due) {
      Due->Unit();
      ++Due->Done;
      continue;
    }
    if (!W.OpsAreServeRounds)
      OneShot.unit();
    else if (Units % 2 == 0)
      Batch.unit();
    else
      ServeUnit();
    ++Units;
  }
  for (SideKind &K : Sides)
    for (; K.Done < K.Count; ++K.Done)
      K.Unit();
  ReadRss();
  if (Serve)
    Serve->finish();
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

int Trace::begin(const std::string &Name, const std::string &Cat, int Parent,
                 int Tid) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Cat = Cat;
  S.StartUs = usSinceEpoch(Clock::now());
  S.Parent = Parent;
  S.Tid = Tid;
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

void Trace::end(int Id, const std::string &Args) {
  if (Id < 0)
    return;
  Spans[Id].DurUs = usSinceEpoch(Clock::now()) - Spans[Id].StartUs;
  Spans[Id].Args = Args;
}

int Trace::add(const std::string &Name, const std::string &Cat,
               Clock::time_point A, Clock::time_point B, int Parent, int Tid,
               const std::string &Args) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Cat = Cat;
  S.StartUs = usSinceEpoch(A);
  S.DurUs = usSinceEpoch(B) - S.StartUs;
  S.Parent = Parent;
  S.Tid = Tid;
  S.Args = Args;
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

bool Trace::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  char Num[64];
  Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const char *Threads[][2] = {{"1", "one-shot ops"},
                              {"2", "batch runs"},
                              {"3", "serve requests"}};
  for (const auto &Th : Threads)
    Out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << Th[0] << ", \"args\": {\"name\": \"" << Th[1] << "\"}},\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"name\": \"" << report::jsonEscape(S.Name) << "\", \"cat\": \""
        << report::jsonEscape(S.Cat) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << S.Tid;
    std::snprintf(Num, sizeof(Num), "%.3f", S.StartUs);
    Out << ", \"ts\": " << Num;
    std::snprintf(Num, sizeof(Num), "%.3f", S.DurUs);
    Out << ", \"dur\": " << Num << ", \"args\": {\"id\": " << I
        << ", \"parent\": " << S.Parent;
    if (!S.Args.empty())
      Out << ", " << S.Args;
    Out << "}}" << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}
