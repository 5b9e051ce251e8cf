//===- perfbench/src/Inputs.cpp - Workload inputs and answer keys ---------===//
//
// Part of the nAdroid reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// Every input is generated in memory from the corpus library and printed
// to AIR text; the program under test only ever sees that text. The
// answer keys come from the generators' own ground truth (seeded bugs,
// refuter and typestate patterns) and from the Table 1 profile below.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Corpus.h"
#include "corpus/RandomApp.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "support/Rng.h"

#include <sstream>

using namespace nadroid;
using namespace perfbench;

namespace {

/// Potential and after-sound warnings per corpus app, recorded from this
/// repository's output when the benchmark was defined (`nadroid --batch`
/// over the exported corpus prints them; EXPERIMENTS.md lists the
/// paper-comparable rows). After-unsound is not listed: it follows from
/// the recipe (afterUnsound below).
struct Table1Row {
  const char *Name;
  unsigned Potential, AfterSound;
};
constexpr Table1Row Table1[] = {
    {"Aard", 206, 96},          {"Browser", 1670, 400},
    {"CleanMaster", 7, 0},      {"ClipStack", 4, 0},
    {"ConnectBot", 197, 33},    {"DashClock", 75, 1},
    {"Dns66", 98, 12},          {"FireFox", 878, 551},
    {"InstaMaterial", 647, 51}, {"K9Mail", 1312, 123},
    {"KissLauncher", 239, 14},  {"MLManager", 313, 37},
    {"MiMangaNu", 10, 1},       {"Mms", 568, 201},
    {"Music", 902, 127},        {"MyTracks_1", 146, 70},
    {"MyTracks_2", 112, 47},    {"OmniNotes", 1037, 1},
    {"PhotoAffix", 85, 11},     {"QKSMS", 147, 56},
    {"SGTPuzzles", 590, 0},     {"Solitaire", 58, 31},
    {"SoundRecorder", 9, 0},    {"Swiftnotes", 0, 0},
    {"ToDoList", 49, 23},       {"Tomdroid", 0, 0},
    {"Zxing", 248, 8},
};

/// The warnings left after the unsound filters: every seeded harmful UAF
/// plus every seeded surviving false positive, as the corpus tests pin.
unsigned afterUnsound(const corpus::Recipe &R) {
  return R.HEcEc + R.HEcPc + R.HPcPc + R.HCRt + R.HCNt + R.HAsyncDestroy +
         R.FpPath + R.FpPts + R.FpNotReach + R.FpMissHb;
}

std::string printed(const ir::Program &P) {
  std::ostringstream OS;
  ir::printProgram(P, OS);
  return OS.str();
}

App corpusApp(const corpus::Recipe &R) {
  corpus::CorpusApp C = corpus::buildApp(R);
  App A;
  A.Name = R.Name;
  A.Text = printed(*C.Prog);
  A.Stmts = C.Prog->statementCount();
  A.IsK9Mail = R.Name == "K9Mail";
  for (const Table1Row &Row : Table1)
    if (R.Name == Row.Name) {
      A.HasTriple = true;
      A.Potential = Row.Potential;
      A.AfterSound = Row.AfterSound;
      A.AfterUnsound = afterUnsound(R);
    }
  for (const corpus::SeededBug &S : C.Seeds)
    if (S.Kind == corpus::SeedKind::HarmfulUaf)
      A.MustRemain.emplace_back(S.FieldName, S.UseMethod);
  return A;
}

App k9MailProbe() {
  for (const corpus::Recipe &R : corpus::allRecipes())
    if (R.Name == "K9Mail") {
      App A = corpusApp(R);
      A.Probe = true;
      return A;
    }
  return App();
}

using Emit = void (corpus::PatternEmitter::*)();

/// The 17 refuter patterns (the fig5 refutation set) and the 10
/// typestate twins. Only the *Proved / *Racy seeds and the twins carry a
/// checked verdict; the three plain may-HB idioms ride along unchecked.
const std::vector<Emit> &idiomEmitters() {
  static const std::vector<Emit> All = {
      &corpus::PatternEmitter::falseRhb,
      &corpus::PatternEmitter::falseChb,
      &corpus::PatternEmitter::falsePhb,
      &corpus::PatternEmitter::rhbProved,
      &corpus::PatternEmitter::rhbRacy,
      &corpus::PatternEmitter::chbProved,
      &corpus::PatternEmitter::chbRacy,
      &corpus::PatternEmitter::chbResumeRacy,
      &corpus::PatternEmitter::phbProved,
      &corpus::PatternEmitter::phbRacy,
      &corpus::PatternEmitter::rhbRepeatProved,
      &corpus::PatternEmitter::rhbRepeatRacy,
      &corpus::PatternEmitter::chbDeepProved,
      &corpus::PatternEmitter::chbRepeatProved,
      &corpus::PatternEmitter::chbRepeatRacy,
      &corpus::PatternEmitter::phbChainProved,
      &corpus::PatternEmitter::phbChainRacy,
      &corpus::PatternEmitter::protoReceiverLeak,
      &corpus::PatternEmitter::protoReceiverClean,
      &corpus::PatternEmitter::protoBindLeak,
      &corpus::PatternEmitter::protoBindClean,
      &corpus::PatternEmitter::protoPostLeak,
      &corpus::PatternEmitter::protoPostClean,
      &corpus::PatternEmitter::protoUnregNoReg,
      &corpus::PatternEmitter::protoUnregClean,
      &corpus::PatternEmitter::protoUnbindNoBind,
      &corpus::PatternEmitter::protoUnbindClean,
  };
  return All;
}

/// The protocol a typestate seed must trip, "" for a clean twin, or
/// nullptr when \p K is not a typestate seed.
const char *protocolOf(corpus::SeedKind K) {
  using SK = corpus::SeedKind;
  switch (K) {
  case SK::ProtoReceiverLeak:
    return "receiver-leak";
  case SK::ProtoBindLeak:
    return "service-bind-leak";
  case SK::ProtoPostLeak:
    return "handler-post-leak";
  case SK::ProtoUnregNoReg:
    return "unbalanced-unregister";
  case SK::ProtoUnbindNoBind:
    return "unbalanced-unbind";
  case SK::ProtoReceiverClean:
  case SK::ProtoBindClean:
  case SK::ProtoPostClean:
  case SK::ProtoUnregClean:
  case SK::ProtoUnbindClean:
    return "";
  default:
    return nullptr;
  }
}

} // namespace

bool perfbench::refuterSeedProved(corpus::SeedKind K, bool &Proved) {
  using SK = corpus::SeedKind;
  switch (K) {
  case SK::RhbProved:
  case SK::ChbProved:
  case SK::PhbProved:
  case SK::RhbRepeatProved:
  case SK::ChbDeepProved:
  case SK::ChbRepeatProved:
  case SK::PhbChainProved:
    Proved = true;
    return true;
  case SK::RhbRacy:
  case SK::ChbRacy:
  case SK::ChbResumeRacy:
  case SK::PhbRacy:
  case SK::RhbRepeatRacy:
  case SK::ChbRepeatRacy:
  case SK::PhbChainRacy:
    Proved = false;
    return true;
  default:
    return false;
  }
}

namespace {

/// Copies of every idiom pattern in one app; each copy gets its own
/// class-name prefix and a seeded emission order.
App idiomsApp(unsigned Index, unsigned Copies, Rng &R) {
  ir::Program P("Idioms" + std::to_string(Index));
  ir::IRBuilder B(P);
  App A;
  for (unsigned C = 0; C < Copies; ++C) {
    corpus::PatternEmitter E(B, "I" + std::to_string(Index) + "c" +
                                    std::to_string(C) + "x");
    std::vector<Emit> Order = idiomEmitters();
    shuffle(Order, R);
    for (Emit Fn : Order)
      (E.*Fn)();
    for (const corpus::SeededBug &S : E.seeds()) {
      if (const char *Proto = protocolOf(S.Kind))
        A.Protocols[S.FieldName.substr(0, S.FieldName.find('.'))] = Proto;
      else if (bool Proved; refuterSeedProved(S.Kind, Proved))
        A.RefuterSeeds.push_back(S);
    }
  }
  A.Name = P.name();
  A.Text = printed(P);
  A.Stmts = P.statementCount();
  A.Opts.Refute = true;
  A.Opts.RefuteHistory = true;
  A.Opts.Lint = true;
  return A;
}

/// A method header line ("  method name(...) {"): the one-method body
/// edit inserts a dead copy of `this` right after it, which changes the
/// body but no declaration, and no warning.
bool isMethodHeader(const std::string &Line) {
  size_t B = Line.find_first_not_of(' ');
  return B != std::string::npos && Line.compare(B, 7, "method ") == 0 &&
         Line.size() >= 2 && Line.compare(Line.size() - 2, 2, " {") == 0;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  return Lines;
}

} // namespace

void perfbench::makeEditTexts(App &A, uint64_t Seed) {
  Rng R(Seed ^ std::hash<std::string>{}(A.Name));
  std::vector<std::string> Lines = splitLines(A.Text);
  std::vector<size_t> Methods;
  for (size_t I = 0; I < Lines.size(); ++I)
    if (isMethodHeader(Lines[I]))
      Methods.push_back(I);
  // The edited method's header line, and the line the formatting comment
  // goes before (both in the original's numbering).
  size_t Edited = Methods.empty() ? Lines.size()
                                  : Methods[R.below(Methods.size())];
  size_t Comment = 1 + R.below(Lines.size() - 1);
  auto Variant = [&](bool Edit, bool Fmt) {
    std::string Out;
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (Fmt && I == Comment)
        Out += "// formatting-only edit\n";
      Out += Lines[I] + "\n";
      if (Edit && I == Edited)
        Out += std::string(Lines[I].find_first_not_of(' ') + 2, ' ') +
               "benchEdit = this;\n";
    }
    return Out;
  };
  A.Edits[0].Text = Variant(true, false);
  A.Edits[1].Text = Variant(true, true);
  A.Edits[2].Text = Variant(false, true);
  A.Edits[3].Text = Variant(false, false);
}

bool perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                             Workload &W) {
  W = Workload();
  W.Name = Name;
  W.Seed = Seed;
  // Side units: the fewest that give every side metric enough samples to
  // repeat across seeds (perfbench/README.md, "Traffic").
  if (Name == "corpus" || Name == "service") {
    for (const corpus::Recipe &R : corpus::allRecipes())
      W.Apps.push_back(corpusApp(R));
    if (Name == "corpus") {
      W.SideBatch = 8, W.SideServe = 8;
    } else {
      // The corpus apps are reached through batch and serve; one-shot
      // traffic is only the K9Mail probe.
      W.Probes.push_back(k9MailProbe());
      W.BatchJobs = W.ServeJobs = 4;
      W.OpsAreServeRounds = true;
      W.SideOneShot = 16;
    }
  } else if (Name == "giant") {
    corpus::RandomAppOptions O;
    O.Seed = Seed;
    O.Activities = 1024;
    O.FieldsPerActivity = 3;
    O.CallbacksPerActivity = 6;
    O.MaxOpsPerCallback = 5;
    std::unique_ptr<ir::Program> P = corpus::generateRandomApp(O);
    App A;
    A.Name = "Giant";
    A.Text = printed(*P);
    A.Stmts = P->statementCount();
    W.Apps.push_back(std::move(A));
    // Three K9Mail probes per pass: a probe right after a giant op runs
    // on cold caches, and one per pass left k9mail_ms too few samples.
    for (int I = 0; I < 3; ++I)
      W.Probes.push_back(k9MailProbe());
    W.SideBatch = 4, W.SideServe = 6;
  } else if (Name == "idioms") {
    Rng R(Seed);
    for (unsigned I = 0; I < 3; ++I)
      W.Apps.push_back(idiomsApp(I, 16, R));
    W.Probes.push_back(k9MailProbe());
    W.ServeFlags = " --refute-v2";
    W.SideBatch = 8, W.SideServe = 16;
  } else {
    return false;
  }
  return true;
}
