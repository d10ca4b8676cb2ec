//===- replay.cpp - traced in-process replay of benchmark requests -------===//
///
/// \file
/// The traced half of the request-level benchmark (reqbench/run.py).
/// It replays the requests of one benchmark run through each layer's
/// public calls, in the order grd and gropt make them, and records one
/// span per call: name, start, end, parent and request id. Spans stay
/// in memory and are written as one JSON document when the replay
/// ends; run.py turns them into the per-layer ledger and a Chrome
/// trace.
///
///   reqbench_replay dump DIR [EXTRA.mc ...]   write the corpus as .mc
///                                              and .gr; print a manifest
///   reqbench_replay detect LIST OUT.json      replay grd --cache traffic
///   reqbench_replay run FILE.mc               replay one gropt
///                                              -passes=parallelize --run
///
/// LIST holds one request per line: `<rid> <w|t> <path>`. `w` requests
/// warm the server state (the cache) untraced; `t` requests are traced.
///
/// Spans marked as probes time work the tools themselves do not do:
/// the sequential run the parallel speedup is measured against, the
/// module print the function-tier keys repeat per function, and the
/// post-transform detection that counts refused loops. run.py keeps
/// probes out of the layer sum that is compared with end-to-end
/// latency.
///
//===----------------------------------------------------------------------===//

#include "cache/DetectionCache.h"
#include "corpus/Corpus.h"
#include "frontend/CodeGen.h"
#include "frontend/Compiler.h"
#include "frontend/Parser.h"
#include "idioms/IdiomRegistry.h"
#include "idioms/ReductionAnalysis.h"
#include "interp/Bytecode.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "pass/ParallelDriver.h"
#include "pass/PassManager.h"
#include "pass/Pipeline.h"
#include "runtime/SimulatedParallel.h"
#include "runtime/ThreadedRunner.h"
#include "support/ThreadPool.h"
#include "transform/ArgMinMaxParallelize.h"
#include "transform/ReductionParallelize.h"
#include "transform/ScanParallelize.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace gr;

namespace {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;
  uint64_t Rid = 0;
  bool Probe = false;
};

/// Records nested spans on one thread. Disabled while replaying
/// warm-up requests, so only traced requests leave spans.
class Tracer {
public:
  bool Enabled = true;
  uint64_t Rid = 0;
  std::vector<Span> Spans;

  void begin(const char *Name, bool Probe) {
    if (!Enabled)
      return;
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Rid = Rid;
    S.Probe = Probe;
    Open.push_back(static_cast<int>(Spans.size()));
    Spans.push_back(std::move(S));
    Spans.back().StartNs = nowNs();
  }

  void end() {
    if (!Enabled)
      return;
    Spans[Open.back()].EndNs = nowNs();
    Open.pop_back();
  }

private:
  std::vector<int> Open;
};

/// One span over the enclosing C++ scope.
class Scope {
public:
  Scope(Tracer &T, const char *Name, bool Probe = false) : T(T) {
    T.begin(Name, Probe);
  }
  ~Scope() { T.end(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
};

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  return static_cast<bool>(Out);
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// "dir/hotspot.mc" -> "hotspot", the module name gropt gives a .mc.
std::string stemOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  if (Dot != std::string::npos && Dot > 0)
    Base.resize(Dot);
  return Base;
}

uint64_t countLines(const std::string &Text) {
  return static_cast<uint64_t>(std::count(Text.begin(), Text.end(), '\n'));
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out + "\"";
}

void writeSpans(std::ostream &OS, const std::vector<Span> &Spans) {
  OS << "\"spans\": [";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\": " << jsonString(S.Name)
       << ", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
       << ", \"parent\": " << S.Parent << ", \"rid\": " << S.Rid
       << ", \"probe\": " << (S.Probe ? "true" : "false") << "}";
  }
  OS << "]";
}

/// The MiniC half of compileMiniC, one span per public call.
std::unique_ptr<Module> compileTraced(Tracer &T, const std::string &Text,
                                      const std::string &Name,
                                      std::string &Error) {
  std::optional<ast::TranslationUnit> TU;
  {
    Scope S(T, "frontend.parse");
    TU = parseMiniC(Text, &Error);
  }
  if (!TU)
    return nullptr;
  std::unique_ptr<Module> M;
  {
    Scope S(T, "frontend.codegen");
    M = generateIR(*TU, Name, &Error);
  }
  if (!M)
    return nullptr;
  std::vector<std::string> VErrs;
  bool Valid;
  {
    Scope S(T, "ir.verify");
    Valid = verifyModule(*M, &VErrs);
  }
  if (!Valid) {
    Error = "pre-SSA verification failed";
    return nullptr;
  }
  {
    Scope S(T, "pass.ssa");
    FunctionAnalysisManager FAM;
    ModulePassManager MPM = buildSSAPipeline();
    MPM.run(*M, FAM);
  }
  {
    Scope S(T, "ir.verify");
    Valid = verifyModule(*M, &VErrs);
  }
  if (!Valid) {
    Error = "post-SSA verification failed";
    return nullptr;
  }
  return M;
}

//===----------------------------------------------------------------------===//
// dump
//===----------------------------------------------------------------------===//

std::string sanitize(std::string Name) {
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

bool dumpOne(const std::string &Dir, const std::string &Stem,
             const std::string &Source) {
  std::string Error;
  auto M = compileMiniC(Source, Stem, &Error);
  if (!M) {
    std::cerr << "reqbench_replay: " << Stem << ": " << Error << '\n';
    return false;
  }
  if (!writeFile(Dir + "/" + Stem + ".mc", Source) ||
      !writeFile(Dir + "/" + Stem + ".gr", moduleToString(*M))) {
    std::cerr << "reqbench_replay: cannot write into " << Dir << '\n';
    return false;
  }
  return true;
}

/// Writes every embedded corpus program as <Suite>_<Name>.mc plus its
/// printed .gr, then each EXTRA.mc likewise, and prints one manifest
/// line per program: stem and the BenchmarkExpectations idiom counts
/// (`-` for programs outside the embedded corpus).
int dump(const std::string &Dir, const std::vector<std::string> &Extras) {
  for (const BenchmarkProgram &B : corpus()) {
    std::string Stem = sanitize(std::string(B.Suite) + "_" + B.Name);
    if (!dumpOne(Dir, Stem, B.Source))
      return 1;
    const BenchmarkExpectations &E = B.Expected;
    std::cout << Stem << ' ' << E.OurScalars << ' ' << E.OurHistograms << ' '
              << E.OurScans << ' ' << E.OurArgMinMax << '\n';
  }
  for (const std::string &Path : Extras) {
    std::string Source;
    if (!readFile(Path, Source)) {
      std::cerr << "reqbench_replay: cannot read " << Path << '\n';
      return 1;
    }
    if (!dumpOne(Dir, stemOf(Path), Source))
      return 1;
    std::cout << stemOf(Path) << " - - - -\n";
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// detect: grd --cache, one request in flight
//===----------------------------------------------------------------------===//

uint64_t idiomSolutions(const DetectionStats &Stats) {
  uint64_t N = 0;
  for (const auto &[Name, S] : Stats.PerIdiom)
    N += S.Solutions;
  return N;
}

/// Serves each listed request the way grd's runDetectionBatch serves a
/// batch of one: module-tier probe on the raw bytes, then parse (or
/// compile), detection on all default lanes, module-tier store.
int replayDetect(const std::string &ListPath, const std::string &OutPath) {
  std::ifstream List(ListPath);
  if (!List) {
    std::cerr << "reqbench_replay: cannot read " << ListPath << '\n';
    return 1;
  }
  DetectionCache::configure({});
  DetectionCache &Cache = *DetectionCache::active();
  const IdiomRegistry &Registry = IdiomRegistry::builtins();
  (void)ThreadPool::global();
  (void)Registry.compiledSpecs();
  unsigned Workers = std::max(1u, std::thread::hardware_concurrency());

  Tracer T;
  std::ostringstream Requests;
  CacheCounters Before;
  bool Timed = false;
  unsigned NumRequests = 0;
  uint64_t Rid = 0;
  std::string Phase, Path;
  while (List >> Rid >> Phase >> Path) {
    if (Phase == "t" && !Timed) {
      Timed = true;
      Before = Cache.counters();
    }
    T.Enabled = Phase == "t";
    T.Rid = Rid;
    std::string Text;
    if (!readFile(Path, Text)) {
      std::cerr << "reqbench_replay: cannot read " << Path << '\n';
      return 1;
    }
    const bool MiniC = endsWith(Path, ".mc");
    bool Ok = true, ModuleHit = false;
    unsigned Functions = 0, Lanes = 0;
    uint64_t FunctionHits = 0;
    ReductionCounts Counts;
    DetectionStats Stats;
    std::string Error;
    {
      Scope Req(T, "request");
      ModuleCacheKey MK;
      {
        Scope S(T, "cache.key");
        MK = Cache.moduleKey(Text, Registry, SolverKind::Default,
                             MiniC ? 'c' : 0);
      }
      CachedModuleSummary Summary;
      {
        Scope S(T, "cache.lookup");
        ModuleHit = Cache.lookupModule(MK, Summary);
      }
      std::unique_ptr<Module> M;
      if (ModuleHit) {
        Functions = Summary.Functions;
        Counts = Summary.Counts;
        Stats = Summary.Stats;
      } else if (MiniC) {
        M = compileTraced(T, Text, Path, Error);
      } else {
        Scope S(T, "ir.parse");
        M = parseIR(Text, &Error);
      }
      if (!ModuleHit && !M)
        Ok = false;
      if (M) {
        ParallelDetectionResult PR;
        {
          Scope S(T, "idioms.detect");
          ParallelDetectionOptions PD;
          PD.Workers = Workers;
          PD.Registry = &Registry;
          PR = analyzeModuleParallel(*M, PD);
        }
        Functions = static_cast<unsigned>(PR.Reports.size());
        Counts = countReductions(PR.Reports);
        Stats = PR.Stats;
        Lanes = PR.WorkersUsed;
        FunctionHits = PR.CacheHits;
        {
          Scope S(T, "cache.store");
          Cache.storeModule(MK, {Functions, Counts, Stats});
        }
        Scope S(T, "ir.print", /*Probe=*/true);
        (void)moduleToString(*M);
      }
    }
    if (!T.Enabled)
      continue;
    Requests << (NumRequests++ ? ",\n" : "\n") << "{\"rid\": " << Rid
             << ", \"ok\": " << (Ok ? "true" : "false")
             << ", \"error\": " << jsonString(Error)
             << ", \"minic\": " << (MiniC ? "true" : "false")
             << ", \"bytes\": " << Text.size()
             << ", \"lines\": " << countLines(Text)
             << ", \"module_hit\": " << (ModuleHit ? "true" : "false")
             << ", \"function_hits\": " << FunctionHits
             << ", \"functions\": " << Functions << ", \"lanes\": " << Lanes
             << ", \"scalars\": " << Counts.Scalars
             << ", \"histograms\": " << Counts.Histograms
             << ", \"scans\": " << Counts.Scans
             << ", \"argminmax\": " << Counts.ArgMinMax
             << ", \"nodes\": " << Stats.totalNodes()
             << ", \"solutions\": " << Stats.totalSolutions()
             << ", \"idiom_solutions\": " << idiomSolutions(Stats) << "}";
  }
  CacheCounters After = Cache.counters();

  std::ofstream Out(OutPath);
  Out << "{\"requests\": [" << Requests.str() << "],\n"
      << "\"cache\": {\"module_hits\": " << After.ModuleHits - Before.ModuleHits
      << ", \"module_misses\": " << After.ModuleMisses - Before.ModuleMisses
      << ", \"function_hits\": " << After.FunctionHits - Before.FunctionHits
      << ", \"function_misses\": "
      << After.FunctionMisses - Before.FunctionMisses
      << ", \"stores\": "
      << (After.FunctionStores + After.ModuleStores) -
             (Before.FunctionStores + Before.ModuleStores)
      << ", \"evictions\": " << After.Evictions - Before.Evictions << "},\n";
  writeSpans(Out, T.Spans);
  Out << "}\n";
  return Out ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// run: gropt FILE.mc -passes=parallelize --run
//===----------------------------------------------------------------------===//

/// Loops the transform left in place although detection accepts them:
/// every detected loop outside an outlined body after the passes ran.
uint64_t countRefused(Module &M) {
  uint64_t Refused = 0;
  for (const ReductionReport &R : analyzeModule(M)) {
    if (R.F->getName().find(".parloop.") != std::string::npos)
      continue;
    std::set<const BasicBlock *> Loops;
    for (const ScalarReduction &S : R.Scalars)
      Loops.insert(S.Loop.LoopBegin);
    for (const HistogramReduction &H : R.Histograms)
      Loops.insert(H.Loop.LoopBegin);
    Refused += Loops.size() + R.Scans.size() + R.ArgMinMax.size();
  }
  return Refused;
}

/// Serves one gropt run request, as gropt does with one process per
/// request, with the sequential run and the refusal count as probes.
int replayRun(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::cerr << "reqbench_replay: cannot read " << Path << '\n';
    return 1;
  }
  Tracer T;
  std::string Error;
  std::unique_ptr<Module> M;
  int64_t SeqMain = 0;
  std::string SeqOutput;
  uint64_t Instructions = 0, FusedPairs = 0, Refused = 0;
  unsigned Outlined = 0;
  ParallelRunResult Sim;
  ThreadedRunResult Thr;
  {
    Scope Req(T, "request");
    M = compileTraced(T, Text, stemOf(Path), Error);
    if (!M) {
      std::cerr << "reqbench_replay: " << Path << ": " << Error << '\n';
      return 1;
    }

    FunctionAnalysisManager FAM;
    ReductionParallelizer RP(*M, FAM);
    auto Reductions = std::make_unique<ParallelizeReductionsPass>(RP);
    auto Scans = std::make_unique<ScanParallelizePass>(RP);
    auto ArgMinMax = std::make_unique<ArgMinMaxParallelizePass>(RP);
    ParallelizeReductionsPass *RedPass = Reductions.get();
    ScanParallelizePass *ScanPass = Scans.get();
    ArgMinMaxParallelizePass *AmmPass = ArgMinMax.get();
    ModulePassManager MPM;
    MPM.addFunctionPass(std::move(Reductions));
    MPM.addFunctionPass(std::move(Scans));
    MPM.addFunctionPass(std::move(ArgMinMax));
    {
      Scope S(T, "transform");
      MPM.run(*M, FAM);
    }
    Outlined = RedPass->numParallelized() + ScanPass->numParallelized() +
               AmmPass->numParallelized();
    bool Valid;
    {
      Scope S(T, "ir.verify");
      std::vector<std::string> VErrs;
      Valid = verifyModule(*M, &VErrs);
    }
    if (!Valid) {
      std::cerr << "reqbench_replay: module invalid after the transform\n";
      return 1;
    }
    {
      Scope S(T, "runtime.simulated");
      ParallelRunner Runner(*M, RP, ParallelConfig());
      Sim = Runner.run();
    }
    {
      Scope S(T, "runtime.threaded");
      ThreadedRunner Runner(*M, RP, ThreadedConfig());
      Thr = Runner.run();
    }

    // Probes run after the tool's path, so they cannot warm it.
    {
      Scope S(T, "probe.detect", /*Probe=*/true);
      Refused = countRefused(*M);
    }
    std::unique_ptr<Module> Untransformed;
    {
      Scope S(T, "probe.compile", /*Probe=*/true);
      Untransformed = compileMiniC(Text, stemOf(Path), &Error);
    }
    std::shared_ptr<const BytecodeModule> BC;
    {
      Scope S(T, "interp.compile", /*Probe=*/true);
      BC = BytecodeModule::compile(*Untransformed);
    }
    FusedPairs = BC->fusedPairs();
    Scope S(T, "interp.seq", /*Probe=*/true);
    Interpreter I(*Untransformed, ExecKind::Default, BC);
    SeqMain = I.runMain();
    SeqOutput = I.getOutput();
    Instructions = I.instructionCount();
  }

  std::ostream &OS = std::cout;
  OS << "{\"result\": {\"main\": " << Sim.MainResult
     << ", \"output\": " << jsonString(Sim.Output)
     << ", \"threaded_main\": " << Thr.MainResult
     << ", \"threaded_output\": " << jsonString(Thr.Output)
     << ", \"seq_main\": " << SeqMain
     << ", \"seq_output\": " << jsonString(SeqOutput)
     << ", \"sections\": " << Thr.Sections << ", \"work\": " << Sim.TotalWork
     << ", \"threaded_wall_ms\": " << Thr.WallMs
     << ", \"instructions\": " << Instructions
     << ", \"fused_pairs\": " << FusedPairs << ", \"outlined\": " << Outlined
     << ", \"refused\": " << Refused << ", \"bytes\": " << Text.size()
     << ", \"lines\": " << countLines(Text) << "},\n";
  writeSpans(OS, T.Spans);
  OS << "}\n";
  return OS ? 0 : 1;
}

void usage() {
  std::cerr << "usage: reqbench_replay dump DIR [EXTRA.mc ...]\n"
               "       reqbench_replay detect LIST OUT.json\n"
               "       reqbench_replay run FILE.mc\n";
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.size() >= 2 && Args[0] == "dump")
    return dump(Args[1], {Args.begin() + 2, Args.end()});
  if (Args.size() == 3 && Args[0] == "detect")
    return replayDetect(Args[1], Args[2]);
  if (Args.size() == 2 && Args[0] == "run")
    return replayRun(Args[1]);
  usage();
  return 2;
}
