//===- main.cpp - perfbench workload binary -------------------------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process half of the benchmark; run.py is the other half and
/// the only entry point users call. Subcommands:
///
///   calibrate  host fingerprint and measured parallel capacity
///   emit       compileSource over the paper kernels -> generated C++
///   compile    the compile set of the paper-e2e workload
///   batch      the batch-dense / batch-largek workloads
///   svc-gen    the open-loop traffic generator of service-mix
///   probes     the per-layer probe suite of the traced run
///
/// Every subcommand prints one JSON object on stdout and exits 0, or
/// exits nonzero with a diagnostic on stderr when a result is wrong.
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Common.h"
#include "perfbench/src/Workloads.h"

#include "aa/Kernels/Isa.h"
#include "core/BatchKernel.h"
#include "core/SafeGen.h"
#include "frontend/Frontend.h"
#include "fuzz/KernelGen.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

using namespace safegen;

namespace pb {

//===----------------------------------------------------------------------===//
// calibrate
//===----------------------------------------------------------------------===//

namespace {

/// Units of fixed integer work done by one busy thread in \p Ns.
uint64_t spin(uint64_t Ns) {
  uint64_t End = nowNs() + Ns, Units = 0;
  volatile uint64_t Sink = 0;
  while (nowNs() < End) {
    uint64_t X = Units;
    for (int I = 0; I < 4096; ++I)
      X = X * 6364136223846793005ull + 1442695040888963407ull;
    Sink = Sink + X;
    ++Units;
  }
  return Units;
}

int runCalibrate(const Flags &F) {
  int MaxThreads = static_cast<int>(F.num("max-threads", 1));
  const uint64_t Window = 60'000'000;
  // Total work of k busy workers in one window.
  auto Level = [&](int K) {
    std::vector<std::thread> Ts;
    std::vector<uint64_t> U(K);
    for (int I = 0; I < K; ++I)
      Ts.emplace_back([&, I] { U[I] = spin(Window); });
    for (auto &T : Ts)
      T.join();
    double Sum = 0;
    for (uint64_t X : U)
      Sum += static_cast<double>(X);
    return Sum;
  };
  // Capacity: the best k-worker throughput relative to one worker. Each
  // ratio is the median of five back-to-back (1, k) pairs, so a host
  // speed swing between the two halves of one pair does not decide it.
  std::vector<double> Ratios = {1.0};
  double Capacity = 1.0;
  for (int K = 2; K <= MaxThreads; ++K) {
    std::vector<double> R;
    for (int Rep = 0; Rep < 5; ++Rep) {
      double One = Level(1);
      R.push_back(Level(K) / One);
    }
    Ratios.push_back(median(R));
    Capacity = std::max(Capacity, Ratios.back());
  }
  std::vector<double> Ref;
  for (int I = 0; I < 50; ++I)
    Ref.push_back(hostRefNs());
  JsonOut O;
  O.str("tier", aa::isa::name(aa::isa::activeTier()));
  O.num("host_speed", RefNominalNs / median(Ref));
  O.num("capacity", Capacity);
  O.raw("ratios", jsonNums(Ratios));
  std::printf("%s\n", O.done().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// emit
//===----------------------------------------------------------------------===//

/// Writes the f64a-dspv k=16 code safegen emits for each paper kernel
/// into --out (one <kernel>.gen.cpp each).
int runEmit(const Flags &F) {
  std::string Root = F.get("root"), Out = F.get("out");
  JsonOut O;
  for (const PaperKernel &K : paperKernels()) {
    std::string Path = Root + "/benchmarks/" + K.Name + ".c";
    core::SafeGenOptions Opts;
    Opts.Config = *aa::AAConfig::parse("f64a-dspv");
    Opts.Config.K = 16;
    core::SafeGenResult R = core::compileSource(Path, readFile(Path), Opts);
    if (!R.Success) {
      std::fprintf(stderr, "emit %s: %s\n", K.Name, R.Diagnostics.c_str());
      return 1;
    }
    writeFile(Out + "/" + K.Name + ".gen.cpp", R.OutputSource);
    O.num(K.Name, static_cast<double>(R.OutputSource.size()));
  }
  std::printf("%s\n", O.done().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Timed loops
//===----------------------------------------------------------------------===//

/// Runs \p Op (one operation) until
/// \p Seconds have passed. In a traced run the first half runs with the
/// recorder off and the second half on, under a root span, so the two
/// halves' rates give the tracing overhead.
template <typename OpFn>
void timedLoop(double Seconds, bool Trace, JsonOut &O, OpFn Op) {
  auto Run = [&](double S) {
    uint64_t T0 = nowNs(), End = T0 + static_cast<uint64_t>(S * 1e9);
    uint64_t N = 0;
    while (nowNs() < End) {
      Op();
      ++N;
    }
    return static_cast<double>(N) / ((nowNs() - T0) / 1e9);
  };
  if (!Trace) {
    Run(Seconds);
    return;
  }
  double Untraced = Run(Seconds / 2);
  tracer().Enabled = true;
  double Traced;
  {
    SpanScope Root("run.window");
    Traced = Run(Seconds / 2);
  }
  tracer().Enabled = false;
  O.num("trace.overhead_frac", (Untraced - Traced) / Untraced);
}

/// The median of \p Passes host-speed reference passes, under one span.
/// A single pass is short enough for one preemption to multiply it.
double hostReference(int Passes) {
  SpanScope S("bench.hostref");
  std::vector<double> Ns;
  for (int I = 0; I < Passes; ++I)
    Ns.push_back(hostRefNs());
  return median(Ns);
}

/// Set-up repeated \p Times (keeping the last result); the median of the
/// set-up times, each at the reference speed of a reference pass right
/// after it, is the run's setup_s: raw set-up times move by ~30% with
/// the host's state, as every other time does.
template <typename SetupFn>
double repeatedSetup(int Times, SetupFn Setup) {
  std::vector<double> T;
  for (int I = 0; I < Times; ++I) {
    uint64_t T0 = nowNs();
    Setup();
    double S = (nowNs() - T0) / 1e9;
    T.push_back(S * RefNominalNs / hostReference(5));
  }
  return median(T);
}

struct Outcome {
  uint64_t Attempted = 0, Failed = 0;
  bool Wrong = false;
};

int finish(JsonOut &O, const Outcome &Out, const Flags &F) {
  O.num("attempted", static_cast<double>(Out.Attempted));
  O.num("failed", static_cast<double>(Out.Failed));
  O.num("peak_rss_mb", peakRssMiB());
  if (F.has("trace-out"))
    tracer().write(F.get("trace-out"));
  std::printf("%s\n", O.done().c_str());
  return Out.Wrong ? 3 : 0;
}

//===----------------------------------------------------------------------===//
// compile (paper-e2e compile set)
//===----------------------------------------------------------------------===//

struct CompileItem {
  std::string Name, File, Source, Expected;
  core::SafeGenOptions Opts;
  std::vector<double> LatUs; ///< at the reference speed
};

/// Pass name -> span of the synthesized child spans.
const char *passSpan(const std::string &Pass) {
  if (Pass == "tac")
    return "analysis.tac";
  if (Pass == "annotate")
    return "analysis.annotate";
  if (Pass == "const-fold")
    return "core.constfold";
  if (Pass == "affine-rewrite")
    return "core.rewrite";
  if (Pass == "emit")
    return "core.emit";
  return "core.pass";
}

int runCompile(const Flags &F) {
  std::string Root = F.get("root");
  uint64_t Seed = static_cast<uint64_t>(F.num("seed", 1));
  bool Trace = F.has("trace-out");

  // The paper kernels at both prioritized configs, checked against the
  // repository's golden outputs, plus seeded draws of larger generated
  // kernels (the paper kernels' DAGs have at most 21 nodes), checked
  // against their own first compile.
  std::vector<CompileItem> Items;
  for (const PaperKernel &K : paperKernels())
    for (const char *Cfg : {"dspv", "dspn"}) {
      CompileItem I;
      I.Name = std::string(K.Name) + "." + Cfg;
      I.File = Root + "/benchmarks/" + K.Name + ".c";
      I.Source = readFile(I.File);
      I.Expected = readFile(Root + "/tests/golden/" + K.Name + "." + Cfg +
                            ".k16.c");
      I.Opts.Config = *aa::AAConfig::parse(std::string("f64a-") + Cfg);
      I.Opts.Config.K = 16;
      Items.push_back(std::move(I));
    }
  // The generated kernels are one fixed draw, the same for every seed:
  // their sizes, and with them the ILP's work, vary by orders of
  // magnitude from draw to draw, so a per-seed draw would change the
  // amount of work the run measures. The seed orders the compile loop.
  fuzz::GenOptions G;
  G.MinParams = 2;
  G.MaxLocals = 8;
  G.MaxStmts = 14;
  G.MaxDepth = 5;
  G.MaxTrip = 4;
  std::mt19937_64 Rng(2022);
  const size_t NumGenerated = 24;
  for (int D = 0; Items.size() < 8 + NumGenerated && D < 200; ++D) {
    CompileItem I;
    I.Name = "gen" + std::to_string(D);
    I.File = I.Name + ".c";
    I.Source = fuzz::renderKernel(fuzz::generateKernel(Rng, G));
    I.Opts.Config = *aa::AAConfig::parse("f64a-dspv");
    I.Opts.Config.K = 16;
    core::SafeGenResult R = core::compileSource(I.File, I.Source, I.Opts);
    if (!R.Success)
      continue; // a draw the frontend rejects is not part of the set
    I.Expected = R.OutputSource;
    Items.push_back(std::move(I));
  }

  std::vector<size_t> Order(Items.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 OrderRng(Seed);
  std::shuffle(Order.begin(), Order.end(), OrderRng);

  Outcome Out;
  JsonOut O;
  size_t Next = 0;
  std::vector<double> RefNs;
  timedLoop(F.num("seconds", 5), Trace, O, [&] {
    CompileItem &I = Items[Order[Next++ % Order.size()]];
    int32_t Parent = currentSpan();
    uint64_t T0 = nowNs();
    core::SafeGenResult R = core::compileSource(I.File, I.Source, I.Opts);
    uint64_t T1 = nowNs();
    if (tracer().Enabled) {
      // The pass manager times each pass; those intervals are laid
      // inside the compile span, so its self time is what no pass
      // covers: parse and sema (and pipeline set-up), hence its layer.
      int32_t Id = tracer().record("frontend.compileSource", T0, T1, Parent);
      uint64_t At = T0;
      for (const core::PassTiming &P : R.PassTimings) {
        uint64_t D = static_cast<uint64_t>(P.Seconds * 1e9);
        tracer().record(passSpan(P.Name), At, At + D, Id);
        At += D;
      }
    }
    ++Out.Attempted;
    if (!R.Success || R.OutputSource != I.Expected) {
      ++Out.Failed;
      Out.Wrong = true;
      std::fprintf(stderr, "compile %s: %s\n", I.Name.c_str(),
                   R.Success ? "output differs from the expected code"
                             : R.Diagnostics.c_str());
      return;
    }
    double Ref = hostReference(3);
    RefNs.push_back(Ref);
    I.LatUs.push_back((T1 - T0) / 1e3 * (RefNominalNs / Ref));
  });

  std::vector<double> P50, P90, All;
  for (const CompileItem &I : Items) {
    P50.push_back(median(I.LatUs));
    P90.push_back(quantile(I.LatUs, 0.9));
    All.insert(All.end(), I.LatUs.begin(), I.LatUs.end());
  }
  double Sum = 0;
  for (double X : All)
    Sum += X;
  O.num("lat_us_p50", geomean(P50));
  O.num("lat_us_p90", geomean(P90));
  O.num("work_per_s", 1e6 * static_cast<double>(All.size()) / Sum);
  O.num("host_speed", RefNominalNs / median(RefNs));
  return finish(O, Out, F);
}

//===----------------------------------------------------------------------===//
// batch (batch-dense / batch-largek)
//===----------------------------------------------------------------------===//

struct BatchKind {
  size_t Kernel = 0;
  int32_t N = 0;
  std::vector<std::vector<double>> Args;
  std::vector<core::BatchCallResult> Ref;
  std::vector<double> BatchNs, RefNs; ///< per batch
};

int runBatch(const Flags &F) {
  std::string Root = F.get("root");
  uint64_t Seed = static_cast<uint64_t>(F.num("seed", 1));
  bool Trace = F.has("trace-out");
  bool LargeK = F.get("mode") == "largek";

  // batch-dense: the four paper kernels, k=16 dense storage, N
  // alternating between 1024 (inside L2, and above the tape's
  // 240-instance chunk) and 4096 (outside). batch-largek: sor and fgm at
  // k=128 group-sparse storage, N=1024; lat_us_* and work_per_s cover
  // only them. luf, on the tree engine, never reaches the sparse row
  // pool and is left out; henon runs too, but only for its slowdown and
  // certified bits, which every run reports.
  aa::AAConfig Cfg = *aa::AAConfig::parse("f64a-dspn");
  Cfg.K = LargeK ? 128 : 16;
  Cfg.Sparse = LargeK;
  std::vector<int32_t> Sizes = LargeK ? std::vector<int32_t>{1024}
                                      : std::vector<int32_t>{1024, 4096};
  core::InterpreterOptions Opts; // the default engine

  std::vector<LoadedKernel> Ks;
  std::vector<BatchKind> Kinds;
  std::vector<double> CertBits;
  double SetupS = repeatedSetup(3, [&] {
    Ks.clear();
    Kinds.clear();
    CertBits.clear();
    std::mt19937_64 Rng(Seed * 0x2545F4914F6CDD1Dull + 7);
    for (const PaperKernel &K : paperKernels()) {
      if (LargeK && !std::strcmp(K.Name, "luf"))
        continue;
      Ks.push_back(loadKernel(Root, K));
      // 1024 distinct seeded instances per kernel; a 4096-instance batch
      // repeats them four times (the executor's working set is what the
      // size changes, not the values).
      std::vector<std::vector<double>> Pool;
      for (int32_t I = 0; I < 1024; ++I)
        Pool.push_back(K.Args(Rng));
      std::vector<core::BatchCallResult> Ref =
          treeReference(Ks.back(), Cfg, Pool);
      requireFinite(K.Name, Ref);
      for (int32_t N : Sizes) {
        BatchKind B;
        B.Kernel = Ks.size() - 1;
        B.N = N;
        for (int32_t I = 0; I < N; ++I) {
          B.Args.push_back(Pool[I % Pool.size()]);
          B.Ref.push_back(Ref[I % Ref.size()]);
        }
        Kinds.push_back(std::move(B));
      }
      auto Cert = core::runBatchCompiled(Ks.back().tu(), Ks.back().Fn, Cfg,
                                         {K.Canonical}, 1, Opts);
      CertBits.push_back(Cert[0].CertifiedBits);
    }
  });
  if (F.has("perturb-ref"))
    perturbOneUlp(Kinds[0].Ref[0]);

  Outcome Out;
  JsonOut O;
  O.num("setup_s", SetupS);
  size_t Next = 0;
  timedLoop(F.num("seconds", 5), Trace, O, [&] {
    BatchKind &B = Kinds[Next++ % Kinds.size()];
    const LoadedKernel &L = Ks[B.Kernel];
    uint64_t T0 = nowNs();
    std::vector<core::BatchCallResult> R;
    {
      SpanScope S("exec.runBatchCompiled");
      R = core::runBatchCompiled(L.tu(), L.Fn, Cfg, B.Args, 1, Opts);
    }
    uint64_t T1 = nowNs();
    ++Out.Attempted;
    {
      SpanScope S("bench.check");
      for (int32_t I = 0; I < B.N; ++I)
        if (!sameBits(R[I], B.Ref[I])) {
          ++Out.Failed;
          Out.Wrong = true;
          std::fprintf(stderr,
                       "batch %s n=%d instance %d differs from the tree "
                       "reference\n",
                       L.K->Name, B.N, I);
          break;
        }
    }
    B.BatchNs.push_back(static_cast<double>(T1 - T0));
    B.RefNs.push_back(hostReference(5));
  });

  // Times at the reference speed. A slowdown divides the median batch
  // time per instance by the double kernel's time per instance on the
  // reference host (PlainNominalNs); a kernel's slowdown is the
  // geometric mean over its batch sizes (the sizes differ in cache
  // behaviour, so a median over both would jump between them). The
  // double kernel is not SafeGen's code, so timing it live would add
  // only noise: henon's is one dependent chain, whose speed relative to
  // the reference pass and the batch kernels moves by ~25% between runs
  // with the host's state.
  std::vector<double> P50, P90, InstPerS, AllRef;
  for (size_t K = 0; K < Ks.size(); ++K) {
    bool Aggregated = !LargeK || std::strcmp(Ks[K].K->Name, "henon");
    std::vector<double> PerInst, Ratio;
    for (const BatchKind &B : Kinds) {
      if (B.Kernel != K)
        continue;
      std::vector<double> Us;
      for (size_t I = 0; I < B.BatchNs.size(); ++I) {
        double Scale = RefNominalNs / B.RefNs[I];
        Us.push_back(B.BatchNs[I] * Scale / 1e3);
        PerInst.push_back(B.BatchNs[I] * Scale / B.N);
        AllRef.push_back(B.RefNs[I]);
      }
      Ratio.push_back(median(Us) * 1e3 / B.N / Ks[K].K->PlainNominalNs);
      if (Aggregated) {
        P50.push_back(median(Us));
        P90.push_back(quantile(Us, 0.9));
      }
    }
    std::string Name = Ks[K].K->Name;
    if (Aggregated)
      InstPerS.push_back(1e9 / median(PerInst));
    O.num("slowdown." + Name, geomean(Ratio));
    O.num("cert_bits." + Name, CertBits[K]);
  }
  O.num("lat_us_p50", geomean(P50));
  O.num("lat_us_p90", geomean(P90));
  O.num("work_per_s", geomean(InstPerS));
  O.num("host_speed", RefNominalNs / median(AllRef));
  return finish(O, Out, F);
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared kernel helpers
//===----------------------------------------------------------------------===//

LoadedKernel loadSource(const std::string &Function, std::string Source) {
  LoadedKernel L;
  L.Source = std::move(Source);
  {
    SpanScope S("frontend.parseSource");
    L.CU = frontend::parseSource(Function + ".c", L.Source);
  }
  if (!L.CU->Success)
    throw std::runtime_error("parse failed: " + Function + "\n" +
                             L.CU->Diags.renderAll());
  SpanScope S("core.compileBatchFn");
  L.Fn = core::compileBatchFn(L.tu(), Function, core::InterpreterOptions(),
                              /*EmitNative=*/true);
  return L;
}

LoadedKernel loadKernel(const std::string &Root, const PaperKernel &K) {
  LoadedKernel L = loadSource(K.Name, probedSource(Root, K));
  L.K = &K;
  return L;
}

void requireFinite(const char *Kernel,
                   const std::vector<core::BatchCallResult> &Ref) {
  for (size_t I = 0; I < Ref.size(); ++I)
    if (!Ref[I].Success || !std::isfinite(Ref[I].Return.Lo) ||
        !std::isfinite(Ref[I].Return.Hi))
      throw std::runtime_error(
          std::string("tree reference of ") + Kernel + " instance " +
          std::to_string(I) + " is not a finite enclosure: " +
          (Ref[I].Success ? "non-finite bound" : Ref[I].Error));
}

bool sameBound(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0 ||
         (std::isnan(A) && std::isnan(B));
}

bool sameBits(const core::BatchCallResult &A, const core::BatchCallResult &B) {
  return A.Success == B.Success && sameBound(A.Return.Lo, B.Return.Lo) &&
         sameBound(A.Return.Hi, B.Return.Hi);
}

void perturbOneUlp(core::BatchCallResult &R) {
  R.Return.Lo = std::nextafter(R.Return.Lo, -INFINITY);
}

std::vector<core::BatchCallResult>
treeReference(const LoadedKernel &L, const aa::AAConfig &Cfg,
              const std::vector<std::vector<double>> &Args) {
  core::InterpreterOptions Tree;
  Tree.Engine = core::ExecEngine::Tree;
  SpanScope S("exec.treeReference");
  return core::runBatchCompiled(L.tu(), L.Fn, Cfg, Args, 1, Tree);
}

} // namespace pb

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench <subcommand> [--flag value]...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  try {
    pb::Flags F = pb::parseFlags(Argc, Argv, 2);
    if (Cmd == "calibrate")
      return pb::runCalibrate(F);
    if (Cmd == "emit")
      return pb::runEmit(F);
    if (Cmd == "compile")
      return pb::runCompile(F);
    if (Cmd == "batch")
      return pb::runBatch(F);
    if (Cmd == "svc-gen")
      return pb::runSvcGen(F);
    if (Cmd == "probes")
      return pb::runProbes(F);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench %s: %s\n", Cmd.c_str(), E.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown subcommand %s\n", Cmd.c_str());
  return 2;
}
