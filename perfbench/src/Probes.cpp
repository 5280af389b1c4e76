//===- Probes.cpp - per-layer probe suite of the traced run ---------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One fixed measurement per layer, through that layer's public entry
/// points, identical on every workload so the traced runs of different
/// workloads can be compared: frontend parse; the analysis stages (TAC,
/// DAG, max-reuse ILP); the compiler's pass timings; tape compile and
/// native emission; the batch executor per engine; the ISA kernel tables
/// at the active and the scalar tier; batch storage; the thread pool;
/// the wire codec; and the kernel cache.
///
//===----------------------------------------------------------------------===//

#include "perfbench/src/Common.h"
#include "perfbench/src/Workloads.h"

#include "aa/Affine.h"
#include "aa/Batch.h"
#include "aa/Kernels/Isa.h"
#include "analysis/DAG.h"
#include "analysis/Reuse.h"
#include "analysis/TAC.h"
#include "core/NativeEmitter.h"
#include "core/SafeGen.h"
#include "core/Tape.h"
#include "fp/Rounding.h"
#include "fuzz/KernelGen.h"
#include "service/KernelCache.h"
#include "service/Wire.h"

#include <cmath>

using namespace safegen;
namespace wire = safegen::service::wire;

namespace pb {

namespace {

/// Mean nanoseconds per call of \p Fn, repeated for at least \p MinNs
/// in each of three blocks; the median block wins.
template <typename Fn> double nsPerCall(Fn F, uint64_t MinNs = 20'000'000) {
  std::vector<double> Blocks;
  for (int B = 0; B < 3; ++B) {
    uint64_t T0 = nowNs(), N = 0;
    do {
      F();
      ++N;
    } while (nowNs() - T0 < MinNs);
    Blocks.push_back(static_cast<double>(nowNs() - T0) / N);
  }
  return median(Blocks);
}

/// The probe set of sources: the four paper kernels and four fixed
/// generated kernels (fixed seed, so every run probes the same code).
std::vector<std::pair<std::string, std::string>>
probeSources(const std::string &Root) {
  std::vector<std::pair<std::string, std::string>> S;
  for (const PaperKernel &K : paperKernels())
    S.push_back({K.Name, readFile(Root + "/benchmarks/" + K.Name + ".c")});
  std::mt19937_64 Rng(20221);
  fuzz::GenOptions G;
  G.MaxStmts = 14;
  G.MaxLocals = 8;
  G.MaxDepth = 5;
  while (S.size() < 8)
    S.push_back({"f", fuzz::renderKernel(fuzz::generateKernel(Rng, G))});
  return S;
}

void frontendAndAnalysis(const std::string &Root, JsonOut &O) {
  auto Sources = probeSources(Root);
  double ParseNs = 0, TacNs = 0, DagNs = 0, ReuseNs = 0;
  double Nodes = 0, Pairs = 0, Optimal = 0;
  for (const auto &[Name, Src] : Sources) {
    ParseNs += nsPerCall([&] { frontend::parseSource(Name + ".c", Src); });
    // The analysis mutates the AST (TAC), so each timed call gets a
    // fresh parse; the parse is not inside the timed region.
    std::vector<std::unique_ptr<frontend::CompilationUnit>> Units;
    auto Fresh = [&] {
      Units.push_back(frontend::parseSource(Name + ".c", Src));
      return Units.back().get();
    };
    std::vector<double> Tac, Dag, Reuse;
    analysis::ReuseResult R;
    analysis::DAG G;
    for (int Rep = 0; Rep < 30; ++Rep) {
      frontend::CompilationUnit *CU = Fresh();
      frontend::FunctionDecl *F = CU->Ctx->tu().findFunction(Name);
      uint64_t T0 = nowNs();
      analysis::toThreeAddressCode(F, *CU->Ctx);
      uint64_t T1 = nowNs();
      G = analysis::buildDAG(F);
      uint64_t T2 = nowNs();
      analysis::MaxReuseOptions Opts;
      R = analysis::solveMaxReuse(G, Opts);
      uint64_t T3 = nowNs();
      Tac.push_back(static_cast<double>(T1 - T0));
      Dag.push_back(static_cast<double>(T2 - T1));
      Reuse.push_back(static_cast<double>(T3 - T2));
      if (Units.size() > 4)
        Units.erase(Units.begin());
    }
    TacNs += median(Tac);
    DagNs += median(Dag);
    ReuseNs += median(Reuse);
    Nodes += G.size();
    Pairs += static_cast<double>(R.Pairs.size());
    Optimal += R.Optimal;
  }
  double N = static_cast<double>(Sources.size());
  O.num("frontend.parse_us", ParseNs / N / 1e3);
  O.num("analysis.tac_us", TacNs / N / 1e3);
  O.num("analysis.dag_us", DagNs / N / 1e3);
  O.num("analysis.reuse_us", ReuseNs / N / 1e3);
  O.num("analysis.dag_nodes", Nodes / N);
  O.num("analysis.reuse_pairs", Pairs / N);
  O.num("analysis.ilp_optimal_frac", Optimal / N);
}

/// The compiler's own pass timings (no public entry point exists for
/// the rewriter and emitter alone) over the paper kernels at f64a-dspv.
void compilerPasses(const std::string &Root, JsonOut &O) {
  std::map<std::string, std::vector<double>> Pass;
  double Bytes = 0;
  for (const PaperKernel &K : paperKernels()) {
    std::string Path = Root + "/benchmarks/" + K.Name + ".c";
    std::string Src = readFile(Path);
    core::SafeGenOptions Opts;
    Opts.Config = *aa::AAConfig::parse("f64a-dspv");
    Opts.Config.K = 16;
    std::map<std::string, std::vector<double>> Mine;
    for (int Rep = 0; Rep < 40; ++Rep) {
      core::SafeGenResult R = core::compileSource(Path, Src, Opts);
      for (const core::PassTiming &P : R.PassTimings)
        Mine[P.Name].push_back(P.Seconds * 1e6);
      Bytes += static_cast<double>(R.OutputSource.size()) / 40;
    }
    for (auto &[Name, V] : Mine)
      Pass[Name].push_back(median(V));
  }
  auto Mean = [&](const char *Name) {
    double S = 0;
    for (double X : Pass[Name])
      S += X;
    return S / static_cast<double>(paperKernels().size());
  };
  O.num("core.constfold_us", Mean("const-fold"));
  O.num("core.rewrite_us", Mean("affine-rewrite"));
  O.num("core.emit_us", Mean("emit"));
  O.num("core.emit_bytes", Bytes / static_cast<double>(paperKernels().size()));
}

void tapeAndNative(const std::string &Root, JsonOut &O) {
  auto Sources = probeSources(Root);
  double CompileNs = 0, EmitNs = 0, Ops = 0, Fused = 0, Slots = 0;
  int Compiled = 0;
  for (const auto &[Name, Src] : Sources) {
    auto CU = frontend::parseSource(Name + ".c", Src);
    const frontend::FunctionDecl *F = CU->Ctx->tu().findFunction(Name);
    std::optional<core::Tape> T = core::compileToTape(F);
    if (!T)
      continue; // outside the tape subset: the tree engine runs it
    ++Compiled;
    CompileNs += nsPerCall([&] { core::compileToTape(F); }, 5'000'000);
    EmitNs += nsPerCall([&] { core::emitNativeBlock(*T); }, 5'000'000);
    Ops += static_cast<double>(T->Code.size());
    Fused += T->NumFused;
    Slots += T->NumFpSlots;
  }
  double C = std::max(1, Compiled);
  O.num("tape.compile_us", CompileNs / C / 1e3);
  O.num("native.emit_us", EmitNs / C / 1e3);
  O.num("tape.ops", Ops / C);
  O.num("tape.fused", Fused / C);
  O.num("tape.slots", Slots / C);
  O.num("tape.fallback_frac",
        1.0 - Compiled / static_cast<double>(Sources.size()));
}

void executor(const std::string &Root, unsigned Threads2, JsonOut &O) {
  aa::AAConfig Cfg = *aa::AAConfig::parse("f64a-dspn");
  Cfg.K = 16;
  std::mt19937_64 Rng(7);
  auto Time = [&](const LoadedKernel &L,
                  const std::vector<std::vector<double>> &A,
                  core::ExecEngine E, unsigned Threads) {
    core::InterpreterOptions Opts;
    Opts.Engine = E;
    auto Run = [&] {
      core::runBatchCompiled(L.tu(), L.Fn, Cfg, A, Threads, Opts);
    };
    return nsPerCall(Run, 30'000'000) / static_cast<double>(A.size());
  };
  for (const PaperKernel &K : paperKernels()) {
    LoadedKernel L = loadKernel(Root, K);
    std::vector<std::vector<double>> Args, Few;
    for (int I = 0; I < 1024; ++I)
      Args.push_back(K.Args(Rng));
    Few.assign(Args.begin(), Args.begin() + 64);
    std::string P = std::string("exec.") + K.Name;
    O.num(P + ".inst_per_s", 1e9 / Time(L, Args, core::ExecEngine::Auto, 1));
    O.num(P + ".tape_ns", Time(L, Args, core::ExecEngine::Tape, 1));
    O.num(P + ".native_ns", Time(L, Args, core::ExecEngine::Native, 1));
    O.num(P + ".tree_ns", Time(L, Few, core::ExecEngine::Tree, 1));
    if (std::string(K.Name) == "fgm") {
      std::vector<std::vector<double>> Big;
      for (int I = 0; I < 4096; ++I)
        Big.push_back(K.Args(Rng));
      double T1 = Time(L, Big, core::ExecEngine::Auto, 1);
      double T2 = Time(L, Big, core::ExecEngine::Auto, Threads2);
      O.num("pool.speedup_t2", T1 / T2);
      // Storage: the same fgm batches at k=128, dense vs group-sparse.
      aa::AAConfig Dense = Cfg, Sparse = Cfg;
      Dense.K = Sparse.K = 128;
      Sparse.Sparse = true;
      core::InterpreterOptions Opts;
      double TD = nsPerCall([&] {
        core::runBatchCompiled(L.tu(), L.Fn, Dense, Args, 1, Opts);
      });
      double TS = nsPerCall([&] {
        core::runBatchCompiled(L.tu(), L.Fn, Sparse, Args, 1, Opts);
      });
      O.num("batch.sparse_vs_dense_time", TS / TD);
    }
  }
}

/// Operand batches with a realistic spread of live symbols: a few rounds
/// of arithmetic on two seeded inputs.
struct Operands {
  aa::BatchF64 A, B;
};

Operands makeOperands(int32_t N) {
  std::mt19937_64 Rng(11);
  std::vector<double> X(N), Y(N);
  for (int32_t I = 0; I < N; ++I) {
    X[I] = std::uniform_real_distribution<double>(1.0, 2.0)(Rng);
    Y[I] = std::uniform_real_distribution<double>(1.0, 2.0)(Rng);
  }
  aa::BatchF64 A = aa::BatchF64::input(X.data());
  aa::BatchF64 B = aa::BatchF64::input(Y.data());
  for (int R = 0; R < 3; ++R) {
    aa::BatchF64 T = A * B + A;
    B = B * B - T * aa::BatchF64(0.25);
    A = T * aa::BatchF64(0.5) + B;
  }
  return {std::move(A), std::move(B)};
}

void kernels(JsonOut &O) {
  fp::RoundUpwardScope Rounding;
  const int32_t N = 1024;
  const aa::isa::Tier Active = aa::isa::activeTier();
  struct Storage {
    const char *Name;
    int K;
    bool Sparse;
  };
  for (Storage S : {Storage{"k16", 16, false}, Storage{"k128", 128, false},
                    Storage{"k128s", 128, true}}) {
    aa::AAConfig Cfg = *aa::AAConfig::parse("f64a-dspn");
    Cfg.K = S.K;
    Cfg.Sparse = S.Sparse;
    aa::BatchEnvScope Env(Cfg, N);
    Operands Ops = makeOperands(N);
    aa::BatchF64 Out;
    if (S.K == 128)
      O.num(std::string("batch.bytes_per_inst.") +
                (S.Sparse ? "sparse" : "dense"),
            static_cast<double>(Ops.A.residentBytes()) / N);
    for (auto [T, TierName] : {std::pair{Active, "active"},
                               std::pair{aa::isa::Tier::Scalar, "scalar"}}) {
      aa::isa::setTier(T);
      std::string Suffix = std::string(".") + TierName + "." + S.Name;
      O.num("kern.add_ns" + Suffix,
            nsPerCall([&] { aa::BatchF64::evalAdd(Ops.A, Ops.B, 1.0, Out); },
                      5'000'000) / N);
      O.num("kern.mul_ns" + Suffix,
            nsPerCall([&] { aa::BatchF64::evalMul(Ops.A, Ops.B, Out); },
                      5'000'000) / N);
      O.num("kern.linmap_ns" + Suffix,
            nsPerCall([&] { aa::BatchF64::evalInv(Ops.A, Out); }, 5'000'000) /
                N);
    }
    aa::isa::setTier(Active);
  }
  // The per-form kernels the generated code calls (f64a-dspv, k=16).
  aa::AAConfig Cfg = *aa::AAConfig::parse("f64a-dsnv");
  Cfg.K = 16;
  aa::AffineEnvScope Env(Cfg);
  aa::AffineContext &Ctx = aa::env().Context;
  std::mt19937_64 Rng(5);
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  aa::AffineF64Storage A, B;
  aa::ops::initExact(A, 0.75, Cfg);
  aa::ops::initExact(B, -1.25, Cfg);
  for (int S = 0; S < Cfg.K; ++S) {
    if (Rng() % 4 != 0) {
      A.Ids[S] = static_cast<aa::SymbolId>(S + 1);
      A.Coefs[S] = D(Rng) * 0x1p-20;
    }
    if (Rng() % 4 != 0) {
      B.Ids[S] = static_cast<aa::SymbolId>(S + 1 + (Rng() % 2) * Cfg.K);
      B.Coefs[S] = D(Rng) * 0x1p-20;
    }
  }
  for (int S = 0; S < 4 * Cfg.K + 8; ++S)
    Ctx.freshSymbol();
  const aa::isa::KernelTable &Tab = aa::isa::select();
  volatile double Sink = 0;
  O.num("kern.form_add_ns", nsPerCall([&] {
          Sink = Sink + Tab.FormAdd(A, B, 1.0, Cfg, Ctx).Coefs[0];
        }, 5'000'000));
  O.num("kern.form_mul_ns", nsPerCall([&] {
          Sink = Sink + Tab.FormMul(A, B, Cfg, Ctx).Coefs[0];
        }, 5'000'000));
}

void wireCodec(JsonOut &O) {
  for (uint32_t N : {1u, 64u}) {
    wire::EvalRequest Req;
    Req.SourceHash = 0x1234;
    Req.Config = "f64a-dspn";
    Req.Function = "fgm";
    Req.NumArgs = 9;
    Req.NumInstances = N;
    Req.Seeds.assign(static_cast<size_t>(N) * 9, 0.375);
    wire::EvalResponse Resp;
    Resp.RequestId = 7;
    Resp.St = wire::Status::Ok;
    Resp.Instances.resize(N);
    for (auto &I : Resp.Instances) {
      I.Success = true;
      I.Lo = 0.25;
      I.Hi = 0.2500001;
      I.CertifiedBits = 40.5;
    }
    std::string EReq = wire::encodeEvalRequest(Req);
    std::string EResp = wire::encodeEvalResponse(Resp);
    std::string Suffix = N == 1 ? ".i1" : ".i64";
    wire::EvalRequest DReq;
    wire::EvalResponse DResp;
    O.num("wire.enc_req_us" + Suffix,
          nsPerCall([&] { wire::encodeEvalRequest(Req); }, 5'000'000) / 1e3);
    O.num("wire.dec_req_us" + Suffix,
          nsPerCall([&] { wire::decodeEvalRequest(EReq, DReq); }, 5'000'000) /
              1e3);
    O.num("wire.enc_resp_us" + Suffix,
          nsPerCall([&] { wire::encodeEvalResponse(Resp); }, 5'000'000) / 1e3);
    O.num("wire.dec_resp_us" + Suffix,
          nsPerCall([&] { wire::decodeEvalResponse(EResp, DResp); },
                    5'000'000) /
              1e3);
  }
}

void kernelCache(JsonOut &O) {
  service::KernelCache Cache(64);
  core::InterpreterOptions Opts;
  std::mt19937_64 Rng(99);
  fuzz::GenOptions G;
  std::vector<double> Miss;
  service::CacheKey Hot;
  for (int I = 0; I < 32; ++I) {
    std::string Src = fuzz::renderKernel(fuzz::generateKernel(Rng, G));
    service::CacheKey Key{wire::fnv1a64(Src), "f64a-dspn/16/0/0", "f"};
    uint64_t T0 = nowNs();
    Cache.acquire(Key, &Src, Opts);
    Miss.push_back(static_cast<double>(nowNs() - T0));
    Hot = Key;
  }
  O.num("cache.miss_ms", median(Miss) / 1e6);
  O.num("cache.hit_us",
        nsPerCall([&] { Cache.acquire(Hot, nullptr, Opts); }, 5'000'000) /
            1e3);
}

} // namespace

int runProbes(const Flags &F) {
  std::string Root = F.get("root");
  JsonOut O;
  frontendAndAnalysis(Root, O);
  compilerPasses(Root, O);
  tapeAndNative(Root, O);
  executor(Root, static_cast<unsigned>(F.num("threads", 1)), O);
  kernels(O);
  wireCodec(O);
  kernelCache(O);
  std::printf("%s\n", O.done().c_str());
  return 0;
}

} // namespace pb
