//===- Workloads.h - perfbench subcommands ----------------------*- C++ -*-===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "perfbench/src/Common.h"

#include "core/BatchKernel.h"
#include "frontend/Frontend.h"

#include <memory>

namespace pb {

/// A paper kernel parsed and compiled once for batched evaluation.
struct LoadedKernel {
  const PaperKernel *K = nullptr;
  std::string Source;
  std::unique_ptr<safegen::frontend::CompilationUnit> CU;
  safegen::core::CompiledBatchFn Fn;
  const safegen::frontend::TranslationUnit &tu() const {
    return CU->Ctx->tu();
  }
};

/// parseSource + compileBatchFn (with the native block) of \p Function
/// in \p Source, each under its own span.
LoadedKernel loadSource(const std::string &Function, std::string Source);
/// loadSource on a paper kernel's probed source.
LoadedKernel loadKernel(const std::string &Root, const PaperKernel &K);

/// Throws unless every reference instance succeeded with finite bounds:
/// the inputs are chosen so that no operation fails, and a comparison
/// against a failed or non-finite reference would prove nothing.
void requireFinite(const char *Kernel,
                   const std::vector<safegen::core::BatchCallResult> &Ref);
/// Bit-identity of two bounds, modulo NaN representation (a NaN's sign
/// and payload depend on instruction order, as the fuzzer's identity
/// phases also allow).
bool sameBound(double A, double B);
/// Bit-identity of two batched results (success, both bounds).
bool sameBits(const safegen::core::BatchCallResult &A,
              const safegen::core::BatchCallResult &B);

/// One ulp outward on the lower bound: the benchmark's self-test uses it
/// to show that the reference comparison sees a single-ulp change.
void perturbOneUlp(safegen::core::BatchCallResult &R);

/// Evaluates on the tree engine — the reference oracle.
std::vector<safegen::core::BatchCallResult>
treeReference(const LoadedKernel &L, const safegen::aa::AAConfig &Cfg,
              const std::vector<std::vector<double>> &Args);

int runSvcGen(const Flags &F);
int runProbes(const Flags &F);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
