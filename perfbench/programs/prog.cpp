//===- prog.cpp - harness around one paper kernel as a host program -------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Built by run.py with the host g++, once per kernel and flavour:
///
///   sound:  -DSOUND -DGEN_FILE="<kernel>.gen.cpp"  (safegen's f64a-dspv
///           output, linked against the SafeGen runtime libraries)
///   plain:  -DKERNEL_C="benchmarks/<kernel>.c" -DKERNEL_LD="<kernel>.ld.c"
///           (the source as written, and a long double copy of it)
///
/// and always -DKERNEL_<NAME>. Usage:
///
///   prog <input-set> <reps> [ref]
///
/// Input set 0 is the fixed canonical input; others are seeded draws.
/// Problem sizes are the repository's paper harness (bench/common/
/// Measure.h): henon 75 steps, sor 10x10 with 25 sweeps, luf 20x20, fgm
/// horizon 8 with 25 iterations.
/// The program calls the kernel <reps> times on fresh copies of the
/// input (in five timed blocks), prints the median block's time per call
/// and the outputs of the last call as
/// one JSON line: sound builds print [lo, hi, bits] per output (bounds
/// in %a), plain builds print each double output in %a, or with `ref`
/// run the long double copy once and print its outputs in %La.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#ifdef SOUND
#include "aa/Runtime.h"
#include GEN_FILE
#else
namespace pd {
using std::fabs;
#include KERNEL_C
} // namespace pd
namespace pld {
using std::fabs;
#include KERNEL_LD
} // namespace pld
#endif

namespace {

/// The inputs of one call, as doubles, from the input set number.
struct Data {
  std::vector<double> V;
  explicit Data(unsigned Set, size_t Count, double Lo, double Hi) {
    std::mt19937_64 Rng(Set * 0x9E3779B97F4A7C15ull + 1);
    std::uniform_real_distribution<double> U(Lo, Hi);
    for (size_t I = 0; I < Count; ++I)
      V.push_back(Set == 0 ? Lo + (Hi - Lo) * ((I * 37 % 101) / 101.0)
                           : U(Rng));
  }
};

template <typename T> T mk(double X);
#ifdef SOUND
template <> f64a mk<f64a>(double X) { return aa_input_f64(X); }
#else
template <> double mk<double>(double X) { return X; }
template <> long double mk<long double>(double X) { return X; }
#endif

#if defined(KERNEL_HENON)
#ifndef SOUND
using pd::henon;
using pld::henon;
#endif
constexpr int Steps = 75;
template <typename T> std::vector<T> call(const Data &D) {
  T X[1] = {mk<T>(0.25 + 0.1 * D.V[0])};
  T Y[1] = {mk<T>(0.15 + 0.1 * D.V[1])};
  henon(X, Y, Steps);
  return {X[0], Y[0]};
}
constexpr size_t Inputs = 2;
#elif defined(KERNEL_SOR)
#ifndef SOUND
using pd::sor;
using pld::sor;
#endif
constexpr int N = 10;
template <typename T> std::vector<T> call(const Data &D) {
  static T G[32][32];
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      G[I][J] = mk<T>(D.V[I * N + J]);
  sor(N, mk<T>(1.25), G, 25);
  std::vector<T> Out;
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Out.push_back(G[I][J]);
  return Out;
}
constexpr size_t Inputs = N * N;
#elif defined(KERNEL_LUF)
#ifndef SOUND
using pd::luf;
using pld::luf;
#endif
constexpr int N = 20;
template <typename T> std::vector<T> call(const Data &D) {
  static T A[32][32];
  int Pivot[32] = {};
  // Diagonally dominant, so pivots stay well away from zero.
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      A[I][J] = mk<T>(D.V[I * N + J] + (I == J ? 4.0 : 0.0));
  luf(N, A, Pivot);
  std::vector<T> Out;
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Out.push_back(A[I][J]);
  return Out;
}
constexpr size_t Inputs = N * N;
#elif defined(KERNEL_FGM)
#ifndef SOUND
using pd::fgm;
using pld::fgm;
#endif
constexpr int N = 8;
template <typename T> std::vector<T> call(const Data &D) {
  // A tridiagonal MPC-style Hessian and a box the iterates stay inside.
  T H[8][8], F[8], X[8], Lb[8], Ub[8];
  for (int I = 0; I < N; ++I) {
    for (int J = 0; J < N; ++J)
      H[I][J] = mk<T>(I == J ? 2.0 : (I - J == 1 || J - I == 1) ? -0.8 : 0.0);
    F[I] = mk<T>(D.V[I] - 0.5);
    X[I] = mk<T>(0.0);
    Lb[I] = mk<T>(-4.0);
    Ub[I] = mk<T>(4.0);
  }
  fgm(N, H, F, X, Lb, Ub, mk<T>(0.25), mk<T>(0.5), 25);
  return std::vector<T>(X, X + N);
}
constexpr size_t Inputs = N;
#else
#error "define KERNEL_HENON, KERNEL_SOR, KERNEL_LUF or KERNEL_FGM"
#endif

/// Nanoseconds per call: the median of five blocks of Reps/5 calls, so a
/// stall in one block does not set the result.
template <typename T> double timeCalls(const Data &D, long Reps,
                                       std::vector<T> &Last) {
  const long PerBlock = Reps / 5 > 0 ? Reps / 5 : 1;
  double Block[5];
  for (double &B : Block) {
    auto T0 = std::chrono::steady_clock::now();
    for (long R = 0; R < PerBlock; ++R)
      Last = call<T>(D);
    auto T1 = std::chrono::steady_clock::now();
    B = std::chrono::duration<double, std::nano>(T1 - T0).count() /
        static_cast<double>(PerBlock);
  }
  std::sort(Block, Block + 5);
  return Block[2];
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3) {
    std::fprintf(stderr, "usage: %s <input-set> <reps> [ref]\n", Argv[0]);
    return 2;
  }
  Data D(static_cast<unsigned>(std::atoi(Argv[1])), Inputs, 0.0, 1.0);
  long Reps = std::atol(Argv[2]);
#ifdef SOUND
  safegen::sg::SoundScope Scope("f64a-dspv", 16);
  std::vector<f64a> Out;
  double Ns = timeCalls(D, Reps, Out);
  std::printf("{\"ns_per_call\":%.6f,\"out\":[", Ns);
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s[\"%a\",\"%a\",%.17g]", I ? "," : "", aa_lo_f64(Out[I]),
                aa_hi_f64(Out[I]), aa_bits_f64(Out[I]));
#else
  if (Argc > 3 && std::strcmp(Argv[3], "ref") == 0) {
    std::vector<long double> Out = call<long double>(D);
    std::printf("{\"ns_per_call\":0,\"out\":[");
    for (size_t I = 0; I < Out.size(); ++I)
      std::printf("%s\"%La\"", I ? "," : "", Out[I]);
  } else {
    std::vector<double> Out;
    double Ns = timeCalls(D, Reps, Out);
    std::printf("{\"ns_per_call\":%.6f,\"out\":[", Ns);
    for (size_t I = 0; I < Out.size(); ++I)
      std::printf("%s\"%a\"", I ? "," : "", Out[I]);
  }
#endif
  std::printf("]}\n");
  return 0;
}
