//===- Common.cpp - Shared pieces of the perfbench binary -----------------===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

// The unsound double kernels, compiled from the very files the compiler
// reads. They are the baseline of the batch and service slowdowns.
namespace plain {
using std::fabs;
#include "benchmarks/fgm.c"
#include "benchmarks/henon.c"
#include "benchmarks/luf.c"
#include "benchmarks/sor.c"
} // namespace plain

namespace pb {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0.0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

double peakRssMiB(int Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0.0;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
  if (!Out)
    throw std::runtime_error("cannot write " + Path);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int32_t> OpenSpans;
} // namespace

Tracer &tracer() {
  static Tracer T;
  return T;
}

int32_t currentSpan() { return OpenSpans.empty() ? -1 : OpenSpans.back(); }

int32_t Tracer::begin(const char *Name, uint32_t Req) {
  int32_t Id = record(Name, nowNs(), 0, currentSpan(), Req);
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(int32_t Id) {
  uint64_t T = nowNs();
  OpenSpans.pop_back();
  setEnd(Id, T);
}

void Tracer::setEnd(int32_t Id, uint64_t End) {
  std::lock_guard<std::mutex> L(M);
  Spans[Id].End = End;
}

int32_t Tracer::record(const char *Name, uint64_t Start, uint64_t End,
                       int32_t Parent, uint32_t Req) {
  std::lock_guard<std::mutex> L(M);
  Spans.push_back({Name, Start, End, Parent, Req});
  return static_cast<int32_t>(Spans.size() - 1);
}

void Tracer::write(const std::string &Path) {
  std::lock_guard<std::mutex> L(M);
  std::string Out;
  Out.reserve(Spans.size() * 64);
  char Buf[256];
  for (const Span &S : Spans) {
    std::snprintf(Buf, sizeof(Buf),
                  "{\"n\":\"%s\",\"s\":%llu,\"e\":%llu,\"p\":%d,\"r\":%u}\n",
                  S.Name, static_cast<unsigned long long>(S.Start),
                  static_cast<unsigned long long>(S.End), S.Parent, S.Req);
    Out += Buf;
  }
  writeFile(Path, Out);
}

//===----------------------------------------------------------------------===//
// Paper kernels
//===----------------------------------------------------------------------===//

namespace {

double uni(std::mt19937_64 &Rng, double Lo, double Hi) {
  return std::uniform_real_distribution<double>(Lo, Hi)(Rng);
}

/// A per-instance integer seed, passed to the kernel as an int argument.
double seedArg(std::mt19937_64 &Rng) {
  return static_cast<double>(Rng() % 1000000);
}

// Problem sizes of the batch and service copies. henon keeps the paper
// harness's 75 steps (bench/common/Measure.h); sor keeps its 10x10 grid
// and fgm its horizon 8, each with the fewest sweeps or iterations whose
// k=128 result carries all 128 symbols, so fusion is at work; luf is
// 5x5, so its per-instance cost on the tree engine stays within the
// others'. At the harness's own sizes (sor 25 sweeps, luf 20x20, fgm 25
// iterations) one 4096-instance batch took 3.2 s (sor), 22 s (luf) and
// 2.2 s (fgm), too long for a run to hold more than one or two of each.
// perfbench/README.md has the measurements.
constexpr int HenonSteps = 75, SorN = 10, SorIters = 2, LufN = 5, FgmN = 8,
              FgmIters = 4;

// The matrix and vector inputs are filled inside the kernel from scalar
// arguments (the batch engine gives an array parameter one number in
// every element, which would make luf factor a rank-1 matrix and sor
// relax a constant grid). Entry (i, j) is s * h(seed, i, j), h a hash in
// [0, 100]; the C expression and entryHash() must agree. The arrays are
// declared at the problem size, so an instance builds no more of them
// than the kernel reads.
#define PB_ENTRY_HASH "((seed + 131 * i + 71 * j + 37 * i * j) % 101)"
int entryHash(int Seed, int I, int J) {
  return (Seed + 131 * I + 71 * J + 37 * I * J) % 101;
}

std::string decl(const char *Type, const char *Name, int Rows, int Cols = 0) {
  return std::string("  ") + Type + " " + Name + "[" + std::to_string(Rows) +
         "]" + (Cols ? "[" + std::to_string(Cols) + "]" : "") + ";\n";
}

const char *SorParams =
    "(int n, double omega, int seed, double s, int num_iterations)";
std::string sorPrologue() {
  return decl("double", "g", SorN, SorN) +
         "  for (int i = 0; i < n; i = i + 1)\n"
         "    for (int j = 0; j < n; j = j + 1)\n"
         "      g[i][j] = s * " PB_ENTRY_HASH ";\n";
}

// Entries in [0, 1) plus d on the diagonal: far from singular, yet not
// diagonally dominant, so partial pivoting picks different rows in
// different instances.
const char *LufParams = "(int n, int seed, double s, double d)";
std::string lufPrologue() {
  return decl("double", "a", LufN, LufN) + decl("int", "pivot", LufN) +
         "  for (int i = 0; i < n; i = i + 1)\n"
         "    for (int j = 0; j < n; j = j + 1) {\n"
         "      a[i][j] = s * " PB_ENTRY_HASH ";\n"
         "      if (i == j)\n"
         "        a[i][j] = a[i][j] + d;\n"
         "    }\n";
}

// A tridiagonal MPC-style Hessian, a seeded linear term and a box that
// cuts through the unconstrained optimum, so the clamp branches of
// different components and instances go different ways.
const char *FgmParams = "(int n, int seed, double s, double c, double box, "
                        "double step, double beta, int iters)";
std::string fgmPrologue() {
  return decl("double", "H", FgmN, FgmN) + decl("double", "f", FgmN) +
         decl("double", "x", FgmN) + decl("double", "lb", FgmN) +
         decl("double", "ub", FgmN) +
         "  for (int i = 0; i < n; i = i + 1) {\n"
         "    for (int j = 0; j < n; j = j + 1) {\n"
         "      if (i == j)\n"
         "        H[i][j] = 2.0;\n"
         "      if (i - j == 1)\n"
         "        H[i][j] = -0.8;\n"
         "      if (j - i == 1)\n"
         "        H[i][j] = -0.8;\n"
         "    }\n"
         "    f[i] = s * ((seed + 131 * i) % 101) - c;\n"
         "    lb[i] = -box;\n"
         "    ub[i] = box;\n"
         "  }\n";
}

std::vector<double> henonArgs(std::mt19937_64 &R) {
  return {uni(R, 0.25, 0.35), uni(R, 0.15, 0.25), HenonSteps};
}
std::vector<double> sorArgs(std::mt19937_64 &R) {
  return {SorN, uni(R, 1.2, 1.3), seedArg(R), uni(R, 0.009, 0.011),
          SorIters};
}
std::vector<double> lufArgs(std::mt19937_64 &R) {
  return {LufN, seedArg(R), uni(R, 0.009, 0.011), uni(R, 0.1, 0.3)};
}
std::vector<double> fgmArgs(std::mt19937_64 &R) {
  return {FgmN,
          seedArg(R),
          uni(R, 0.009, 0.011),
          uni(R, 0.45, 0.55),
          uni(R, 0.25, 0.35),
          uni(R, 0.24, 0.26),
          uni(R, 0.45, 0.55),
          FgmIters};
}

double henonPlain(const std::vector<double> &A) {
  double X[1] = {A[0]}, Y[1] = {A[1]};
  plain::henon(X, Y, static_cast<int>(A[2]));
  return X[0];
}
double sorPlain(const std::vector<double> &A) {
  int N = static_cast<int>(A[0]), Seed = static_cast<int>(A[2]);
  double G[32][32] = {};
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      G[I][J] = A[3] * entryHash(Seed, I, J);
  plain::sor(N, A[1], G, static_cast<int>(A[4]));
  return G[N / 2][N / 2];
}
double lufPlain(const std::vector<double> &A) {
  int N = static_cast<int>(A[0]), Seed = static_cast<int>(A[1]);
  double M[32][32] = {};
  int Pivot[32] = {};
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      M[I][J] = A[2] * entryHash(Seed, I, J) + (I == J ? A[3] : 0.0);
  plain::luf(N, M, Pivot);
  return M[N - 1][N - 1];
}
double fgmPlain(const std::vector<double> &A) {
  int N = static_cast<int>(A[0]), Seed = static_cast<int>(A[1]);
  double H[8][8] = {}, F[8] = {}, X[8] = {}, Lb[8] = {}, Ub[8] = {};
  for (int I = 0; I < N; ++I) {
    for (int J = 0; J < N; ++J)
      H[I][J] = I == J ? 2.0 : (I - J == 1 || J - I == 1) ? -0.8 : 0.0;
    F[I] = A[2] * entryHash(Seed, I, 0) - A[3]; // h(seed, i, 0)
    Lb[I] = -A[4];
    Ub[I] = A[4];
  }
  plain::fgm(N, H, F, X, Lb, Ub, A[5], A[6], static_cast<int>(A[7]));
  return X[0];
}

} // namespace

const std::vector<PaperKernel> &paperKernels() {
  static const std::vector<PaperKernel> Ks = {
      {"henon", "", "", "x[0]", henonArgs, {0.3, 0.2, HenonSteps},
       henonPlain, 345},
      {"sor", SorParams, sorPrologue(), "g[n / 2][n / 2]", sorArgs,
       {SorN, 1.25, 12345, 0.01, SorIters}, sorPlain, 565},
      {"luf", LufParams, lufPrologue(), "a[n - 1][n - 1]", lufArgs,
       {LufN, 12345, 0.01, 0.2}, lufPlain, 300},
      {"fgm", FgmParams, fgmPrologue(), "x[0]", fgmArgs,
       {FgmN, 12345, 0.01, 0.5, 0.3, 0.25, 0.5, FgmIters}, fgmPlain, 435},
  };
  return Ks;
}

double hostRefNs() {
  static volatile double Sink = 0;
  uint64_t T0 = nowNs();
  double Acc = 0;
  for (int Rep = 0; Rep < 64; ++Rep)
    for (const PaperKernel &K : paperKernels())
      Acc += K.Plain(K.Canonical);
  Sink = Sink + Acc;
  return static_cast<double>(nowNs() - T0);
}

std::string probedSource(const std::string &Root, const PaperKernel &K) {
  std::string Src =
      readFile(Root + "/benchmarks/" + std::string(K.Name) + ".c");
  std::string Sig = "void " + std::string(K.Name) + "(";
  size_t At = Src.find(Sig);
  size_t Close = Src.rfind('}');
  size_t ParamsEnd = At == std::string::npos ? At : Src.find(')', At);
  size_t Open = ParamsEnd == std::string::npos ? ParamsEnd
                                                : Src.find('{', ParamsEnd);
  if (Open == std::string::npos || Close == std::string::npos)
    throw std::runtime_error(std::string("unexpected layout of ") + K.Name);
  Src.insert(Close, "  return " + std::string(K.Probe) + ";\n");
  Src.insert(Open + 1, "\n" + K.Prologue);
  if (!K.Params.empty()) {
    size_t ParamsAt = At + Sig.size() - 1;
    Src.replace(ParamsAt, ParamsEnd + 1 - ParamsAt, K.Params);
  }
  Src.replace(At, 4, "double");
  return Src;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      O += Buf;
    } else {
      O += C;
    }
  }
  return O;
}

std::string jsonNums(const std::vector<double> &V) {
  std::string O = "[";
  char Buf[40];
  for (size_t I = 0; I < V.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.17g", I ? "," : "", V[I]);
    O += Buf;
  }
  return O + "]";
}

void JsonOut::sep() {
  if (!Body.empty())
    Body += ",";
}

void JsonOut::num(const std::string &Key, double V) {
  // A non-finite figure means a measurement went wrong; printing it as a
  // number (0, say) would pass a broken run off as a good one.
  if (!std::isfinite(V))
    throw std::runtime_error("metric " + Key + " is not finite");
  sep();
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Body += "\"" + jsonEscape(Key) + "\":" + Buf;
}

void JsonOut::str(const std::string &Key, const std::string &V) {
  sep();
  Body += "\"" + jsonEscape(Key) + "\":\"" + jsonEscape(V) + "\"";
}

void JsonOut::raw(const std::string &Key, const std::string &Json) {
  sep();
  Body += "\"" + jsonEscape(Key) + "\":" + Json;
}

std::string Flags::get(const std::string &K, const std::string &D) const {
  auto It = KV.find(K);
  return It == KV.end() ? D : It->second;
}

double Flags::num(const std::string &K, double D) const {
  auto It = KV.find(K);
  return It == KV.end() ? D : std::atof(It->second.c_str());
}

Flags parseFlags(int Argc, char **Argv, int First) {
  Flags F;
  for (int I = First; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected argument " + A);
    A = A.substr(2);
    if (I + 1 < Argc && std::strncmp(Argv[I + 1], "--", 2) != 0)
      F.KV[A] = Argv[++I];
    else
      F.KV[A] = "1";
  }
  return F;
}

} // namespace pb
