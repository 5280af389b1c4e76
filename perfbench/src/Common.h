//===- Common.h - Shared pieces of the perfbench binary ---------*- C++ -*-===//
//
// Part of the SafeGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing, the span recorder of the traced run, the paper-kernel table
/// (argument generators, scalar return probes and the plain double
/// kernels) and a tiny JSON writer. perfbench reaches SafeGen only
/// through its public entry points.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace pb {

uint64_t nowNs();
double median(std::vector<double> V);
/// Linear-interpolated quantile, Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// Peak resident set (VmHWM) of process \p Pid (0: this process), in MiB.
double peakRssMiB(int Pid = 0);
std::string readFile(const std::string &Path);
void writeFile(const std::string &Path, const std::string &Data);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One span of the traced run. Name is a string literal; the layer is
/// the part of the name before the first '.'.
struct Span {
  const char *Name;
  uint64_t Start, End;
  int32_t Parent; ///< index of the enclosing span, -1 for a root
  uint32_t Req;   ///< request id (0 outside the service workload)
};

/// In-memory span store, written out once when the run ends. Disabled
/// (every call a no-op) in untraced runs.
class Tracer {
public:
  bool Enabled = false;
  /// Opens a span on the calling thread's stack; returns its index.
  int32_t begin(const char *Name, uint32_t Req = 0);
  void end(int32_t Id);
  /// Records a span with explicit times and parent; an End of 0 is
  /// filled in later by setEnd().
  int32_t record(const char *Name, uint64_t Start, uint64_t End,
                 int32_t Parent, uint32_t Req = 0);
  void setEnd(int32_t Id, uint64_t End);
  /// Writes all spans as JSON lines.
  void write(const std::string &Path);

private:
  std::mutex M;
  std::vector<Span> Spans;
};

Tracer &tracer();

/// RAII span on the calling thread.
class SpanScope {
public:
  explicit SpanScope(const char *Name, uint32_t Req = 0)
      : Id(tracer().Enabled ? tracer().begin(Name, Req) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      tracer().end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int32_t Id;
};

/// Index of the innermost open span on this thread (-1 if none).
int32_t currentSpan();

//===----------------------------------------------------------------------===//
// Paper kernels
//===----------------------------------------------------------------------===//

/// One of benchmarks/{henon,sor,luf,fgm}.c as the batch engine and the
/// service run it. The batch engine passes each instance one number per
/// parameter and fills an array parameter with it, and a batched run
/// reports only the scalar return. So a copy of the source gets scalar
/// parameters (Params) and a prologue that declares the kernel's arrays
/// and fills them from those scalars (Prologue), and ends with
/// `return <Probe>;` (one output element) so results carry a checkable
/// enclosure. The loops and arithmetic of the kernel are unchanged.
struct PaperKernel {
  const char *Name;
  /// Replacement parameter list, or empty to keep the original one.
  std::string Params;
  std::string Prologue;
  const char *Probe;
  /// Seeded per-instance arguments. Sizes and trip counts are fixed;
  /// only values vary, so every seed does the same work.
  std::vector<double> (*Args)(std::mt19937_64 &Rng);
  /// Fixed arguments for the certified-bits metric.
  std::vector<double> Canonical;
  /// The unsound double kernel on the same inputs; returns the probe.
  double (*Plain)(const std::vector<double> &Args);
  /// Plain's time per seeded instance on the reference host at the
  /// reference speed (see RefNominalNs), fixed once like it: the
  /// denominator of the batch workloads' slowdowns.
  double PlainNominalNs;
};

const std::vector<PaperKernel> &paperKernels();
/// Host-speed reference: nanoseconds for a fixed pass of the four plain
/// double kernels on their canonical arguments (~110 us).
double hostRefNs();
/// hostRefNs() on the reference host. The host's effective speed drifts
/// by 20-40% over minutes under other tenants' load, and the plain
/// kernels drift with SafeGen's own code; so every end-to-end time is
/// paired with a reference pass measured right after it and reported at
/// the reference speed: t * RefNominalNs / hostRefNs().
constexpr double RefNominalNs = 110000.0;
/// The kernel's source (read from <Root>/benchmarks) with the scalar
/// parameters, the prologue and the probe, returning double.
std::string probedSource(const std::string &Root, const PaperKernel &K);

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Flat JSON object writer for the result lines.
class JsonOut {
public:
  void num(const std::string &Key, double V);
  void str(const std::string &Key, const std::string &V);
  void raw(const std::string &Key, const std::string &Json);
  std::string done() const { return "{" + Body + "}"; }

private:
  void sep();
  std::string Body;
};

std::string jsonEscape(const std::string &S);
std::string jsonNums(const std::vector<double> &V);

/// Command-line flags of one subcommand: --key value pairs and bare
/// --flags.
struct Flags {
  std::map<std::string, std::string> KV;
  bool has(const std::string &K) const { return KV.count(K) != 0; }
  std::string get(const std::string &K, const std::string &D = "") const;
  double num(const std::string &K, double D) const;
};
Flags parseFlags(int Argc, char **Argv, int First);

} // namespace pb

#endif // PERFBENCH_COMMON_H
