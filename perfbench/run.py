#!/usr/bin/env python3
"""SafeGen's benchmark: one command, three workloads, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a SafeGen checkout. It builds the libraries,
safegend and the perfbench binary from source into .bench_build/ (first
run only; later runs are incremental), measures the host, runs the
workload and prints, as the last line of stdout, an object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. A wrong result
prints correct=false and exits 1. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
PERFBENCH = os.path.join(BUILD, "perfbench")
SAFEGEND = os.path.join(BUILD, "safegen", "service", "safegend")
LIBS = [os.path.join(BUILD, "safegen", d, f"libsafegen_{d}.a")
        for d in ("aa", "ia", "support")]

WORKLOADS = ["paper-e2e", "batch-dense", "batch-largek"]
KERNELS = ["henon", "sor", "luf", "fgm"]
# Calls per program run (sound, plain): about 20 ms each on the reference
# host, so a run is dominated by the kernel, not by process start-up.
REPS = {"henon": (200, 60000), "sor": (5, 8000), "luf": (5, 5000),
        "fgm": (10, 18000)}
INPUT_SETS = 5  # the canonical input of cert_bits and four seeded ones
SETUPS = 3      # paper-e2e set-ups per run; setup_s is their median
# trace.unattributed_frac above this means spans miss part of the work.
UNATTRIBUTED_TOLERANCE = 0.10
LAYERS = ["frontend", "analysis", "core", "exec", "aa", "host", "bench"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """A wrong result: the run reports correct=false."""


def run(cmd, timeout=170, **kw):
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout, **kw)


def last_json(proc, what):
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode == 3 and lines:
        sys.stderr.write(proc.stderr)
        raise Failure(f"{what}: wrong result")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{what} exited with {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- build

def build(jobs):
    sources = [os.path.join(ROOT, "src", "CMakeLists.txt")] + [
        os.path.join(ROOT, "benchmarks", f"{k}.c") for k in KERNELS]
    missing = [s for s in sources if not os.path.exists(s)]
    if missing:
        log(f"not a SafeGen checkout (missing "
            f"{os.path.relpath(missing[0], ROOT)})")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    with open(logf, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            f"-DSAFEGEN_ROOT={ROOT}"], check=True,
                           stdout=out, stderr=subprocess.STDOUT)
        r = subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs),
                            "--target", "perfbench", "safegend"],
                           stdout=out, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        with open(logf) as f:
            sys.stderr.write(f.read()[-4000:])
        log("build failed")
        sys.exit(2)


# ---------------------------------------------------------------- host

def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_fingerprint():
    nproc = len(os.sched_getaffinity(0))
    cal = last_json(run([PERFBENCH, "calibrate", "--max-threads",
                         str(nproc)]), "calibrate")
    model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    gxx = run(["g++", "--version"]).stdout.splitlines()
    # Thread and job counts never exceed the measured capacity.
    cap = max(1, min(nproc, round(cal["capacity"])))
    return {"cpu": model, "nproc": nproc,
            "l2": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
            "tier": cal["tier"], "compiler": gxx[0] if gxx else "",
            "capacity": round(cal["capacity"], 3), "threads": cap,
            "speed": round(cal["host_speed"], 3)}


def host_speed():
    """The host's speed relative to the reference host: calibrate's
    reference passes without the capacity measurement (~10 ms)."""
    return last_json(run([PERFBENCH, "calibrate", "--max-threads", "1"]),
                     "calibrate")["host_speed"]


# ---------------------------------------------------------------- paper-e2e

def parse_hex(s):
    """Exact value of a C hex float (%a or %La) as a Fraction."""
    m = re.fullmatch(r"(-?)0x([0-9a-f]+)(?:\.([0-9a-f]*))?p([+-]?\d+)",
                     s.strip().lower())
    if not m:
        raise Failure(f"unparsable bound {s!r}")
    frac = m.group(3) or ""
    v = Fraction(int(m.group(2) + frac, 16), 16 ** len(frac))
    v *= Fraction(2) ** int(m.group(4))
    return -v if m.group(1) else v


def build_program(kernel, sound, work):
    exe = os.path.join(work, f"{kernel}.{'sound' if sound else 'plain'}")
    flags = ["g++", "-std=c++20", "-O2", "-ffp-contract=off",
             f"-DKERNEL_{kernel.upper()}", f"-I{work}",
             os.path.join(HERE, "programs", "prog.cpp"), "-o", exe]
    if sound:
        flags += ["-frounding-math", f"-I{os.path.join(ROOT, 'src')}",
                  "-DSOUND", f'-DGEN_FILE="{kernel}.gen.cpp"'] + LIBS + [
                      "-lpthread"]
    else:
        flags += [f'-DKERNEL_C="{os.path.join(ROOT, "benchmarks", kernel)}.c"',
                  f'-DKERNEL_LD="{kernel}.ld.c"']
    r = run(flags)
    return exe if r.returncode == 0 else None, r.stderr


def run_program(exe, input_set, reps, *extra):
    r = run([exe, str(input_set), str(reps), *extra], timeout=60)
    if r.returncode != 0:
        raise Failure(f"{os.path.basename(exe)} exited with {r.returncode}")
    return json.loads(r.stdout)


class Programs:
    """The generated programs of paper-e2e: set-up builds them and records
    reference outputs; each later run is checked against those."""

    def __init__(self, host, seed, perturb=False):
        self.host = host
        self.perturb = perturb
        # Input set 0 is the canonical input; the others are drawn from
        # the seed (prog.cpp seeds its generator with the set number).
        self.sets = [0] + [seed * INPUT_SETS + j for j in range(1, INPUT_SETS)]

    def setup(self):
        work = WORK
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        last_json(run([PERFBENCH, "emit", "--root", ROOT, "--out", work]),
                  "emit")
        for k in KERNELS:
            with open(os.path.join(ROOT, "benchmarks", f"{k}.c")) as f:
                src = f.read()
            with open(os.path.join(work, f"{k}.ld.c"), "w") as f:
                f.write(re.sub(r"\bdouble\b", "long double", src))
        jobs = [(k, s) for k in KERNELS for s in (True, False)]
        # One g++ per CPU, not per measured core: oversubscription only
        # stretches the builds, while a job count that follows the noisy
        # capacity reading would make setup_s jump between runs.
        with ThreadPoolExecutor(self.host["nproc"]) as pool:
            built = list(pool.map(lambda j: build_program(j[0], j[1], work),
                                  jobs))
        self.sound, self.plain, self.build_errors = {}, {}, {}
        for (k, s), (exe, err) in zip(jobs, built):
            if exe:
                (self.sound if s else self.plain)[k] = exe
            elif s:
                first = next((l for l in err.splitlines() if "error" in l),
                             err[:200])
                self.build_errors[k] = first.strip()
            else:
                raise RuntimeError(f"plain {k} does not build: {err[-2000:]}")
        # References: long double outputs and the outputs of every input
        # set; later runs must reproduce the latter bit for bit. They are
        # recorded with the measured runs' call counts: a sound program
        # prints the last of its calls, and the symbols earlier calls
        # created can change that call's bounds (soundly).
        self.ld, self.ref_sound, self.ref_plain = {}, {}, {}
        for k in self.sound:
            for s in self.sets:
                ld = run_program(self.plain[k], s, 1, "ref")["out"]
                self.ld[k, s] = [parse_hex(x) for x in ld]
                out = run_program(self.sound[k], s, REPS[k][0])["out"]
                self.check_enclosures(k, s, out)
                self.ref_sound[k, s] = out
                self.ref_plain[k, s] = run_program(self.plain[k], s,
                                                   REPS[k][1])["out"]
        if self.perturb and self.sound:
            first = self.ref_sound[sorted(self.sound)[0], 0][0]
            first[0] = float.hex(math.nextafter(float.fromhex(first[0]),
                                                -math.inf))

    def check_enclosures(self, k, s, out):
        for (lo, hi, _), ref in zip(out, self.ld[k, s]):
            if not parse_hex(lo) <= ref <= parse_hex(hi):
                raise Failure(f"{k} set {s}: [{lo}, {hi}] misses the long "
                              f"double result")

    def cert_bits(self, k):
        out = self.ref_sound[k, 0]
        return sum(b for _, _, b in out) / len(out)

    def measure(self, seconds, trace=None):
        """Interleaved sound/plain runs until `seconds` pass, over every
        kernel whose sound program built. Returns per-kernel lists of ns
        per call and the number of runs. A kernel whose program did not
        build has no run to attempt: set-up names it, and its turn is
        skipped. With a span list, records a root span over
        the loop, one span per program run and, inside it, the kernel
        time the program reports."""
        times = {k: ([], []) for k in self.sound}
        runs = 0
        if trace is not None:
            root = len(trace)
            trace.append(["run.window", time.monotonic_ns(), 0, None])
        end = time.monotonic() + seconds
        i = 0
        while time.monotonic() < end and self.sound:
            k = KERNELS[i % len(KERNELS)]
            s = self.sets[(i // len(KERNELS)) % INPUT_SETS]
            i += 1
            if k not in self.sound:
                continue
            for sound in (True, False):
                exe = self.sound[k] if sound else self.plain[k]
                reps = REPS[k][0 if sound else 1]
                t0 = time.monotonic_ns()
                res = run_program(exe, s, reps)
                t1 = time.monotonic_ns()
                runs += 1
                want = (self.ref_sound if sound else self.ref_plain)[k, s]
                if res["out"] != want:
                    raise Failure(f"{os.path.basename(exe)} set {s}: outputs "
                                  f"differ from the set-up reference")
                times[k][0 if sound else 1].append(res["ns_per_call"])
                if trace is not None:
                    inner = int(res["ns_per_call"] * (reps // 5 * 5 or 5))
                    name = "aa.sound_kernel" if sound else "host.double_kernel"
                    trace.append(["bench.program", t0, t1, root])
                    trace.append([name, t1 - inner, t1, len(trace) - 1])
        if trace is not None:
            trace[root][2] = time.monotonic_ns()
        return times, runs


def paper_e2e(args, host, result, state):
    progs = Programs(host, args.seed, perturb=args.perturb_ref)
    state["programs"] = progs
    setup = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.monotonic()
        progs.setup()
        # At the reference speed, like every other time: the raw set-up
        # time drops from ~6.2 s to ~4.0 s while the host runs half again
        # as fast, which it does for minutes at a time.
        setup.append((time.monotonic() - t0) * host_speed())
    for k, err in sorted(progs.build_errors.items()):
        log(f"generated f64a-dspv program for {k} does not build: {err}")
    m = result["metrics"]
    if args.trace:
        spans = []
        comp = compile_set(args, args.seconds * 0.4, traced=True, spans=spans)
        _, runs = progs.measure(args.seconds * 0.6, trace=spans)
        result["attempted"] += comp["attempted"] + runs
        result["failed"] += comp["failed"]
        finish_trace(result, spans, comp.get("trace.overhead_frac", 0.0))
        return
    comp = compile_set(args, args.seconds * 0.4)
    times, runs = progs.measure(args.seconds * 0.6)
    result["attempted"] += comp["attempted"] + runs
    result["failed"] += comp["failed"]
    m["setup_s"] = statistics.median(setup)
    log_speed(comp)
    m.update(comp)
    for k, (sound, plain) in times.items():
        # Sound and plain runs alternate, so both medians see the same
        # host. Their ratio is steadier than the median of the pairs'
        # ratios: a double run's time alone swings with the turbo state.
        m[f"slowdown.{k}"] = statistics.median(sound) / statistics.median(
            plain)
        m[f"cert_bits.{k}"] = progs.cert_bits(k)


def compile_set(args, seconds, traced=False, spans=None):
    cmd = [PERFBENCH, "compile", "--root", ROOT, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    tf = os.path.join(WORK, "compile.trace")
    if traced:
        cmd += ["--trace-out", tf]
    out = last_json(run(cmd), "compile set")
    if traced:
        spans.extend(read_trace(tf, len(spans)))
    return out


# ---------------------------------------------------------------- batch

def batch(args, result, mode):
    cmd = [PERFBENCH, "batch", "--root", ROOT, "--mode", mode, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.perturb_ref:
        cmd.append("--perturb-ref")
    if args.trace:
        tf = os.path.join(WORK, "batch.trace")
        out = last_json(run(cmd + ["--trace-out", tf]), "batch")
        finish_trace(result, read_trace(tf, 0), out["trace.overhead_frac"])
    else:
        out = last_json(run(cmd), "batch")
        log_speed(out)
        result["metrics"].update(out)
    result["attempted"] += int(out["attempted"])
    result["failed"] += int(out["failed"])


def log_speed(out):
    log(f"host speed {out['host_speed']:.3f} of the reference (times are "
        f"reported at the reference speed)")


# ---------------------------------------------------------------- service

class Daemon:
    """safegend as a child process on a Unix socket in the work dir."""

    def __init__(self, threads):
        self.dir = os.path.join(ROOT, ".bench_build", "run")
        os.makedirs(self.dir, exist_ok=True)
        self.sock = "safegend.sock"
        path = os.path.join(self.dir, self.sock)
        if os.path.exists(path):
            os.unlink(path)
        with open(os.path.join(self.dir, "safegend.log"), "w") as err:
            self.proc = subprocess.Popen(
                [SAFEGEND, "--socket", self.sock, "--threads", str(threads)],
                cwd=self.dir, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("safegend exited; see " +
                                   os.path.join(self.dir, "safegend.log"))
            try:
                with socket.socket(socket.AF_UNIX) as s:
                    s.connect(path)
                return
            except OSError:
                time.sleep(0.005)
        self.stop()
        raise RuntimeError("safegend did not start")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def service_probe(args, host, result):
    """The service-mix traffic against a fresh safegend, folded into the
    per-layer svc.* metrics. Its requests count in attempted, and the
    failed, Busy and Error ones in failed, except the Busy or unanswered
    ones of the max-rate search, which overloads the daemon on purpose."""
    m = result["metrics"]
    threads = min(2, host["threads"])
    d = Daemon(threads)
    try:
        out = last_json(run([PERFBENCH, "svc-gen", "--root", ROOT, "--socket",
                             d.sock, "--seed", str(args.seed), "--seconds", "6",
                             "--conns", str(threads), "--daemon-pid",
                             str(d.proc.pid)], cwd=d.dir), "svc-gen")
    finally:
        d.stop()
    for key, value in out.items():
        if key.startswith("svc."):
            m[key] = value
    result["attempted"] += int(out["attempted"])
    result["failed"] += int(out["failed"])
    # What queueing and transport leave of a 1-instance round trip: its
    # p50 minus client and server wire work and a standalone evaluation
    # of the same request (the probes' per-instance tape time).
    wire_us = (m["wire.enc_req_us.i1"] + m["wire.dec_req_us.i1"] +
               m["wire.enc_resp_us.i1"] + m["wire.dec_resp_us.i1"])
    eval_us = statistics.median(
        [m[f"exec.{k}.tape_ns"] for k in KERNELS]) / 1e3
    m["svc.residual_us"] = m.pop("svc.one_lat_us") - wire_us - eval_us


# ---------------------------------------------------------------- tracing

def read_trace(path, offset):
    """Spans from a perfbench trace file, parents re-based by offset."""
    spans = []
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            parent = s["p"] + offset if s["p"] >= 0 else None
            spans.append((s["n"], s["s"], s["e"], parent))
    return spans


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = {}
    for i, (_, _, _, p) in enumerate(spans):
        if p is not None:
            children.setdefault(p, []).append(i)
    out = []
    for i, (_, s, e, _) in enumerate(spans):
        covered, cur_s, cur_e = 0, None, None
        for c in sorted(children.get(i, []), key=lambda c: spans[c][1]):
            cs, ce = max(spans[c][1], s), min(spans[c][2], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(max(0, e - s - covered))
    return out


def finish_trace(result, spans, overhead):
    """Per-layer self-time shares of the traced window and the
    reconciliation against the end-to-end (root) time."""
    m = result["metrics"]
    selfs = self_times(spans)
    roots = [i for i, sp in enumerate(spans) if sp[3] is None]
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    by_layer = {layer: 0 for layer in LAYERS}
    for i, (name, _, _, parent) in enumerate(spans):
        if parent is None:
            continue
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + selfs[i]
    unattributed = sum(selfs[i] for i in roots)
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer[layer] / total if total else 0.0
    m["trace.unattributed_frac"] = unattributed / total if total else 0.0
    m["trace.overhead_frac"] = overhead
    m["trace.spans"] = float(len(spans))
    if total and unattributed / total > UNATTRIBUTED_TOLERANCE:
        log(f"reconciliation: {unattributed / total:.3f} of the traced time "
            f"is in no layer (tolerance {UNATTRIBUTED_TOLERANCE})")
    log("reconciliation: layers " + ", ".join(
        f"{l} {by_layer[l] / total:.3f}" for l in LAYERS if by_layer[l]) +
        f"; unattributed {unattributed / total:.3f} of {total / 1e9:.3f} s")


def probes(args, host, result, state):
    """The per-layer probe suite, the same on every workload."""
    out = last_json(run([PERFBENCH, "probes", "--root", ROOT, "--threads",
                         str(min(2, host["threads"]))]), "probes")
    m = result["metrics"]
    m.update(out)
    m["host.capacity"] = host["capacity"]
    m["host.speed"] = host["speed"]
    service_probe(args, host, result)
    progs = state.get("programs")
    if progs is None:
        progs = Programs(host, args.seed)
        progs.setup()
    m["gen.build_failures"] = float(len(progs.build_errors))
    times, _ = progs.measure(2.0)
    for k in ("henon", "fgm"):
        sound, plain = times.get(k, ([], []))
        if not sound:
            raise Failure(f"generated program for {k} did not run")
        m[f"gen.{k}.sound_us"] = statistics.median(sound) / 1e3
        m[f"gen.{k}.double_us"] = statistics.median(plain) / 1e3


# ---------------------------------------------------------------- main

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main_run(args):
    spec = load_spec()
    nproc = len(os.sched_getaffinity(0))
    # Compilers and tools write their temporaries inside the checkout.
    os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    build(nproc)
    host = host_fingerprint()
    print("# host " + json.dumps(host), flush=True)
    os.makedirs(WORK, exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    state = {}
    try:
        if args.workload == "paper-e2e":
            paper_e2e(args, host, result, state)
        else:
            batch(args, result, args.workload.split("-")[1])
        if args.trace:
            probes(args, host, result, state)
    except Failure as e:
        log(f"wrong result: {e}")
        result["correct"] = False
        result["failed"] = max(1, result["failed"])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    if result["correct"]:
        missing = [n for n in units if n not in result["metrics"]]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
    result["metrics"] = {
        n: {"value": float(result["metrics"][n]), "unit": units[n]}
        for n in units if n in result["metrics"]}
    result["attempted"] = max(1, result["attempted"])
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def selftest():
    """A short run of every workload, both modes: every metric named in
    BENCHMARK.json is printed with its unit, and a one-ulp change to one
    reference bound makes the command fail."""
    spec = load_spec()
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run([sys.executable, __file__, "--workload", w, "--seed", "1",
                     "--seconds", "2", "--trace", str(trace)], timeout=600,
                    cwd=ROOT)
            res = json.loads(r.stdout.splitlines()[-1]) if r.stdout else {}
            got = res.get("metrics", {})
            bad = [m["name"] for m in spec[kind]
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
            if r.returncode != 0 or bad or not res.get("correct"):
                ok = False
                print(f"FAIL {w} trace={trace}: exit {r.returncode}, "
                      f"missing {bad}\n{r.stderr[-2000:]}")
            else:
                print(f"ok   {w} trace={trace}: {len(got)} metrics")
        r = run([sys.executable, __file__, "--workload", w, "--seed", "1",
                 "--seconds", "2", "--trace", "0", "--perturb-ref"],
                timeout=600, cwd=ROOT)
        if r.returncode == 0:
            ok = False
            print(f"FAIL {w}: a one-ulp change to a reference bound passed")
        else:
            print(f"ok   {w}: a one-ulp change to a reference bound fails")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    # Self-test only: shift one reference bound by one ulp.
    p.add_argument("--perturb-ref", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
