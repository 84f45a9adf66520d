#!/usr/bin/env python3
"""End-to-end benchmark of the reaction modeling suite.

Builds the runner (perfbench/CMakeLists.txt compiles the library from src/)
and runs one workload, from model source to a checked result, in one
process:

    python3 perfbench/run.py --workload fit_tc3 --seed 1 --seconds 30 --trace 0

The last line of stdout is the result object: "correct", "attempted",
"failed" and "metrics" (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). The traced run also writes Chrome trace-event JSON and a
summary under the build directory.

Steadiness report: run one workload with N consecutive seeds and print the
median, quartiles and range of every metric, with the interquartile range as
a share of the median (the figure BENCHMARK.json's bounds are set from):

    python3 perfbench/run.py --workload fit_tc3 --seconds 30 --steadiness 10

Workloads: fit_tc3, fit_arrhenius, simulate_tc5. BENCHMARK.json lists only
the two fits: simulate_tc5 (TC5 at paper scale, whose VM streams ~30 MB of
bytecode per RHS call) runs up to twice as long when other tenants of a
shared host contend for the last-level cache, which spreads its times across
runs wider than any bound a regression gate could use. Run it by hand, on a
quiet machine, for compile-layer work at paper scale.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit_tc3", "fit_arrhenius", "simulate_tc5")
# A run (several jobs plus set-up) must end within three minutes.
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def child_env():
    """Environment of the build and of the runner: compiler temporaries
    (including the native backend's cc runs) stay inside the build
    directory."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # The workload fixes its own backend; an inherited override would only
    # make the backend check fail.
    env.pop("RMS_BACKEND", None)
    return env


def build():
    """Configures and builds the runner; returns its path or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", out, "--target", "perfbench", "-j",
                     str(os.cpu_count() or 1)]):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode != 0:
            log("build failed: " + " ".join(command))
            return None
    return os.path.join(out, "perfbench")


def compiler_version():
    try:
        result = subprocess.run(["cc", "--version"], capture_output=True, text=True)
        return result.stdout.splitlines()[0] if result.stdout else "unknown"
    except OSError:
        return "missing"


def run_once(binary, workload, seed, seconds, trace):
    """Runs the runner; returns (exit code, stdout lines)."""
    out = build_dir()
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--data-dir", os.path.join(out, "data"),
               "--cache-dir", os.path.join(out, "rms-cache"),
               "--model-dir", os.path.join(ROOT, "models_rdl"),
               "--trace-out", os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: runner exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return result.returncode, result.stdout.splitlines()


def complete_layers(line):
    """Lists every per-layer metric of BENCHMARK.json, in its order; a layer
    the workload does not exercise reads 0."""
    result = json.loads(line)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    measured = result["metrics"]
    result["metrics"] = {
        m["name"]: measured.get(m["name"], {"value": 0, "unit": m["unit"]})
        for m in per_layer}
    return json.dumps(result)


def steadiness(binary, args):
    values = {}
    units = {}
    for seed in range(args.seed, args.seed + args.steadiness):
        code, lines = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if code != 0 or not lines:
            log(f"seed {seed}: runner failed")
            return 1
        result = json.loads(complete_layers(lines[-1]) if args.trace else lines[-1])
        log(f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} " +
            " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(v):12.6g} {max(v):12.6g} {spread:8.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="run N seeds and report the spread of every metric")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    log(f"measured: cc {compiler_version()}; nproc {os.cpu_count()}")
    if args.steadiness > 0:
        return steadiness(binary, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if code == 0 and lines and args.trace:
        lines[-1] = complete_layers(lines[-1])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
