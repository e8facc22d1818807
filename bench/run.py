"""hnlslab benchmark: whole experiments through `parse_config` and
`run_experiment`, timed, checked and optionally traced per layer.

    python3 bench/run.py --workload march-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout (the package is imported from
`src/`).  One run:

1. builds the workload's configs from --seed;
2. with --trace 0, times `import hnlslab` plus `parse_config` of those
   configs in five fresh processes (setup_s, their median);
3. in one more fresh process, runs whole rounds of the workload's
   experiments until --seconds have passed (run_s, the median round;
   peak_rss_mb, that process's ru_maxrss).  With --trace 1 the rounds
   alternate between untraced and traced, and per-layer metrics come from
   the traced ones;
4. checks every output of the first round against references made apart
   from the program, and that every later round (traced or not)
   reproduces the first round's SHA-256 digests.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  --smoke runs every workload once in
shortened form, traced and untraced, with all checks.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# Pinned before numpy loads here or in any child: `hnlslab --threads`
# sets these only after numpy has loaded, so it cannot be relied on.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402  (imports numpy, after the pinning above)
from tracer import layer_metrics  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _child(args, env, timeout=CHILD_TIMEOUT_S) -> dict:
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                               *args], env=env, capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def context() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    backend = "pocketfft" if importlib.util.find_spec(
        "numpy.fft._pocketfft_umath") else "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "numpy_fft": backend,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_sha": sha}


def _check_rounds(exps, rounds, outroot) -> tuple:
    """(attempted, failures): every op of every round, the first round
    checked against the oracles, later rounds against its digests."""
    failures = []
    reference = [op["digests"] for op in rounds[0]["ops"]]
    first_ok = []
    for exp, op in zip(exps, rounds[0]["ops"]):
        msg = _op_failure(exp, op)
        if msg is None:
            msg = workloads.check_experiment(
                exp, os.path.join(outroot, "r0", exp.name))
        first_ok.append(msg is None)
        if msg:
            failures.append(f"round 0 {msg}")
    for index, rnd in enumerate(rounds[1:], start=1):
        for exp, op, ref, ok in zip(exps, rnd["ops"], reference, first_ok):
            msg = _op_failure(exp, op)
            if msg is None and op["digests"] != ref:
                msg = f"{exp.name}: digests differ from round 0"
            if msg is None and not ok:
                msg = f"{exp.name}: same outputs as the failed round 0"
            if msg:
                failures.append(f"round {index} {msg}")
    return len(rounds) * len(exps), failures


def _op_failure(exp, op):
    if op["code"] != 0:
        return f"{exp.name}: run_experiment returned {op['code']}"
    if op["status"] != exp.status:
        return f"{exp.name}: status {op['status']!r}, expected {exp.status!r}"
    if op["digests"] is None:
        return f"{exp.name}: an output does not match its manifest digest"
    return None


def run_workload(workload, seed, seconds, trace, smoke=False,
                 setup_repeats=SETUP_REPEATS) -> dict:
    exps = workloads.experiments(workload, seed, smoke)
    env = _child_env()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        configs = os.path.join(workdir, "configs.json")
        with open(configs, "w", encoding="utf-8") as handle:
            json.dump([{"name": e.name, "config": e.config} for e in exps],
                      handle)
        setups = [] if trace else [_child(["setup", configs], env)["setup_s"]
                                   for _ in range(setup_repeats)]
        outroot = os.path.join(workdir, "out")
        res = _child(["work", configs, outroot, repr(seconds),
                      "1" if trace else "0"], env)
        attempted, failures = _check_rounds(exps, res["rounds"], outroot)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r["wall_s"] for r in res["rounds"] if not r["traced"]]
    if trace:
        traced = [r["wall_s"] for r in res["rounds"] if r["traced"]]
        metrics = {name: {"value": v, "unit": u} for name, (v, u)
                   in layer_metrics(res["layers"]).items()}
        metrics["runner.import_s"] = {"value": res["import_s"], "unit": "s"}
        metrics["runner.parse_config.s"] = {"value": res["parse_s"],
                                            "unit": "s"}
        metrics["trace.run_s"] = {"value": statistics.median(traced),
                                  "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": statistics.median(plain),
                                           "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics, "failures": failures,
            "round_s": [r["wall_s"] for r in res["rounds"]]}


def _report(workload, result):
    print(f"workload {workload}: {len(result['round_s'])} rounds, "
          f"{result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    print("  round wall times (s): "
          + " ".join(f"{t:.3f}" for t in result["round_s"]))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, shortened, traced and not")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    if not os.path.isfile(os.path.join(ROOT, "src", "hnlslab", "__init__.py")):
        print(f"error: no hnlslab sources under {ROOT}/src; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    print("context: " + json.dumps(context()))
    try:
        if args.smoke:
            ok = True
            for workload in workloads.WORKLOADS:
                for trace in (0, 1):
                    result = run_workload(workload, args.seed, 0.0, trace,
                                          smoke=True, setup_repeats=1)
                    _report(f"{workload} (smoke, trace {trace})", result)
                    ok &= result["correct"]
            return 0 if ok else 1
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
