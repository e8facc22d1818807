"""Record and compare end-to-end benchmark runs of several checkouts.

    python3 tools/bench_record.py --checkout 31=../parent --checkout 32=. \
        --workload structured
    python3 tools/bench_record.py --compare BENCH_31.json BENCH_32.json

Recording runs `bench/run.py --workload W --trace 0` in each checkout, one
fresh process per run, PAIRS (10) times per workload at run.py's default
seed (0, written into the file).  The runs alternate between checkouts and
between workloads, and the checkout that runs first alternates from one
pair to the next, so drift in the machine's speed falls on every side
alike.  One `BENCH_<label>.json` per checkout is written to
`--out`: for each workload the median, the quartiles and the run count of
`setup_s`, `run_s` and `peak_rss_mb`, the values in run order, and the
context line (CPU, library versions, git SHA) that `run.py` printed.  A run
whose checks fail stops the recording.

Comparing prints, for each workload and metric of both files, the ratio of
the medians (second over first), in how many pairs the second was lower,
and whether the difference is resolved: a difference of medians no larger
than the first file's interquartile range is "unresolved".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("setup_s", "run_s", "peak_rss_mb")
PAIRS = 10          # the fewest alternated pairs that can show a 9/10 win
RUN_SEED = 0        # bench/run.py's default --seed, which every run takes


def summary(values) -> dict:
    """Median, quartiles (the inclusive method) and count of `values`,
    which are kept in run order."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_once(checkout, workload) -> tuple:
    """(context, metrics) of one `bench/run.py --trace 0` run in
    `checkout`; RuntimeError when it fails or its checks do."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--trace", "0"], cwd=checkout,
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} failed "
                           f"{result['failed']} of {result['attempted']} "
                           f"checks:\n{proc.stdout[-2000:]}")
    context = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("context:"))
    return context, {m: result["metrics"][m]["value"] for m in METRICS}


def record(checkouts, workloads, pairs, runner=run_once):
    """{label: BENCH record} from `pairs` runs of every workload in every
    checkout ({label: path}), alternated as the module docstring says."""
    values = {label: {w: {m: [] for m in METRICS} for w in workloads}
              for label in checkouts}
    contexts = {}
    order = list(checkouts)
    for i in range(pairs):
        for j, workload in enumerate(workloads):
            sides = order if (i + j) % 2 == 0 else order[::-1]
            for label in sides:
                context, metrics = runner(checkouts[label], workload)
                contexts.setdefault(label, context)
                for m in METRICS:
                    values[label][workload][m].append(metrics[m])
                print(f"pair {i + 1}/{pairs} {workload} {label}: "
                      + " ".join(f"{m}={metrics[m]:.4g}" for m in METRICS),
                      flush=True)
    return {label: {
        "label": label, "context": contexts[label], "seed": RUN_SEED,
        "workloads": {w: {m: summary(v) for m, v in metrics.items()}
                      for w, metrics in values[label].items()}}
        for label in checkouts}


def compare(base: dict, other: dict) -> list:
    """One line per workload and metric the two records share: the ratio
    of medians (other over base), the pairs `other` won, and "unresolved"
    when the medians differ by no more than base's interquartile range."""
    lines = []
    for workload, metrics in base["workloads"].items():
        if workload not in other["workloads"]:
            continue
        for name, a in metrics.items():
            b = other["workloads"][workload].get(name)
            if b is None:
                continue
            spread = a["q3"] - a["q1"]
            delta = b["median"] - a["median"]
            verdict = ("unresolved" if abs(delta) <= spread
                       else "lower" if delta < 0 else "higher")
            wins = sum(y < x for x, y in zip(a["values"], b["values"]))
            pairs = min(len(a["values"]), len(b["values"]))
            lines.append(
                f"{workload} {name}: {a['median']:.4g} -> "
                f"{b['median']:.4g}, ratio {b['median'] / a['median']:.3f}, "
                f"lower in {wins}/{pairs} pairs, IQR {spread:.3g}: "
                f"{verdict}")
    return lines


def _load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", default=[],
                        metavar="LABEL=PATH",
                        help="a source checkout to run, written to "
                             "BENCH_<LABEL>.json (repeatable)")
    parser.add_argument("--workload", action="append", default=[],
                        help="a workload of bench/run.py (repeatable)")
    parser.add_argument("--out", default=".",
                        help="directory of the BENCH files")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"),
                        help="compare two BENCH files and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        for line in compare(*map(_load, args.compare)):
            print(line)
        return 0
    checkouts = dict(item.split("=", 1) for item in args.checkout)
    if not checkouts or not args.workload:
        parser.error("give --checkout LABEL=PATH and --workload")
    try:
        records = record(checkouts, args.workload, PAIRS)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for label, rec in records.items():
        path = os.path.join(args.out, f"BENCH_{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rec, handle, indent=1)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
