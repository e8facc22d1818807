"""Fresh-process side of the benchmark; started by run.py, never imported.

    child.py setup CONFIGS
        import hnlslab, parse every config, print {"setup_s": ...}
    child.py work CONFIGS OUTROOT SECONDS TRACE
        run whole rounds of the workload's experiments until SECONDS have
        passed and print one JSON result: per-round wall times, exit codes,
        manifest statuses and recomputed digests, peak RSS, and with
        TRACE=1 per-layer span totals from rounds alternated with
        untraced ones.

CONFIGS is a JSON list of {"name", "config"}.  The thread-count variables
are set by run.py before this process starts, so numpy sees them at load.
"""

import json
import os
import resource
import shutil
import sys
from time import perf_counter


def _load(path):
    with open(path, encoding="utf-8") as handle:
        items = json.load(handle)
    return [(item["name"], json.dumps(item["config"])) for item in items]


def setup(configs_path):
    items = _load(configs_path)
    t0 = perf_counter()
    from hnlslab import runner
    for _, text in items:
        runner.parse_config(text)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def work(configs_path, outroot, seconds, trace):
    items = _load(configs_path)
    t0 = perf_counter()
    from hnlslab import runner
    import_s = perf_counter() - t0
    from oracles import CheckError, manifest_digests

    t0 = perf_counter()
    configs = [runner.parse_config(text) for _, text in items]
    parse_s = perf_counter() - t0
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    rounds = []
    layer_rounds = []
    start = perf_counter()
    while True:
        index = len(rounds)
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        dirs = [os.path.join(outroot, f"r{index}", name) for name, _ in items]
        codes = []
        t0 = perf_counter()
        for config, outdir in zip(configs, dirs):
            codes.append(runner.run_experiment(config, out_dir=outdir))
        wall = perf_counter() - t0
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.layer_totals())
            tracer.clear()
        ops = []
        for code, outdir in zip(codes, dirs):
            try:
                status, digests = manifest_digests(outdir)
            except CheckError:
                status, digests = "digest mismatch", None
            ops.append({"code": code, "status": status, "digests": digests})
        if index > 0:
            shutil.rmtree(os.path.join(outroot, f"r{index}"))
        rounds.append({"wall_s": wall, "traced": traced, "ops": ops})
        if perf_counter() - start >= seconds and (not trace or traced):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"import_s": import_s, "parse_s": parse_s,
                      "peak_rss_mb": peak_kib / 1024.0, "rounds": rounds,
                      "layers": layer_rounds}))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "work":
        work(sys.argv[2], sys.argv[3], float(sys.argv[4]),
             sys.argv[5] == "1")
    else:
        sys.exit(f"unknown mode {mode!r}")
