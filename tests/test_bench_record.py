"""tools/bench_record.py: the BENCH record of alternated runs, and the
"unresolved" rule of its comparison."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "bench_record.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(tool, run_s, setup_s=(0.5,) * 5):
    return {"label": "x", "context": {}, "workloads": {"structured": {
        "run_s": tool.summary(run_s), "setup_s": tool.summary(setup_s)}}}


def test_summary_keeps_median_quartiles_count_and_values(tool):
    s = tool.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (3.0, 2.0, 4.0, 5)
    assert s["values"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    one = tool.summary([7.0])
    assert (one["median"], one["q1"], one["q3"], one["n"]) == (7.0, 7.0,
                                                                7.0, 1)


def test_a_difference_inside_the_baseline_spread_is_unresolved(
        tool, tmp_path, capsys):
    # base run_s has quartiles 1.40 and 1.50 (IQR 0.10) around 1.45
    base = _bench(tool, [1.40, 1.45, 1.50, 1.40, 1.50])
    inside = _bench(tool, [1.38, 1.36, 1.37, 1.36, 1.35])    # 0.09 lower
    outside = _bench(tool, [1.30, 1.32, 1.34, 1.31, 1.33])   # 0.13 lower
    slower = _bench(tool, [1.60, 1.62, 1.58, 1.61, 1.59])    # 0.15 higher
    paths = {}
    for name, rec in (("base", base), ("inside", inside),
                      ("outside", outside), ("slower", slower)):
        paths[name] = tmp_path / f"BENCH_{name}.json"
        paths[name].write_text(json.dumps(rec), encoding="utf-8")

    def run_s_line(other):
        assert tool.main(["--compare", str(paths["base"]),
                          str(paths[other])]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2           # run_s and the unchanged setup_s
        assert lines[1].startswith("structured setup_s:")
        assert lines[1].endswith(": unresolved")
        return lines[0]

    assert run_s_line("inside").endswith("lower in 5/5 pairs, IQR 0.1: "
                                         "unresolved")
    line = run_s_line("outside")
    assert "ratio 0.910" in line and line.endswith(": lower")
    assert run_s_line("slower").endswith("lower in 0/5 pairs, IQR 0.1: "
                                         "higher")


def test_recording_alternates_which_checkout_runs_first(tool):
    calls = []

    def fake(checkout, workload):
        calls.append((checkout, workload))
        k = len(calls)
        return {"sha": checkout}, {"setup_s": 0.1 * k, "run_s": 1.0 * k,
                                   "peak_rss_mb": 40.0}

    recs = tool.record({"31": "old", "32": "new"}, ["structured", "march"],
                       2, runner=fake)
    assert calls == [("old", "structured"), ("new", "structured"),
                     ("new", "march"), ("old", "march"),
                     ("new", "structured"), ("old", "structured"),
                     ("old", "march"), ("new", "march")]
    assert recs["31"]["context"] == {"sha": "old"}
    assert recs["32"]["workloads"]["structured"]["run_s"]["values"] == [
        2.0, 5.0]
    assert recs["31"]["workloads"]["march"]["peak_rss_mb"]["n"] == 2
