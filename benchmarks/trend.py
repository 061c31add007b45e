"""Trend reader: the recorded parent/change comparisons of every benchmark file.

For each file (by default every BENCH_*.json next to this script) and each
run labelled "parent ...", it prints per case the ratio of the run recorded
right after that parent run to the parent run: the later run's seconds over
the parent's.  A ratio below 1 means the run after the parent (the change)
was faster.  Cases that time several stages (`bench_layers.py`'s "seconds"
dicts) get one ratio per stage present in both runs.  `bench_search.py` and
`bench_layers.py` now record counts only, so a case that either run records
without seconds gets no ratio; their timed history still prints.

A parent run is recorded as a pair with the run right after it only when
that run is not itself a "parent ..." run.  A comparison with another parent
run, or a parent run that is the last run of its file, is marked UNPAIRED:
separate runs drift on a shared host, so such a ratio is no measurement of
one change.

BENCH_ab.json holds in-process comparisons (`bench_ab.py`), each of which is
already a pair; its recorded median ratio, quartiles, wins and A/A
calibration are printed as they are.

Usage (from the root of the checkout):
    python benchmarks/trend.py [FILE ...]
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _is_parent(run):
    return run["label"].startswith("parent")


def _cases(run):
    """{case name: case record} of a run of any of the benchmark files."""
    records = run.get("cases", run.get("tori", []))
    return {c.get("case", c.get("torus")): c for c in records}


def _ratios(parent, after):
    """after / parent for the case's seconds, or per stage both records time;
    None when either record has no seconds (a counts-only run)."""
    if "seconds" not in parent or "seconds" not in after:
        return None
    a, b = parent["seconds"], after["seconds"]
    if not isinstance(a, dict):
        return f"{b / a:.3f}" if a else ""
    return "  ".join(f"{stage} {b[stage] / a[stage]:.3f}"
                     for stage in a if a[stage] and stage in b)


def _quartiles(q):
    return f"{q['median']:.3f} ({q['q1']:.3f}-{q['q3']:.3f})"


def print_ab(runs):
    for run in runs:
        print(f"  {run['label']}  (in process, parent {run['parent'][:7]})")
        for case in run["cases"]:
            ratio = case["ratio"]
            print(f"    {case['case']}: {_quartiles(ratio)}, wins {ratio['wins']}/"
                  f"{case['rounds']}; A/A {_quartiles(case['aa'])}")


def print_pairs(runs):
    for k, parent in enumerate(runs):
        if not _is_parent(parent):
            continue
        if k + 1 == len(runs):
            print(f"  {parent['label']}  UNPAIRED: no run after it")
            continue
        after = runs[k + 1]
        mark = "  UNPAIRED: the run after it is another parent run" if _is_parent(after) else ""
        print(f"  {parent['label']}\n    -> {after['label']}{mark}")
        cases = _cases(after)
        for name, record in _cases(parent).items():
            ratios = _ratios(record, cases[name]) if name in cases else None
            if ratios is not None:
                print(f"    {name}: {ratios}")


def main(paths):
    for path in paths or sorted(glob.glob(os.path.join(HERE, "BENCH_*.json"))):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
        print(os.path.basename(path))
        if any("ratio" in case for run in runs for case in _cases(run).values()):
            print_ab(runs)
        else:
            print_pairs(runs)


if __name__ == "__main__":
    main(sys.argv[1:])
