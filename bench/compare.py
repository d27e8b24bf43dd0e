#!/usr/bin/env python3
"""Compare two sets of benchmark results, as written by ``run.py --out``.

    python3 bench/compare.py parent.jsonl change.jsonl

Both files must hold runs of the same seeds and run length.  For every
workload and metric it prints each side's median and quartiles, the
number of runs paired by seed, and a verdict:

  improved     the change reads better in at least nine tenths of the runs
               paired by seed, and the medians differ by more than the
               distance between the parent's quartiles
  no worse     the change's median is within the metric's bound of the
               parent's
  worse        the change's median is worse by more than the bound
  unresolved   fewer than ten runs are paired by seed; or the parent's
               own spread is wider than the bound, and not every run of
               the change reads better than every run of the parent

Per-layer metrics have no bound; with ten pairs they get "improved" or
"-".  The ``lm_calls_per_accept`` counts are exact for a seed, so any
paired seed on which they differ is listed: a pure performance change
must leave them unchanged.  The exit code is 1 when an end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # choosing-metrics: at least ten runs a side, paired
EXACT_COUNTS = "lm_calls_per_accept."


def load(path):
    """({(workload, metric): {seed: value}}, run lengths seen)"""
    out: dict = {}
    seconds = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        seconds.add(rec.get("seconds"))
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out, seconds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old: dict, new: dict, better: str, bound):
    sign = 1.0 if better == "higher" else -1.0
    o, n = list(old.values()), list(new.values())
    oq1, omed, oq3 = quartiles(o)
    nmed = statistics.median(n)
    pairs = [s for s in old if s in new]
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(sign * (new[s] - old[s]) > 0 for s in pairs)
    if wins >= 0.9 * len(pairs) and sign * (nmed - omed) > oq3 - oq1:
        return "improved"
    if bound is None:
        return "-"
    if omed and (oq3 - oq1) / abs(omed) > bound:
        if min(sign * v for v in n) > max(sign * v for v in o):
            return "improved"
        return "unresolved"
    if sign * (nmed - omed) < -bound * abs(omed):
        return "worse"
    return "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (old, old_s), (new, new_s) = load(args.parent), load(args.change)
    if len(old_s | new_s) != 1:
        parser.error(f"runs of different lengths cannot be compared: {sorted(map(str, old_s | new_s))} s")
    worse = 0
    moved = []
    print(f"{'workload':10s} {'metric':46s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} pairs  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        meta = declared.get(name, {"better": "lower", "unit": "?"})
        v = verdict(old[key], new[key], meta["better"], meta.get("bound"))
        worse += v == "worse"
        cells = []
        for side in (old[key], new[key]):
            q1, med, q3 = quartiles(list(side.values()))
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}")
        pairs = sorted(s for s in old[key] if s in new[key])
        print(f"{workload:10s} {name:46s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{len(pairs):5d}  {v}")
        if name.startswith(EXACT_COUNTS):
            seeds = [s for s in pairs if old[key][s] != new[key][s]]
            if seeds:
                moved.append(f"{workload} {name}: changed on seeds {seeds}")
    for line in moved:
        print(f"count moved: {line}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
