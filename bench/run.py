#!/usr/bin/env python3
"""Benchmark of the five samplers: accepted samples per second and LM calls
per accepted sample on each workload, plus a traced per-layer split.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload arith --seed 1 --trace 0
    python3 bench/run.py --seed 2 --out bench-a.jsonl
    python3 bench/compare.py bench-a.jsonl bench-b.jsonl

Load is one process with one thread in a closed loop: a single caller pulls
the next accepted sample from ``run``'s lazy stream as soon as the previous
one is returned.  A run is a series of rounds; a round gives each method
one episode, which builds a fresh model and checker (so no mask or chart
cache carries over) and samples until the method's number of accepts on
the workload.  A run aims at ``run_seconds`` (BENCHMARK.json) of work: the
workload's round time on a 2-core x86 machine sets how many rounds that
is.  The last line of standard output is the result as one JSON object.

Times are reported in reference seconds: every fifth of a second an
episode runs a fixed mix of work (the probe), and each of its
timings is scaled by the reference probe time over the probe times it
saw, so that the host changing speed during a run does not move the
figures.  ``bench/README.md`` says why.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "exsample").is_dir():
    sys.exit(f"no exsample sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from checks import (  # noqa: E402
    GOLDEN_DIGEST,
    digest_samples,
    distribution_failure,
    exact_conditional,
    golden_digest,
    referee_failures,
)
from exsample import (  # noqa: E402
    METHODS,
    MassExhaustedError,
    NonViablePrefixError,
    SamplerConfig,
    TrieCorruptionError,
    run,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRIE_METHODS = ("ars", "rsft", "cars")
EXACT_METHODS = ("rs", "ars", "rsft", "cars")
CAP_PER_ACCEPT = 500  # generation cap of an episode, per target accept
SETUP_REPEATS = 3  # builds timed for setup_s before each episode
PROBE_EVERY_S = 0.2  # episode time between two host-speed probes
REFERENCE_PROBE_S = 0.004  # probe time that defines one reference second


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _add(a, b):
    return a + b


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


_PROBE_CDF = np.linspace(0.0, 1.0, 8)


def probe() -> float:
    """Seconds a fixed mix of work takes: an integer loop, dict updates,
    calls and small objects, and small numpy operations, about a quarter
    of the time each, like the mix the samplers run.  It shares no code
    with the program, so it tracks the host's speed and nothing that a
    change to the program does."""
    start = time.perf_counter()
    s = 0
    for i in range(16_000):
        s += i * i % 7
    d: dict = {}
    for i in range(4_000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + 1
    for i in range(3_000):
        s = _add(s, _Cell(i).value)
    for _ in range(300):
        c = np.cumsum(_PROBE_CDF)
        c /= c[-1]
        s += int(np.searchsorted(c, 0.3))
    return time.perf_counter() - start


class Episode:
    """One method sampling to its number of accepts on a fresh build."""

    def __init__(self, workload, method, seed, tracer=None):
        self.method = method
        self.tracer = tracer
        target = workload.accepts[method]
        lm, checker = workload.build()

        lm_calls = 0
        if tracer is None:
            next_distribution = lm.next_distribution

            def counted(prefix):
                nonlocal lm_calls
                lm_calls += 1
                return next_distribution(prefix)

            lm.next_distribution = counted
        else:
            tracer.instrument(lm, checker)
        cfg = SamplerConfig(
            method=method,
            seed=seed,
            max_len=lm.max_len,
            sample_cap=CAP_PER_ACCEPT * target,
        )
        hook = None if tracer is None else tracer.trie_hook
        stream, metrics = run(lm, checker, cfg, target, trie_hook=hook)
        samples = []
        probes = []
        self.error = None
        gc.collect()
        start = time.perf_counter()
        next_probe = start + PROBE_EVERY_S / 2
        try:
            with nullcontext() if tracer is None else tracer.sampler_spans():
                for w in stream:
                    samples.append(w)
                    if time.perf_counter() >= next_probe:
                        probes.append(probe())
                        next_probe = time.perf_counter() + PROBE_EVERY_S
        except (
            TrieCorruptionError,
            MassExhaustedError,
            NonViablePrefixError,
            RuntimeError,
        ) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
        self.wall_s = time.perf_counter() - start - sum(probes)
        if not probes:
            probes.append(probe())
        # reference seconds per wall second while the episode ran
        self.speed = REFERENCE_PROBE_S * len(probes) / sum(probes)
        self.ref_s = self.wall_s * self.speed
        if self.error is None and len(samples) < target:
            self.error = f"generation cap {cfg.sample_cap} reached"
        self.accepts = len(samples)
        self.generations = metrics.generations
        self.lm_calls = lm_calls if tracer is None else tracer.count["lm"]
        # keep what the checks need, not the samples, so that the harness
        # adds little to the process's peak memory
        self.digest = digest_samples(samples)
        self.non_members = referee_failures(workload, samples)
        self.counts = Counter(samples)


def measure(workload, seed, seconds, trace):
    """The run's rounds of episodes, and the build times for ``setup_s``
    taken before each episode (in reference seconds, by a probe right
    after the builds); with ``trace`` each episode also runs traced on the
    same seed right after its untraced run.

    A run makes ``fixed_rounds(...)`` rounds, then more while ``seconds``
    allows, up to the nominal number for the workload.  Only the fixed
    rounds give the LM-call counts, and their number is the workload's,
    not a function of time, so the counts are exact for a seed, while a
    slow machine cannot stretch a run far past ``seconds``.
    """
    nominal = max(1, round(seconds / workload.round_s / (2 if trace else 1)))
    fixed = fixed_rounds(workload, trace)
    plain, traced, setup_times = [], [], []
    start = time.perf_counter()
    r = 0
    while r < fixed or (r < nominal and (time.perf_counter() - start) * (r + 1) / r <= seconds):
        for method in METHODS:
            builds = []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                workload.build()
                builds.append(time.perf_counter() - t0)
            speed = REFERENCE_PROBE_S / probe()
            setup_times += [t * speed for t in builds]
            episode_seed = seed * 10_000 + r
            plain.append(Episode(workload, method, episode_seed))
            if trace:
                traced.append(Episode(workload, method, episode_seed, Tracer()))
        r += 1
    return plain, traced, statistics.median(setup_times)


def fixed_rounds(workload, trace) -> int:
    # traced runs report no LM-call counts
    return 1 if trace else workload.counted_rounds


def check(episodes, traced, exact):
    """Correctness problems across the run, as readable lines."""
    problems = []
    for ep in episodes + traced:
        if ep.non_members:
            problems.append(f"{ep.method}: {ep.non_members} accepted samples are not members")
    if exact is not None:
        for method in EXACT_METHODS:
            counts = sum((ep.counts for ep in _per_method(episodes, method)), Counter())
            why = distribution_failure(counts, exact)
            if why:
                problems.append(f"{method}: samples do not follow P(.|L): {why}")
    for a, b in zip(episodes, traced):
        if a.digest != b.digest:
            problems.append(f"{a.method}: traced run sampled different sequences")
    return problems


def _per_method(episodes, method):
    return [ep for ep in episodes if ep.method == method]


def end_to_end(episodes, fixed):
    """Throughput over every episode; LM calls over the fixed rounds."""
    out = {}
    for m in METHODS:
        eps = _per_method(episodes, m)
        out[f"accepts_per_s.{m}"] = sum(ep.accepts for ep in eps) / sum(
            ep.ref_s for ep in eps
        )
        counted = _per_method(episodes[: fixed * len(METHODS)], m)
        out[f"lm_calls_per_accept.{m}"] = sum(ep.lm_calls for ep in counted) / max(
            1, sum(ep.accepts for ep in counted)
        )
    return out


def per_layer(plain, traced):
    def total(eps, attr, key=None):
        if key is None:
            return sum(getattr(ep, attr) for ep in eps)
        if attr in ("total", "self_time"):  # span times, in reference seconds
            return sum(getattr(ep.tracer, attr)[key] * ep.speed for ep in eps)
        return sum(getattr(ep.tracer, attr)[key] for ep in eps)

    def ratio(num, den):
        return num / den if den else 0.0

    us = 1e6
    out = {
        "lm.us_per_call": us * ratio(total(traced, "total", "lm"), total(traced, "count", "lm")),
    }
    for kind in ("first", "repeat"):
        key = f"mask_{kind}"
        out[f"constraints.mask_{kind}_us"] = us * ratio(
            total(traced, "total", key), total(traced, "count", key)
        )
    out["constraints.complete_us"] = us * ratio(
        total(traced, "total", "complete"), total(traced, "count", "complete")
    )
    trie_eps = [ep for ep in traced if ep.method in TRIE_METHODS]
    out["trie.insert_us"] = us * ratio(
        total(trie_eps, "total", "insert"), total(trie_eps, "count", "insert")
    )
    for m in METHODS:
        eps = _per_method(traced, m)
        wall = total(eps, "ref_s")
        gens = total(eps, "generations")
        masks = total(eps, "count", "mask_first") + total(eps, "count", "mask_repeat")
        mask_time = total(eps, "total", "mask_first") + total(eps, "total", "mask_repeat")
        out[f"constraints.mask_calls_per_generation.{m}"] = ratio(masks, gens)
        out[f"constraints.mask_share.{m}"] = ratio(mask_time, wall)
        draw = "gcd_sample" if m == "gcd" else "sample_one"
        tokens = sum(ep.tracer.tokens for ep in eps)
        out[f"sampler.draw_us_per_token.{m}"] = us * ratio(
            total(eps, "self_time", draw), tokens
        )
        out[f"sampler.draw_share.{m}"] = ratio(total(eps, "self_time", draw), wall)
        out[f"sampler.accept_rate.{m}"] = ratio(total(eps, "accepts"), gens)
        if m in TRIE_METHODS:
            inserts = total(eps, "count", "insert")
            out[f"trie.inserts_per_generation.{m}"] = ratio(inserts, gens)
            out[f"trie.insert_noop_share.{m}"] = ratio(
                sum(ep.tracer.noop_inserts for ep in eps), inserts
            )
            out[f"trie.insert_share.{m}"] = ratio(total(eps, "total", "insert"), wall)
            out[f"trie.nodes_final.{m}"] = statistics.median(
                ep.tracer.nodes_final for ep in eps
            )
            out[f"sampler.invalid_set_us_per_generation.{m}"] = us * ratio(
                total(eps, "total", "invalid_set"), gens
            )
    out["bench.trace_overhead"] = ratio(total(traced, "ref_s"), total(plain, "ref_s"))
    return out


def run_one(name, seed, seconds, trace, golden):
    """Measure one workload; returns (result object, problems)."""
    workload = WORKLOADS[name]()
    plain, traced, setup_s = measure(workload, seed, seconds, trace)
    # read before the checks, whose imports and oracle are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    exact = exact_conditional(workload) if workload.exact_oracle else None
    problems = check(plain, traced, exact)
    if golden:
        try:
            digest = golden_digest(ROOT)
        except Exception as exc:  # a crash of the pinned CLI run is a failed check
            problems.append(f"golden run raised {type(exc).__name__}: {exc}")
        else:
            status = "matches" if digest == GOLDEN_DIGEST else f"MOVED (pinned {GOLDEN_DIGEST})"
            print(f"golden digest {digest}: {status}")
    episodes = plain + traced
    failures = [ep for ep in episodes if ep.error]
    for ep in failures:
        print(f"failed: {ep.method}: {ep.error}")
    if trace:
        values = per_layer(plain, traced)
    else:
        values = end_to_end(plain, fixed_rounds(workload, trace))
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb

    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(declared):
        problems.append(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    rounds = len(plain) // len(METHODS)
    mode = "traced" if trace else "untraced"
    print(f"{name}, {mode}: seed {seed}, {rounds} rounds of accepts {workload.accepts}")
    host = sum(ep.ref_s for ep in plain) / sum(ep.wall_s for ep in plain)
    print(f"  host speed {host:.3f} reference s per wall s")
    metrics = {}
    for key in sorted(values):
        unit = declared.get(key, "?")
        metrics[key] = {"value": values[key], "unit": unit}
        print(f"  {key:48s} {values[key]:.6g} {unit}")
    for p in problems:
        print(f"INCORRECT: {p}")
    result = {
        "correct": not problems,
        "attempted": len(episodes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, problems


def run_all(seed, out):
    """Every workload untraced, then traced, each in a process of its own
    so that peak memory is the workload's."""
    ok = True
    for name in [w["name"] for w in _spec()["workloads"]]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--trace", str(trace),
            ]
            if out:
                cmd += ["--out", out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}")
                ok = False
            elif (result := json.loads(lines[-1]))["failed"]:
                print(f"{name}: {result['failed']}/{result['attempted']} episodes failed")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=seconds,
                        help=f"accepted only as run_seconds ({seconds:g}), so that "
                             "every run of a commit measures the same work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result as a JSON line here")
    args = parser.parse_args(argv)
    if args.seconds != seconds:
        parser.error(f"--seconds must be run_seconds from BENCHMARK.json ({seconds:g})")

    if args.workload == "all":
        return 0 if run_all(args.seed, args.out) else 1
    # only the untraced arith run makes the golden CLI run, so that the
    # command makes it once
    golden = args.workload == "arith" and not args.trace
    result, problems = run_one(args.workload, args.seed, seconds, args.trace, golden)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": seconds, "result": result}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
