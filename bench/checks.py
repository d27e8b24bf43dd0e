"""Correctness checks the benchmark fails on, and the golden digest it
reports.

- every accepted sample passes the workload's own membership referee;
- on an instance the oracle can enumerate, the samples of each exact
  method pass a chi-square test and a total-variation bound against the
  exact conditional;
- the golden digest pins the bytes ``exsample run`` writes for the arith
  fixture.  A mismatch is reported, not failed: a change may move those
  bits if it says why.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from collections import Counter
from pathlib import Path

from exsample import condition, enumerate_lm
from exsample.cli import main as exsample_main

# SHA-256 over the sorted (name, bytes) of the output directory of
#   exsample run --lm fixtures/arith_lm.json --constraint fixtures/arith.g
#     --methods rs,ars,rsft,cars,gcd --seeds 1..3 --oracle
GOLDEN_DIGEST = "a2052ddb7c5b34edea003d514487e9a5395aa81e98de5dfa150de12444545c33"

CHI2_ALPHA = 1e-6  # per (method, run); the benchmark runs thousands of them
TV_DELTA = 1e-6


def digest_samples(samples) -> str:
    """Digest of an accepted-sample stream, in order."""
    h = hashlib.sha256()
    for w in samples:
        h.update(",".join(map(str, w.ids)).encode())
        h.update(b"\n")
    return h.hexdigest()


def referee_failures(workload, samples) -> int:
    """Accepted samples the workload's referee rejects."""
    return sum(
        not (w.terminated and workload.is_member(workload.decode(w.ids)))
        for w in samples
    )


def exact_conditional(workload):
    lm, checker = workload.build()
    return condition(enumerate_lm(lm), checker)


def distribution_failure(counts: Counter, exact) -> str | None:
    """None if the sample counts fit the exact conditional, else why not.

    Cells with an expected count below 5 are merged into one.  The TV
    bound is E[TV] <= sum_w sqrt(p_w (1 - p_w) / n) / 2 plus a McDiarmid
    deviation term that a sampler following ``exact`` exceeds with
    probability at most TV_DELTA.
    """
    from scipy import stats  # slow to import; only the oracle workload needs it

    n = sum(counts.values())
    observed, expected = [], []
    rest_obs, rest_exp = 0, 0.0
    for w, p in exact.table.items():
        if p * n < 5.0:
            rest_obs += counts.get(w, 0)
            rest_exp += p * n
        else:
            observed.append(counts.get(w, 0))
            expected.append(p * n)
    if rest_exp > 0.0:
        observed.append(rest_obs)
        expected.append(rest_exp)
    pvalue = stats.chisquare(observed, expected).pvalue
    tv = 0.5 * sum(abs(counts.get(w, 0) / n - p) for w, p in exact.table.items())
    tv += 0.5 * sum(c for w, c in counts.items() if w not in exact.table) / n
    bound = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in exact.table.values())
    bound += math.sqrt(math.log(1.0 / TV_DELTA) / (2.0 * n))
    if pvalue < CHI2_ALPHA or tv > bound:
        return f"n={n} chi2 p={pvalue:.3g} tv={tv:.4f} (bound {bound:.4f})"
    return None


def golden_digest(root: Path) -> str:
    """Run the pinned ``exsample run`` into a scratch directory inside the
    checkout and digest what it wrote."""
    with tempfile.TemporaryDirectory(prefix=".golden-", dir=root) as out:
        exsample_main([
            "run",
            "--lm", str(root / "fixtures" / "arith_lm.json"),
            "--constraint", str(root / "fixtures" / "arith.g"),
            "--methods", "rs,ars,rsft,cars,gcd",
            "--seeds", "1..3",
            "--out", out,
            "--oracle",
        ])
        h = hashlib.sha256()
        for path in sorted(Path(out).iterdir()):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        return h.hexdigest()
