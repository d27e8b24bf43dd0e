#!/usr/bin/env python3
"""Run the bundled arithmetic experiment: all five methods, three seeds,
100 valid samples each, oracle-referenced metrics.

    python3 scripts/arith_experiment.py --out out/arith

Afterwards out/arith/metrics.csv has one row per (method, seed) and
out/arith/trajectory_*.csv hold the per-iteration remaining-mass curves.
"""

import argparse
from pathlib import Path

from exsample.cli import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/arith")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--target-valid", type=int, default=100)
    parser.add_argument("--hard", action="store_true",
                        help="use the low-acceptance variant of the model")
    args = parser.parse_args(argv)

    lm = "arith_lowmass_lm.json" if args.hard else "arith_lm.json"
    cfg = ExperimentConfig(
        lm=str(ROOT / "fixtures" / lm),
        constraint=str(ROOT / "fixtures" / "arith.g"),
        methods=["rs", "ars", "rsft", "cars", "gcd"],
        seeds=args.seeds,
        target_valid=args.target_valid,
        sample_cap=20_000,
        out=args.out,
        oracle=True,
    )
    status = run_experiment(cfg)
    print(f"wrote {args.out}/metrics.csv")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
