"""Experiment runner: load a model and a constraint, run the selected
methods over a seed list, and write metrics, trajectories and sample dumps
as plot-ready CSV/TSV.  Given the same config the outputs are byte-identical
across runs and platforms.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .constraints import load_constraint
from .lm import LanguageModel, RemoteLM, ngram_lm_from_doc, table_lm_from_doc
from .metrics import (
    RunMetrics,
    bootstrap_ci,
    efficiency_summary,
    empirical_kl,
    empirical_tv,
    lm_reference,
)
from .oracle import condition, constrained_mass, enumerate_lm
from .sampler import METHODS, SamplerConfig, run
from .vocab import Vocabulary


@dataclass
class ExperimentConfig:
    lm: str
    constraint: str
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    seeds: list[int] = field(default_factory=lambda: [1])
    target_valid: int = 100
    sample_cap: int = 2000
    horizon: int | None = None
    out: str = "out"
    oracle: bool = False
    dump_trie: bool = False
    vocab: str | None = None  # only needed for remote models

    def __post_init__(self) -> None:
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.target_valid > self.sample_cap:
            raise ValueError("target_valid cannot exceed the sample cap")
        if self.target_valid < 1:
            raise ValueError("target_valid must be positive")


def _load_vocab_doc(path: str) -> Vocabulary:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return Vocabulary.from_tokens(doc["tokens"], int(doc["eos"]))


def load_lm(cfg: ExperimentConfig) -> LanguageModel:
    """Build the model from the config's lm source (path or URL)."""
    src = cfg.lm
    if src.startswith(("http://", "https://")):
        if cfg.vocab is None:
            raise ValueError("a remote model needs a vocab file (--vocab)")
        if cfg.horizon is None:
            raise ValueError("a remote model needs an explicit --horizon")
        return RemoteLM(_load_vocab_doc(cfg.vocab), src, cfg.horizon)
    doc = json.loads(Path(src).read_text(encoding="utf-8"))
    if cfg.horizon is not None:
        doc["horizon"] = cfg.horizon
    if "corpus" in doc:
        return ngram_lm_from_doc(doc)
    return table_lm_from_doc(doc)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute every (method, seed) cell and write the result files."""
    lm = load_lm(cfg)
    checker = load_constraint(cfg.constraint, lm.vocab)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    oracle_cond = None
    if cfg.oracle:
        oracle_cond = condition(enumerate_lm(lm), checker)

    all_metrics: list[RunMetrics] = []
    kl_by_method: dict[str, list[float]] = {}
    for method in cfg.methods:
        for seed in cfg.seeds:
            scfg = SamplerConfig(
                method=method, seed=seed, max_len=lm.max_len, sample_cap=cfg.sample_cap
            )
            hook = None
            if cfg.dump_trie:
                hook = _trie_dump_hook(out_dir, method, seed)
            stream, metrics = run(
                lm, checker, scfg, target_valid=cfg.target_valid, trie_hook=hook
            )
            samples = list(stream)
            if samples:
                metrics.kl_proxy = empirical_kl(samples, lm_reference(samples, lm))
                if oracle_cond is not None:
                    metrics.kl_oracle = empirical_kl(samples, oracle_cond)
                    metrics.tv_oracle = empirical_tv(samples, oracle_cond)
                kl_by_method.setdefault(method, []).append(metrics.kl_proxy)
            all_metrics.append(metrics)
            _write_trajectory(out_dir, metrics)
            _write_samples(out_dir, metrics, samples, lm.vocab)

    for metrics in all_metrics:
        values = kl_by_method.get(metrics.method, [])
        if len(values) >= 2:
            metrics.bootstrap_ci = bootstrap_ci(values)

    _write_metrics_csv(out_dir / "metrics.csv", all_metrics)
    _write_efficiency(out_dir / "efficiency.csv", all_metrics, cfg.target_valid)
    return 0


def _trie_dump_hook(out_dir: Path, method: str, seed: int):
    def hook(iteration: int, trie) -> None:
        if iteration % 100 == 0:
            path = out_dir / f"trie_{method}_{seed}_iter{iteration:06d}.txt"
            path.write_text(trie.dump(), encoding="utf-8")

    return hook


def _write_metrics_csv(path: Path, all_metrics: list[RunMetrics]) -> None:
    lines = ["method,seed,generations,accepted,kl_proxy,kl_oracle,tv_oracle,ci_low,ci_high"]
    for m in all_metrics:
        lo, hi = m.bootstrap_ci if m.bootstrap_ci else (None, None)
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    m.method,
                    m.seed,
                    m.generations,
                    m.accepted,
                    m.kl_proxy,
                    m.kl_oracle,
                    m.tv_oracle,
                    lo,
                    hi,
                )
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_trajectory(out_dir: Path, m: RunMetrics) -> None:
    lines = ["iteration,p_eps,cumulative_accepts"]
    for i, (p, acc) in enumerate(zip(m.p_eps_trajectory, m.cumulative_accepts), start=1):
        lines.append(f"{i},{p!r},{acc}")
    path = out_dir / f"trajectory_{m.method}_{m.seed}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_samples(out_dir: Path, m: RunMetrics, samples, vocab: Vocabulary) -> None:
    lines = ["index\tlm_calls\tids\ttext"]
    for i, (seq, calls) in enumerate(zip(samples, m.accepted_lm_calls), start=1):
        ids = ",".join(str(t) for t in seq.ids)
        text = vocab.decode(seq).decode("utf-8", errors="replace")
        lines.append(f"{i}\t{calls}\t{ids}\t{text}")
    path = out_dir / f"samples_{m.method}_{m.seed}.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_efficiency(path: Path, all_metrics: list[RunMetrics], target: int) -> None:
    summary = efficiency_summary(all_metrics, target)
    lines = ["method,runs,timeouts,mean_generations"]
    for method, row in summary.items():
        lines.append(
            ",".join(
                _fmt(x)
                for x in (method, row["runs"], row["timeouts"], row["mean_generations"])
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_report(cfg: ExperimentConfig) -> str:
    """Exhaustive summary of the constrained distribution at desk scale."""
    lm = load_lm(cfg)
    checker = load_constraint(cfg.constraint, lm.vocab)
    dist = enumerate_lm(lm)
    mass = constrained_mass(dist, checker)
    members = [w for w in dist.table if checker.is_complete(w)]
    support = [w for w in members if dist.table[w] > 0.0]
    lines = [
        f"terminated sequences within horizon: {len(dist.table)}",
        f"constraint members within horizon:   {len(members)}",
        f"members with positive mass:          {len(support)}",
        f"constraint mass under the model:     {mass!r}",
    ]
    if mass <= 0.0:
        lines.append("L-mass = 0: the constraint is unreachable for this model")
        return "\n".join(lines) + "\n"
    top = sorted(support, key=lambda w: (-dist.table[w], w.ids))[:10]
    lines.append("top sequences of the constrained distribution:")
    for w in top:
        ids = ",".join(str(t) for t in w.ids)
        text = lm.vocab.decode(w).decode("utf-8", errors="replace")
        lines.append(f"  {dist.table[w] / mass!r}\t{ids}\t{text}")
    return "\n".join(lines) + "\n"


def _parse_seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    overrides = {
        "lm": args.lm,
        "constraint": args.constraint,
        "methods": args.methods.split(",") if args.methods else None,
        "seeds": _parse_seeds(args.seeds) if args.seeds else None,
        "target_valid": args.target_valid,
        "sample_cap": args.cap,
        "horizon": args.horizon,
        "out": args.out,
        "oracle": args.oracle,
        "dump_trie": args.dump_trie,
        "vocab": args.vocab,
    }
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    if "lm" not in doc or "constraint" not in doc:
        raise ValueError("both an lm source and a constraint are required")
    return ExperimentConfig(**doc)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--lm", help="model source: table/corpus JSON path or http(s) URL")
    p.add_argument("--constraint", help="constraint file (.g grammar or .dfa table)")
    p.add_argument("--horizon", type=int, help="override the model's horizon")
    p.add_argument("--vocab", help="vocabulary JSON (remote models only)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="exsample", description="exact constrained sampling experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run sampling methods and write metrics")
    _add_common_flags(runp)
    runp.add_argument("--methods", help="comma list out of rs,ars,rsft,cars,gcd")
    runp.add_argument("--seeds", help="comma list of ints; a..b ranges allowed")
    runp.add_argument("--target-valid", type=int, dest="target_valid")
    runp.add_argument("--cap", type=int, help="max generations per run")
    runp.add_argument("--out", help="output directory")
    runp.add_argument(
        "--oracle", action="store_const", const=True, default=None,
        help="also compute oracle-referenced KL and TV (desk scale only)",
    )
    runp.add_argument(
        "--dump-trie", action="store_const", const=True, default=None,
        dest="dump_trie", help="snapshot the trie every 100 iterations",
    )

    repp = sub.add_parser("report", help="print the oracle view of an instance")
    _add_common_flags(repp)

    args = parser.parse_args(argv)
    if args.command == "run":
        cfg = _build_config(args)
        return run_experiment(cfg)

    args.methods = args.seeds = args.target_valid = args.cap = None
    args.out = args.oracle = args.dump_trie = None
    cfg = _build_config(args)
    sys.stdout.write(oracle_report(cfg))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
